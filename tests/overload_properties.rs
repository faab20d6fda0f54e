//! Property-based proof that the overload-control layer keeps its
//! contracts over arbitrary DAGs, arbitrary outage schedules, and
//! arbitrary knob settings:
//!
//! 1. **Conservation** — every arrival ends exactly one way:
//!    `arrivals == completed + failed + deadline_exceeded + shed`,
//!    globally and per tenant, whatever combination of deadlines,
//!    budgets, breakers, and bounded queues is active.
//! 2. **Budget cap** — with a burst-only retry budget (no refill, no
//!    success credit) the run can never absorb more retries than the
//!    buckets it could possibly have opened.
//! 3. **Determinism** — breaker state machines and budget buckets run
//!    on virtual time only: replaying the same (dag, schedule, config)
//!    reproduces the run field for field.
//!
//! (Transparency — the all-off [`OverloadConfig`] changing nothing — has
//! no second engine to compare against any more; the committed
//! fig12/fig13 references pin it.)
//!
//! Same seeded-generator idiom as `failure_properties`: a failing case
//! shrinks to a reproducible (dag, schedule, config) triple.

use std::collections::HashSet;

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use roadrunner_platform::{
    loadgen, AdmissionConfig, ArrivalProcess, BreakerConfig, ClosedLoop, Cluster, Controls,
    DataPlane, FailurePlan, Load, LoadRun, MultiLoad, OpenLoop, OverloadConfig, PlatformError,
    QueueConfig, RetryBudgetConfig, RetryPolicy, ShedPolicy, SpreadLoad, TenantLoad,
    TransferTiming, WorkflowDag, WorkflowSpec, RETRY_COST_MILLITOKENS,
};
use roadrunner_vkernel::{Nanos, OutageSchedule, SchedResources, VirtualClock};

/// Splitmix-style generator so schedule and config shapes derive
/// deterministically from the proptest-provided seed (same idiom as
/// `failure_properties`).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Builds a random *forward* DAG of `n` nodes (connected and acyclic by
/// construction), plus up to `extra` additional forward edges.
fn forward_dag(n: usize, extra: usize, seed: u64) -> WorkflowDag {
    let mut rng = Mix(seed);
    let mut dag = WorkflowDag::new();
    let name = |i: usize| format!("f{i}");
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    for j in 1..n {
        let i = rng.below(j as u64) as usize;
        dag.add_edge(name(i), name(j));
        present.insert((i, j));
    }
    for _ in 0..extra {
        let j = 1 + rng.below((n - 1) as u64) as usize;
        let i = rng.below(j as u64) as usize;
        if present.insert((i, j)) {
            dag.add_edge(name(i), name(j));
        }
    }
    dag
}

/// A deterministic plane charging fixed phase costs (the engine hands
/// every edge its instance's nodes; a plane with one mode ignores them
/// and needs no placement table).
struct FixedPlane {
    clock: VirtualClock,
}

impl DataPlane for FixedPlane {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        p: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let timing = TransferTiming {
            prepare_ns: 200,
            transfer_ns: 1_000 + p.len() as u64,
            consume_ns: 300,
        };
        self.clock.advance(timing.total_ns());
        Ok((p, Some(timing)))
    }
}

/// Runs `load` over a fresh [`FixedPlane`] on `nodes` two-core nodes
/// under spread placement.
fn run_on<'a>(load: impl Into<Load<'a>>, nodes: usize, controls: Controls<'a>) -> LoadRun {
    let clock = VirtualClock::new();
    let cluster = Cluster {
        plane: &mut FixedPlane { clock: clock.clone() },
        clock: &clock,
        resources: &mut SchedResources::new(nodes, 2),
        policy: &mut SpreadLoad::new(),
    };
    loadgen::run(load.into(), cluster, controls).unwrap()
}

/// A pseudo-random but deterministic outage schedule over `nodes` stable
/// ids: seeded link flaps plus up to two transient node down-windows.
fn arbitrary_schedule(seed: u64, nodes: usize, horizon_ns: Nanos) -> OutageSchedule {
    let ids: Vec<u64> = (0..nodes as u64).collect();
    let mut rng = Mix(seed ^ 0xDEAD_BEEF);
    let flaps = (rng.below(9)) as usize;
    let down = 500 + rng.below(horizon_ns / 8);
    let mut schedule = OutageSchedule::seeded_link_flaps(seed, &ids, horizon_ns, flaps, down);
    for _ in 0..rng.below(3) {
        let id = ids[rng.below(ids.len() as u64) as usize];
        let from = rng.below(horizon_ns);
        let until = from + 500 + rng.below(horizon_ns / 8);
        schedule = schedule.node_down(id, from, until);
    }
    schedule
}

/// A pseudo-random overload configuration: each knob independently on
/// or off, parameters drawn over ranges wide enough to hit the
/// degenerate corners (zero-capacity queues, zero-retry budgets,
/// hair-trigger breakers, deadlines shorter than one edge).
fn arbitrary_overload(seed: u64) -> OverloadConfig {
    let mut rng = Mix(seed ^ 0x0DDB_A110);
    let deadline_ns = rng.chance(2).then(|| 1_000 + rng.below(60_000));
    let retry_budget = rng.chance(2).then(|| RetryBudgetConfig {
        refill_millitokens_per_s: rng.below(3) * 400_000,
        burst_millitokens: rng.below(6) * RETRY_COST_MILLITOKENS,
        per_success_millitokens: rng.below(500),
    });
    let breaker = rng.chance(2).then(|| BreakerConfig {
        window_ns: 1_000 + rng.below(20_000),
        failure_rate: (1, 1 + rng.below(3) as u32),
        min_samples: 1 + rng.below(6) as u32,
        open_ns: 1_000 + rng.below(20_000),
        half_open_probes: 1 + rng.below(3) as u32,
        placement_penalty_ns: 1 << (16 + rng.below(16)),
    });
    let queue = rng.chance(2).then(|| QueueConfig {
        max_in_flight: 1 + rng.below(6) as usize,
        queue_cap: rng.below(8) as usize,
        policy: match rng.below(3) {
            0 => ShedPolicy::RejectNewest,
            1 => ShedPolicy::RejectOldest,
            _ => ShedPolicy::CoDel { target_ns: 500 + rng.below(10_000) },
        },
    });
    OverloadConfig { deadline_ns, retry_budget, breaker, queue }
}

/// Conservation and uniqueness invariants every overloaded run must
/// satisfy: nothing vanishes, nothing doubles, the per-outcome flags
/// and the per-tenant rollups agree with the aggregates.
fn assert_overload_conserved(run: &LoadRun, arrivals: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(run.arrivals, arrivals, "every arrival is counted");
    prop_assert_eq!(
        run.outcomes.len() + run.shed,
        run.arrivals,
        "an arrival is either admitted or shed"
    );
    prop_assert_eq!(
        run.completed() + run.failed + run.deadline_exceeded,
        run.outcomes.len(),
        "an admitted instance completes, fails, or blows its deadline"
    );
    prop_assert_eq!(run.outcomes.iter().filter(|o| o.failed).count(), run.failed);
    prop_assert_eq!(
        run.outcomes.iter().filter(|o| o.deadline_exceeded).count(),
        run.deadline_exceeded
    );
    prop_assert_eq!(
        run.outcomes.iter().map(|o| u64::from(o.retries)).sum::<u64>(),
        run.retries,
        "aggregate retry count must match the per-outcome sums"
    );
    for (k, outcome) in run.outcomes.iter().enumerate() {
        prop_assert_eq!(outcome.instance, k);
        prop_assert!(outcome.tenant < run.tenants.len());
        prop_assert!(
            !(outcome.failed && outcome.deadline_exceeded),
            "failed and deadline_exceeded are mutually exclusive"
        );
        prop_assert!(outcome.finish_ns >= outcome.release_ns);
        prop_assert_eq!(outcome.sojourn_ns, outcome.finish_ns - outcome.release_ns);
    }
    // The per-tenant rollups partition the aggregates exactly.
    let sum = |f: fn(&roadrunner_platform::TenantStats) -> usize| -> usize {
        run.tenants.iter().map(f).sum()
    };
    prop_assert_eq!(sum(|t| t.arrivals), run.arrivals);
    prop_assert_eq!(sum(|t| t.completed), run.completed());
    prop_assert_eq!(sum(|t| t.failed), run.failed);
    prop_assert_eq!(sum(|t| t.deadline_exceeded), run.deadline_exceeded);
    prop_assert_eq!(sum(|t| t.shed), run.shed);
    for stats in &run.tenants {
        prop_assert_eq!(
            stats.completed + stats.failed + stats.deadline_exceeded + stats.shed,
            stats.arrivals,
            "per-tenant conservation"
        );
    }
    Ok(())
}

/// Field-for-field equality of two runs — the byte-identity contract,
/// extended over the overload fields (tenant lane, deadline flag, shed
/// and deadline aggregates, per-tenant rollups).
fn assert_runs_identical(a: &LoadRun, b: &LoadRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        prop_assert_eq!(x.instance, y.instance);
        prop_assert_eq!(x.user, y.user);
        prop_assert_eq!(x.tenant, y.tenant);
        prop_assert_eq!(x.release_ns, y.release_ns);
        prop_assert_eq!(x.cold_start_ns, y.cold_start_ns);
        prop_assert_eq!(x.finish_ns, y.finish_ns);
        prop_assert_eq!(x.sojourn_ns, y.sojourn_ns);
        prop_assert_eq!(&x.assignment, &y.assignment);
        prop_assert_eq!(x.failed, y.failed);
        prop_assert_eq!(x.deadline_exceeded, y.deadline_exceeded);
        prop_assert_eq!(x.retries, y.retries);
    }
    prop_assert_eq!(a.horizon_ns, b.horizon_ns);
    prop_assert_eq!(a.arrivals, b.arrivals);
    prop_assert_eq!(a.shed, b.shed);
    prop_assert_eq!(a.failed, b.failed);
    prop_assert_eq!(a.deadline_exceeded, b.deadline_exceeded);
    prop_assert_eq!(a.retries, b.retries);
    prop_assert_eq!(a.final_nodes, b.final_nodes);
    prop_assert_eq!(a.offered_rps.to_bits(), b.offered_rps.to_bits());
    prop_assert_eq!(a.cpu_utilization.to_bits(), b.cpu_utilization.to_bits());
    prop_assert_eq!(a.link_utilization.to_bits(), b.link_utilization.to_bits());
    prop_assert_eq!(a.tenants.len(), b.tenants.len());
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        prop_assert_eq!(&x.name, &y.name);
        prop_assert_eq!(x.arrivals, y.arrivals);
        prop_assert_eq!(x.completed, y.completed);
        prop_assert_eq!(x.failed, y.failed);
        prop_assert_eq!(x.deadline_exceeded, y.deadline_exceeded);
        prop_assert_eq!(x.shed, y.shed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary multi-tenant workloads × arbitrary outage schedules ×
    /// arbitrary overload configs: every arrival is conserved across
    /// completed / failed / deadline_exceeded / shed, globally and per
    /// tenant, and the whole run is deterministic — replaying the same
    /// triple reproduces it field for field (which covers breaker and
    /// budget determinism: both live on virtual time alone).
    #[test]
    fn conservation_holds_under_arbitrary_overload_configs(
        n in 2usize..6,
        extra in 0usize..4,
        seed in any::<u64>(),
        nodes in 2usize..5,
        tenants in 1usize..4,
        per_tenant in 1usize..8,
    ) {
        let overload = arbitrary_overload(seed);
        let horizon: Nanos = 40_000 + (tenants * per_tenant) as Nanos * 4_000;
        let schedule = arbitrary_schedule(seed, nodes, horizon);
        let plan = FailurePlan::new(RetryPolicy::new(4, 500, 6_000)).with_outages(schedule);
        let mut rng = Mix(seed ^ 0x007E_4A47);
        let loads: Vec<TenantLoad> = (0..tenants)
            .map(|t| {
                let spec = WorkflowSpec::from_dag(
                    format!("ov-{t}"),
                    format!("tenant-{t}"),
                    forward_dag(n, extra, seed.wrapping_add(t as u64)),
                );
                let mut at: Nanos = rng.below(3_000);
                let releases = (0..per_tenant)
                    .map(|_| {
                        at += 200 + rng.below(5_000);
                        at
                    })
                    .collect();
                TenantLoad {
                    name: format!("tenant-{t}"),
                    spec,
                    payload: Bytes::from_static(b"conserve"),
                    releases,
                    weight: 1 + rng.below(4),
                }
            })
            .collect();
        let arrivals = tenants * per_tenant;

        let run_once = || -> LoadRun {
            let load = MultiLoad { tenants: loads.clone(), admission: AdmissionConfig::warm() };
            run_on(&load, nodes, Controls { failures: Some(&plan), overload, ..Controls::default() })
        };

        let run = run_once();
        assert_overload_conserved(&run, arrivals)?;
        prop_assert_eq!(run.tenants.len(), tenants);
        if overload.queue.is_none() {
            prop_assert_eq!(run.shed, 0, "nothing sheds without a bounded queue");
        }
        if overload.deadline_ns.is_none() {
            prop_assert_eq!(run.deadline_exceeded, 0, "no deadline, no deadline aborts");
        }
        // Same triple, same run: breakers, budgets, and the weighted
        // queue are all deterministic in virtual time.
        assert_runs_identical(&run, &run_once())?;
    }

    /// A burst-only retry budget (no time refill, no success credit) is
    /// a hard cap: the run can never absorb more retries than the
    /// buckets it could possibly have opened — one per
    /// (tenant, function, node) triple, `burst` retries each.
    #[test]
    fn a_burst_only_retry_budget_is_never_exceeded(
        n in 2usize..6,
        extra in 0usize..4,
        seed in any::<u64>(),
        nodes in 2usize..4,
        instances in 2usize..10,
        burst_retries in 0u64..4,
    ) {
        let spec = WorkflowSpec::from_dag("ov-budget", "t", forward_dag(n, extra, seed));
        let horizon: Nanos = 40_000 + (instances as Nanos) * 4_000;
        let schedule = arbitrary_schedule(seed, nodes, horizon);
        let plan = FailurePlan::new(RetryPolicy::new(6, 500, 6_000)).with_outages(schedule);
        let overload = OverloadConfig {
            retry_budget: Some(RetryBudgetConfig {
                refill_millitokens_per_s: 0,
                burst_millitokens: burst_retries * RETRY_COST_MILLITOKENS,
                per_success_millitokens: 0,
            }),
            ..OverloadConfig::default()
        };

        let load = OpenLoop {
            spec,
            payload: Bytes::from_static(b"budget"),
            arrivals: ArrivalProcess::Uniform { interval_ns: 2_500 },
            instances,
            admission: AdmissionConfig::warm(),
        };
        let controls = Controls { failures: Some(&plan), overload, ..Controls::default() };
        let run = run_on(&load, nodes, controls);

        assert_overload_conserved(&run, instances)?;
        // One bucket per (tenant=1, function, node) triple, each opened
        // at `burst_retries` tokens and never refilled.
        let cap = (n * nodes) as u64 * burst_retries;
        prop_assert!(
            run.retries <= cap,
            "retries {} exceed the {} the budget could ever supply",
            run.retries,
            cap
        );
        if burst_retries == 0 {
            prop_assert_eq!(run.retries, 0, "a zero budget means fail-fast, no retries at all");
        }
    }

    /// Circuit breakers alone (hair-trigger to lazy, random windows and
    /// probe counts) keep the run deterministic under a closed loop —
    /// the state machine advances on virtual time and recorded
    /// outcomes, never on host state or map order.
    #[test]
    fn breaker_decisions_replay_identically(
        n in 2usize..6,
        extra in 0usize..4,
        seed in any::<u64>(),
        nodes in 2usize..5,
        users in 1usize..5,
        rounds in 1usize..4,
    ) {
        let spec = WorkflowSpec::from_dag("ov-breaker", "t", forward_dag(n, extra, seed));
        let instances = users * rounds;
        let horizon: Nanos = 40_000 + (instances as Nanos) * 4_000;
        let schedule = arbitrary_schedule(seed, nodes, horizon);
        let plan = FailurePlan::new(RetryPolicy::new(4, 500, 6_000)).with_outages(schedule);
        let mut rng = Mix(seed ^ 0x0B4E_ACE4);
        let overload = OverloadConfig {
            breaker: Some(BreakerConfig {
                window_ns: 1_000 + rng.below(20_000),
                failure_rate: (1, 1 + rng.below(3) as u32),
                min_samples: 1 + rng.below(4) as u32,
                open_ns: 1_000 + rng.below(20_000),
                half_open_probes: 1 + rng.below(3) as u32,
                placement_penalty_ns: 1 << (16 + rng.below(16)),
            }),
            ..OverloadConfig::default()
        };

        let run_once = || -> LoadRun {
            let load = ClosedLoop {
                spec: spec.clone(),
                payload: Bytes::from_static(b"breaker"),
                users,
                think_ns: 2_000,
                ramp_ns: 700,
                instances,
                admission: AdmissionConfig::warm(),
            };
            run_on(&load, nodes, Controls { failures: Some(&plan), overload, ..Controls::default() })
        };

        let run = run_once();
        assert_overload_conserved(&run, instances)?;
        assert_runs_identical(&run, &run_once())?;
        assert_runs_identical(&run, &run_once())?;
    }
}
