//! Property-based proof that the failure layer keeps its two core
//! contracts over arbitrary DAGs and arbitrary outage schedules:
//!
//! 1. **Conservation** — every admitted instance ends exactly one way:
//!    `outcomes.len() == completed() + failed`, no instance is dropped,
//!    duplicated, or double-counted, regardless of how links and nodes
//!    flap underneath the run.
//! 2. **Transparency** — an *empty* [`FailurePlan`] (retry policy
//!    attached, nothing ever down) leaves the engine byte-identical to
//!    the failure-free path: same outcomes, same timestamps, same
//!    utilizations, field for field.
//!
//! The schedules themselves are seeded, so a failing case shrinks to a
//! reproducible (dag, schedule) pair.

use std::collections::HashSet;

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use roadrunner_platform::{
    loadgen, AdmissionConfig, ArrivalProcess, ClosedLoop, Cluster, Controls, DataPlane, FailurePlan,
    KeepAlive, Load, LoadRun, OpenLoop, PlatformError, RetryPolicy, SpreadLoad, TransferTiming,
    WarmPoolConfig, WorkflowDag, WorkflowSpec,
};
use roadrunner_vkernel::{Nanos, OutageSchedule, SchedResources, VirtualClock};

/// Splitmix-style generator so schedule shapes derive deterministically
/// from the proptest-provided seed (same idiom as `memo_properties`).
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

/// A deterministic plane charging fixed phase costs. The engine hands
/// every edge its instance's nodes; a plane with one mode ignores them
/// and needs no placement table of its own.
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
    let mut schedule =
        OutageSchedule::seeded_link_flaps(seed, &ids, horizon_ns, flaps, down);
    for _ in 0..rng.below(3) {
        let id = ids[rng.below(ids.len() as u64) as usize];
        let from = rng.below(horizon_ns);
        let until = from + 500 + rng.below(horizon_ns / 8);
        schedule = schedule.node_down(id, from, until);
    }
    schedule
}

/// Conservation and uniqueness invariants every run must satisfy,
/// fallible or not.
fn assert_conserved(run: &LoadRun, admitted: usize, users: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(run.outcomes.len(), admitted, "every admitted instance ends somewhere");
    prop_assert_eq!(run.completed() + run.failed, run.outcomes.len());
    prop_assert_eq!(
        run.outcomes.iter().filter(|o| o.failed).count(),
        run.failed,
        "aggregate failed count must match the per-outcome flags"
    );
    prop_assert_eq!(
        run.outcomes.iter().map(|o| u64::from(o.retries)).sum::<u64>(),
        run.retries,
        "aggregate retry count must match the per-outcome sums"
    );
    // No instance is duplicated or invented: indices are exactly 0..n,
    // in admission order.
    for (k, outcome) in run.outcomes.iter().enumerate() {
        prop_assert_eq!(outcome.instance, k);
        prop_assert!(outcome.user < users);
        prop_assert!(outcome.finish_ns >= outcome.release_ns);
        prop_assert_eq!(outcome.sojourn_ns, outcome.finish_ns - outcome.release_ns);
    }
    Ok(())
}

/// Field-for-field equality of two runs — the byte-identity contract.
fn assert_runs_identical(a: &LoadRun, b: &LoadRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        prop_assert_eq!(x.instance, y.instance);
        prop_assert_eq!(x.user, y.user);
        prop_assert_eq!(x.release_ns, y.release_ns);
        prop_assert_eq!(x.cold_start_ns, y.cold_start_ns);
        prop_assert_eq!(x.finish_ns, y.finish_ns);
        prop_assert_eq!(x.sojourn_ns, y.sojourn_ns);
        prop_assert_eq!(&x.assignment, &y.assignment);
        prop_assert_eq!(x.failed, y.failed);
        prop_assert_eq!(x.retries, y.retries);
    }
    prop_assert_eq!(a.horizon_ns, b.horizon_ns);
    prop_assert_eq!(a.failed, b.failed);
    prop_assert_eq!(a.retries, b.retries);
    prop_assert_eq!(a.final_nodes, b.final_nodes);
    prop_assert_eq!(a.offered_rps.to_bits(), b.offered_rps.to_bits());
    prop_assert_eq!(a.cpu_utilization.to_bits(), b.cpu_utilization.to_bits());
    prop_assert_eq!(a.link_utilization.to_bits(), b.link_utilization.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary DAGs × arbitrary outage schedules, closed loop: every
    /// admitted instance either completes or fails — never vanishes,
    /// never doubles — and the whole fallible run is deterministic
    /// (replaying the same schedule reproduces it outcome for outcome).
    #[test]
    fn conservation_holds_under_arbitrary_outage_schedules(
        n in 2usize..7,
        extra in 0usize..4,
        seed in any::<u64>(),
        nodes in 2usize..5,
        users in 1usize..5,
        rounds in 1usize..5,
    ) {
        let spec = WorkflowSpec::from_dag("fault-prop", "t", forward_dag(n, extra, seed));
        let instances = users * rounds;
        // Per-edge service is ~1.5 µs; size the outage horizon to overlap
        // the run so windows actually land on traffic.
        let horizon: Nanos = 40_000 + (instances as Nanos) * 4_000;
        let schedule = arbitrary_schedule(seed, nodes, horizon);
        let plan = FailurePlan::new(RetryPolicy::new(4, 500, 6_000)).with_outages(schedule);

        let run_once = || -> LoadRun {
            let load = ClosedLoop {
                spec: spec.clone(),
                payload: Bytes::from_static(b"conserve"),
                users,
                think_ns: 2_000,
                ramp_ns: 700,
                instances,
                admission: AdmissionConfig::warm(),
            };
            run_on(&load, nodes, Controls { failures: Some(&plan), ..Controls::default() })
        };

        let run = run_once();
        assert_conserved(&run, instances, users)?;
        // A failed instance burned its whole budget on the fatal edge:
        // `max_attempts` attempts means `max_attempts - 1` re-attempts.
        for outcome in run.outcomes.iter().filter(|o| o.failed) {
            prop_assert!(outcome.retries >= plan.retry().max_attempts - 1);
        }
        // Same schedule, same run: the failure layer is deterministic.
        assert_runs_identical(&run, &run_once())?;
    }

    /// An empty failure plan is invisible: open-loop runs with
    /// `Some(&empty_plan)` and with `None` are identical field for field
    /// on arbitrary DAGs — the contract the fig12/fig13 byte-identity
    /// gates rely on.
    #[test]
    fn empty_schedule_is_byte_identical_to_the_plain_engine(
        n in 2usize..8,
        extra in 0usize..5,
        seed in any::<u64>(),
        nodes in 1usize..4,
        instances in 1usize..14,
        payload_len in 0usize..2_000,
    ) {
        let spec = WorkflowSpec::from_dag("fault-empty", "t", forward_dag(n, extra, seed));
        let payload = Bytes::from(vec![(seed & 0xFF) as u8; payload_len]);
        let empty = FailurePlan::new(RetryPolicy::default());
        prop_assert!(empty.is_empty());

        let run_with = |plan: Option<&FailurePlan>| -> LoadRun {
            let load = OpenLoop {
                spec: spec.clone(),
                payload: payload.clone(),
                arrivals: ArrivalProcess::Poisson { mean_interval_ns: 3_000, seed },
                instances,
                admission: AdmissionConfig::pooled(
                    10_000,
                    WarmPoolConfig {
                        restore_ns: None,
                        keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
                        max_idle_per_slot: usize::MAX,
                    },
                ),
            };
            run_on(&load, nodes, Controls { failures: plan, ..Controls::default() })
        };

        let plain = run_with(None);
        let faulty = run_with(Some(&empty));
        prop_assert_eq!(faulty.failed, 0, "nothing can fail under an empty plan");
        prop_assert_eq!(faulty.retries, 0);
        assert_runs_identical(&plain, &faulty)?;
        assert_conserved(&plain, instances, instances)?;
    }
}
