//! Engine-level tests: every load shape and control layer through
//! [`run`], on a plane with fixed phase costs.

use roadrunner_vkernel::sched::ResourceView;
use roadrunner_vkernel::OutageSchedule;

use super::*;
use crate::metrics::percentiles;
use crate::overload::{QueueConfig, ShedPolicy};
use crate::scheduler::{LocalityFirst, Pinned, SpreadLoad};
use crate::warmpool::{KeepAlive, WarmPoolConfig};
use crate::workflow::{execute_concurrent_at, RetryPolicy, TransferTiming};

/// A plane charging fixed phase costs, payload-independent, so
/// schedules are easy to reason about.
struct FixedPlane;

impl DataPlane for FixedPlane {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        p: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, TransferTiming), PlatformError> {
        Ok((p, TransferTiming { prepare_ns: 200, transfer_ns: 1_000, consume_ns: 300 }))
    }
}

fn pipeline_spec() -> WorkflowSpec {
    WorkflowSpec::sequence("pipe", "t", ["a".to_owned(), "b".to_owned()])
}

/// A warm open loop: one tenant, named after `spec`'s, releasing
/// `instances` instances `interval_ns` apart.
fn open(spec: WorkflowSpec, interval_ns: Nanos, instances: usize) -> MultiLoad {
    let arrivals = ArrivalProcess::Uniform { interval_ns };
    let tenant =
        TenantLoad::from_process(spec.tenant.clone(), spec, Bytes::new(), &arrivals, instances);
    MultiLoad { tenants: vec![tenant], admission: AdmissionConfig::warm() }
}

/// A tenant running the two-function pipeline under its own name.
fn tenant(name: &str, releases: Vec<Nanos>, weight: u64) -> TenantLoad {
    let spec = WorkflowSpec::sequence("pipe", name, ["a".to_owned(), "b".to_owned()]);
    TenantLoad { name: name.to_owned(), spec, payload: Bytes::new(), releases, weight }
}

/// One weight-1 tenant of a hand-built [`Load`], named after `spec`'s,
/// with an empty payload.
fn work<'a>(spec: &'a WorkflowSpec, arrivals: Arrivals<'a>) -> TenantWork<'a> {
    static EMPTY: Bytes = Bytes::new();
    TenantWork { name: &spec.tenant, spec, payload: &EMPTY, weight: 1, arrivals }
}

/// A warm closed loop over the two-function pipeline, unramped.
fn closed(users: usize, think_ns: Nanos, instances: usize) -> ClosedLoop {
    ClosedLoop {
        spec: pipeline_spec(),
        payload: Bytes::new(),
        users,
        think_ns,
        ramp_ns: 0,
        instances,
        admission: AdmissionConfig::warm(),
    }
}

/// Runs `load` over a [`FixedPlane`] on `res`.
fn run_fixed<'a>(
    load: impl Into<Load<'a>>,
    res: &mut SchedResources,
    policy: &mut dyn PlacementPolicy,
    controls: Controls<'a>,
) -> Result<LoadRun, PlatformError> {
    run(load.into(), Cluster { plane: &mut FixedPlane, resources: res, policy }, controls)
}

fn scaled(scaler: &mut Autoscaler) -> Controls<'_> {
    Controls { autoscaler: Some(scaler), ..Controls::default() }
}

fn failing(plan: &FailurePlan) -> Controls<'_> {
    Controls { failures: Some(plan), ..Controls::default() }
}

fn overloaded(overload: OverloadConfig) -> Controls<'static> {
    Controls { overload, ..Controls::default() }
}

/// A policy dealing `len` nodes per instance, rotated by the instance's
/// ordinal — every function of every instance somewhere else.
struct Rotating {
    len: usize,
    next: usize,
}

impl PlacementPolicy for Rotating {
    fn name(&self) -> &'static str {
        "rotating"
    }

    fn place(&mut self, _: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        self.next += 1;
        (0..self.len).map(|i| (self.next + i) % view.node_count()).collect()
    }
}

/// Pooled admission whose idle instances never expire and never
/// overflow their slot: each instance built stays warm for the run.
fn keep_forever(cold_ns: Nanos) -> AdmissionConfig {
    AdmissionConfig::pooled(
        cold_ns,
        WarmPoolConfig {
            restore_ns: None,
            keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
            max_idle_per_slot: usize::MAX,
        },
    )
}

#[test]
fn the_plane_sees_every_edge_under_the_policys_assignment() {
    /// Records what the engine asks of `transfer_placed`.
    struct Recording {
        inner: FixedPlane,
        seen: Vec<(String, String, Option<usize>, Option<usize>)>,
    }
    impl DataPlane for Recording {
        fn transfer_placed(
            &mut self,
            from: &str,
            to: &str,
            p: Bytes,
            src: Option<usize>,
            dst: Option<usize>,
        ) -> Result<(Bytes, TransferTiming), PlatformError> {
            self.seen.push((from.to_owned(), to.to_owned(), src, dst));
            self.inner.transfer_placed(from, to, p, src, dst)
        }
        // The deployment says node 7 for everything; the instance's
        // assignment must win.
        fn placement(&self, _: &str) -> Option<usize> {
            Some(7)
        }
    }
    // DAG node order is first appearance: s1, sink, s2 — not the order
    // the edges run in, and not alphabetical.
    let spec = WorkflowSpec::fan_in("wf", "t", ["s1".to_owned(), "s2".to_owned()], "sink");
    assert_eq!(spec.functions(), ["s1", "sink", "s2"]);
    let load = open(spec, 10_000, 5);
    let mut plane = Recording { inner: FixedPlane, seen: Vec::new() };
    let cluster = Cluster {
        plane: &mut plane,
        resources: &mut SchedResources::new(4, 4),
        policy: &mut Rotating { len: 3, next: 0 },
    };
    let run = run(&load, cluster, Controls::default()).unwrap();
    let expected: Vec<_> = run
        .outcomes
        .iter()
        .flat_map(|o| {
            let a = &o.assignment;
            [
                ("s1".to_owned(), "sink".to_owned(), Some(a[0]), Some(a[1])),
                ("s2".to_owned(), "sink".to_owned(), Some(a[2]), Some(a[1])),
            ]
        })
        .collect();
    assert_eq!(run.outcomes.len(), 5);
    assert_eq!(run.outcomes[0].assignment, [1, 2, 3]);
    assert_eq!(plane.seen, expected);
    // Cross-node edges went over links: the engine scheduled by the
    // same assignment it showed the plane.
    assert!(run.link_utilization > 0.0);
}

#[test]
fn a_policy_placing_the_wrong_number_of_functions_is_an_error_not_a_panic() {
    for len in [0, 1, 3] {
        let load = open(pipeline_spec(), 1_000, 2);
        let mut res = SchedResources::new(2, 4);
        let result = run_fixed(&load, &mut res, &mut Rotating { len, next: 0 }, Controls::default());
        match result {
            Err(PlatformError::InvalidLoad(why)) => {
                assert!(why.contains("rotating") && why.contains("pipe"), "{why}");
            }
            other => panic!("{len} nodes for 2 functions: {other:?}"),
        }
        // Refused before anything was charged or reserved.
        assert_eq!(res.busy_until(), 0);
    }
}

#[test]
fn contention_never_speeds_an_instance_up() {
    let clock = VirtualClock::new();
    let spec = pipeline_spec();

    // Uncontended makespan of one instance, both functions on node 0
    // (where locality placement packs them).
    let mut fresh = SchedResources::mesh(&[1, 1]);
    let solo = execute_concurrent_at(&mut FixedPlane, &clock, &spec, Bytes::new(), &mut fresh, 0)
        .unwrap()
        .total_latency_ns;
    assert_eq!(solo, 1_500);

    // Heavy load: arrivals far faster than the 1-core nodes drain.
    let load = open(spec.clone(), 100, 12);
    let mut shared = SchedResources::mesh(&[1, 1]);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut shared, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 12);
    for outcome in &run.outcomes {
        assert!(
            outcome.sojourn_ns >= solo,
            "instance {} finished in {} < uncontended {}",
            outcome.instance,
            outcome.sojourn_ns,
            solo
        );
    }
    // Queueing builds: the last instance waits longer than the first.
    assert!(run.outcomes[11].sojourn_ns > run.outcomes[0].sojourn_ns);
    // Overload: achieved throughput falls short of the offered one
    // instance per 100 ns.
    assert!(run.throughput_rps() < 1e9 / 100.0);
}

#[test]
fn light_load_leaves_instances_at_their_solo_makespan() {
    let load = open(pipeline_spec(), 1_000_000, 5);
    let mut shared = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut shared, &mut policy, Controls::default()).unwrap();
    // Arrivals 1 ms apart, service 1.5 µs: nothing ever queues.
    assert!(run.outcomes.iter().all(|o| o.sojourn_ns == 1_500));
    let p = run.sojourn_percentiles().unwrap();
    assert_eq!((p.p50_ns, p.p95_ns, p.p99_ns), (1_500, 1_500, 1_500));
    assert_eq!(run.max_sojourn_ns(), Some(1_500));
}

#[test]
fn spread_policy_pays_the_link_locality_avoids() {
    let load = open(pipeline_spec(), 10_000, 4);

    let mut res = SchedResources::new(2, 4);
    let mut locality = LocalityFirst::new();
    let packed = run_fixed(&load, &mut res, &mut locality, Controls::default()).unwrap();
    assert!((packed.link_utilization - 0.0).abs() < f64::EPSILON);
    assert!(packed.cpu_utilization > 0.0);

    let mut res = SchedResources::new(2, 4);
    let mut spread = SpreadLoad::new();
    let crossed = run_fixed(&load, &mut res, &mut spread, Controls::default()).unwrap();
    assert!(crossed.link_utilization > 0.0);
    // Every instance's a→b crosses nodes under spread.
    assert!(crossed.outcomes.iter().all(|o| o.assignment[0] != o.assignment[1]));
}

#[test]
fn transfer_errors_propagate_out_of_the_loop() {
    struct Failing;
    impl DataPlane for Failing {
        fn transfer_placed(
            &mut self,
            _: &str,
            _: &str,
            _: Bytes,
            _: Option<usize>,
            _: Option<usize>,
        ) -> Result<(Bytes, TransferTiming), PlatformError> {
            Err(PlatformError::Transfer("down".into()))
        }
    }
    let load = open(pipeline_spec(), 1, 2);
    let cluster = Cluster {
        plane: &mut Failing,
        resources: &mut SchedResources::new(2, 4),
        policy: &mut LocalityFirst::new(),
    };
    assert!(matches!(
        run(&load, cluster, Controls::default()),
        Err(PlatformError::Transfer(_))
    ));
}

#[test]
fn empty_run_reports_zeroes_not_nan() {
    let load = open(pipeline_spec(), 1_000, 0);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert!(run.outcomes.is_empty());
    assert_eq!(run.horizon_ns, 0);
    assert_eq!(run.throughput_rps(), 0.0);
    assert_eq!(run.max_sojourn_ns(), None);
    assert!(run.sojourn_percentiles().is_none());
    assert_eq!(run.cpu_utilization, 0.0);
    assert_eq!(run.link_utilization, 0.0);
}

#[test]
fn single_instance_run_is_consistent() {
    let load = open(pipeline_spec(), 1_000, 1);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 1);
    assert_eq!(run.horizon_ns, 1_500);
    assert!(run.throughput_rps().is_finite());
    assert!(run.throughput_rps() > 0.0);
    assert_eq!(run.max_sojourn_ns(), Some(1_500));
    let p = run.sojourn_percentiles().unwrap();
    assert_eq!((p.count, p.p50_ns, p.p99_ns), (1, 1_500, 1_500));
}

#[test]
fn closed_loop_gates_arrivals_on_completions() {
    let load = closed(2, 400, 8);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 8);
    // Per user: arrival k is exactly completion k-1 plus think time.
    for user in 0..2 {
        let mine: Vec<&InstanceOutcome> =
            run.outcomes.iter().filter(|o| o.user == user).collect();
        assert_eq!(mine.len(), 4);
        for pair in mine.windows(2) {
            assert_eq!(pair[1].release_ns, pair[0].finish_ns + 400);
        }
    }
}

#[test]
fn closed_loop_concurrency_never_exceeds_users() {
    let load = closed(3, 0, 12);
    let mut res = SchedResources::new(1, 1);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 12);
    // At any instance's release, at most `users` instances overlap.
    for o in &run.outcomes {
        let in_flight = run
            .outcomes
            .iter()
            .filter(|p| p.release_ns <= o.release_ns && p.finish_ns > o.release_ns)
            .count();
        assert!(in_flight <= 3, "{in_flight} instances in flight at {}", o.release_ns);
    }
}

#[test]
fn closed_loop_with_fewer_instances_than_users() {
    let load = closed(8, 100, 3);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 3);
}

#[test]
fn cold_start_charged_once_per_function_and_node() {
    let mut load = open(pipeline_spec(), 1_000_000, 3);
    load.admission = keep_forever(50_000);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    // First instance pays both functions' cold starts; later
    // instances land warm (locality keeps them on the same node —
    // arrivals are 1 ms apart so the node has drained each time).
    assert_eq!(run.outcomes[0].cold_start_ns, 50_000);
    assert_eq!(run.outcomes[0].sojourn_ns, 50_000 + 1_500);
    assert_eq!(run.outcomes[1].cold_start_ns, 0);
    assert_eq!(run.outcomes[1].sojourn_ns, 1_500);
    assert_eq!(run.cold_starts(), 1);
    assert_eq!(run.cold_start_total_ns(), 50_000);
}

#[test]
fn cold_start_repaid_on_every_new_node() {
    let mut load = closed(1, 0, 4);
    load.admission = keep_forever(10_000);
    let mut res = SchedResources::new(4, 4);
    let mut policy = Rotating { len: 2, next: 0 };
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    // Each instance moves every function to a node it never ran on:
    // each pays.
    assert_eq!(run.cold_starts(), 4);
    assert!(run.outcomes.iter().all(|o| o.cold_start_ns == 10_000));
}

#[test]
fn a_single_node_run_reports_zero_link_utilization_not_nan() {
    // One node has no links: every edge is co-located, and the link
    // utilization's zero lanes read as 0, not 0 / 0.
    let mut res = SchedResources::new(1, 2);
    assert_eq!(res.link_lanes(), 0);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&open(pipeline_spec(), 1_000, 5), &mut res, &mut policy, Controls::default())
        .unwrap();
    assert_eq!(run.completed(), 5);
    assert!(run.cpu_utilization > 0.0);
    assert_eq!(run.link_utilization, 0.0);
}

#[test]
fn autoscaler_grows_under_pressure_and_shrinks_when_idle() {
    // 40 instances arriving every 500 ns onto a single 1-core node
    // (service 1500 ns): heavy overload.
    let load = open(pipeline_spec(), 500, 40);
    let mut res = SchedResources::mesh(&[1]);
    let mut policy = LocalityFirst::new();
    let mut scaler = Autoscaler::new(AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 4,
        node_cores: 1,
        scale_up_backlog_ns: 3_000,
        scale_down_backlog_ns: 500,
        window_ns: 2_000,
    });
    let run = run_fixed(&load, &mut res, &mut policy, scaled(&mut scaler)).unwrap();
    assert!(
        run.scale_events.iter().any(|e| e.action == ScaleAction::Up),
        "overload must trigger scale-up: {:?}",
        run.scale_events
    );
    assert!(run.final_nodes > 1);
    // And the elastic run beats the fixed-capacity run's tail.
    let load2 = open(pipeline_spec(), 500, 40);
    let mut fixed = SchedResources::mesh(&[1]);
    let mut policy2 = LocalityFirst::new();
    let fixed_run = run_fixed(&load2, &mut fixed, &mut policy2, Controls::default()).unwrap();
    let p_el = run.sojourn_percentiles().unwrap();
    let p_fx = fixed_run.sojourn_percentiles().unwrap();
    assert!(
        p_el.p95_ns < p_fx.p95_ns,
        "elastic p95 {} must beat fixed p95 {}",
        p_el.p95_ns,
        p_fx.p95_ns
    );
}

#[test]
fn cold_start_repaid_when_a_scaled_in_node_returns() {
    // Two users burst at t=0 onto two 1-core nodes (both pay cold
    // starts), the cluster drains and the controller scales in to
    // one node, then the next burst scales back out — the re-added
    // node is a brand-new machine and must charge its cold starts
    // again, not inherit the removed node's idle instances — even the
    // ones an instance completing at the scale-in instant hands back.
    let mut load = closed(2, 6_000, 4);
    load.admission = keep_forever(1_000);
    let mut res = SchedResources::mesh(&[1, 1]);
    let mut policy = LocalityFirst::new();
    let mut scaler = Autoscaler::new(AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 2,
        node_cores: 1,
        scale_up_backlog_ns: 600,
        scale_down_backlog_ns: 500,
        window_ns: 1_000,
    });
    let run = run_fixed(&load, &mut res, &mut policy, scaled(&mut scaler)).unwrap();
    // Drain → scale-in, burst → scale-out (a final drain-time
    // scale-in may trail at the last completion).
    let actions: Vec<ScaleAction> = run.scale_events.iter().map(|e| e.action).collect();
    assert!(
        actions.starts_with(&[ScaleAction::Down, ScaleAction::Up]),
        "expected drain → scale-in → burst → scale-out: {:?}",
        run.scale_events
    );
    // Burst 1: both instances cold (one per node).
    assert_eq!(run.outcomes[0].cold_start_ns, 2_000);
    assert_eq!(run.outcomes[1].cold_start_ns, 2_000);
    // Burst 2: the packed node is warm, the re-added node is not.
    assert_eq!(run.outcomes[2].cold_start_ns, 0);
    assert_eq!(
        run.outcomes[3].cold_start_ns, 2_000,
        "a re-added node is a fresh machine and must re-pay cold starts"
    );
}

/// A keep-forever pool caps every slot at `usize::MAX`, so pre-warming's
/// room left across two nodes must saturate instead of overflowing.
#[test]
fn prewarming_a_keep_forever_pool_on_two_nodes_is_conserved() {
    let mut load = closed(4, 0, 16);
    load.admission = keep_forever(1_000);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let mut scaler = Autoscaler::new(AutoscalerConfig {
        min_nodes: 2,
        max_nodes: 2,
        node_cores: 4,
        scale_up_backlog_ns: Nanos::MAX,
        scale_down_backlog_ns: 0,
        window_ns: 1_000,
    })
    .with_prewarm(PrewarmConfig { headroom: 2.0, lead_ns: 1_500, window_ns: 1_500 });
    let run = run_fixed(&load, &mut res, &mut policy, scaled(&mut scaler)).unwrap();
    assert_eq!(run.completed(), 16);
    assert_eq!(run.arrivals, run.completed() + run.failed + run.deadline_exceeded + run.shed);
    let pool = run.pool.expect("pooled run");
    assert!(pool.prewarms > 0, "the prewarm path ran");
    assert_eq!(pool.hits + pool.misses, 2 * 16, "every function admission is a hit or a miss");
    assert_eq!(pool.returns + pool.prewarms, pool.hits + pool.evictions + pool.warm_at_end);
}

#[test]
fn open_loop_outcomes_match_user_indices() {
    let load = open(pipeline_spec(), 2_000, 4);
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    for (i, o) in run.outcomes.iter().enumerate() {
        assert_eq!(o.instance, i);
        assert_eq!(o.user, i);
        assert_eq!(o.cold_start_ns, 0);
    }
    assert!(run.scale_events.is_empty());
    assert_eq!(run.final_nodes, 2);
}

#[test]
fn an_empty_failure_plan_is_byte_identical_to_a_failure_free_run() {
    let baseline = {
        let mut res = SchedResources::new(2, 4);
        let mut policy = SpreadLoad::new();
        let load = open(pipeline_spec(), 700, 9);
        run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap()
    };
    let faulty = {
        let mut res = SchedResources::new(2, 4);
        let mut policy = SpreadLoad::new();
        let plan = FailurePlan::new(RetryPolicy::default());
        assert!(plan.is_empty());
        run_fixed(&open(pipeline_spec(), 700, 9), &mut res, &mut policy, failing(&plan))
            .unwrap()
    };
    assert_eq!(baseline.outcomes.len(), faulty.outcomes.len());
    for (a, b) in baseline.outcomes.iter().zip(&faulty.outcomes) {
        assert_eq!(
            (a.release_ns, a.finish_ns, a.sojourn_ns, &a.assignment),
            (b.release_ns, b.finish_ns, b.sojourn_ns, &b.assignment),
        );
        assert!(!b.failed);
        assert_eq!(b.retries, 0);
    }
    assert_eq!(baseline.cpu_utilization, faulty.cpu_utilization);
    assert_eq!(baseline.link_utilization, faulty.link_utilization);
    assert_eq!((faulty.failed, faulty.retries), (0, 0));
}

#[test]
fn link_flap_edges_retry_until_the_window_lifts() {
    let mut res = SchedResources::new(2, 4);
    // Pin a→b across the 0–1 link, then flap that link over the
    // first arrivals: they must retry (not fail, not error) and the
    // run must account every extra attempt.
    let mut policy = Pinned::new(0).pin("b", 1);
    let plan = FailurePlan::new(RetryPolicy::new(6, 2_000, 1 << 40)).with_outages(
        OutageSchedule::new().link_down(res.node_id(0), res.node_id(1), 0, 5_000),
    );
    let run = run_fixed(&open(pipeline_spec(), 10_000, 4), &mut res, &mut policy, failing(&plan))
        .unwrap();
    assert_eq!(run.outcomes.len(), 4);
    assert_eq!(run.failed, 0, "the flap lifts well inside the retry budget");
    assert_eq!(run.completed(), 4);
    assert!(run.retries > 0, "the covered arrivals must have retried");
    assert!(run.retried() >= 1);
    // Instance 0 arrives at t=0 under the flap: its sojourn absorbs
    // the down window. Instance 3 arrives at t=30000, after the
    // window: clean first attempt.
    assert!(run.outcomes[0].retries > 0);
    assert!(run.outcomes[0].sojourn_ns >= 5_000);
    assert_eq!(run.outcomes[3].retries, 0);
    assert_eq!(run.outcomes[3].sojourn_ns, 1_500);
}

#[test]
fn a_killed_node_fails_placed_instances_and_conserves_outcomes() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = Pinned::new(0).pin("b", 1);
    // Node 1 dies before the run and is never detected (no removal):
    // every pinned a→b edge dead-ends there and exhausts its budget.
    let plan = FailurePlan::new(RetryPolicy::new(3, 1_000, 1 << 40))
        .with_outages(OutageSchedule::new().node_killed(res.node_id(1), 0));
    let run = run_fixed(&open(pipeline_spec(), 10_000, 3), &mut res, &mut policy, failing(&plan))
        .unwrap();
    assert_eq!(run.outcomes.len(), 3, "failed instances still yield outcomes");
    assert_eq!(run.failed, 3);
    assert_eq!(run.completed(), 0);
    assert_eq!(run.outcomes.len(), run.completed() + run.failed);
    // 3 attempts per instance: 2 retries each.
    assert_eq!(run.retries, 6);
    assert!(run.outcomes.iter().all(|o| o.failed && o.retries == 2));
    assert!(run.sojourn_percentiles().is_none(), "percentiles cover completions only");
    assert!(run.throughput_rps() == 0.0);
}

#[test]
fn a_detected_kill_removes_the_node_and_the_autoscaler_replaces_it() {
    let closed = closed(3, 200, 30);
    // Thresholds no backlog signal can cross: the only decisions
    // this controller ever takes are replacements.
    let cfg = AutoscalerConfig {
        min_nodes: 1,
        max_nodes: 4,
        node_cores: 4,
        scale_up_backlog_ns: Nanos::MAX,
        scale_down_backlog_ns: 0,
        window_ns: 1,
    };

    // Fixed-size baseline: the kill permanently halves capacity.
    let fixed = {
        let mut res = SchedResources::new(2, 4);
        let mut policy = SpreadLoad::new();
        let plan = FailurePlan::new(RetryPolicy::new(2, 500, 1 << 40)).kill_node(
            res.node_id(1),
            4_000,
            1_000,
        );
        run_fixed(&closed, &mut res, &mut policy, failing(&plan)).unwrap()
    };
    assert_eq!(fixed.final_nodes, 1, "nobody replaces the dead node");
    assert_eq!(fixed.outcomes.len(), fixed.completed() + fixed.failed);

    // Elastic: the controller notices the loss and restores capacity.
    let elastic = {
        let mut res = SchedResources::new(2, 4);
        let mut policy = SpreadLoad::new();
        let mut scaler = Autoscaler::new(cfg);
        let plan = FailurePlan::new(RetryPolicy::new(2, 500, 1 << 40)).kill_node(
            res.node_id(1),
            4_000,
            1_000,
        );
        let controls = Controls { autoscaler: Some(&mut scaler), ..failing(&plan) };
        run_fixed(&closed, &mut res, &mut policy, controls).unwrap()
    };
    assert_eq!(elastic.final_nodes, 2, "capacity restored to the expected size");
    assert_eq!(
        elastic.scale_events.iter().filter(|e| e.action == ScaleAction::Replace).count(),
        1,
        "exactly one replacement, no flapping: {:?}",
        elastic.scale_events,
    );
    assert_eq!(elastic.outcomes.len(), elastic.completed() + elastic.failed);
    // Once replaced, the tail of the run completes cleanly again.
    let last = elastic.outcomes.last().unwrap();
    assert!(!last.failed);
    // The replacement node is a fresh machine with a fresh id: the
    // dead node's windows must not apply to it.
    assert!(elastic.outcomes.iter().rev().take(5).all(|o| !o.failed));
}

#[test]
fn failed_instances_re_arm_their_closed_loop_user() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = Pinned::new(0).pin("b", 1);
    // Node 1 is dead for the whole run and never removed: every
    // instance fails, yet all 6 get admitted — each failure re-arms
    // its user after think time.
    let plan = FailurePlan::new(RetryPolicy::new(2, 100, 1 << 40))
        .with_outages(OutageSchedule::new().node_killed(res.node_id(1), 0));
    let closed = closed(2, 300, 6);
    let run = run_fixed(&closed, &mut res, &mut policy, failing(&plan)).unwrap();
    assert_eq!(run.outcomes.len(), 6);
    assert_eq!(run.failed, 6);
    assert_eq!(run.completed(), 0);
}

/// Plain tail drop: a CoDel whose sojourn target is never exceeded
/// sheds only arrivals that find the queue full.
const TAIL_DROP: ShedPolicy = ShedPolicy::CoDel { target_ns: Nanos::MAX };

fn queue_only(max_in_flight: usize, queue_cap: usize, policy: ShedPolicy) -> OverloadConfig {
    OverloadConfig {
        queue: Some(QueueConfig { max_in_flight, queue_cap, policy }),
        ..OverloadConfig::default()
    }
}

#[test]
fn an_all_shed_run_reports_zeroes_and_none_never_nan() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    // Zero slots, zero queue: every arrival is shed at admission.
    let cfg = queue_only(0, 0, TAIL_DROP);
    let run = run_fixed(&open(pipeline_spec(), 1_000, 5), &mut res, &mut policy, overloaded(cfg))
        .unwrap();
    assert_eq!(run.arrivals, 5);
    assert_eq!(run.shed, 5);
    assert!(run.outcomes.is_empty());
    assert_eq!((run.completed(), run.failed, run.deadline_exceeded), (0, 0, 0));
    assert!(run.sojourn_percentiles().is_none());
    assert!(run.throughput_rps() == 0.0 && !run.throughput_rps().is_nan());
    assert!(!run.cpu_utilization.is_nan() && !run.link_utilization.is_nan());
    let t = &run.tenants[0];
    assert_eq!((t.arrivals, t.shed, t.completed), (5, 5, 0));
    assert!(run.tenant_sojourn_percentiles(0).is_none());
}

#[test]
fn multi_tenant_runs_interleave_and_account_per_tenant() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = SpreadLoad::new();
    let alice = tenant("alice", vec![0, 2_000, 4_000, 6_000, 8_000], 1);
    let bob = tenant("bob", vec![0, 3_000, 6_000, 9_000], 1);
    let load = MultiLoad { tenants: vec![alice, bob], admission: AdmissionConfig::warm() };
    let run = run_fixed(&load, &mut res, &mut policy, Controls::default()).unwrap();
    assert_eq!(run.outcomes.len(), 9);
    assert_eq!(run.arrivals, 9);
    assert_eq!(run.tenants.len(), 2);
    assert_eq!(run.tenants[0].name, "alice");
    assert_eq!(run.tenants[1].name, "bob");
    for (idx, t) in run.tenants.iter().enumerate() {
        assert_eq!(t.arrivals, [5, 4][idx]);
        assert_eq!(t.arrivals, t.completed + t.failed + t.deadline_exceeded + t.shed);
        assert_eq!(t.completed, run.outcomes.iter().filter(|o| o.tenant == idx && !o.failed).count());
    }
    // Same-instant ties keep tenant order: both release at t = 0 and
    // t = 6000, with alice (lane 0) admitted first each time.
    let tenant_order: Vec<usize> = run.outcomes.iter().map(|o| o.tenant).collect();
    assert_eq!(tenant_order, vec![0, 1, 0, 1, 0, 0, 1, 0, 1]);
    assert_eq!(run.completed(), run.tenants.iter().map(|t| t.completed).sum::<usize>());
}

/// One percentile method at any size: past 4 096 completions in the run
/// and 64 per tenant, the run's and each tenant's digests are still
/// nearest-rank over exactly the completed sojourns.
#[test]
fn run_and_tenant_percentiles_are_exact_past_any_sample_size() {
    let tenant = |name: &str, mean_interval_ns, seed, instances| {
        let spec = WorkflowSpec::sequence("pipe3", name, ["a", "b", "c"].map(str::to_owned));
        let arrivals = ArrivalProcess::Poisson { mean_interval_ns, seed };
        TenantLoad::from_process(name, spec, Bytes::new(), &arrivals, instances)
    };
    let load = MultiLoad {
        tenants: vec![tenant("steady", 4_000, 1, 3_200), tenant("sparse", 9_000, 2, 1_400)],
        admission: AdmissionConfig::warm(),
    };
    // Queueing spreads the sojourns; the deadline takes the slowest
    // instances out of every digest.
    let deadline = OverloadConfig { deadline_ns: Some(30_000), ..OverloadConfig::default() };
    let mut res = SchedResources::new(2, 2);
    let run = run_fixed(&load, &mut res, &mut SpreadLoad::new(), overloaded(deadline)).unwrap();
    assert!(run.completed() > 4_096, "{} completions", run.completed());
    assert!(run.deadline_exceeded > 0);
    let completed = |keep: &dyn Fn(&InstanceOutcome) -> bool| -> Vec<Nanos> {
        let done = run.outcomes.iter().filter(|o| !o.failed && !o.deadline_exceeded && keep(o));
        done.map(|o| o.sojourn_ns).collect()
    };
    assert_eq!(run.sojourn_percentiles(), percentiles(&completed(&|_| true)));
    for (t, stats) in run.tenants.iter().enumerate() {
        let mine = completed(&|o| o.tenant == t);
        assert!(mine.len() > 64, "{}: {} completions", stats.name, mine.len());
        assert_eq!(mine.len(), stats.completed);
        assert_eq!(run.tenant_sojourn_percentiles(t), percentiles(&mine), "{}", stats.name);
    }
    assert_eq!(run.tenants.iter().map(|t| t.completed).sum::<usize>(), run.completed());
    assert!(run.tenant_sojourn_percentiles(run.tenants.len()).is_none());
}

#[test]
fn blown_deadlines_are_accounted_apart_from_failures() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    // A three-stage pipeline: the b→c edge becomes ready 1500 ns
    // after the roots, past the 100 ns deadline — every instance
    // blows its deadline at that edge, none "fails".
    let spec =
        WorkflowSpec::sequence("pipe3", "t", ["a".to_owned(), "b".to_owned(), "c".to_owned()]);
    let cfg = OverloadConfig { deadline_ns: Some(100), ..OverloadConfig::default() };
    let load = open(spec, 5_000, 3);
    let run = run_fixed(&load, &mut res, &mut policy, overloaded(cfg))
        .unwrap();
    assert_eq!(run.outcomes.len(), 3);
    assert_eq!(run.deadline_exceeded, 3);
    assert_eq!((run.failed, run.completed(), run.shed), (0, 0, 0));
    assert!(run.outcomes.iter().all(|o| o.deadline_exceeded && !o.failed));
    assert!(run.sojourn_percentiles().is_none(), "blown instances never enter the digest");
    assert_eq!(run.tenants[0].deadline_exceeded, 3);
    assert_eq!(run.arrivals, run.completed() + run.failed + run.deadline_exceeded + run.shed);
}

#[test]
fn the_weighted_queue_drains_tenants_by_their_weights() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    let (heavy, light) = (tenant("alice", vec![0; 10], 4), tenant("bob", vec![0; 10], 1));
    let load = MultiLoad { tenants: vec![heavy, light], admission: AdmissionConfig::warm() };
    // One slot, everything else queues: the drain order is pure
    // smooth-WRR — a 4:1 cycle of [alice ×2, bob, alice ×2].
    let cfg = queue_only(1, 64, TAIL_DROP);
    let run = run_fixed(&load, &mut res, &mut policy, overloaded(cfg))
        .unwrap();
    assert_eq!(run.outcomes.len(), 20);
    assert_eq!(run.shed, 0);
    let order: Vec<usize> = run.outcomes.iter().map(|o| o.tenant).collect();
    // outcomes[0] is the t = 0 immediate admit (alice, lane order);
    // each subsequent start is one WRR dequeue.
    assert_eq!(order[0], 0);
    assert_eq!(&order[1..6], &[0, 0, 1, 0, 0], "one smooth-WRR cycle at weights 4:1");
    assert_eq!(&order[6..11], &[0, 0, 1, 0, 0]);
    // Once alice's lane empties, bob drains the remainder.
    assert_eq!(order.iter().filter(|&&t| t == 1).count(), 10);
}

#[test]
fn tail_drop_and_reject_oldest_shed_opposite_ends_of_the_queue() {
    let run_with = |policy_kind: ShedPolicy| {
        let mut res = SchedResources::new(2, 4);
        let mut policy = LocalityFirst::new();
        let cfg = queue_only(1, 4, policy_kind);
        run_fixed(&open(pipeline_spec(), 1, 10), &mut res, &mut policy, overloaded(cfg))
            .unwrap()
    };
    // All ten arrivals land before the first completion (1500 ns):
    // user 0 runs, four queue, five overflow.
    let tail = run_with(TAIL_DROP);
    assert_eq!((tail.shed, tail.outcomes.len()), (5, 5));
    let survivors: Vec<usize> = tail.outcomes.iter().map(|o| o.user).collect();
    assert_eq!(survivors, vec![0, 1, 2, 3, 4], "tail drop keeps the early arrivals");

    let oldest = run_with(ShedPolicy::RejectOldest);
    assert_eq!((oldest.shed, oldest.outcomes.len()), (5, 5));
    let survivors: Vec<usize> = oldest.outcomes.iter().map(|o| o.user).collect();
    assert_eq!(survivors, vec![0, 6, 7, 8, 9], "reject-oldest keeps the fresh arrivals");
}

#[test]
fn codel_sheds_entries_that_outstayed_the_target_at_dequeue() {
    let mut res = SchedResources::new(2, 4);
    let mut policy = LocalityFirst::new();
    // Every queued arrival waits ≥ 1500 ns (the first completion),
    // far past the 100 ns sojourn target: CoDel sheds them all at
    // dequeue and only the immediately admitted instance completes.
    let cfg = queue_only(1, 64, ShedPolicy::CoDel { target_ns: 100 });
    let run = run_fixed(&open(pipeline_spec(), 1, 10), &mut res, &mut policy, overloaded(cfg))
        .unwrap();
    assert_eq!(run.outcomes.len(), 1);
    assert_eq!(run.shed, 9);
    assert_eq!(run.completed(), 1);
    assert_eq!(run.arrivals, run.completed() + run.failed + run.deadline_exceeded + run.shed);
}

/// ROADMAP 5(d), the load engine's share: degenerate loads come back as
/// `Err` or as a conserved, NaN-free [`LoadRun`] — never a panic, also
/// under the release `overflow-checks=on` pass.
#[test]
fn degenerate_loads_err_or_report_cleanly() {
    let ramped = |ramp_ns| ClosedLoop { ramp_ns, ..closed(3, 0, 6) };
    let multi = |tenants| MultiLoad { tenants, admission: AdmissionConfig::warm() };
    let silent = tenant("silent", Vec::new(), 0);
    let no_deadline = OverloadConfig { deadline_ns: Some(Nanos::MAX), ..OverloadConfig::default() };
    let spec = pipeline_spec();
    let idle_in_lane_1 = Load {
        tenants: vec![
            work(&spec, Arrivals::Trace(&[0])),
            work(&spec, Arrivals::Closed { users: 0, think_ns: 0, ramp_ns: 0, instances: 4 }),
        ],
        admission_cfg: &AdmissionConfig::Warm,
    };
    fn go<'a>(load: impl Into<Load<'a>>, controls: Controls<'a>) -> Result<LoadRun, PlatformError> {
        run_fixed(load, &mut SchedResources::new(2, 4), &mut LocalityFirst::new(), controls)
    }
    // (case, result, admitted instances expected of an `Ok`)
    let cases = [
        ("zero users", go(&closed(0, 0, 4), Controls::default()), None),
        ("zero users in lane 1", go(idle_in_lane_1, Controls::default()), None),
        ("zero instances, closed", go(&closed(2, 0, 0), Controls::default()), Some(0)),
        ("zero instances, open", go(&open(pipeline_spec(), 1_000, 0), Controls::default()), Some(0)),
        ("empty tenant list", go(&multi(Vec::new()), Controls::default()), Some(0)),
        ("empty release trace", go(&multi(vec![silent]), Controls::default()), Some(0)),
        // Both users run once and never finish thinking.
        ("u64::MAX think", go(&closed(2, Nanos::MAX, 6), Controls::default()), Some(2)),
        // Only user 0 ever starts; it works off its own share.
        ("u64::MAX ramp", go(&ramped(Nanos::MAX), Controls::default()), Some(4)),
        ("u64::MAX deadline", go(&open(pipeline_spec(), 1_000, 3), overloaded(no_deadline)), Some(3)),
    ];
    for (case, result, admitted) in cases {
        match (result, admitted) {
            (Err(e), None) => assert!(matches!(e, PlatformError::InvalidLoad(_)), "{case}: {e}"),
            (Ok(run), Some(admitted)) => {
                assert_eq!(run.outcomes.len(), admitted, "{case}");
                assert_eq!(run.arrivals, run.outcomes.len() + run.shed, "{case}");
                assert_eq!(run.completed(), admitted, "{case}");
                for x in [run.throughput_rps(), run.cpu_utilization, run.link_utilization] {
                    assert!(!x.is_nan(), "{case}: NaN in the report");
                }
                assert_eq!(run.sojourn_percentiles().is_none(), admitted == 0, "{case}");
            }
            (result, _) => panic!("{case}: unexpected {:?}", result.map(|r| r.outcomes.len())),
        }
    }
}

/// ROADMAP 5(a): an instance released one tick before the end of virtual
/// time. Its cold start (`start + cost` in the pool) and its edge's
/// phases (`granted_start + phase_ns` in the workflow run) all end past
/// `Nanos::MAX`; they saturate there instead of overflowing.
#[test]
fn a_release_at_the_end_of_virtual_time_saturates_instead_of_overflowing() {
    let late = |admission| MultiLoad {
        tenants: vec![tenant("late", vec![Nanos::MAX - 1], 1)],
        admission,
    };
    for admission in
        [AdmissionConfig::pooled(50_000, WarmPoolConfig::default()), AdmissionConfig::warm()]
    {
        let run = run_fixed(
            &late(admission.clone()),
            &mut SchedResources::new(2, 4),
            &mut LocalityFirst::new(),
            Controls::default(),
        )
        .unwrap_or_else(|e| panic!("{admission:?}: {e}"));
        assert_eq!(run.arrivals, 1, "{admission:?}");
        assert_eq!(
            run.arrivals,
            run.completed() + run.failed + run.deadline_exceeded + run.shed,
            "{admission:?}: conservation"
        );
        assert!(run.outcomes.iter().all(|o| o.finish_ns == Nanos::MAX), "{admission:?}");
    }
}

/// Releases at one instant admit after a kill detected there, then in
/// lane order, then in each lane's user order.
#[test]
fn simultaneous_releases_admit_after_the_kill_in_lane_then_user_order() {
    let load = MultiLoad {
        tenants: vec![
            tenant("alice", vec![0, 5_000, 5_000], 1),
            tenant("bob", vec![0, 0, 5_000], 1),
        ],
        admission: AdmissionConfig::warm(),
    };
    let mut res = SchedResources::new(3, 4);
    // Node 2 dies at 4 µs, long after the first burst drained, and is
    // detected at 5 µs, the instant of the second burst.
    let plan = FailurePlan::new(RetryPolicy::default()).kill_node(res.node_id(2), 4_000, 1_000);
    let mut policy = Rotating { len: 2, next: 0 };
    let run = run_fixed(&load, &mut res, &mut policy, failing(&plan)).unwrap();
    let order: Vec<(usize, usize)> = run.outcomes.iter().map(|o| (o.tenant, o.user)).collect();
    assert_eq!(order, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2)]);
    // The kill went first: the second burst was placed over two nodes.
    let assignments: Vec<&[usize]> = run.outcomes.iter().map(|o| &o.assignment[..]).collect();
    assert_eq!(assignments, [[1, 2], [2, 0], [0, 1], [0, 1], [1, 0], [0, 1]]);
    assert_eq!((run.completed(), run.final_nodes), (6, 2));
}

/// Each lane keeps its own arrival discipline: two closed tenants with
/// different users, think times and instance counts beside a trace
/// tenant, in one run.
#[test]
fn closed_and_trace_tenants_keep_their_own_disciplines_in_one_run() {
    let [alice, bob, carol] = ["alice", "bob", "carol"]
        .map(|t| WorkflowSpec::sequence("pipe", t, ["a".to_owned(), "b".to_owned()]));
    let load = Load {
        tenants: vec![
            work(&alice, Arrivals::Closed { users: 2, think_ns: 400, ramp_ns: 100, instances: 7 }),
            work(&bob, Arrivals::Trace(&[0, 700, 700, 5_000])),
            work(&carol, Arrivals::Closed { users: 3, think_ns: 1_000, ramp_ns: 0, instances: 5 }),
        ],
        admission_cfg: &AdmissionConfig::Warm,
    };
    let mut res = SchedResources::new(2, 4);
    let run = run_fixed(load, &mut res, &mut LocalityFirst::new(), Controls::default()).unwrap();
    let lane = |tenant| run.outcomes.iter().filter(move |o: &&InstanceOutcome| o.tenant == tenant);
    // (lane, users, think time, instances) of each closed tenant.
    for (tenant, users, think_ns, instances) in [(0, 2, 400, 7), (2, 3, 1_000, 5)] {
        assert_eq!(lane(tenant).count(), instances, "lane {tenant} admits its own instances");
        for user in 0..users {
            let theirs: Vec<&InstanceOutcome> = lane(tenant).filter(|o| o.user == user).collect();
            assert!(!theirs.is_empty(), "lane {tenant} seeds user {user}");
            for pair in theirs.windows(2) {
                assert_eq!(pair[1].release_ns, pair[0].finish_ns + think_ns, "lane {tenant}");
            }
        }
    }
    let trace: Vec<(usize, Nanos)> = lane(1).map(|o| (o.user, o.release_ns)).collect();
    assert_eq!(trace, [(0, 0), (1, 700), (2, 700), (3, 5_000)]);
    assert_eq!(run.arrivals, run.outcomes.len() + run.shed);
    for (i, t) in run.tenants.iter().enumerate() {
        assert_eq!(t.arrivals, lane(i).count() + t.shed, "lane {i}");
        assert_eq!(lane(i).count(), t.completed + t.failed + t.deadline_exceeded, "lane {i}");
    }
}
