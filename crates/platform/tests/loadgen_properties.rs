//! Property-based tests for the load-generation engine: closed-loop
//! concurrency must stay bounded by the user count, arrivals must be
//! gated on completions, and the open-loop engine must keep its FIFO
//! admission discipline.

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_platform::{
    loadgen, AdmissionConfig, ArrivalProcess, ClosedLoop, Cluster, Controls, DataPlane,
    InstanceOutcome, LocalityFirst, OpenLoop, PlatformError, TransferTiming, WorkflowSpec,
};
use roadrunner_vkernel::{Nanos, SchedResources, VirtualClock};

/// A pass-through plane with fixed per-edge phase costs.
struct FixedPlane {
    clock: VirtualClock,
    edge_ns: Nanos,
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
        let timing =
            TransferTiming { prepare_ns: 0, transfer_ns: self.edge_ns, consume_ns: 0 };
        self.clock.advance(self.edge_ns);
        Ok((p, Some(timing)))
    }
}

fn pipeline() -> WorkflowSpec {
    WorkflowSpec::sequence("pipe", "t", ["a".to_owned(), "b".to_owned(), "c".to_owned()])
}

/// Peak number of instances whose `[release, finish)` intervals overlap.
fn peak_concurrency(outcomes: &[InstanceOutcome]) -> usize {
    let mut points: Vec<(Nanos, i64)> = Vec::new();
    for o in outcomes {
        points.push((o.release_ns, 1));
        points.push((o.finish_ns, -1));
    }
    // Ends sort before starts at the same instant: a completion frees
    // the slot the next arrival takes.
    points.sort_by_key(|&(t, delta)| (t, delta));
    let mut level = 0i64;
    let mut peak = 0i64;
    for (_, delta) in points {
        level += delta;
        peak = peak.max(level);
    }
    peak as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A closed loop never holds more instances in flight than it has
    /// users, under any think time, ramp, capacity, or edge cost.
    #[test]
    fn closed_loop_concurrency_never_exceeds_users(
        users in 1usize..6,
        rounds in 1usize..5,
        think_ns in 0u64..3_000,
        ramp_ns in 0u64..2_000,
        edge_ns in 1u64..5_000,
        nodes in 1usize..4,
        cores in 1u32..4,
    ) {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane { clock: clock.clone(), edge_ns };
        let load = ClosedLoop {
            spec: pipeline(),
            payload: Bytes::new(),
            users,
            think_ns,
            ramp_ns,
            instances: users * rounds,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(nodes, cores);
        let mut policy = LocalityFirst::new();
        let cluster =
            Cluster { plane: &mut plane, clock: &clock, resources: &mut res, policy: &mut policy };
        let run = loadgen::run(&load, cluster, Controls::default()).unwrap();
        prop_assert_eq!(run.outcomes.len(), users * rounds);
        prop_assert!(
            peak_concurrency(&run.outcomes) <= users,
            "peak concurrency exceeded {} users",
            users
        );
    }

    /// Every closed-loop arrival after a user's first is gated on that
    /// user's previous completion: release k = finish k-1 + think.
    #[test]
    fn closed_loop_arrivals_are_gated_on_completions(
        users in 1usize..5,
        rounds in 2usize..5,
        think_ns in 0u64..2_500,
        ramp_ns in 0u64..1_500,
        edge_ns in 1u64..4_000,
    ) {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane { clock: clock.clone(), edge_ns };
        let load = ClosedLoop {
            spec: pipeline(),
            payload: Bytes::new(),
            users,
            think_ns,
            ramp_ns,
            instances: users * rounds,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(2, 2);
        let mut policy = LocalityFirst::new();
        let cluster =
            Cluster { plane: &mut plane, clock: &clock, resources: &mut res, policy: &mut policy };
        let run = loadgen::run(&load, cluster, Controls::default()).unwrap();
        prop_assert_eq!(run.outcomes.len(), users * rounds);
        for user in 0..users {
            // The total bound is global, so a fast user may take more
            // rounds than a slow one — but every user issues at least
            // its seeded first request, and every subsequent arrival is
            // gated on that user's own previous completion.
            let mine: Vec<&InstanceOutcome> =
                run.outcomes.iter().filter(|o| o.user == user).collect();
            prop_assert!(!mine.is_empty());
            prop_assert_eq!(mine[0].release_ns, user as Nanos * ramp_ns);
            for pair in mine.windows(2) {
                prop_assert_eq!(
                    pair[1].release_ns,
                    pair[0].finish_ns + think_ns,
                    "user {}'s arrival must be gated on its completion",
                    user
                );
            }
        }
    }

    /// Open-loop outcomes keep admission order and respect releases:
    /// instance k is outcome k, nothing finishes before it was released,
    /// and sojourns are at least the uncontended service time.
    #[test]
    fn open_loop_keeps_fifo_admission(
        instances in 1usize..20,
        interval_ns in 1u64..4_000,
        edge_ns in 1u64..3_000,
    ) {
        let clock = VirtualClock::new();
        let mut plane = FixedPlane { clock: clock.clone(), edge_ns };
        let load = OpenLoop {
            spec: pipeline(),
            payload: Bytes::new(),
            arrivals: ArrivalProcess::Uniform { interval_ns },
            instances,
            admission: AdmissionConfig::warm(),
        };
        let mut res = SchedResources::new(2, 2);
        let mut policy = LocalityFirst::new();
        let cluster =
            Cluster { plane: &mut plane, clock: &clock, resources: &mut res, policy: &mut policy };
        let run = loadgen::run(&load, cluster, Controls::default()).unwrap();
        prop_assert_eq!(run.outcomes.len(), instances);
        for (k, o) in run.outcomes.iter().enumerate() {
            prop_assert_eq!(o.instance, k);
            prop_assert_eq!(o.release_ns, k as Nanos * interval_ns);
            prop_assert!(o.finish_ns >= o.release_ns);
            // Two serial edges of `edge_ns` each are the floor.
            prop_assert!(o.sojourn_ns >= 2 * edge_ns);
        }
    }
}
