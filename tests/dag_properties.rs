//! Property-based tests for the workflow DAG engine: random graphs must
//! validate exactly when acyclic, every valid graph must execute, and the
//! serial and concurrent executors must agree on what moved.

use std::collections::HashSet;

use bytes::Bytes;
use proptest::prelude::*;
use roadrunner_platform::{
    critical_path_ns, execute, execute_concurrent_at, DataPlane, PlatformError, TransferTiming,
    WorkflowDag, WorkflowSpec,
};
use roadrunner_vkernel::{SchedResources, VirtualClock};

/// Splitmix-style generator so graph shapes derive deterministically from
/// the proptest-provided seed.
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

/// Builds a random *forward* DAG of `n` nodes: every node j > 0 gets an
/// edge from some i < j (so the graph is connected and acyclic by
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

/// A pass-through plane charging distinct prepare/transfer/consume costs
/// and spreading functions across two nodes by name parity.
struct TestPlane {
    clock: VirtualClock,
}

impl TestPlane {
    fn timing(payload_len: usize) -> TransferTiming {
        TransferTiming {
            prepare_ns: 200,
            transfer_ns: 1_000 + payload_len as u64,
            consume_ns: 300,
        }
    }
}

impl DataPlane for TestPlane {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        payload: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let timing = Self::timing(payload.len());
        self.clock.advance(timing.total_ns());
        Ok((payload, Some(timing)))
    }

    fn placement(&self, function: &str) -> Option<usize> {
        Some(function.len() % 2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_forward_graphs_validate_and_topo_sort(
        n in 2usize..10,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let dag = forward_dag(n, extra, seed);
        prop_assert!(dag.validate().is_ok());
        let order = dag.topo_order().unwrap();
        prop_assert_eq!(order.len(), dag.node_count());
        let mut rank = vec![0usize; dag.node_count()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        for (u, v) in dag.edges() {
            prop_assert!(rank[u] < rank[v], "edge {}->{} violates topo order", u, v);
        }
    }

    #[test]
    fn graphs_with_a_back_edge_are_always_rejected(
        n in 2usize..10,
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut dag = forward_dag(n, extra, seed);
        // Reverse an existing edge: a guaranteed cycle.
        let (u, v) = {
            let mut rng = Mix(seed ^ 0xDEAD_BEEF);
            let edges: Vec<_> = dag.edges().collect();
            edges[rng.below(edges.len() as u64) as usize]
        };
        let (from, to) = (dag.node_name(u).to_owned(), dag.node_name(v).to_owned());
        dag.add_edge(&to, &from);
        prop_assert!(matches!(dag.validate(), Err(PlatformError::InvalidWorkflow(_))));
    }

    #[test]
    fn self_loops_are_always_rejected(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut dag = forward_dag(n, 0, seed);
        let node = {
            let mut rng = Mix(seed ^ 0x5EED);
            rng.below(n as u64) as usize
        };
        let name = dag.node_name(node).to_owned();
        dag.add_edge(&name, &name);
        prop_assert!(dag.validate().is_err());
    }

    #[test]
    fn valid_graphs_always_execute_every_edge(
        n in 2usize..10,
        extra in 0usize..8,
        seed in any::<u64>(),
        payload_len in 1usize..5_000,
    ) {
        let dag = forward_dag(n, extra, seed);
        let spec = WorkflowSpec::from_dag("prop", "t", dag);
        let clock = VirtualClock::new();
        let mut plane = TestPlane { clock: clock.clone() };
        let run = execute(&mut plane, &clock, &spec, Bytes::from(vec![7u8; payload_len])).unwrap();
        prop_assert_eq!(run.edges.len(), spec.dag.edge_count());
        prop_assert!(run.edges.iter().all(|e| e.bytes == payload_len));
    }

    #[test]
    fn serial_and_concurrent_executors_agree(
        n in 2usize..10,
        extra in 0usize..8,
        seed in any::<u64>(),
        payload_len in 1usize..5_000,
    ) {
        let dag = forward_dag(n, extra, seed);
        let spec = WorkflowSpec::from_dag("prop", "t", dag);
        let payload = Bytes::from(vec![0xA5u8; payload_len]);

        let clock = VirtualClock::new();
        let mut plane = TestPlane { clock: clock.clone() };
        let serial = execute(&mut plane, &clock, &spec, payload.clone()).unwrap();

        let clock = VirtualClock::new();
        let mut plane = TestPlane { clock: clock.clone() };
        let mut resources = SchedResources::new(2, 4);
        let concurrent =
            execute_concurrent_at(&mut plane, &clock, &spec, payload, &mut resources, 0).unwrap();

        // Both runs are the one engine: every edge, matched by name,
        // moved the same bytes for the same busy time, and the serial
        // run lays those busy times end to end.
        prop_assert_eq!(serial.edges.len(), concurrent.edges.len());
        for edge in &serial.edges {
            let twin = concurrent
                .edge(&edge.from, &edge.to)
                .expect("every serial edge ran concurrently too");
            prop_assert_eq!(
                (edge.bytes, edge.latency_ns, edge.checksum()),
                (twin.bytes, twin.latency_ns, twin.checksum())
            );
        }
        prop_assert_eq!(serial.total_latency_ns, concurrent.serialized_ns());
        // The overlapped schedule is bounded by the critical path below
        // and the fully serialized schedule above.
        let critical = critical_path_ns(&spec, &concurrent).unwrap();
        prop_assert!(concurrent.total_latency_ns >= critical);
        prop_assert!(concurrent.total_latency_ns <= serial.total_latency_ns);
    }
}
