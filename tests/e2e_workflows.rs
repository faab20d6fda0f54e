//! End-to-end workflow tests spanning the whole stack: platform →
//! Roadrunner plane → shims → Wasm guests → virtual kernel.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, Mode, RoadrunnerPlane, ShimConfig};
use roadrunner_platform::{
    critical_path_ns, execute, execute_concurrent_at, FunctionBundle, WorkflowDag, WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_serial::payload::fnv1a;
use roadrunner_vkernel::{SchedResources, Testbed};
use roadrunner_wasm::encode;

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("e2e")
            .with_tenant("test"),
    )
}

fn plane() -> (Arc<Testbed>, RoadrunnerPlane) {
    let bed = Arc::new(Testbed::paper());
    let plane = RoadrunnerPlane::new(
        Arc::clone(&bed),
        ShimConfig::default().with_load_costs(false),
    );
    (bed, plane)
}

#[test]
fn three_stage_chain_across_all_modes() {
    // a and r share a VM (user space), r -> s is kernel space,
    // s -> b crosses nodes (network): one chain exercising every mode.
    let (bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy_into_shared_vm("a", "r", bundle("r", guest::relay()), "relay", false).unwrap();
    p.deploy(0, "s", bundle("s", guest::relay()), "relay", false).unwrap();
    p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();

    assert_eq!(p.mode_of("a", "r").unwrap(), Mode::UserSpace);
    assert_eq!(p.mode_of("r", "s").unwrap(), Mode::KernelSpace);
    assert_eq!(p.mode_of("s", "b").unwrap(), Mode::Network);

    let payload = Payload::synthetic(PayloadKind::SensorRecords, 21, 3_000_000);
    let spec = WorkflowSpec::sequence(
        "e2e",
        "test",
        ["a", "r", "s", "b"].map(str::to_owned),
    );
    let clock = bed.clock().clone();
    let run = execute(&mut p, &clock, &spec, payload.flat().clone()).unwrap();
    assert_eq!(run.edges.len(), 3);
    for edge in &run.edges {
        assert_eq!(
            fnv1a(&edge.received),
            payload.checksum(),
            "edge {} -> {} corrupted the payload",
            edge.from,
            edge.to
        );
    }
    assert!(run.total_latency_ns > 0);
}

#[test]
fn fanin_collects_at_one_target() {
    let (bed, mut p) = plane();
    p.deploy(0, "s1", bundle("s1", guest::producer()), "produce", false).unwrap();
    p.deploy(0, "s2", bundle("s2", guest::producer()), "produce", false).unwrap();
    p.deploy(1, "sink", bundle("sink", guest::consumer()), "consume", true).unwrap();
    let spec = WorkflowSpec::fan_in(
        "fanin",
        "test",
        ["s1".to_owned(), "s2".to_owned()],
        "sink",
    );
    let payload = Bytes::from(vec![0xEE; 200_000]);
    let clock = bed.clock().clone();
    let run = execute(&mut p, &clock, &spec, payload.clone()).unwrap();
    assert_eq!(run.edges.len(), 2);
    assert!(run.edges.iter().all(|e| e.received == payload));
}

#[test]
fn large_payload_network_integrity() {
    // 64 MB through the hose, byte-for-byte.
    let (_bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
    let payload = Payload::synthetic(PayloadKind::ImageFrame, 5, 64_000_000);
    let received = p.transfer_edge("a", "b", payload.flat()).unwrap();
    assert_eq!(fnv1a(&received), payload.checksum());
}

#[test]
fn repeated_edges_accumulate_monotonic_clock() {
    let (bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy(0, "b", bundle("b", guest::consumer()), "consume", true).unwrap();
    let payload = Bytes::from(vec![1u8; 100_000]);
    let mut last = bed.clock().now();
    for _ in 0..5 {
        p.transfer_edge("a", "b", &payload).unwrap();
        let now = bed.clock().now();
        assert!(now > last);
        last = now;
    }
}

#[test]
fn empty_payload_flows_through_every_mode() {
    let (_bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy_into_shared_vm("a", "u", bundle("u", guest::consumer()), "consume", true)
        .unwrap();
    p.deploy(0, "k", bundle("k", guest::consumer()), "consume", true).unwrap();
    p.deploy(1, "n", bundle("n", guest::consumer()), "consume", true).unwrap();
    for target in ["u", "k", "n"] {
        let received = p.transfer_edge("a", target, &Bytes::new()).unwrap();
        assert!(received.is_empty(), "target {target}");
    }
}

#[test]
fn diamond_dag_overlaps_branches_within_critical_path_bound() {
    // The ISSUE-2 acceptance shape: a → {b, c} → d over the real
    // Roadrunner plane under CostModel::paper_testbed. The concurrent
    // engine must land strictly below the serialized edge sum (the two
    // branches overlap on the node's four cores) but no lower than the
    // DAG's critical path.
    let (bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy(0, "b", bundle("b", guest::relay()), "relay", false).unwrap();
    p.deploy(0, "c", bundle("c", guest::relay()), "relay", false).unwrap();
    p.deploy(0, "d", bundle("d", guest::consumer()), "consume", true).unwrap();

    let mut dag = WorkflowDag::new();
    dag.add_edge("a", "b").add_edge("a", "c").add_edge("b", "d").add_edge("c", "d");
    let spec = WorkflowSpec::from_dag("diamond", "test", dag);

    let payload = Payload::synthetic(PayloadKind::Text, 17, 2_000_000);
    let clock = bed.clock().clone();
    let mut resources = SchedResources::for_testbed(&bed);
    let run =
        execute_concurrent_at(&mut p, &clock, &spec, payload.flat().clone(), &mut resources, 0)
            .unwrap();

    assert_eq!(run.edges.len(), 4);
    for edge in &run.edges {
        assert_eq!(
            fnv1a(&edge.received),
            payload.checksum(),
            "edge {} -> {} corrupted the payload",
            edge.from,
            edge.to
        );
    }
    let serialized = run.serialized_ns();
    let critical = critical_path_ns(&spec, &run).unwrap();
    assert!(
        run.total_latency_ns < serialized,
        "branches did not overlap: makespan {} >= serialized {serialized}",
        run.total_latency_ns
    );
    assert!(
        run.total_latency_ns >= critical,
        "makespan {} undercut the critical path {critical}",
        run.total_latency_ns
    );
    // Both first-level branches start together — genuine concurrency.
    assert_eq!(run.edge("a", "b").unwrap().start_ns, run.edge("a", "c").unwrap().start_ns);
}

#[test]
fn mixed_node_diamond_contends_on_the_shared_link() {
    // Same diamond, but the gather stage lives on node 1: b→d and c→d
    // cross the WAN and must queue on the capacity-1 link, so the
    // makespan exceeds the critical path while still beating the fully
    // serialized schedule.
    let (bed, mut p) = plane();
    p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
    p.deploy(0, "b", bundle("b", guest::relay()), "relay", false).unwrap();
    p.deploy(0, "c", bundle("c", guest::relay()), "relay", false).unwrap();
    p.deploy(1, "d", bundle("d", guest::consumer()), "consume", true).unwrap();

    let mut dag = WorkflowDag::new();
    dag.add_edge("a", "b").add_edge("a", "c").add_edge("b", "d").add_edge("c", "d");
    let spec = WorkflowSpec::from_dag("diamond-wan", "test", dag);

    let payload = Payload::synthetic(PayloadKind::Text, 23, 4_000_000);
    let clock = bed.clock().clone();
    let mut resources = SchedResources::for_testbed(&bed);
    let run =
        execute_concurrent_at(&mut p, &clock, &spec, payload.flat().clone(), &mut resources, 0)
            .unwrap();

    let critical = critical_path_ns(&spec, &run).unwrap();
    assert!(run.total_latency_ns < run.serialized_ns());
    assert!(
        run.total_latency_ns > critical,
        "link contention should push makespan {} past the critical path {critical}",
        run.total_latency_ns
    );
    // The two wire transfers cannot overlap on one link.
    let wire = bed.link_between(0, 1).wire_ns(payload.flat().len());
    assert!(run.total_latency_ns >= 2 * wire);
}

#[test]
fn mode_latency_ordering_holds_end_to_end() {
    // user < kernel < network for the same payload — Fig. 1's premise.
    let payload = Bytes::from(vec![3u8; 4_000_000]);
    let mut latencies = Vec::new();
    for mode in ["user", "kernel", "network"] {
        let (_bed, mut p) = plane();
        p.deploy(0, "a", bundle("a", guest::producer()), "produce", false).unwrap();
        match mode {
            "user" => p
                .deploy_into_shared_vm("a", "b", bundle("b", guest::consumer()), "consume", true)
                .unwrap(),
            "kernel" => p
                .deploy(0, "b", bundle("b", guest::consumer()), "consume", true)
                .unwrap(),
            _ => p.deploy(1, "b", bundle("b", guest::consumer()), "consume", true).unwrap(),
        }
        p.transfer_edge("a", "b", &payload).unwrap();
        latencies.push(p.last_breakdown().unwrap().transfer_ns);
    }
    assert!(latencies[0] < latencies[1], "user {} < kernel {}", latencies[0], latencies[1]);
    assert!(latencies[1] < latencies[2], "kernel {} < network {}", latencies[1], latencies[2]);
}
