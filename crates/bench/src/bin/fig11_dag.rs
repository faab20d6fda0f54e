//! Fig. 11 (beyond the paper) — DAG workflows the original evaluation
//! never measured: a diamond, a WAN-crossing diamond and a scatter-gather,
//! each run over the real Roadrunner plane by the discrete-event engine,
//! serially (edges laid end to end) and concurrently.
//!
//! Unlike the paper-figure binaries (tab-separated panels), this one
//! emits a single machine-readable JSON document so future PRs can track
//! the bench trajectory.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig11_dag [--quick]`

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_bench::{fixed, json_secs, object, rr_bundle, Args, Flag, MB};
use roadrunner_platform::{
    critical_path_ns, execute, execute_concurrent_at, WorkflowDag, WorkflowRun, WorkflowSpec,
};
use roadrunner_vkernel::{SchedResources, Testbed};

/// What a workflow node does with its input.
#[derive(Clone, Copy)]
enum Role {
    /// Entry point: produces the payload onward.
    Produce,
    /// Receives and forwards.
    Relay,
    /// Terminal: receives and acks.
    Consume,
}

/// One function of a scenario: name, testbed node, behaviour.
struct Fn3(&'static str, usize, Role);

struct Scenario {
    name: &'static str,
    functions: Vec<Fn3>,
    edges: Vec<(&'static str, &'static str)>,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        // The acceptance diamond: both branches co-located, overlap on
        // the node's four cores.
        Scenario {
            name: "diamond",
            functions: vec![
                Fn3("a", 0, Role::Produce),
                Fn3("b", 0, Role::Relay),
                Fn3("c", 0, Role::Relay),
                Fn3("d", 0, Role::Consume),
            ],
            edges: vec![("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        },
        // Gather stage on the far node: the two inbound wire transfers
        // queue on the capacity-1 link.
        Scenario {
            name: "diamond_wan",
            functions: vec![
                Fn3("a", 0, Role::Produce),
                Fn3("b", 0, Role::Relay),
                Fn3("c", 0, Role::Relay),
                Fn3("d", 1, Role::Consume),
            ],
            edges: vec![("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        },
        // Scatter-gather across both nodes: four workers, half remote.
        Scenario {
            name: "scatter_gather",
            functions: vec![
                Fn3("src", 0, Role::Produce),
                Fn3("w0", 0, Role::Relay),
                Fn3("w1", 1, Role::Relay),
                Fn3("w2", 0, Role::Relay),
                Fn3("w3", 1, Role::Relay),
                Fn3("sink", 1, Role::Consume),
            ],
            edges: vec![
                ("src", "w0"),
                ("src", "w1"),
                ("src", "w2"),
                ("src", "w3"),
                ("w0", "sink"),
                ("w1", "sink"),
                ("w2", "sink"),
                ("w3", "sink"),
            ],
        },
    ]
}

fn deploy(scenario: &Scenario) -> (Arc<Testbed>, RoadrunnerPlane) {
    let bed = Arc::new(Testbed::paper());
    let mut plane =
        RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default().with_load_costs(false));
    for Fn3(name, node, role) in &scenario.functions {
        let (module, handler, returns) = match role {
            Role::Produce => (guest::producer(), "produce", false),
            Role::Relay => (guest::relay(), "relay", false),
            Role::Consume => (guest::consumer(), "consume", true),
        };
        plane
            .deploy(*node, name, rr_bundle("fig11", name, module), handler, returns)
            .expect("deploy scenario function");
    }
    (bed, plane)
}

fn spec_of(scenario: &Scenario) -> WorkflowSpec {
    let mut dag = WorkflowDag::new();
    for (from, to) in &scenario.edges {
        dag.add_edge(from, to);
    }
    WorkflowSpec::from_dag(scenario.name, "bench", dag)
}

fn run_serial(scenario: &Scenario, payload: &Bytes) -> WorkflowRun {
    let (bed, mut plane) = deploy(scenario);
    let clock = bed.clock().clone();
    execute(&mut plane, &clock, &spec_of(scenario), payload.clone()).expect("serial run")
}

fn run_concurrent(scenario: &Scenario, payload: &Bytes) -> WorkflowRun {
    let (bed, mut plane) = deploy(scenario);
    let clock = bed.clock().clone();
    let mut resources = SchedResources::for_testbed(&bed);
    let spec = spec_of(scenario);
    execute_concurrent_at(&mut plane, &clock, &spec, payload.clone(), &mut resources, 0)
        .expect("concurrent run")
}

fn main() {
    let payload_bytes = if Args::parse(&[Flag::Quick]).quick { 2 * MB } else { 8 * MB };
    let payload = Bytes::from(vec![0x5Au8; payload_bytes]);

    let mut rows = Vec::new();
    for scenario in scenarios() {
        let spec = spec_of(&scenario);
        let serial = run_serial(&scenario, &payload);
        let concurrent = run_concurrent(&scenario, &payload);
        let critical = critical_path_ns(&spec, &concurrent).expect("acyclic scenario");
        assert!(
            concurrent.total_latency_ns <= serial.total_latency_ns,
            "{}: overlap regressed",
            scenario.name
        );
        assert!(
            concurrent.total_latency_ns >= critical,
            "{}: schedule undercut its critical path",
            scenario.name
        );
        let speedup = serial.total_latency_ns as f64 / concurrent.total_latency_ns.max(1) as f64;
        rows.push(object! {
            "scenario" => scenario.name, "functions" => spec.dag.node_count(),
            "edges" => spec.dag.edge_count(),
            "serial_s" => json_secs(serial.total_latency_ns),
            "concurrent_s" => json_secs(concurrent.total_latency_ns),
            "critical_path_s" => json_secs(critical), "speedup" => fixed(speedup, 3),
        });
    }

    let doc = object! {
        "figure" => "fig11_dag", "payload_bytes" => payload_bytes, "scenarios" => rows,
    };
    println!("{}", doc.document());
}
