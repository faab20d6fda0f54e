//! Scatter-gather over an arbitrary workflow DAG — a shape the paper
//! never measured: one ingestion function scatters a batch to four
//! workers spread across both testbed nodes, and a gather function
//! collects every worker's result. The discrete-event engine overlaps
//! the independent edges in virtual time while the link joining the two
//! nodes and each node's cores serialize contended work.
//!
//! Run: `cargo run --example scatter_gather`

use std::sync::Arc;

use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_platform::{
    critical_path_ns, execute, execute_concurrent_at, FunctionBundle, WorkflowDag, WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{secs, SchedResources, Testbed};
use roadrunner_wasm::encode;

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("scatter")
            .with_tenant("city"),
    )
}

fn deploy() -> (Arc<Testbed>, RoadrunnerPlane) {
    let bed = Arc::new(Testbed::paper());
    let mut plane = RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default());
    plane
        .deploy(0, "scatter", bundle("scatter", guest::producer()), "produce", false)
        .expect("deploy scatter");
    for i in 0..4 {
        let name = format!("worker-{i}");
        // Half the workers live on the far node — the orchestrator's
        // placement, not ours; Roadrunner adapts per edge.
        let node = i % 2;
        plane
            .deploy(node, &name, bundle(&name, guest::relay()), "relay", false)
            .expect("deploy worker");
    }
    plane
        .deploy(1, "gather", bundle("gather", guest::consumer()), "consume", true)
        .expect("deploy gather");
    (bed, plane)
}

fn spec() -> WorkflowSpec {
    let mut dag = WorkflowDag::new();
    for i in 0..4 {
        let worker = format!("worker-{i}");
        dag.add_edge("scatter", &worker);
        dag.add_edge(&worker, "gather");
    }
    WorkflowSpec::from_dag("scatter-gather", "city", dag)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = Payload::synthetic(PayloadKind::SensorRecords, 99, 10_000_000);
    println!(
        "batch: {} bytes, checksum {:016x}",
        batch.flat().len(),
        batch.checksum()
    );

    // Serial run: every edge back to back (the paper's measurement
    // discipline).
    let (bed, mut plane) = deploy();
    let clock = bed.clock().clone();
    let serial = execute(&mut plane, &clock, &spec(), batch.flat().clone())?;

    // Concurrent run: independent edges overlap, contended resources
    // (each node's 4 cores, the shared 700 Mbit/s link) serialize.
    let (bed, mut plane) = deploy();
    let clock = bed.clock().clone();
    let mut resources = SchedResources::for_testbed(&bed);
    let payload = batch.flat().clone();
    let concurrent = execute_concurrent_at(&mut plane, &clock, &spec(), payload, &mut resources, 0)?;

    println!(
        "\n{} edges, {} bytes moved",
        concurrent.edges.len(),
        concurrent.total_bytes()
    );
    println!("serial engine:     {:.4} s virtual", secs(serial.total_latency_ns));
    println!("concurrent engine: {:.4} s virtual", secs(concurrent.total_latency_ns));
    println!(
        "critical path:     {:.4} s virtual",
        secs(critical_path_ns(&spec(), &concurrent)?)
    );
    println!(
        "speedup from overlap: {:.2}x",
        serial.total_latency_ns as f64 / concurrent.total_latency_ns.max(1) as f64
    );

    println!("\nper-edge schedule (start → finish, virtual seconds):");
    for edge in &concurrent.edges {
        println!(
            "  {:>9} -> {:<9} [{:.4} → {:.4}] intact: {}",
            edge.from,
            edge.to,
            secs(edge.start_ns),
            secs(edge.finish_ns),
            edge.received == *batch.flat(),
        );
    }
    Ok(())
}
