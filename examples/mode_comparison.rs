//! Side-by-side comparison of all five data paths on a 25 MB payload:
//! Roadrunner's three modes against the RunC-like and WasmEdge-like
//! baselines — a miniature of the paper's Fig. 7/8 in one run.
//!
//! Run: `cargo run --release --example mode_comparison`

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::FunctionBundle;
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{secs, Testbed};
use roadrunner_wasm::encode;

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("compare")
            .with_tenant("demo"),
    )
}

/// Runs one Roadrunner transfer; `colocate` picks the mode:
/// `Some(true)` = same VM, `Some(false)` = same node, `None` = remote.
fn roadrunner_run(colocate: Option<bool>, payload: &Payload) -> (String, f64) {
    let bed = Arc::new(Testbed::paper());
    let mut plane =
        RoadrunnerPlane::new(Arc::clone(&bed), ShimConfig::default().with_load_costs(false));
    plane
        .deploy(0, "a", bundle("a", guest::producer()), "produce", false)
        .expect("deploy a");
    let label = match colocate {
        Some(true) => {
            plane
                .deploy_into_shared_vm("a", "b", bundle("b", guest::consumer()), "consume", true)
                .expect("deploy b");
            "Roadrunner (user space)"
        }
        Some(false) => {
            plane
                .deploy(0, "b", bundle("b", guest::consumer()), "consume", true)
                .expect("deploy b");
            "Roadrunner (kernel space)"
        }
        None => {
            plane
                .deploy(1, "b", bundle("b", guest::consumer()), "consume", true)
                .expect("deploy b");
            "Roadrunner (network)"
        }
    };
    plane.inject("a", payload.flat()).expect("inject");
    let received = plane.transfer_edge("a", "b", &Bytes::new()).expect("transfer");
    assert_eq!(&received[..], &payload.flat()[..]);
    (label.to_owned(), secs(plane.last_breakdown().unwrap().transfer_ns))
}

fn main() {
    let payload = Payload::synthetic(PayloadKind::Text, 1, 25_000_000);
    println!("payload: 25 MB text, checksum {:016x}", payload.checksum());
    println!("{:<28}{:>14}", "system", "latency (s)");

    let mut rows = vec![
        roadrunner_run(Some(true), &payload),
        roadrunner_run(Some(false), &payload),
        roadrunner_run(None, &payload),
    ];

    let bed = Arc::new(Testbed::paper());
    let mut runc = RuncPair::establish(Arc::clone(&bed), 0, 1);
    let out = runc.transfer(&payload).expect("runc transfer");
    assert_eq!(&out.received_flat()[..], &payload.flat()[..]);
    rows.push(("RunC (HTTP)".to_owned(), secs(out.latency_ns)));

    let bed = Arc::new(Testbed::paper());
    let mut wedge = WasmedgePair::establish(Arc::clone(&bed), 0, 1);
    let out = wedge.transfer(&payload).expect("wasmedge transfer");
    assert_eq!(&out.received_flat()[..], &payload.flat()[..]);
    rows.push(("WasmEdge (WASI HTTP)".to_owned(), secs(out.latency_ns)));

    for (label, latency) in &rows {
        println!("{label:<28}{latency:>14.4}");
    }
    let fastest = rows.iter().map(|(_, l)| *l).fold(f64::INFINITY, f64::min);
    let slowest = rows.iter().map(|(_, l)| *l).fold(0.0, f64::max);
    println!(
        "\nspread: fastest {fastest:.4} s vs slowest {slowest:.4} s ({:.1}x)",
        slowest / fastest
    );
}
