//! Fig. 2a — cold start latency, execution latency and artifact size for
//! Docker-style containers vs Wasm, with and without WASI.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig2a`

use std::sync::Arc;

use roadrunner::guest::ResizeSpec;
use roadrunner_baselines::coldstart;
use roadrunner_bench::{fmt_secs, print_panel, Args};
use roadrunner_vkernel::Testbed;

fn main() {
    Args::parse(&[]);
    let bed = Arc::new(Testbed::paper());
    let cost = bed.cost();
    let spec = ResizeSpec { width: 1024, height: 768 };

    let samples = [
        coldstart::container_hello(cost),
        coldstart::wasm_hello(&bed),
        coldstart::container_resize(cost, spec),
        coldstart::wasm_resize(&bed, spec),
    ];

    println!("# Fig. 2a — cold start and execution latency; image size (containers vs Wasm)");
    println!("# 'Resize Image' uses WASI (path_open/fd_read/fd_write); 'Hello World' does not.");
    print_panel(
        "Cold start, execution and artifact size",
        &["series", "cold_start_s", "execution_s", "artifact_MB"],
    );
    for s in &samples {
        println!(
            "{}\t{}\t{}\t{:.3}",
            s.label,
            fmt_secs(s.cold_ns),
            fmt_secs(s.exec_ns),
            s.artifact_bytes as f64 / 1e6
        );
    }

    // Paper-shape assertions (also checked by the test suite).
    let cont_hello = &samples[0];
    let wasm_hello = &samples[1];
    let cont_resize = &samples[2];
    let wasm_resize = &samples[3];
    println!();
    println!("# shape checks");
    println!(
        "wasm_cold_below_container\t{}",
        wasm_hello.cold_ns < cont_hello.cold_ns
    );
    println!(
        "wasm_exec_faster_without_wasi\t{}",
        wasm_hello.exec_ns < cont_hello.exec_ns
    );
    println!(
        "wasm_exec_slower_with_wasi\t{}",
        wasm_resize.exec_ns > cont_resize.exec_ns
    );
}
