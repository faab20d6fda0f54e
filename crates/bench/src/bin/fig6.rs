//! Fig. 6 — inter-node transfer breakdown for a 100 MB payload across
//! Roadrunner (RR), RunC (RC) and WasmEdge (W):
//! (a) latency components, (b) serialization overhead, (c) normalized
//! latency distribution.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig6`

use roadrunner_bench::{fmt_secs, measure_transfer, print_panel, Args, System, MB};

fn main() {
    Args::parse(&[]);
    let size = 100 * MB;
    println!("# Fig. 6 — inter-node 100 MB transfer breakdown (RR vs RC vs W)");

    let measurements: Vec<_> = System::inter_node()
        .iter()
        .map(|&s| measure_transfer(s, size))
        .collect();

    print_panel(
        "(a) latency components (seconds)",
        &["series", "transfer_s", "serialization_s", "wasm_vm_io_s", "total_s"],
    );
    for m in &measurements {
        assert!(m.checksum_ok, "payload corrupted in {:?}", m.system);
        println!(
            "{}\t{}\t{}\t{}\t{}",
            short(m.system),
            fmt_secs(m.transfer_only_ns()),
            fmt_secs(m.serialization_ns),
            fmt_secs(m.wasm_io_ns),
            fmt_secs(m.latency_ns),
        );
    }

    print_panel("(b) serialization overhead (seconds, log scale in the paper)", &[
        "series",
        "serialization_s",
    ]);
    for m in &measurements {
        println!("{}\t{}", short(m.system), fmt_secs(m.serialization_ns));
    }

    print_panel("(c) normalized latency distribution (%)", &[
        "series",
        "transfer_pct",
        "serialization_pct",
        "wasm_vm_io_pct",
    ]);
    for m in &measurements {
        let total = m.latency_ns.max(1) as f64;
        println!(
            "{}\t{:.2}\t{:.2}\t{:.2}",
            short(m.system),
            m.transfer_only_ns() as f64 / total * 100.0,
            m.serialization_ns as f64 / total * 100.0,
            m.wasm_io_ns as f64 / total * 100.0,
        );
    }

    let rr = &measurements[0];
    let rc = &measurements[1];
    let w = &measurements[2];
    println!();
    println!("# headline checks (paper: RR total −62% vs W, −7% vs RC; serialization −97% vs W, −46% vs RC)");
    println!(
        "total_reduction_vs_wasmedge_pct\t{:.1}",
        (1.0 - rr.latency_ns as f64 / w.latency_ns as f64) * 100.0
    );
    println!(
        "total_reduction_vs_runc_pct\t{:.1}",
        (1.0 - rr.latency_ns as f64 / rc.latency_ns as f64) * 100.0
    );
    println!(
        "serialization_overhead_reduction_vs_wasmedge_pct\t{:.1}",
        (1.0 - rr.overhead_ns() as f64 / w.overhead_ns() as f64) * 100.0
    );
    println!(
        "serialization_overhead_reduction_vs_runc_pct\t{:.1}",
        (1.0 - rr.overhead_ns() as f64 / rc.overhead_ns() as f64) * 100.0
    );
}

fn short(system: System) -> &'static str {
    match system {
        System::RoadrunnerNetwork => "RR",
        System::Runc => "RC",
        System::Wasmedge => "W",
        _ => "?",
    }
}
