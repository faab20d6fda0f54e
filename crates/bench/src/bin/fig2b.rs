//! Fig. 2b — normalized I/O latency breakdown (transfer vs
//! serialization) for containers vs Wasm at 1 MB, 60 MB and 100 MB.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig2b [--quick]`

use roadrunner_bench::{measure_transfer, print_panel, Args, Flag, System, MB};

fn main() {
    let sizes: Vec<usize> = if Args::parse(&[Flag::Quick]).quick {
        vec![MB, 60 * MB]
    } else {
        vec![MB, 60 * MB, 100 * MB]
    };

    println!("# Fig. 2b — normalized I/O breakdown: transfer vs serialization share");
    println!("# (functions on different nodes, as in the paper's edge–cloud motivation)");
    print_panel(
        "Normalized latency (%)",
        &["series", "size_MB", "transfer_pct", "serialization_pct"],
    );
    for &size in &sizes {
        for system in [System::Runc, System::Wasmedge] {
            let m = measure_transfer(system, size);
            assert!(m.checksum_ok, "payload corrupted in {system:?}");
            let total = m.latency_ns.max(1) as f64;
            let ser = m.serialization_ns as f64 / total * 100.0;
            let label = match system {
                System::Runc => "Cont",
                System::Wasmedge => "Wasm",
                _ => unreachable!(),
            };
            println!(
                "{label}\t{}\t{:.1}\t{:.1}",
                size / MB,
                100.0 - ser,
                ser
            );
        }
    }
    println!();
    println!("# paper anchors: serialization ≈ 15% of Docker I/O time, up to 60% of Wasm I/O time");
}
