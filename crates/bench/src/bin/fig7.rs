//! Fig. 7 — intra-node sweep over payload sizes (paper: 1–500 MB),
//! comparing Roadrunner (User space), Roadrunner (Kernel space), RunC and
//! WasmEdge across eight panels: total/serialization latency and
//! throughput, total/user/kernel CPU, RAM.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig7 [--quick]`

use roadrunner_bench::{
    measure_transfer_intra, payload_sweep, print_transfer_panels, Args, Flag, Measurement, System,
};

fn main() {
    let sizes = payload_sweep(Args::parse(&[Flag::Quick]).quick);
    println!("# Fig. 7 — intra-node latency/throughput/CPU/RAM for varying payload sizes");

    let mut rows: Vec<Measurement> = Vec::new();
    for &size in &sizes {
        for &system in System::intra_node().iter() {
            let m = measure_transfer_intra(system, size);
            assert!(m.checksum_ok, "payload corrupted in {system:?} at {size}");
            rows.push(m);
        }
    }

    print_transfer_panels(&rows);
}
