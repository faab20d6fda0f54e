//! Fig. 8 — inter-node sweep over payload sizes (paper: 1–500 MB),
//! comparing Roadrunner (Network), RunC and WasmEdge across the same
//! eight panels as Fig. 7.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig8 [--quick]`

use roadrunner_bench::{
    measure_transfer, payload_sweep, print_transfer_panels, Args, Flag, Measurement, System,
};

fn main() {
    let sizes = payload_sweep(Args::parse(&[Flag::Quick]).quick);
    println!("# Fig. 8 — inter-node latency/throughput/CPU/RAM for varying payload sizes");

    let mut rows: Vec<Measurement> = Vec::new();
    for &size in &sizes {
        for &system in System::inter_node().iter() {
            let m = measure_transfer(system, size);
            assert!(m.checksum_ok, "payload corrupted in {system:?} at {size}");
            rows.push(m);
        }
    }

    print_transfer_panels(&rows);
}
