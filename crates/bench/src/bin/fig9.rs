//! Fig. 9 — intra-node fan-out scalability with 10 MB transfers,
//! comparing Roadrunner (User space), Roadrunner (Kernel space), RunC and
//! WasmEdge as the fan-out degree grows (paper: up to 100).
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig9 [--quick]`

use roadrunner_bench::{
    fanout_sweep, measure_fanout, print_fanout_panels, Args, FanoutMeasurement, Flag, System,
    MB,
};

fn main() {
    let degrees = fanout_sweep(Args::parse(&[Flag::Quick]).quick);
    let size = 10 * MB;
    println!("# Fig. 9 — intra-node fan-out (10 MB per branch)");

    let mut rows: Vec<FanoutMeasurement> = Vec::new();
    for &degree in &degrees {
        for &system in System::intra_node().iter() {
            rows.push(measure_fanout(system, degree, size, true));
        }
    }

    print_fanout_panels(&rows);
}
