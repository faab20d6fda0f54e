//! Fig. 12 (beyond the paper) — throughput and tail latency under
//! multi-tenant load.
//!
//! The paper measures one workflow at a time on two VMs. This experiment
//! admits an open-loop stream of concurrent three-function pipeline
//! instances (`src → relay → sink`) onto a **four-node cluster**
//! (4 cores / 8 GB each, a 700 Mbit/s link per node pair), sweeping
//!
//! * **arrival rate** — identical across systems, as a factor of the
//!   WasmEdge baseline's uncontended makespan: light (2×, nobody
//!   queues), heavy (0.15×, saturates the per-pair links under
//!   `spread`) and surge (0.03×, past the locality regime's core
//!   capacity for the slowest system);
//! * **payload size** per edge;
//! * **placement policy** — `locality` packs every instance onto one
//!   node (Roadrunner rides its kernel-space mode), `spread` spreads
//!   functions over the cluster (every edge becomes a network
//!   transfer);
//! * **arrival seed** — each cell replicated under several Poisson
//!   arrival sequences; rows report across-seed means with
//!   order-statistic confidence intervals;
//!
//! for Roadrunner and both baselines. Grid points fan out over the
//! `platform::sweep` worker pool (`--workers N` sizes it; `--workers 1`
//! is the in-order serial loop); output is byte-identical at any size,
//! which `crates/bench/tests/sweep_golden.rs` checks. The experiment
//! logic lives in `roadrunner_bench::fig12`.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig12_load
//! [--quick] [--workers N]`

use roadrunner_bench::fig12::{fig12_json, Fig12Options};
use roadrunner_bench::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Quick, Flag::Workers]);
    let opts = Fig12Options {
        quick: args.quick,
        golden: false,
        workers: args.sweep_workers(),
    };
    println!("{}", fig12_json(&opts));
}
