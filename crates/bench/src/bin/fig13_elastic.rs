//! Fig. 13 (beyond the paper) — closed-loop saturation and elasticity.
//!
//! Fig. 12 measured open-loop tail latency at fixed capacity. This
//! experiment closes both loops the ROADMAP names:
//!
//! * **closed-loop load** — N virtual users each keep one instance of
//!   the three-function pipeline in flight (think time = a quarter of
//!   the system's uncontended makespan, users ramped in a
//!   quarter-makespan apart), so saturation throughput is measured
//!   directly instead of read off the achieved-vs-offered gap;
//! * **elasticity** — the same cells run once at fixed two-node capacity
//!   and once with the backlog-driven autoscaler growing the active set
//!   (2 → up to 6 nodes, one per decision window) through the resizable
//!   `SchedResources`, emitting the scale-event trace alongside the
//!   latency digest.
//!
//! Placement uses the live-view policies: `locality` packs each
//! instance onto the least-backlogged node, `pack_spill` packs the
//! busiest node under one-makespan of backlog and spills past it. Both
//! keep instances co-located, matching the planes' co-located
//! deployments (the spread regime is fig12's subject).
//!
//! A final **cold-admission** section reruns the highest-user fixed
//! cell charging each function's fig. 2a cold-start cost on its first
//! placement per node (Wasm load+init for the Wasm systems, image
//! unpack+init for containers), connecting the cold-start figures to
//! the load figures.
//!
//! Cells fan out over the `platform::sweep` worker pool (`--workers N`
//! sizes it; `--workers 1` is the in-order serial loop); output is
//! byte-identical at any size, which `crates/bench/tests/sweep_golden.rs`
//! checks. The experiment logic and the headline-invariant assertions
//! live in `roadrunner_bench::fig13`.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig13_elastic
//! [--quick] [--workers N] [--no-memo]`

use roadrunner_bench::fig13::{fig13_json, Fig13Options};
use roadrunner_bench::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Quick, Flag::Workers, Flag::NoMemo]);
    let opts = Fig13Options {
        quick: args.quick,
        golden: false,
        memo: !args.no_memo,
        workers: args.sweep_workers(),
    };
    println!("{}", fig13_json(&opts));
}
