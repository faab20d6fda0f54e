//! Fig. 14 (beyond the paper) — failure injection and self-healing
//! elasticity.
//!
//! Drives fig13's closed-loop workload through deterministic failure
//! schedules: a no-failure baseline (asserted identical to the plain
//! engine under an empty plan), a periodic link flap that spread-placed
//! instances must retry through, and a mid-run node kill once at fixed
//! capacity (throughput never recovers, placements onto the dead node
//! fail) and once under the capacity-loss-aware autoscaler (the dead
//! node is replaced and throughput recovers to ≥ 80 % of the pre-kill
//! rate — asserted). Cells report completed/retried/failed counts,
//! sojourn percentiles, pre/post-kill rates and time-to-recover. The
//! experiment logic and the assertions live in `roadrunner_bench::fig14`.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig14_failures
//! [--quick] [--workers N] [--no-memo]`

use roadrunner_bench::fig14::{fig14_json, Fig14Options};
use roadrunner_bench::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Quick, Flag::Workers, Flag::NoMemo]);
    let opts = Fig14Options {
        quick: args.quick,
        memo: !args.no_memo,
        workers: args.sweep_workers(),
    };
    println!("{}", fig14_json(&opts));
}
