//! Fig. 15 (beyond the paper) — warm-pool admission, keep-alive
//! eviction and predictive pre-warming under bursty closed-loop load.
//!
//! Four admission policies × the three systems, each driven through
//! bursty ramps (long inter-burst think gaps) on fixed two-node
//! capacity:
//!
//! * `no_pool` — every admission instantiates in full;
//! * `ttl` — fixed keep-alive of half the burst gap (evicts between
//!   bursts, restores every burst);
//! * `hybrid` — histogram-of-reuse-gaps keep-alive that learns each
//!   function's idle distribution;
//! * `hybrid_prewarm` — hybrid plus square-root-staffing pre-warming
//!   driven by the autoscaler's in-flight demand estimate.
//!
//! The experiment logic and the gate assertions (warm-pool p99 at burst
//! peak ≥ 2× better than `no_pool`; pre-warming strictly cutting total
//! cold-start time vs the reactive TTL) live in
//! `roadrunner_bench::fig15`. The JSON lands on stdout *and* in
//! `BENCH_coldstart.json` — the committed full-run reference CI's quick
//! run re-gates.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig15_coldstart
//! [--quick] [--workers N]`

use roadrunner_bench::fig15::{fig15_json, Fig15Options};
use roadrunner_bench::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Quick, Flag::Workers]);
    let opts = Fig15Options { quick: args.quick, workers: args.sweep_workers() };
    let json = fig15_json(&opts);
    if !opts.quick {
        std::fs::write("BENCH_coldstart.json", format!("{json}\n"))
            .expect("write BENCH_coldstart.json");
    }
    println!("{json}");
}
