//! Fig. 16 (beyond the paper) — overload control and metastable
//! failure.
//!
//! Drives a three-phase burst trace (calm, 3× saturation with link
//! flaps, calm) through the engine twice: once naive (aggressive
//! retries, unbounded admission — post-burst goodput stays collapsed,
//! the metastable signature) and once with the overload layer on
//! (deadlines, retry budgets, circuit breakers, CoDel-bounded
//! admission — goodput recovers to ≥ 80 % of pre-burst). A second pair
//! pits a light interactive tenant against an adversarial flood with
//! and without the weighted admission queue; the queue must win back
//! ≥ 2× on the interactive p95. The experiment logic and the gate
//! assertions live in `roadrunner_bench::fig16`. The JSON lands on
//! stdout *and* in `BENCH_overload.json` — the committed full-run
//! reference CI's quick run re-gates.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin fig16_overload
//! [--quick] [--workers N]`

use roadrunner_bench::fig16::{fig16_json, Fig16Options};
use roadrunner_bench::{Args, Flag};

fn main() {
    let args = Args::parse(&[Flag::Quick, Flag::Workers]);
    let opts = Fig16Options { quick: args.quick, workers: args.sweep_workers() };
    let json = fig16_json(&opts);
    if !opts.quick {
        std::fs::write("BENCH_overload.json", format!("{json}\n"))
            .expect("write BENCH_overload.json");
    }
    println!("{json}");
}
