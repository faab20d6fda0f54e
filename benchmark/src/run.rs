//! One run of one workload in this process: the end-to-end pass
//! (tracing off) or the per-layer pass (spans + isolated loops).
//!
//! Each pass returns the report text, an info object (sample counts,
//! quartiles, the virtual digest — everything worth recording that is not
//! a gated metric) and the result object the driver reads from the last
//! line of standard output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::layers;
use crate::spec;
use crate::stats::{highest_percentile, median, quantile, quantile_sorted, Fnv};
use crate::trace::Tracer;
use crate::workloads::{self, BatchOut, Scale, Workload};

/// Fewest equal batches an end-to-end run times at full scale.
const MIN_BATCHES: u64 = 30;
/// Complete set-ups an end-to-end run times, in two rounds — one before
/// the measured window, one after it; `setup_s` is the mean of the two
/// rounds' medians. Each round runs at least `MIN_SETUPS`, then more
/// until they add up to `SETUP_ROUND_S`: a 100 µs set-up becomes a median
/// of fifty samples, and a neighbour's burst on this shared host cannot
/// cover both rounds. (The rounds are not pooled: the later one runs on a
/// warmed allocator and can be several times faster, and a pooled median
/// would sit on the boundary between the two populations.)
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_ROUND_S: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What a pass hands back to `main`.
pub struct Outcome {
    pub report: String,
    pub info: Json,
    /// `{"correct", "attempted", "failed", "metrics"}` — the last line.
    pub result: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn result_line(
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

fn setup(opts: &Options) -> Result<Box<dyn Workload>, String> {
    workloads::setup(&opts.workload, opts.seed, opts.scale).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of {})",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })
}

/// Totals of a timed window of batches.
#[derive(Default)]
struct Window {
    batch_secs: Vec<f64>,
    /// Process CPU seconds of each batch (empty without a CPU clock).
    batch_cpu_secs: Vec<f64>,
    attempted: u64,
    failed: u64,
    bytes: u64,
    wall_s: f64,
    /// Share of the machine's CPU ticks the hypervisor stole during the
    /// window (0 where `/proc/stat` is unavailable).
    steal_share: f64,
    virt_ns: Vec<u64>,
    virt_span_ns: u64,
    digest: Fnv,
}

/// Runs equal batches until `seconds` have passed and at least
/// `min_batches` ran; the first `virt_batches` define the virtual
/// outputs.
fn run_window(w: &mut dyn Workload, seconds: f64, min_batches: u64) -> Window {
    let virt_batches = w.virt_batches();
    let min_batches = min_batches.max(virt_batches);
    let mut win = Window::default();
    let mut out = BatchOut::default();
    let ticks_before = host::steal_and_total_ticks();
    let started = Instant::now();
    let mut index = 0u64;
    while index < min_batches || started.elapsed().as_secs_f64() < seconds {
        out.clear();
        let cpu_before = host::cpu_seconds();
        let batch_started = Instant::now();
        w.run_batch(index, &mut out);
        win.batch_secs.push(batch_started.elapsed().as_secs_f64());
        if let Some((before, after)) = cpu_before.zip(host::cpu_seconds()) {
            win.batch_cpu_secs.push(after - before);
        }
        win.attempted += out.attempted;
        win.failed += out.failed;
        win.bytes += out.bytes;
        if index < virt_batches {
            win.virt_ns.extend_from_slice(&out.virt_ns);
            win.virt_span_ns += out.virt_span_ns;
            win.digest.write(out.digest.0);
        }
        index += 1;
    }
    win.wall_s = started.elapsed().as_secs_f64();
    if let Some(((steal0, total0), (steal1, total1))) =
        ticks_before.zip(host::steal_and_total_ticks())
    {
        win.steal_share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    }
    win
}

/// One round of timed complete set-ups (a single one for smoke runs);
/// returns the round's durations and its last deployment.
fn setup_round(opts: &Options) -> Result<(Vec<f64>, Box<dyn Workload>), String> {
    let (min, max) = match opts.scale {
        Scale::Full => (MIN_SETUPS, MAX_SETUPS),
        Scale::Smoke => (1, 1),
    };
    let mut secs = Vec::new();
    let mut workload = None;
    while secs.len() < min || (secs.len() < max && secs.iter().sum::<f64>() < SETUP_ROUND_S) {
        // Drop the previous deployment first, so peak memory is that of
        // one set-up, not two.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(opts)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok((secs, workload.expect("at least one set-up ran")))
}

/// The end-to-end pass: tracing off, every `end_to_end` metric.
///
/// # Errors
///
/// An unknown workload name.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let smoke = opts.scale == Scale::Smoke;
    let (first_round, mut w) = setup_round(opts)?;
    let mut setup_rounds = vec![first_round];
    let mut win = run_window(
        w.as_mut(),
        opts.seconds,
        if smoke { 2 } else { MIN_BATCHES },
    );

    // Checks too slow for the window (the memo ≡ plain prefix).
    let mut extra = BatchOut::default();
    w.final_check(&mut extra);
    let (attempted, failed) = (win.attempted + extra.attempted, win.failed + extra.failed);
    let (batch_ops, virt_batches, describe) =
        (w.batch_ops() as f64, w.virt_batches(), w.describe());
    drop(w);
    if !smoke {
        setup_rounds.push(setup_round(opts)?.0);
    }

    let median_batch_s = median(&win.batch_secs);
    let ops_per_s = batch_ops / median_batch_s;
    // Without a CPU clock, wall time is its upper bound on one thread.
    let batch_cpu = if win.batch_cpu_secs.is_empty() {
        &win.batch_secs
    } else {
        &win.batch_cpu_secs
    };
    let cpu_us_per_op = median(batch_cpu) * 1e6 / batch_ops;
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);

    win.virt_ns.sort_unstable();
    let virt = &win.virt_ns;
    let (p50_ms, p99_ms) = if virt.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            quantile_sorted(virt, 0.5) as f64 / 1e6,
            quantile_sorted(virt, 0.99) as f64 / 1e6,
        )
    };
    let virt_ops_per_s = virt.len() as f64 / (win.virt_span_ns.max(1) as f64 / 1e9);

    let setup_s =
        setup_rounds.iter().map(|round| median(round)).sum::<f64>() / setup_rounds.len() as f64;
    let setup_samples: usize = setup_rounds.iter().map(Vec::len).sum();
    let values = [
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("cpu_us_per_op", cpu_us_per_op),
        ("peak_rss_mb", peak_rss_mb),
        ("virt_ms_p50", p50_ms),
        ("virt_ms_p99", p99_ms),
        ("virt_ops_per_s", virt_ops_per_s),
    ];
    let batches = win.batch_secs.len();
    let p99_honest = highest_percentile(virt.len()).is_some_and(|q| q >= 0.99);
    let digest = format!("{:016x}", win.digest.0);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== {} (seed {}, {:?}) ==",
        opts.workload, opts.seed, opts.scale
    );
    let _ = writeln!(report, "  {describe}");
    let _ = writeln!(
        report,
        "  closed loop, 1 caller, 1 thread; {batches} batches x {batch_ops} ops in {:.2} s; outputs checked: {attempted} attempted, {failed} failed",
        win.wall_s
    );
    let _ = writeln!(
        report,
        "  {:<16} {:>16} {:<6} {:>7} {:>6}  meaning",
        "metric", "value", "unit", "n", "bound"
    );
    for (name, value) in values {
        let def = spec::end_to_end(name).expect("value names come from the table");
        let n = match name {
            "setup_s" => setup_samples,
            "ops_per_s" | "cpu_us_per_op" => batches,
            "virt_ms_p50" | "virt_ms_p99" | "virt_ops_per_s" => virt.len(),
            _ => 1,
        };
        let _ = writeln!(
            report,
            "  {:<16} {:>16.6} {:<6} {:>7} {:>5.0}%  {} is better; {}",
            name,
            value,
            def.unit,
            n,
            def.bound * 100.0,
            def.better.as_str(),
            def.note
        );
    }
    let total_ops_per_s = win.attempted as f64 / win.wall_s;
    let mb_per_s = win.bytes as f64 / 1e6 / win.wall_s;
    let _ = writeln!(
        report,
        "  info: total/total {total_ops_per_s:.3} ops/s, {mb_per_s:.1} MB/s delivered; batch wall p25/p50/p75 {:.3}/{:.3}/{:.3} ms; virt_digest {digest} over the first {} batches{}; hypervisor stole {:.1} % of the machine's CPU ticks meanwhile",
        quantile(&win.batch_secs, 0.25) * 1e3,
        median_batch_s * 1e3,
        quantile(&win.batch_secs, 0.75) * 1e3,
        virt_batches,
        if p99_honest { "" } else { " (fewer than 10 samples beyond p99 at this scale)" },
        win.steal_share * 100.0,
    );
    let _ = writeln!(
        report,
        "  note: virt_* are model outputs, validated only against the paper's bands by `headline` and the fig7 golden in tier-1; this benchmark states no error figure of its own."
    );

    let info = Json::obj([
        ("workload", Json::str(opts.workload.clone())),
        ("seed", Json::from(opts.seed)),
        (
            "scale",
            Json::str(format!("{:?}", opts.scale).to_lowercase()),
        ),
        ("virt_digest", Json::str(digest)),
        ("batches", Json::from(batches as u64)),
        ("batch_ops", Json::from(batch_ops as u64)),
        ("virt_samples", Json::from(virt.len() as u64)),
        ("setup_samples", Json::from(setup_samples as u64)),
        ("wall_s", Json::Num(win.wall_s)),
        ("total_ops_per_s", Json::Num(total_ops_per_s)),
        ("mb_per_s", Json::Num(mb_per_s)),
        ("host_steal_share", Json::Num(win.steal_share)),
    ]);
    let metrics = values
        .into_iter()
        .map(|(name, value)| {
            (
                name,
                value,
                spec::end_to_end(name)
                    .expect("value names come from the table")
                    .unit,
            )
        })
        .collect();
    Ok(Outcome {
        report,
        info,
        result: result_line(attempted, failed, metrics),
    })
}

/// The per-layer pass: a short untraced reference, the workload's traced
/// pass (written to `out/trace-<workload>.json`), then every per-layer
/// probe.
///
/// # Errors
///
/// An unknown workload name, or an I/O error writing the trace.
pub fn per_layer(opts: &Options) -> Result<Outcome, String> {
    let mut w = setup(opts)?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== {} per-layer pass (seed {}, {:?}) ==",
        opts.workload, opts.seed, opts.scale
    );

    // Untraced reference for the tracing overhead: a fifth of the window.
    let reference = run_window(w.as_mut(), opts.seconds / 5.0, 1);
    let untraced_s_per_op = median(&reference.batch_secs) / w.batch_ops() as f64;

    let mut tracer = Tracer::new();
    let mut traced = BatchOut::default();
    w.traced_pass(&mut tracer, &mut traced);
    drop(w);
    // Time inside the pass's root spans (one per op, or per batch of ops)
    // over the ops it ran; set-up a pass does outside them is not tracing.
    let traced_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|span| span.parent.is_none())
        .map(|span| span.dur_ns())
        .sum();
    let traced_s_per_op = traced_ns as f64 / 1e9 / traced.attempted.max(1) as f64;
    let overhead_pct = (traced_s_per_op / untraced_s_per_op - 1.0) * 100.0;

    let budget = Duration::from_secs_f64((opts.seconds * 0.6).max(0.1));
    let layer_report = layers::run(opts.seed, opts.scale, budget);

    let trace_path = out_dir().join(format!("trace-{}.json", opts.workload));
    tracer
        .write_chrome(&trace_path, &opts.workload)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let _ = writeln!(
        report,
        "  traced pass: {} ops, {} spans -> {} (open in Perfetto / chrome://tracing)",
        traced.attempted,
        tracer.spans().len(),
        trace_path.display()
    );
    let _ = writeln!(
        report,
        "  trace_overhead_pct {overhead_pct:.2} (info: traced {:.3} us/op vs untraced {:.3} us/op)",
        traced_s_per_op * 1e6,
        untraced_s_per_op * 1e6
    );
    let _ = writeln!(report, "  self time by span (duration - direct children):");
    report.push_str(&tracer.self_time_table());

    let _ = writeln!(
        report,
        "  transfer_edge accounting (host us): one-shot call vs its replayed parts + core.plane.overhead_ns of its size"
    );
    let _ = writeln!(
        report,
        "  {:<6} {:<8} {:>12} {:>14} {:>14} {:>10}",
        "size", "mode", "one_shot", "sum_children", "plane_overhead", "accounted"
    );
    for (size, mode, one_shot, children) in &layer_report.accounting {
        // The size's overhead metric: the mean of (one-shot - children)
        // over its three modes.
        let of_size: Vec<f64> = layer_report
            .accounting
            .iter()
            .filter(|row| row.0 == *size)
            .map(|row| row.2 - row.3)
            .collect();
        let overhead = of_size.iter().sum::<f64>() / of_size.len() as f64;
        let _ = writeln!(
            report,
            "  {:<6} {:<8} {:>12.3} {:>14.3} {:>14.3} {:>9.1}%",
            size.label(),
            mode,
            one_shot / 1e3,
            children / 1e3,
            overhead / 1e3,
            (children + overhead) / one_shot * 100.0
        );
    }

    let _ = writeln!(report, "  per-layer metrics (median; p90 and n beside it):");
    let _ = writeln!(
        report,
        "  {:<48} {:>16} {:<7} {:>14} {:>6}  should move",
        "metric", "value", "unit", "p90", "n"
    );
    let mut metrics = Vec::new();
    for sample in &layer_report.samples {
        let def = spec::per_layer(sample.name).expect("samples come from the table");
        let _ = writeln!(
            report,
            "  {:<48} {:>16.4} {:<7} {:>14.4} {:>6}  {}",
            sample.name, sample.value, def.unit, sample.p90, sample.n, def.note
        );
        metrics.push((sample.name, sample.value, def.unit));
    }

    let attempted = reference.attempted + traced.attempted;
    let failed = reference.failed + traced.failed;
    let info = Json::obj([
        ("workload", Json::str(opts.workload.clone())),
        ("seed", Json::from(opts.seed)),
        (
            "scale",
            Json::str(format!("{:?}", opts.scale).to_lowercase()),
        ),
        ("trace_overhead_pct", Json::Num(overhead_pct)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("spans", Json::from(tracer.spans().len() as u64)),
    ]);
    Ok(Outcome {
        report,
        info,
        result: result_line(attempted, failed, metrics),
    })
}
