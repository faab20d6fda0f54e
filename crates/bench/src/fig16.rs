//! Fig. 16 (beyond the paper) — overload control and metastable
//! failure.
//!
//! The elasticity experiments (fig13/fig14) always let every arrival
//! in; this experiment drives the cluster *past* saturation and shows
//! why that is the failure mode that does not heal on its own. A
//! three-phase open-loop trace — a calm pre-burst stretch, a burst at
//! several times deliverable capacity (with link flaps feeding the
//! retry engine), and a calm post-burst stretch at the pre-burst rate —
//! is replayed through two configurations of the same engine:
//!
//! * **naive** — aggressive retries (6 attempts), no deadline, no
//!   budget, no breaker, no queue. The burst's work plus its retry
//!   amplification piles onto the shared timelines; long after the
//!   burst ends, post-phase arrivals still queue behind it and miss the
//!   SLO. Goodput (completions within [`SLO_INTERVALS`]× the measured
//!   saturation interval, per second of arrivals) stays collapsed: the metastable
//!   signature.
//! * **mitigated** — the same trace, same flaps, same retry policy,
//!   with the overload layer on: per-instance deadlines shed doomed
//!   work mid-flight, the retry budget caps retry traffic at a fraction
//!   of successes, circuit breakers steer placement off failing
//!   (function, node) pairs, and a bounded CoDel admission queue sheds
//!   the burst's excess instead of admitting it. Post-burst goodput
//!   recovers to ≥ [`GATE_RECOVERY`] of pre-burst.
//!
//! A second pair of cells replays a multi-tenant variant: a light
//! interactive tenant sharing the cluster with an adversarial flood
//! tenant, once with unbounded admission (**fair_naive** — the flood
//! wrecks the interactive p95) and once behind the weighted admission
//! queue (**fair_shared** — reject-oldest keeps the queue fresh and a
//! 4:1 weight drains the interactive lane first; its p95 stays within
//! [`GATE_ISOLATION`]× of the flood-free pair's). All four cells are
//! independent jobs fanned over the sweep worker pool; serial and
//! parallel output is byte-identical.

use bytes::Bytes;
use roadrunner_platform::{
    loadgen, parallel_map, AdmissionConfig, BreakerConfig, ClosedLoop, Cluster, Controls,
    DataPlane, FailurePlan, LoadRun, MultiLoad, OverloadConfig, QueueConfig, RetryBudgetConfig,
    RetryPolicy, ShedPolicy, SpreadLoad, TenantLoad,
};
use roadrunner_vkernel::{Nanos, OutageSchedule, SchedResources};

use crate::fig13::{cluster, systems, CORES, START_NODES};
use crate::{fixed, json_secs, object, pipeline_spec, Object, MB};

/// The SLO every goodput number is measured against, in multiples of
/// the measured saturation interval (also the mitigated cell's
/// deadline). Every cell calibrates its own interval with a closed-loop
/// probe before the trace runs, so the geometry tracks what the cluster
/// actually delivers under spread placement rather than the co-located
/// solo makespan.
pub const SLO_INTERVALS: u64 = 12;
/// Naive post-burst goodput must collapse below this fraction of its
/// own pre-burst goodput.
pub const GATE_COLLAPSE: f64 = 0.5;
/// Mitigated post-burst goodput must recover to at least this fraction
/// of its own pre-burst goodput.
pub const GATE_RECOVERY: f64 = 0.8;
/// The shared-queue interactive p95 must beat the unprotected
/// interactive p95 by at least this factor.
pub const GATE_ISOLATION: f64 = 2.0;

/// Knobs for one fig16 sweep.
pub struct Fig16Options {
    /// Reduced phase lengths for CI.
    pub quick: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

/// The four experiment cells, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Naive,
    Mitigated,
    FairNaive,
    FairShared,
}

impl Cell {
    fn label(self) -> &'static str {
        match self {
            Cell::Naive => "naive",
            Cell::Mitigated => "mitigated",
            Cell::FairNaive => "fair_naive",
            Cell::FairShared => "fair_shared",
        }
    }

    fn is_fair(self) -> bool {
        matches!(self, Cell::FairNaive | Cell::FairShared)
    }
}

/// One cell's knobs — also the parallel job description.
#[derive(Clone, Copy)]
struct Job {
    cell: Cell,
    quick: bool,
}

/// Per-phase arrival counts (pre, burst, post) and the fairness-pair
/// counts (interactive, flood), quick vs full.
fn counts(quick: bool) -> (usize, usize, usize, usize, usize) {
    if quick {
        (20, 80, 30, 10, 160)
    } else {
        (40, 160, 60, 16, 256)
    }
}

/// The burst trace geometry, all in units of the measured saturation
/// interval `i` (the reciprocal of deliverable throughput): calm phases
/// at one arrival per `2i` (half of capacity), the burst at one per
/// `i/3` (three times capacity before retries).
struct Trace {
    releases: Vec<Nanos>,
    burst_start: Nanos,
    post_start: Nanos,
    post_end: Nanos,
}

fn burst_trace(i: Nanos, quick: bool) -> Trace {
    let (n_pre, n_burst, n_post, _, _) = counts(quick);
    let (gap_calm, gap_burst) = ((2 * i).max(1), (i / 3).max(1));
    let mut releases = Vec::with_capacity(n_pre + n_burst + n_post);
    let mut t = 0;
    for _ in 0..n_pre {
        releases.push(t);
        t += gap_calm;
    }
    let burst_start = t;
    for _ in 0..n_burst {
        releases.push(t);
        t += gap_burst;
    }
    let post_start = t;
    for _ in 0..n_post {
        releases.push(t);
        t += gap_calm;
    }
    Trace { releases, burst_start, post_start, post_end: t }
}

/// The flap schedule the burst pair injects: two three-interval link
/// outages on the pair link, nine intervals apart, starting nine
/// intervals *into* the burst — the healthy front of the burst piles
/// the admission queue up first, then the flaps feed the retry engine
/// while the cluster is already past saturation.
fn flap_plan(i: Nanos, burst_start: Nanos, ids: (u64, u64)) -> FailurePlan {
    let retry = RetryPolicy::new(6, (i / 2).max(1), (4 * i).max(1));
    let mut outages = OutageSchedule::new();
    for flap in 0..2u64 {
        let from = burst_start + (9 + flap * 9) * i;
        outages = outages.link_down(ids.0, ids.1, from, from + 3 * i);
    }
    FailurePlan::new(retry).with_outages(outages)
}

/// The full overload stack the mitigated cell turns on.
fn mitigations(i: Nanos) -> OverloadConfig {
    OverloadConfig {
        deadline_ns: Some(SLO_INTERVALS * i),
        retry_budget: Some(RetryBudgetConfig {
            burst_millitokens: 4_000,
            per_success_millitokens: 200,
        }),
        breaker: Some(BreakerConfig {
            window_ns: (4 * i).max(1),
            failure_rate: (1, 2),
            min_samples: 4,
            open_ns: (4 * i).max(1),
            half_open_probes: 2,
            placement_penalty_ns: 1 << 40,
        }),
        // Admit at most half the saturation depth: overload posture is
        // to hold concurrency at the knee and queue (then shed) the
        // rest, not to let the timelines absorb unbounded backlog.
        queue: Some(QueueConfig {
            max_in_flight: (START_NODES * CORES as usize) / 2,
            queue_cap: 64,
            policy: ShedPolicy::CoDel { target_ns: (2 * i).max(1) },
        }),
    }
}

/// The weighted queue the fair_shared cell puts in front of admission.
fn fair_queue() -> OverloadConfig {
    OverloadConfig {
        queue: Some(QueueConfig {
            max_in_flight: (START_NODES * CORES as usize),
            queue_cap: 32,
            policy: ShedPolicy::RejectOldest,
        }),
        ..OverloadConfig::default()
    }
}

/// Goodput over arrivals in `[from, to)`: completions within `slo`,
/// per second of the window.
fn goodput_rps(run: &LoadRun, from: Nanos, to: Nanos, slo: Nanos) -> f64 {
    if to <= from {
        return 0.0;
    }
    let good = run
        .outcomes
        .iter()
        .filter(|o| {
            !o.failed
                && !o.deadline_exceeded
                && o.release_ns >= from
                && o.release_ns < to
                && o.sojourn_ns <= slo
        })
        .count();
    good as f64 * 1e9 / (to - from) as f64
}

/// One cell's run plus everything the gates and rows need.
struct CellResult {
    job: Job,
    solo_ns: Nanos,
    /// The calibrated saturation interval (1 / deliverable throughput).
    interval_ns: Nanos,
    run: LoadRun,
    /// (pre, post) goodput for the burst pair; `None` for fairness.
    goodput: Option<(f64, f64)>,
}

/// Measures the cluster's deliverable throughput under spread placement
/// as a saturation interval: eight think-free closed-loop users, the
/// horizon over the completions. Every cell runs the same probe on
/// fresh resources, so the calibration is deterministic and identical
/// across cells.
fn saturation_interval(plane: &mut dyn DataPlane, payload: &Bytes) -> Nanos {
    let users = START_NODES * CORES as usize;
    let probe = ClosedLoop {
        spec: pipeline_spec("bench"),
        payload: payload.clone(),
        users,
        think_ns: 0,
        ramp_ns: 0,
        instances: users * 4,
        admission: AdmissionConfig::warm(),
    };
    let cluster = Cluster {
        plane,
        resources: &mut SchedResources::mesh(&[CORES; START_NODES]),
        policy: &mut SpreadLoad::new(),
    };
    let run = loadgen::run(&probe, cluster, Controls::default()).expect("calibration probe");
    let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(1);
    (horizon / run.completed().max(1) as u64).max(1)
}

fn run_job(job: &Job, payload: &Bytes) -> CellResult {
    let bed = cluster();
    let mut under_load = systems(&bed, payload);
    let system = &mut under_load[0]; // roadrunner
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let ids = (resources.node_id(0), resources.node_id(1));
    let mut policy = SpreadLoad::new();
    // Roadrunner's plane runs every edge for real (see `load_planes`).
    let plane = system.plane.bare();
    let i = saturation_interval(plane, payload);

    let (load, plan, overload, windows) = if job.cell.is_fair() {
        let (_, _, _, n_inter, n_flood) = counts(job.quick);
        let interactive = TenantLoad {
            name: "interactive".to_owned(),
            spec: pipeline_spec("interactive"),
            payload: payload.clone(),
            releases: (0..n_inter as u64).map(|k| k * 8 * i).collect(),
            weight: 4,
        };
        let flood = TenantLoad {
            name: "flood".to_owned(),
            spec: pipeline_spec("flood"),
            payload: payload.clone(),
            releases: (0..n_flood as u64).map(|k| k * (i / 2).max(1)).collect(),
            weight: 1,
        };
        let overload = match job.cell {
            Cell::FairShared => fair_queue(),
            _ => OverloadConfig::default(),
        };
        (
            MultiLoad {
                tenants: vec![interactive, flood],
                admission: AdmissionConfig::warm(),
            },
            None,
            overload,
            None,
        )
    } else {
        let trace = burst_trace(i, job.quick);
        let windows = (trace.burst_start, trace.post_start, trace.post_end);
        let tenant = TenantLoad {
            name: "bench".to_owned(),
            spec: pipeline_spec("bench"),
            payload: payload.clone(),
            releases: trace.releases,
            weight: 1,
        };
        let plan = flap_plan(i, trace.burst_start, ids);
        let overload = match job.cell {
            Cell::Mitigated => mitigations(i),
            _ => OverloadConfig::default(),
        };
        (
            MultiLoad { tenants: vec![tenant], admission: AdmissionConfig::warm() },
            Some(plan),
            overload,
            Some(windows),
        )
    };

    let cluster = Cluster { plane, resources: &mut resources, policy: &mut policy };
    let controls = Controls { failures: plan.as_ref(), overload, ..Controls::default() };
    let run = loadgen::run(&load, cluster, controls).expect("fig16 cell run");

    // Conservation in every cell: arrivals are fully accounted.
    assert_eq!(
        run.arrivals,
        run.completed() + run.failed + run.deadline_exceeded + run.shed,
        "{}: arrivals must be conserved",
        job.cell.label(),
    );

    let goodput = windows.map(|(burst_start, post_start, post_end)| {
        let slo = SLO_INTERVALS * i;
        (goodput_rps(&run, 0, burst_start, slo), goodput_rps(&run, post_start, post_end, slo))
    });
    CellResult { job: *job, solo_ns: system.solo_ns, interval_ns: i, run, goodput }
}

fn cell_row(result: &CellResult) -> Object {
    let run = &result.run;
    let digest = run.sojourn_percentiles();
    let tenant_p95 = |name: &str| {
        let tenant = run.tenants.iter().position(|t| t.name == name);
        tenant.and_then(|t| run.tenant_sojourn_percentiles(t)).map(|d| json_secs(d.p95_ns))
    };
    let fair = result.job.cell.is_fair();
    object! {
        "cell" => result.job.cell.label(), "solo_s" => json_secs(result.solo_ns),
        "saturation_interval_s" => json_secs(result.interval_ns),
        "arrivals" => run.arrivals, "completed" => run.completed(), "failed" => run.failed,
        "deadline_exceeded" => run.deadline_exceeded, "shed" => run.shed,
        "retries" => run.retries,
        "p50_s" => digest.map(|d| json_secs(d.p50_ns)),
        "p95_s" => digest.map(|d| json_secs(d.p95_ns)),
        "p99_s" => digest.map(|d| json_secs(d.p99_ns)),
        "goodput_pre_rps" => result.goodput.map(|g| fixed(g.0, 3)),
        "goodput_post_rps" => result.goodput.map(|g| fixed(g.1, 3)),
        "interactive_p95_s" => tenant_p95("interactive").filter(|_| fair),
        "flood_p95_s" => tenant_p95("flood").filter(|_| fair),
    }
}

/// Runs the fig16 sweep under `opts` and returns the complete JSON
/// document (the content of `BENCH_overload.json`). Panics if any
/// headline gate — the naive collapse, the mitigated recovery, or the
/// tenant isolation — fails.
pub fn fig16_json(opts: &Fig16Options) -> String {
    let payload = Bytes::from(vec![0xF1u8; MB / 4]);
    let jobs: Vec<Job> = [Cell::Naive, Cell::Mitigated, Cell::FairNaive, Cell::FairShared]
        .into_iter()
        .map(|cell| Job { cell, quick: opts.quick })
        .collect();

    let results = parallel_map(&jobs, opts.workers, |_, job| run_job(job, &payload));
    let find = |cell: Cell| results.iter().find(|r| r.job.cell == cell).expect("cell exists");

    // Gate 1: the naive cell's post-burst goodput stays collapsed.
    let (naive_pre, naive_post) = find(Cell::Naive).goodput.expect("burst cell");
    assert!(naive_pre > 0.0, "naive pre-burst goodput must be nonzero");
    let collapse = naive_post / naive_pre;
    assert!(
        collapse < GATE_COLLAPSE,
        "naive goodput must stay collapsed after the burst: \
         post {naive_post:.3} rps vs pre {naive_pre:.3} rps (ratio {collapse:.3})",
    );

    // Gate 2: the mitigated cell recovers.
    let (mit_pre, mit_post) = find(Cell::Mitigated).goodput.expect("burst cell");
    assert!(mit_pre > 0.0, "mitigated pre-burst goodput must be nonzero");
    let recovery = mit_post / mit_pre;
    assert!(
        recovery >= GATE_RECOVERY,
        "the overload layer must restore post-burst goodput: \
         post {mit_post:.3} rps vs pre {mit_pre:.3} rps (ratio {recovery:.3})",
    );
    // Mitigation must come from the mechanisms, not from luck: the
    // queue must shed, and retry traffic must be cut vs naive.
    let mitigated = find(Cell::Mitigated);
    assert!(mitigated.run.shed > 0, "the mitigated queue must shed burst excess");
    assert!(
        mitigated.run.retries < find(Cell::Naive).run.retries,
        "the retry budget must cut retry amplification ({} vs naive {})",
        mitigated.run.retries,
        find(Cell::Naive).run.retries,
    );

    // Gate 3: the weighted queue isolates the interactive tenant.
    let inter_p95 = |cell: Cell| {
        let run = &find(cell).run;
        run.tenants
            .iter()
            .position(|t| t.name == "interactive")
            .and_then(|t| run.tenant_sojourn_percentiles(t))
            .expect("interactive completions")
            .p95_ns
    };
    let (exposed, isolated) = (inter_p95(Cell::FairNaive), inter_p95(Cell::FairShared));
    let isolation = exposed as f64 / isolated.max(1) as f64;
    assert!(
        isolation >= GATE_ISOLATION,
        "the weighted queue must isolate the interactive tenant: \
         p95 {} vs unprotected {} (ratio {isolation:.2})",
        isolated,
        exposed,
    );
    let shared = find(Cell::FairShared);
    let inter = shared
        .run
        .tenants
        .iter()
        .find(|t| t.name == "interactive")
        .expect("interactive stats");
    assert!(
        inter.completed * 10 >= inter.arrivals * 8,
        "the interactive tenant must keep completing behind the queue \
         ({}/{} completed)",
        inter.completed,
        inter.arrivals,
    );

    let rows: Vec<Object> = results.iter().map(cell_row).collect();
    let gate = object! {
        "max_collapse_ratio" => fixed(GATE_COLLAPSE, 1), "collapse_ratio" => fixed(collapse, 3),
        "min_recovery_ratio" => fixed(GATE_RECOVERY, 1), "recovery_ratio" => fixed(recovery, 3),
        "min_isolation_ratio" => fixed(GATE_ISOLATION, 1),
        "isolation_ratio" => fixed(isolation, 3), "pass" => true,
    };
    let doc = object! {
        "figure" => "fig16_overload",
        "cluster" => object! { "nodes" => START_NODES, "cores_per_node" => CORES },
        "workflow" => "src -> relay -> sink",
        "payload_mb" => fixed((MB / 4) as f64 / MB as f64, 2),
        "slo_intervals" => SLO_INTERVALS, "gate" => gate, "cells" => rows,
    };
    doc.document()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 smoke: the quick matrix end to end on one worker; every
    /// headline gate asserts inside `fig16_json`, and the output is the
    /// pinned `--quick` reference. `tests/sweep_golden.rs` holds the
    /// same reference against four workers.
    #[test]
    fn quick_sweep_passes_every_gate() {
        let json = fig16_json(&Fig16Options { quick: true, workers: 1 });
        assert_eq!(json.lines().filter(|l| l.contains("fair_shared")).count(), 1);
        assert_eq!(format!("{json}\n"), include_str!("../reference/fig16_quick.json"));
    }
}
