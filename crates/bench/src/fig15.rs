//! Fig. 15 (beyond the paper) — warm-pool admission under bursty load.
//!
//! Fig. 13's cold-admission section keeps every instance it builds warm
//! forever — the regime where cold starts *hurt*, bursty ramps separated
//! by idle gaps, never shows up. This experiment drives exactly that
//! regime: N virtual users fire a burst, think for a long inter-burst gap
//! (40 uncontended makespans), and fire again, across four admission
//! policies:
//!
//! * **`no_pool`** — pooled admission with a zero TTL (the
//!   [`WarmPoolConfig`] default): every admission misses and instantiates
//!   (the pessimistic per-invocation cold-start baseline);
//! * **`ttl`** — a fixed keep-alive of half the inter-burst gap: warm
//!   instances die between bursts, so every burst re-pays the
//!   snapshot-restore tier (reactive keep-alive, mis-tuned);
//! * **`hybrid`** — the histogram-of-reuse-gaps policy (Shahrad et
//!   al.): optimistic until it has observed each function's gap
//!   distribution, then holds instances just long enough to cover it —
//!   bursts after the first admit warm;
//! * **`hybrid_prewarm`** — `hybrid` plus the autoscaler's predictive
//!   pre-warming: square-root staffing on the in-flight demand estimate
//!   instantiates pool capacity in the background (off every arrival's
//!   critical path), so even the first burst's later arrivals restore
//!   from snapshots laid down ahead of them.
//!
//! Each (policy) cell runs the three systems with their own cold-start
//! tiers from `baselines::coldstart`: full decode+instantiate for the
//! first build of a slot, the snapshot-restore tier afterwards (Wasm:
//! sub-millisecond, the Faasta claim; containers: CRIU-style checkpoint
//! restore). The headline gate asserts the warm-pool p99 sojourn at
//! burst peak (every instance after each user's first) beats `no_pool`
//! by at least [`GATE_MIN_P99_RATIO`]×, and that pre-warming strictly
//! cuts total cold-start time vs the reactive TTL cell.
//!
//! Cells fan out over the sweep worker pool like fig12–14; output is
//! byte-identical serial or parallel.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner_baselines::coldstart::{
    container_tiers, wasm_snapshot_restore_ns, ColdStartTiers, CONTAINER_IMAGE_BYTES,
    PAPER_WASM_HELLO_BYTES,
};
use roadrunner_platform::{
    loadgen, parallel_map, percentiles, AdmissionConfig, Autoscaler, AutoscalerConfig, ClosedLoop,
    Cluster, Controls, KeepAlive, LoadRun, LocalityFirst, PercentileSummary, PrewarmConfig,
    ScaleAction, WarmPoolConfig,
};
use roadrunner_vkernel::{CostModel, Nanos, SchedResources, Testbed};

use crate::fig13::{cluster, systems, SystemUnderLoad, CORES, START_NODES};
use crate::{fixed, json_secs, object, pipeline_spec, Object, MB};

/// The warm-pool p99 at burst peak must beat `no_pool` by at least this
/// factor (per system, for both the `hybrid` and `hybrid_prewarm`
/// cells). CI re-checks the recorded ratio in `BENCH_coldstart.json`.
pub const GATE_MIN_P99_RATIO: f64 = 2.0;

/// Inter-burst think gap: `GAP_MAKESPANS` uncontended makespans plus
/// `GAP_FULL_BUILDS` full cold builds — long enough that one burst is
/// fully absorbed (including background pre-warm instantiation) before
/// the next fires, that a mis-tuned TTL (half the gap) evicts
/// everything between bursts, and that the hybrid policy's learned TTL
/// still covers it.
const GAP_MAKESPANS: u64 = 40;
const GAP_FULL_BUILDS: u64 = 4;

fn gap_ns_of(solo_ns: Nanos, full_ns: Nanos) -> Nanos {
    solo_ns * GAP_MAKESPANS + full_ns * GAP_FULL_BUILDS
}

/// Knobs for one fig15 sweep.
pub struct Fig15Options {
    /// Reduced user count/rounds for CI.
    pub quick: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

/// The four admission policies, in emission order.
const POLICIES: [&str; 4] = ["no_pool", "ttl", "hybrid", "hybrid_prewarm"];

/// Both cold-start tiers of one system's functions.
fn tiers_of(label: &str, full_ns: Nanos, cost: &CostModel) -> ColdStartTiers {
    let restore_ns = match label {
        "runc" => container_tiers(cost, CONTAINER_IMAGE_BYTES).restore_ns,
        _ => wasm_snapshot_restore_ns(cost, PAPER_WASM_HELLO_BYTES),
    };
    debug_assert!(restore_ns < full_ns, "restore tier must undercut the full build");
    ColdStartTiers { full_ns, restore_ns }
}

/// Admission config of one (policy, system) cell. `gap_ns` is the
/// inter-burst think gap the keep-alive policies are tuned against.
fn admission_of(policy: &str, tiers: ColdStartTiers, gap_ns: Nanos) -> AdmissionConfig {
    let pool = |keep_alive| WarmPoolConfig {
        restore_ns: Some(tiers.restore_ns),
        keep_alive,
        ..WarmPoolConfig::default()
    };
    match policy {
        // No restore tier either: the baseline pays the full build on
        // every admission, the worst honest cold-start story.
        "no_pool" => AdmissionConfig::pooled(
            tiers.full_ns,
            WarmPoolConfig { restore_ns: None, ..WarmPoolConfig::default() },
        ),
        "ttl" => AdmissionConfig::pooled(
            tiers.full_ns,
            pool(KeepAlive::FixedTtl { ttl_ns: gap_ns / 2 }),
        ),
        _ => AdmissionConfig::pooled(
            tiers.full_ns,
            pool(KeepAlive::Hybrid { min_ttl_ns: 1_000_000, max_ttl_ns: gap_ns * 4 }),
        ),
    }
}

/// One bursty closed-loop run of one system under one policy.
fn run_cell(
    system: &mut SystemUnderLoad,
    bed: &Arc<Testbed>,
    tiers: ColdStartTiers,
    policy: &str,
    users: usize,
    rounds: usize,
    payload: &Bytes,
) -> LoadRun {
    let solo = system.solo_ns;
    let gap_ns = gap_ns_of(solo, tiers.full_ns);
    let load = ClosedLoop {
        spec: pipeline_spec("bench"),
        payload: payload.clone(),
        users,
        think_ns: gap_ns,
        ramp_ns: solo / 4,
        instances: users * rounds,
        admission: admission_of(policy, tiers, gap_ns),
    };
    let mut placement = LocalityFirst::new();
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let clock = bed.clock().clone();
    // The node controller is pinned (min = max): only the prewarm side
    // of the autoscaler acts, staffing the pool predictively.
    let mut scaler = Autoscaler::new(AutoscalerConfig {
        min_nodes: START_NODES,
        max_nodes: START_NODES,
        node_cores: CORES,
        scale_up_backlog_ns: Nanos::MAX,
        scale_down_backlog_ns: 0,
        window_ns: gap_ns,
    })
    .with_prewarm(PrewarmConfig {
        // Extrapolate one makespan ahead — enough to front-run a
        // building burst without staffing for phantom demand.
        headroom: 2.0,
        lead_ns: solo.max(1),
        window_ns: solo.max(1),
    });
    let autoscaler = (policy == "hybrid_prewarm").then_some(&mut scaler);
    let run = system
        .plane
        .drive(&clock, |plane| {
            let policy = &mut placement;
            let cluster = Cluster { plane, clock: &clock, resources: &mut resources, policy };
            loadgen::run(&load, cluster, Controls { autoscaler, ..Controls::default() })
        })
        .expect("bursty closed-loop run");
    assert_eq!(run.outcomes.len(), users * rounds, "every instance must complete");
    run
}

/// Sojourn percentiles at burst peak: every instance *after* each
/// user's first. First instances pay the unavoidable first build under
/// every policy; the peak digest is where the policies differ.
fn peak_percentiles(run: &LoadRun) -> PercentileSummary {
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut sojourns: Vec<Nanos> = Vec::new();
    for o in &run.outcomes {
        let prior = seen.entry(o.user).or_insert(0);
        if *prior >= 1 {
            sojourns.push(o.sojourn_ns);
        }
        *prior += 1;
    }
    percentiles(&sojourns).expect("every user ran more than one round")
}

/// One cell's merged result.
struct CellResult {
    policy: &'static str,
    systems: Vec<(&'static str, Nanos, ColdStartTiers, LoadRun)>,
}

/// Runs one policy across the three systems as a self-contained job.
fn run_job(policy: &'static str, users: usize, rounds: usize, payload: &Bytes) -> CellResult {
    let bed = cluster();
    let mut under_load = systems(&bed, payload);
    let systems = under_load
        .iter_mut()
        .map(|system| {
            let tiers = tiers_of(system.label, system.cold_ns, bed.cost());
            let run = run_cell(system, &bed, tiers, policy, users, rounds, payload);
            (system.label, system.solo_ns, tiers, run)
        })
        .collect();
    CellResult { policy, systems }
}

fn cell_row(
    system: &str,
    solo_ns: Nanos,
    tiers: ColdStartTiers,
    policy: &str,
    users: usize,
    run: &LoadRun,
) -> Object {
    let digest = run.sojourn_percentiles().expect("non-empty run");
    let peak = peak_percentiles(run);
    let pool = run.pool.expect("every fig15 cell runs pooled admission");
    let prewarm_events =
        run.scale_events.iter().filter(|e| e.action == ScaleAction::Prewarm).count();
    let pool = object! {
        "hits" => pool.hits, "misses" => pool.misses, "restores" => pool.restores,
        "returns" => pool.returns, "evictions" => pool.evictions, "prewarms" => pool.prewarms,
        "prewarm_s" => json_secs(pool.prewarm_ns),
        "idle_s" => fixed(pool.idle_ns as f64 / 1e9, 6), "warm_at_end" => pool.warm_at_end,
    };
    object! {
        "system" => system, "policy" => policy, "users" => users,
        "instances" => run.outcomes.len(), "solo_s" => json_secs(solo_ns),
        "gap_s" => json_secs(gap_ns_of(solo_ns, tiers.full_ns)),
        "full_tier_s" => json_secs(tiers.full_ns), "restore_tier_s" => json_secs(tiers.restore_ns),
        "p50_s" => json_secs(digest.p50_ns), "p95_s" => json_secs(digest.p95_ns),
        "p99_s" => json_secs(digest.p99_ns), "p99_peak_s" => json_secs(peak.p99_ns),
        "max_s" => json_secs(digest.max_ns), "cold_starts" => run.cold_starts(),
        "cold_total_s" => json_secs(run.cold_start_total_ns()),
        "pool" => pool, "prewarm_events" => prewarm_events,
    }
}

/// Runs the fig15 sweep under `opts` and returns the complete JSON
/// document (the content of `BENCH_coldstart.json`). Panics if any
/// headline invariant — the p99 gate, the strict prewarm-vs-TTL
/// cold-total cut — fails.
pub fn fig15_json(opts: &Fig15Options) -> String {
    let (users, rounds) = if opts.quick { (6, 4) } else { (8, 6) };
    let payload = Bytes::from(vec![0xC5u8; MB / 4]);

    let results = parallel_map(&POLICIES, opts.workers, |_, &policy| {
        run_job(policy, users, rounds, &payload)
    });

    let cell = |policy: &str, system: &str| {
        results
            .iter()
            .find(|c| c.policy == policy)
            .and_then(|c| c.systems.iter().find(|(l, ..)| *l == system))
            .expect("cell exists")
    };
    let mut worst_ratio = f64::INFINITY;
    for system in ["roadrunner", "runc", "wasmedge"] {
        let peak = |policy: &str| peak_percentiles(&cell(policy, system).3).p99_ns;
        let cold_total = |policy: &str| cell(policy, system).3.cold_start_total_ns();
        let pool = |policy: &str| cell(policy, system).3.pool.expect("pooled run");

        // The no-pool baseline never serves warm; the keep-alive cells do.
        assert_eq!(pool("no_pool").hits, 0, "{system}: a zero TTL must never hit");
        for warm in ["ttl", "hybrid", "hybrid_prewarm"] {
            assert!(pool(warm).hits > 0, "{system}/{warm}: keep-alive must serve warm");
        }

        // Headline gate: warm-pool p99 at burst peak ≥ 2× better.
        let no_pool_p99 = peak("no_pool");
        for warm in ["hybrid", "hybrid_prewarm"] {
            let ratio = no_pool_p99 as f64 / peak(warm).max(1) as f64;
            assert!(
                ratio >= GATE_MIN_P99_RATIO,
                "{system}/{warm}: peak p99 ratio {ratio:.2} below gate \
                 ({no_pool_p99} vs {})",
                peak(warm),
            );
            worst_ratio = worst_ratio.min(ratio);
        }

        // The mis-tuned TTL re-pays restores every burst; the hybrid
        // policy's learned TTL covers the gap, and pre-warming moves
        // instantiation off the critical path entirely — both must cut
        // total charged cold-start time, pre-warming *strictly*.
        let (ttl, hybrid, prewarm) =
            (cold_total("ttl"), cold_total("hybrid"), cold_total("hybrid_prewarm"));
        assert!(hybrid < ttl, "{system}: hybrid {hybrid} must undercut ttl {ttl}");
        assert!(prewarm < ttl, "{system}: prewarm {prewarm} must strictly undercut ttl {ttl}");

        // Pre-warming must actually have happened, and been traced.
        let prewarm_run = &cell("hybrid_prewarm", system).3;
        assert!(pool("hybrid_prewarm").prewarms > 0, "{system}: prewarming must staff the pool");
        assert!(
            prewarm_run.scale_events.iter().any(|e| e.action == ScaleAction::Prewarm),
            "{system}: the staffing ratchet must emit Prewarm events"
        );
    }

    let mut rows: Vec<Object> = Vec::new();
    for result in &results {
        for (label, solo_ns, tiers, run) in &result.systems {
            rows.push(cell_row(label, *solo_ns, *tiers, result.policy, users, run));
        }
    }

    let gate = object! {
        "min_p99_ratio" => fixed(GATE_MIN_P99_RATIO, 1),
        "worst_p99_ratio" => fixed(worst_ratio, 3), "pass" => true,
    };
    let doc = object! {
        "figure" => "fig15_coldstart",
        "cluster" => object! { "nodes" => START_NODES, "cores_per_node" => CORES },
        "workflow" => "src -> relay -> sink",
        "payload_mb" => fixed((MB / 4) as f64 / MB as f64, 2),
        "users" => users, "rounds_per_user" => rounds, "gap_makespans" => GAP_MAKESPANS,
        "gate" => gate, "cells" => rows,
    };
    doc.document()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 smoke: the quick matrix end to end on one worker,
    /// asserting every headline invariant (the gate assertions live
    /// inside `fig15_json`) and that the output is the pinned `--quick`
    /// reference. `tests/sweep_golden.rs` holds the same reference
    /// against four workers.
    #[test]
    fn quick_sweep_passes_every_gate() {
        let json = fig15_json(&Fig15Options { quick: true, workers: 1 });
        assert_eq!(json.lines().filter(|l| l.contains("hybrid_prewarm")).count(), 3);
        assert_eq!(format!("{json}\n"), include_str!("../reference/fig15_quick.json"));
    }
}
