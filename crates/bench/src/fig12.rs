//! Fig. 12 (beyond the paper) — throughput and tail latency under
//! multi-tenant load, swept in parallel with multi-seed replication.
//!
//! The experiment logic lives here (not in the binary) so the golden
//! determinism test can run the serial and parallel sweeps in-process
//! and diff the JSON strings byte for byte.
//!
//! The sweep is a [`SweepGrid`]: policies (`locality`, `spread`) ×
//! payload sizes × arrival-rate factors × Poisson arrival seeds. Every
//! grid point is one fully independent job — it builds its own
//! [`Testbed`], deploys its own three systems (Roadrunner, RunC-like,
//! WasmEdge-like), measures its own uncontended makespans and runs its
//! own open-loop sweep against fresh [`SchedResources`] — so the
//! worker pool can execute points in any order and on any thread while
//! the merged output (in canonical grid order) stays byte-identical to
//! the serial loop's. Seeds replicate each experimental cell under
//! distinct Poisson arrival sequences; the emitted rows collapse the
//! replicas into [`replicate`] summaries with across-seed means and
//! order-statistic confidence intervals.
//!
//! Invariants asserted per point and post-merge:
//!
//! * contention never speeds an instance up: every sojourn ≥ the
//!   system's uncontended concurrent makespan;
//! * under identical arrival process and policy, Roadrunner sustains
//!   higher mean throughput and lower mean p95 than WasmEdge across
//!   seeds.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::{
    loadgen, replicate, sweep, AdmissionConfig, ArrivalProcess, Cluster, Controls, DataPlane,
    LocalityFirst, MemoizedPlane, OpenLoop, PercentileSummary, PlacementPolicy, ReplicatedStat,
    SpreadLoad, SweepGrid, SweepPoint,
};
use roadrunner_vkernel::{Nanos, SchedResources, Testbed};

use crate::{
    cluster, fixed, json_secs, object, pipeline_spec, roadrunner_pipeline, uncontended, Object, MB,
};

const NODES: usize = 4;

/// Arrival-rate regimes as factors of the WasmEdge uncontended
/// makespan (see the module docs of the `fig12_load` binary).
const RATE_FACTORS: [(&str, f64); 3] = [("light", 2.0), ("heavy", 0.15), ("surge", 0.03)];

/// Knobs for one fig12 sweep.
pub struct Fig12Options {
    /// Reduced payloads/instances/seeds for CI.
    pub quick: bool,
    /// Tier-1 profile for the in-process golden determinism test: the
    /// same grid structure (both policies, all rate regimes, multiple
    /// seeds) over a small payload, so `cargo test` stays fast in debug
    /// builds while still exercising the full sweep path. CI diffs the
    /// full `--quick` binary output on top.
    pub golden: bool,
    /// Wrap planes in the transfer-cost memo (`--no-memo` turns off).
    pub memo: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

struct SystemUnderLoad {
    label: &'static str,
    plane: Box<dyn DataPlane>,
}

/// The three systems, each deployed for one co-location regime: the
/// Roadrunner pipeline colocated on node 0 (`locality`: kernel-space
/// edges) or spread over nodes 0/1/2 (`spread`: network edges). Pairs
/// carry every edge of the pipeline over their established connection.
fn systems(bed: &Arc<Testbed>, colocated: bool) -> Vec<SystemUnderLoad> {
    let peer = usize::from(!colocated);
    let nodes = if colocated { [0, 0, 0] } else { [0, 1, 2] };
    vec![
        SystemUnderLoad {
            label: "roadrunner",
            plane: Box::new(roadrunner_pipeline(bed, "fig12", nodes)),
        },
        SystemUnderLoad {
            label: "runc",
            plane: Box::new(RuncPair::establish(Arc::clone(bed), 0, peer)),
        },
        SystemUnderLoad {
            label: "wasmedge",
            plane: Box::new(WasmedgePair::establish(Arc::clone(bed), 0, peer)),
        },
    ]
}

fn policy_of(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        _ => Box::new(SpreadLoad::new()),
    }
}

/// One system's digest for one grid point (a single seed replica).
struct SystemRun {
    label: &'static str,
    uncontended_ns: Nanos,
    offered_rps: f64,
    achieved_rps: f64,
    digest: PercentileSummary,
    cpu_utilization: f64,
    link_utilization: f64,
}

/// One grid point's result: the three systems under one (policy,
/// payload, rate, seed) combination.
struct PointResult {
    mean_interval_ns: Nanos,
    runs: Vec<SystemRun>,
}

/// Runs one grid point, fully self-contained: fresh testbed, fresh
/// deployments, fresh scheduler state — nothing shared with any other
/// point, which is what makes the parallel sweep byte-identical to the
/// serial one.
fn run_point(point: &SweepPoint, instances: usize, memo: bool) -> PointResult {
    let colocated = point.policy == "locality";
    let payload = Bytes::from(vec![0xA7u8; point.payload_bytes]);
    let bed = cluster(NODES, 4);
    let mut under_load = systems(&bed, colocated);
    let solos: Vec<Nanos> = under_load
        .iter_mut()
        .map(|s| {
            let mut fresh = SchedResources::for_testbed(&bed);
            uncontended(s.plane.as_mut(), &bed, &payload, &mut fresh)
        })
        .collect();
    let wasmedge_solo = under_load
        .iter()
        .zip(&solos)
        .find(|(s, _)| s.label == "wasmedge")
        .map(|(_, &ns)| ns)
        .expect("wasmedge is part of the line-up");
    // Identical offered process for every system in the cell: Poisson
    // arrivals with mean = factor × the WasmEdge uncontended makespan,
    // re-seeded per replica.
    let mean_interval_ns = (wasmedge_solo as f64 * point.rate).round() as Nanos;
    let arrivals =
        ArrivalProcess::Poisson { mean_interval_ns, seed: 0 }.with_seed(point.seed);

    let mut runs = Vec::with_capacity(under_load.len());
    for (system, &solo) in under_load.iter_mut().zip(&solos) {
        let mut policy = policy_of(&point.policy);
        let mut resources = SchedResources::for_testbed(&bed);
        let load = OpenLoop {
            spec: pipeline_spec("bench"),
            payload: payload.clone(),
            arrivals,
            instances,
            admission: AdmissionConfig::warm(),
        };
        // The load sweep admits identical instances: the transfer-cost
        // memo computes each distinct edge once and replays it.
        // Virtual-time results are byte-identical; `--no-memo` produces
        // the unmemoized reference run the CI gate diffs this JSON
        // against.
        let clock = bed.clock().clone();
        let mut memo_plane;
        let plane: &mut dyn DataPlane = if memo {
            memo_plane = MemoizedPlane::new(system.plane.as_mut(), clock.clone());
            &mut memo_plane
        } else {
            system.plane.as_mut()
        };
        let cluster =
            Cluster { plane, clock: &clock, resources: &mut resources, policy: policy.as_mut() };
        let run = loadgen::run(&load, cluster, Controls::default()).expect("load run");
        for outcome in &run.outcomes {
            assert!(
                outcome.sojourn_ns >= solo,
                "{} {} {}B seed {}: instance {} took {} < uncontended {}",
                system.label,
                point.policy,
                point.payload_bytes,
                point.seed,
                outcome.instance,
                outcome.sojourn_ns,
                solo,
            );
        }
        let digest = run.sojourn_percentiles().expect("non-empty run");
        runs.push(SystemRun {
            label: system.label,
            uncontended_ns: solo,
            offered_rps: run.offered_rps,
            achieved_rps: run.throughput_rps(),
            digest,
            cpu_utilization: run.cpu_utilization,
            link_utilization: run.link_utilization,
        });
    }
    PointResult { mean_interval_ns, runs }
}

/// Renders one merged cell row: a system's seed replicas of `cell`
/// collapsed into across-seed means and CIs.
fn cell_row(
    cell: &SweepPoint,
    mean_interval_ns: Nanos,
    instances: usize,
    replicas: &[&SystemRun],
) -> Object {
    let digests: Vec<PercentileSummary> = replicas.iter().map(|r| r.digest).collect();
    let rep = replicate(&digests).expect("at least one seed");
    let stat = |pick: fn(&SystemRun) -> f64| {
        let values: Vec<f64> = replicas.iter().map(|r| pick(r)).collect();
        ReplicatedStat::from_values(&values).expect("at least one seed")
    };
    let achieved = stat(|r| r.achieved_rps);
    let secs_of = |ns: f64| fixed(ns / 1e9, 6);
    let ci = |s: &ReplicatedStat| vec![secs_of(s.ci_lo), secs_of(s.ci_hi)];
    object! {
        "system" => replicas[0].label, "policy" => cell.policy.as_str(),
        "payload_mb" => fixed(cell.payload_bytes as f64 / MB as f64, 1),
        "rate" => RATE_FACTORS[cell.rate_index].0,
        "mean_interval_s" => json_secs(mean_interval_ns),
        "uncontended_s" => json_secs(replicas[0].uncontended_ns),
        "seeds" => replicas.len(), "instances_per_seed" => instances,
        "offered_rps_mean" => fixed(stat(|r| r.offered_rps).mean, 3),
        "achieved_rps_mean" => fixed(achieved.mean, 3),
        "achieved_rps_ci" => vec![fixed(achieved.ci_lo, 3), fixed(achieved.ci_hi, 3)],
        "p50_s_mean" => secs_of(rep.p50_ns.mean), "p50_s_ci" => ci(&rep.p50_ns),
        "p95_s_mean" => secs_of(rep.p95_ns.mean), "p95_s_ci" => ci(&rep.p95_ns),
        "p99_s_mean" => secs_of(rep.p99_ns.mean), "p99_s_ci" => ci(&rep.p99_ns),
        "max_s_mean" => secs_of(rep.max_ns.mean),
        "cpu_util_mean" => fixed(stat(|r| r.cpu_utilization).mean, 4),
        "link_util_mean" => fixed(stat(|r| r.link_utilization).mean, 4),
    }
}

/// Runs the fig12 sweep under `opts` and returns the complete JSON
/// document. Execution mode is deliberately *not* recorded in the
/// output: serial and parallel runs must produce identical bytes.
pub fn fig12_json(opts: &Fig12Options) -> String {
    let payloads: Vec<usize> = if opts.golden {
        vec![MB / 4]
    } else if opts.quick {
        vec![MB, 4 * MB]
    } else {
        vec![MB, 10 * MB, 30 * MB]
    };
    let instances = if opts.golden || opts.quick { 8 } else { 16 };
    let seeds: Vec<u64> = if opts.golden || opts.quick { vec![1, 2] } else { vec![1, 2, 3] };
    let grid = SweepGrid {
        rates: RATE_FACTORS.iter().map(|&(_, f)| f).collect(),
        payload_bytes: payloads,
        policies: vec!["locality".to_owned(), "spread".to_owned()],
        seeds,
    };

    let results = sweep(&grid, opts.workers, |point| run_point(point, instances, opts.memo));

    // Merge: consecutive `seeds_per_cell` results form one experimental
    // cell; collapse each system's replicas into across-seed stats.
    let points = grid.points();
    let mut rows: Vec<Object> = Vec::new();
    for (chunk_index, chunk) in results.chunks(grid.seeds_per_cell()).enumerate() {
        let cell_point = &points[chunk_index * grid.seeds_per_cell()];
        let rate_label = RATE_FACTORS[cell_point.rate_index].0;
        // The interval derives from the (deterministic) WasmEdge solo
        // makespan, so every replica of a cell must agree on it.
        let mean_interval_ns = chunk[0].mean_interval_ns;
        assert!(chunk.iter().all(|r| r.mean_interval_ns == mean_interval_ns));

        let mut cell_stats: Vec<(&'static str, f64, f64)> = Vec::new();
        for sys_index in 0..chunk[0].runs.len() {
            let replicas: Vec<&SystemRun> = chunk.iter().map(|r| &r.runs[sys_index]).collect();
            let label = replicas[0].label;
            let uncontended_ns = replicas[0].uncontended_ns;
            assert!(replicas.iter().all(|r| r.uncontended_ns == uncontended_ns));
            let achieved_mean =
                replicas.iter().map(|r| r.achieved_rps).sum::<f64>() / replicas.len() as f64;
            let p95_mean = replicas.iter().map(|r| r.digest.p95_ns as f64).sum::<f64>()
                / replicas.len() as f64;
            cell_stats.push((label, achieved_mean, p95_mean));
            rows.push(cell_row(cell_point, mean_interval_ns, instances, &replicas));
        }
        let rr = cell_stats.iter().find(|(l, ..)| *l == "roadrunner").unwrap();
        let we = cell_stats.iter().find(|(l, ..)| *l == "wasmedge").unwrap();
        assert!(
            rr.1 > we.1,
            "{} {}B {rate_label}: roadrunner {} rps !> wasmedge {} rps",
            cell_point.policy,
            cell_point.payload_bytes,
            rr.1,
            we.1,
        );
        assert!(
            rr.2 < we.2,
            "{} {}B {rate_label}: roadrunner p95 {} !< wasmedge p95 {}",
            cell_point.policy,
            cell_point.payload_bytes,
            rr.2,
            we.2,
        );
    }

    let doc = object! {
        "figure" => "fig12_load",
        "cluster" => object! { "nodes" => NODES, "cores_per_node" => 4u32 },
        "workflow" => "src -> relay -> sink", "arrivals" => "poisson",
        "instances_per_cell" => instances, "seeds_per_cell" => grid.seeds_per_cell(),
        "cells" => rows,
    };
    doc.document()
}
