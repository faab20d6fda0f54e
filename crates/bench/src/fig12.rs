//! Fig. 12 (beyond the paper) — throughput and tail latency under
//! multi-tenant load, swept in parallel with multi-seed replication.
//!
//! The experiment logic lives here (not in the binary) so the golden
//! determinism test can run the serial and parallel sweeps in-process
//! and diff the JSON strings byte for byte.
//!
//! The sweep is a job list: policies (`locality`, `spread`) × payload
//! sizes × arrival-rate factors × Poisson arrival seeds, seeds innermost.
//! Every job is fully independent — it builds its own
//! [`Testbed`](roadrunner_vkernel::Testbed), deploys its own three
//! systems (Roadrunner, RunC-like, WasmEdge-like), measures its own
//! uncontended makespans and runs its own open-loop sweep against fresh
//! [`SchedResources`] — so [`parallel_map`] can execute jobs in any
//! order and on any thread while the merged output (in job order) stays
//! byte-identical to the serial loop's. Seeds replicate each experimental cell under
//! distinct Poisson arrival sequences; the emitted rows collapse the
//! replicas into [`replicate`] summaries with across-seed means and
//! order-statistic confidence intervals.
//!
//! Invariants asserted per job and post-merge:
//!
//! * contention never speeds an instance up: every sojourn ≥ the
//!   system's uncontended concurrent makespan;
//! * under identical arrival process and policy, Roadrunner sustains
//!   higher mean throughput and lower mean p95 than WasmEdge across
//!   seeds.

use bytes::Bytes;
use roadrunner_platform::{
    loadgen, parallel_map, replicate, AdmissionConfig, ArrivalProcess, Cluster, Controls,
    LocalityFirst, MultiLoad, PercentileSummary, PlacementPolicy, ReplicatedStat, SpreadLoad,
    TenantLoad,
};
use roadrunner_vkernel::{Nanos, SchedResources};

use crate::{
    cluster, fixed, json_secs, load_planes, object, pipeline_spec, uncontended, Object, MB,
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
    /// same cell structure (both policies, all rate regimes, multiple
    /// seeds) over a small payload, so `cargo test` stays fast in debug
    /// builds while still exercising the full sweep path. CI diffs the
    /// full `--quick` binary output on top.
    pub golden: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

fn policy_of(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        _ => Box::new(SpreadLoad::new()),
    }
}

/// One (policy, payload, rate, seed) cell — the parallel job
/// description.
struct Job {
    policy: &'static str,
    payload_bytes: usize,
    /// Index into [`RATE_FACTORS`].
    rate_index: usize,
    seed: u64,
}

/// One system's digest for one job (a single seed replica).
struct SystemRun {
    label: &'static str,
    uncontended_ns: Nanos,
    offered_rps: f64,
    achieved_rps: f64,
    digest: PercentileSummary,
    cpu_utilization: f64,
    link_utilization: f64,
}

/// One job's result: the three systems under one (policy, payload,
/// rate, seed) combination.
struct JobResult {
    mean_interval_ns: Nanos,
    runs: Vec<SystemRun>,
}

/// Runs one job, fully self-contained: fresh testbed, fresh
/// deployments, fresh scheduler state — nothing shared with any other
/// job, which is what makes the parallel sweep byte-identical to the
/// serial one.
fn run_job(job: &Job, instances: usize) -> JobResult {
    let colocated = job.policy == "locality";
    let payload = Bytes::from(vec![0xA7u8; job.payload_bytes]);
    let bed = cluster(NODES, 4);
    let mut under_load = load_planes(&bed, "fig12", colocated);
    let solos: Vec<Nanos> = under_load
        .iter_mut()
        .map(|(_, plane)| {
            let mut fresh = SchedResources::for_testbed(&bed);
            uncontended(plane.bare(), &bed, &payload, &mut fresh)
        })
        .collect();
    let wasmedge_solo = under_load
        .iter()
        .zip(&solos)
        .find(|((label, _), _)| *label == "wasmedge")
        .map(|(_, &ns)| ns)
        .expect("wasmedge is part of the line-up");
    // Identical offered process for every system in the cell: Poisson
    // arrivals with mean = factor × the WasmEdge uncontended makespan,
    // re-seeded per replica.
    let mean_interval_ns = (wasmedge_solo as f64 * RATE_FACTORS[job.rate_index].1).round() as Nanos;
    let arrivals = ArrivalProcess::Poisson { mean_interval_ns, seed: 0 }.with_seed(job.seed);
    let offered_rps = 1e9 / mean_interval_ns.max(1) as f64;

    let mut runs = Vec::with_capacity(under_load.len());
    for ((label, plane), &solo) in under_load.iter_mut().zip(&solos) {
        let mut policy = policy_of(job.policy);
        let mut resources = SchedResources::for_testbed(&bed);
        let spec = pipeline_spec("bench");
        let tenant = TenantLoad::from_process(
            spec.tenant.clone(),
            spec,
            payload.clone(),
            &arrivals,
            instances,
        );
        let load = MultiLoad { tenants: vec![tenant], admission: AdmissionConfig::warm() };
        let clock = bed.clock().clone();
        let run = plane
            .drive(&clock, |plane| {
                let policy = policy.as_mut();
                let cluster = Cluster { plane, resources: &mut resources, policy };
                loadgen::run(&load, cluster, Controls::default())
            })
            .expect("load run");
        for outcome in &run.outcomes {
            assert!(
                outcome.sojourn_ns >= solo,
                "{} {} {}B seed {}: instance {} took {} < uncontended {}",
                label,
                job.policy,
                job.payload_bytes,
                job.seed,
                outcome.instance,
                outcome.sojourn_ns,
                solo,
            );
        }
        let digest = run.sojourn_percentiles().expect("non-empty run");
        runs.push(SystemRun {
            label,
            uncontended_ns: solo,
            offered_rps,
            achieved_rps: run.throughput_rps(),
            digest,
            cpu_utilization: run.cpu_utilization,
            link_utilization: run.link_utilization,
        });
    }
    JobResult { mean_interval_ns, runs }
}

/// Renders one merged cell row: a system's seed replicas of `cell`
/// collapsed into across-seed means and CIs.
fn cell_row(
    cell: &Job,
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
        "system" => replicas[0].label, "policy" => cell.policy,
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
    // The job list: policy → payload → rate → seed, seeds innermost, so
    // the replicas of one experimental cell are consecutive.
    let mut jobs = Vec::new();
    for policy in ["locality", "spread"] {
        for &payload_bytes in &payloads {
            for rate_index in 0..RATE_FACTORS.len() {
                for &seed in &seeds {
                    jobs.push(Job { policy, payload_bytes, rate_index, seed });
                }
            }
        }
    }

    let results = parallel_map(&jobs, opts.workers, |_, job| run_job(job, instances));

    // Merge: consecutive `seeds.len()` results form one experimental
    // cell; collapse each system's replicas into across-seed stats.
    let mut rows: Vec<Object> = Vec::new();
    for (cell, chunk) in jobs.iter().step_by(seeds.len()).zip(results.chunks(seeds.len())) {
        let rate_label = RATE_FACTORS[cell.rate_index].0;
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
            rows.push(cell_row(cell, mean_interval_ns, instances, &replicas));
        }
        let rr = cell_stats.iter().find(|(l, ..)| *l == "roadrunner").unwrap();
        let we = cell_stats.iter().find(|(l, ..)| *l == "wasmedge").unwrap();
        assert!(
            rr.1 > we.1,
            "{} {}B {rate_label}: roadrunner {} rps !> wasmedge {} rps",
            cell.policy,
            cell.payload_bytes,
            rr.1,
            we.1,
        );
        assert!(
            rr.2 < we.2,
            "{} {}B {rate_label}: roadrunner p95 {} !< wasmedge p95 {}",
            cell.policy,
            cell.payload_bytes,
            rr.2,
            we.2,
        );
    }

    let doc = object! {
        "figure" => "fig12_load",
        "cluster" => object! { "nodes" => NODES, "cores_per_node" => 4u32 },
        "workflow" => "src -> relay -> sink", "arrivals" => "poisson",
        "instances_per_cell" => instances, "seeds_per_cell" => seeds.len(),
        "cells" => rows,
    };
    doc.document()
}
