//! Fig. 13 (beyond the paper) — closed-loop saturation and elasticity,
//! swept in parallel.
//!
//! The experiment logic lives here (not in the binary) so the golden
//! determinism test can run the serial and parallel sweeps in-process
//! and diff the JSON strings byte for byte. See the `fig13_elastic`
//! binary docs for the experiment design; this module adds the job
//! decomposition: every (policy × users × autoscaled/cold) cell is one
//! fully independent job — its own [`Testbed`], its own three deployed
//! systems, its own solo-makespan measurements, its own
//! [`SchedResources`] — executed by [`parallel_map`] on the chosen
//! number of workers and merged in job order. The closed loop has no
//! stochastic arrival process, so there is no seed axis here; fig12
//! carries the replication story.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner_baselines::coldstart::{
    container_cold_ns, wasm_cold_ns, CONTAINER_IMAGE_BYTES, PAPER_WASM_HELLO_BYTES,
};
use roadrunner_baselines::{RuncPair, WasmedgePair};
use roadrunner_platform::{
    loadgen, parallel_map, AdmissionConfig, Autoscaler, AutoscalerConfig, ClosedLoop, Cluster,
    Controls, DataPlane, LoadRun, LocalityFirst, MemoizedPlane, PackThenSpill, PlacementPolicy,
    ScaleAction,
};
use roadrunner_vkernel::{Nanos, SchedResources, Testbed};

use crate::{fixed, json_secs, object, pipeline_spec, roadrunner_pipeline, uncontended, Object, MB};

/// Fixed-capacity (and autoscaler-minimum) active node count. Shared
/// with fig14, which drives the same workload through failure
/// schedules.
pub(crate) const START_NODES: usize = 2;
/// Autoscaler ceiling; the testbed always has this many nodes built.
pub(crate) const MAX_NODES: usize = 6;
pub(crate) const CORES: u32 = 4;

/// Knobs for one fig13 sweep.
pub struct Fig13Options {
    /// Reduced user counts/rounds for CI.
    pub quick: bool,
    /// Tier-1 profile for the in-process golden determinism test: the
    /// quick cell matrix over a small payload, so `cargo test` stays
    /// fast in debug builds while still exercising the full sweep path.
    /// CI diffs the full `--quick` binary output on top.
    pub golden: bool,
    /// Wrap planes in the transfer-cost memo (`--no-memo` turns off).
    pub memo: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

/// The fig13–fig16 testbed: every node the autoscaler may ever add.
pub(crate) fn cluster() -> Arc<Testbed> {
    crate::cluster(MAX_NODES, CORES)
}

/// The `cluster` header field fig13 and fig14 print.
pub(crate) fn cluster_row() -> Object {
    object! { "nodes_fixed" => START_NODES, "nodes_max" => MAX_NODES, "cores_per_node" => CORES }
}

pub(crate) struct SystemUnderLoad {
    pub(crate) label: &'static str,
    pub(crate) plane: Box<dyn DataPlane>,
    /// Uncontended concurrent makespan of one instance (own think-time
    /// and threshold base).
    pub(crate) solo_ns: Nanos,
    /// Fig. 2a-style cold-start cost of one function of this system.
    pub(crate) cold_ns: Nanos,
}

/// The three systems, co-located on node 0 (kernel-space edges — the
/// regime the packing policies reproduce per instance), warmed, with
/// their solo makespans measured on a fresh two-node mesh.
pub(crate) fn systems(bed: &Arc<Testbed>, payload: &Bytes) -> Vec<SystemUnderLoad> {
    let cost = bed.cost();
    let wasm_cold = wasm_cold_ns(cost, PAPER_WASM_HELLO_BYTES);
    let runc_cold = container_cold_ns(cost, CONTAINER_IMAGE_BYTES);
    let mut out = vec![
        SystemUnderLoad {
            label: "roadrunner",
            plane: Box::new(roadrunner_pipeline(bed, "fig13", [0, 0, 0])),
            solo_ns: 0,
            cold_ns: wasm_cold,
        },
        SystemUnderLoad {
            label: "runc",
            plane: Box::new(RuncPair::establish(Arc::clone(bed), 0, 0)),
            solo_ns: 0,
            cold_ns: runc_cold,
        },
        SystemUnderLoad {
            label: "wasmedge",
            plane: Box::new(WasmedgePair::establish(Arc::clone(bed), 0, 0)),
            solo_ns: 0,
            cold_ns: wasm_cold,
        },
    ];
    for system in &mut out {
        let mut fresh = SchedResources::mesh(&[CORES; START_NODES]);
        system.solo_ns = uncontended(system.plane.as_mut(), bed, payload, &mut fresh);
    }
    out
}

/// The backlog autoscaler of the elastic cells (fig14's self-healing
/// cell included), thresholds in fractions of the solo makespan.
pub(crate) fn autoscaler(solo_ns: Nanos) -> Autoscaler {
    Autoscaler::new(AutoscalerConfig {
        min_nodes: START_NODES,
        max_nodes: MAX_NODES,
        node_cores: CORES,
        scale_up_backlog_ns: solo_ns / 2,
        scale_down_backlog_ns: solo_ns / 16,
        window_ns: (solo_ns / 4).max(1),
    })
}

fn policy_of(name: &str, solo_ns: Nanos) -> Box<dyn PlacementPolicy> {
    match name {
        "locality" => Box::new(LocalityFirst::new()),
        // Spill once a node queues more than one uncontended makespan.
        _ => Box::new(PackThenSpill::new(solo_ns)),
    }
}

/// One cell's knobs — also the parallel job description.
#[derive(Clone, Copy)]
struct Job {
    policy: &'static str,
    users: usize,
    rounds: usize,
    autoscaled: bool,
    cold: bool,
    memo: bool,
    /// Re-run the Roadrunner cell and assert identical placements —
    /// done inside the first cell of each policy.
    check_determinism: bool,
}

/// One closed-loop run of `users`×`rounds` instances, optionally
/// autoscaled and optionally charging cold starts.
fn run_cell(system: &mut SystemUnderLoad, bed: &Arc<Testbed>, payload: &Bytes, job: Job) -> LoadRun {
    let Job { policy: policy_name, users, rounds, autoscaled, cold, memo, .. } = job;
    let solo = system.solo_ns;
    // Think a quarter-makespan between requests and ramp users in a
    // quarter-makespan apart: at the top user counts demand concurrency
    // (`users·solo/(solo+think)`) far exceeds the fixed 8 lanes, and the
    // ramp lets the controller race the building load instead of
    // measuring an unavoidable thundering herd.
    let load = ClosedLoop {
        spec: pipeline_spec("bench"),
        payload: payload.clone(),
        users,
        think_ns: solo / 4,
        ramp_ns: solo / 4,
        instances: users * rounds,
        admission: if cold { AdmissionConfig::cold(system.cold_ns) } else { AdmissionConfig::warm() },
    };
    let mut policy = policy_of(policy_name, solo);
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let clock = bed.clock().clone();
    // Identical instances hit the transfer-cost memo after the first;
    // virtual-time results are byte-identical. The `--no-memo` reference
    // run is what the CI gate diffs this JSON against.
    let mut memo_plane;
    let plane: &mut dyn DataPlane = if memo {
        memo_plane = MemoizedPlane::new(system.plane.as_mut(), clock.clone());
        &mut memo_plane
    } else {
        system.plane.as_mut()
    };
    let mut scaler = autoscaler(solo);
    let cluster =
        Cluster { plane, clock: &clock, resources: &mut resources, policy: policy.as_mut() };
    let controls =
        Controls { autoscaler: autoscaled.then_some(&mut scaler), ..Controls::default() };
    let run = loadgen::run(&load, cluster, controls).expect("closed-loop run");
    assert_eq!(run.outcomes.len(), users * rounds, "every instance must complete");
    run
}

/// One cell's merged result: the three systems' runs.
struct CellResult {
    job: Job,
    systems: Vec<(&'static str, Nanos, LoadRun)>,
}

/// Runs one cell as a self-contained job: fresh testbed, fresh
/// deployments, fresh scheduler state.
fn run_job(job: &Job, payload: &Bytes) -> CellResult {
    let bed = cluster();
    let mut under_load = systems(&bed, payload);

    // Determinism: the same cell re-run on fresh resources must
    // reproduce its placements exactly.
    if job.check_determinism {
        let system = &mut under_load[0];
        let a = run_cell(system, &bed, payload, *job);
        let b = run_cell(system, &bed, payload, *job);
        let pa: Vec<&[usize]> = a.outcomes.iter().map(|o| o.assignment.as_slice()).collect();
        let pb: Vec<&[usize]> = b.outcomes.iter().map(|o| o.assignment.as_slice()).collect();
        assert_eq!(pa, pb, "{}: placements must be deterministic", job.policy);
    }

    let systems = under_load
        .iter_mut()
        .map(|system| {
            let run = run_cell(system, &bed, payload, *job);
            if job.cold {
                assert!(
                    run.cold_starts() > 0,
                    "{}: cold admission must charge someone",
                    system.label
                );
            }
            (system.label, system.solo_ns, run)
        })
        .collect();
    CellResult { job: *job, systems }
}

fn cell_row(system: &str, solo_ns: Nanos, job: &Job, run: &LoadRun) -> Object {
    let digest = run.sojourn_percentiles().expect("non-empty run");
    let events: Vec<Object> = run
        .scale_events
        .iter()
        .map(|e| {
            let action = match e.action {
                ScaleAction::Up => "up",
                ScaleAction::Down => "down",
                ScaleAction::Replace => "replace",
                ScaleAction::Prewarm => "prewarm",
            };
            object! { "t_s" => json_secs(e.at_ns), "action" => action, "nodes" => e.nodes_after }
        })
        .collect();
    object! {
        "system" => system, "policy" => job.policy, "users" => job.users,
        "autoscaled" => job.autoscaled, "cold_admission" => job.cold,
        "instances" => run.outcomes.len(),
        "solo_s" => json_secs(solo_ns), "think_s" => json_secs(solo_ns / 4),
        "saturation_rps" => fixed(run.throughput_rps(), 3),
        "p50_s" => json_secs(digest.p50_ns), "p95_s" => json_secs(digest.p95_ns),
        "p99_s" => json_secs(digest.p99_ns), "max_s" => json_secs(digest.max_ns),
        "cpu_util" => fixed(run.cpu_utilization, 4), "cold_starts" => run.cold_starts(),
        "cold_total_s" => json_secs(run.cold_start_total_ns()),
        "final_nodes" => run.final_nodes, "scale_events" => events,
    }
}

/// Runs the fig13 sweep under `opts` and returns the complete JSON
/// document. Execution mode is deliberately *not* recorded in the
/// output: serial and parallel runs must produce identical bytes.
pub fn fig13_json(opts: &Fig13Options) -> String {
    let payload_bytes = if opts.golden {
        MB / 2
    } else if opts.quick {
        2 * MB
    } else {
        4 * MB
    };
    let users_sweep: Vec<usize> =
        if opts.golden || opts.quick { vec![2, 16] } else { vec![4, 16, 32] };
    let rounds = if opts.golden || opts.quick { 3 } else { 5 };
    let payload = Bytes::from(vec![0xB3u8; payload_bytes]);
    let top_users = *users_sweep.last().expect("non-empty sweep");

    // The job list: per policy, the users × autoscaled matrix followed
    // by the cold-admission cell. Jobs are independent; order is the
    // emission order.
    let mut jobs: Vec<Job> = Vec::new();
    for policy in ["locality", "pack_spill"] {
        for (i, &users) in users_sweep.iter().enumerate() {
            for autoscaled in [false, true] {
                jobs.push(Job {
                    policy,
                    users,
                    rounds,
                    autoscaled,
                    cold: false,
                    memo: opts.memo,
                    check_determinism: i == 0 && !autoscaled,
                });
            }
        }
        jobs.push(Job {
            policy,
            users: top_users,
            rounds,
            autoscaled: false,
            cold: true,
            memo: opts.memo,
            check_determinism: false,
        });
    }

    let results = parallel_map(&jobs, opts.workers, |_, job| run_job(job, &payload));

    // Post-merge invariants over the deterministic, job-ordered results.
    let find = |policy: &str, users: usize, autoscaled: bool, cold: bool| {
        results
            .iter()
            .find(|c| {
                c.job.policy == policy
                    && c.job.users == users
                    && c.job.autoscaled == autoscaled
                    && c.job.cold == cold
            })
            .expect("cell exists")
    };
    for cell in &results {
        if cell.job.cold {
            continue;
        }
        // Saturation-throughput ordering under identical knobs.
        let rps = |label: &str| {
            cell.systems
                .iter()
                .find(|(l, ..)| *l == label)
                .map(|(_, _, run)| run.throughput_rps())
                .expect("system exists")
        };
        assert!(
            rps("roadrunner") >= rps("wasmedge"),
            "{} users={} autoscaled={}: roadrunner {} rps < wasmedge {} rps",
            cell.job.policy,
            cell.job.users,
            cell.job.autoscaled,
            rps("roadrunner"),
            rps("wasmedge"),
        );
    }
    for policy in ["locality", "pack_spill"] {
        // Elasticity headline: at the highest user count, scaling out
        // must cut Roadrunner's p95 sojourn vs fixed capacity.
        let p95 = |autoscaled: bool| {
            find(policy, top_users, autoscaled, false)
                .systems
                .iter()
                .find(|(l, ..)| *l == "roadrunner")
                .map(|(_, _, run)| run.sojourn_percentiles().expect("non-empty").p95_ns)
                .expect("roadrunner cell exists")
        };
        let (fixed_p95, elastic_p95) = (p95(false), p95(true));
        assert!(
            elastic_p95 < fixed_p95,
            "{policy}: autoscaled p95 {elastic_p95} must beat fixed {fixed_p95}",
        );
        // Cold-admission section: cold starts must show up in the mean
        // sojourn relative to the matching warm cell.
        let warm = find(policy, top_users, false, false);
        let cold = find(policy, top_users, false, true);
        for (label, _, cold_run) in &cold.systems {
            let warm_mean = warm
                .systems
                .iter()
                .find(|(l, ..)| l == label)
                .map(|(_, _, run)| run.sojourn_percentiles().expect("non-empty").mean_ns)
                .expect("warm cell exists");
            let cold_mean = cold_run.sojourn_percentiles().expect("non-empty").mean_ns;
            assert!(
                cold_mean > warm_mean,
                "{label}: cold admission must show up in mean sojourn \
                 ({cold_mean} !> {warm_mean})",
            );
        }
    }

    let mut rows: Vec<Object> = Vec::new();
    for cell in &results {
        for (label, solo_ns, run) in &cell.systems {
            rows.push(cell_row(label, *solo_ns, &cell.job, run));
        }
    }

    let doc = object! {
        "figure" => "fig13_elastic", "cluster" => cluster_row(),
        "workflow" => "src -> relay -> sink",
        "payload_mb" => fixed(payload_bytes as f64 / MB as f64, 1),
        "rounds_per_user" => rounds, "cells" => rows,
    };
    doc.document()
}
