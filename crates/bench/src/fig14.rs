//! Fig. 14 (beyond the paper) — failure injection and self-healing
//! elasticity.
//!
//! The paper's testbed is immortal; this experiment makes it fallible.
//! The same closed-loop workload fig13 saturates the cluster with is
//! driven through deterministic failure schedules, one scenario per
//! cell, all three systems per scenario:
//!
//! * **baseline** — no failures. The cell is run twice, once through
//!   the plain engine and once through the fault-aware engine with an
//!   *empty* [`FailurePlan`], and the two runs are asserted identical
//!   outcome for outcome — the in-process face of the CI byte-identity
//!   gate.
//! * **link_flap** — the pair link between the two active nodes flaps
//!   down periodically while spread-placed instances stream cross-node
//!   edges over it. Edges retry with deterministic backoff; the cell
//!   reports how many instances completed only after absorbing
//!   retries. Nothing may fail: the budget must ride out every flap.
//! * **kill_fixed** — one of the two nodes dies mid-run and the
//!   control plane removes it a detection delay later, migrating its
//!   un-started backlog; capacity stays at one node. Instances placed
//!   onto the dead node before detection exhaust their budgets and
//!   fail; throughput never recovers to the pre-kill rate.
//! * **kill_elastic** — the same kill under the capacity-loss-aware
//!   autoscaler: the controller sees the live node count drop below
//!   what it last decided and replaces the dead node immediately
//!   (replacement bypasses the backlog cooldown). Throughput recovers
//!   to ≥ 80 % of the pre-kill rate within the horizon — the
//!   self-healing headline the cell asserts.
//!
//! **Time-to-recover** is measured from the kill instant to the start
//! of the first window (two think-cycles wide) whose completion rate
//! reaches 80 % of the pre-kill rate; `null` when no window qualifies.
//!
//! Cells fan out over the `platform::sweep` worker pool exactly like
//! fig12/fig13 (`--workers N`); output is byte-identical at any worker
//! count.

use std::sync::Arc;

use bytes::Bytes;
use roadrunner_platform::{
    loadgen, parallel_map, AdmissionConfig, Autoscaler, ClosedLoop, Cluster, Controls,
    FailurePlan, LoadRun, LocalityFirst, PlacementPolicy, RetryPolicy, ScaleAction, SpreadLoad,
};
use roadrunner_vkernel::{Nanos, OutageSchedule, SchedResources, Testbed};

use crate::fig13::{autoscaler, cluster, cluster_row, systems, SystemUnderLoad, CORES, START_NODES};
use crate::{fixed, json_secs, object, pipeline_spec, Object, MB};

/// Knobs for one fig14 sweep.
pub struct Fig14Options {
    /// Reduced rounds/payload for CI.
    pub quick: bool,
    /// Sweep worker threads; 1 runs the jobs inline, in order.
    pub workers: usize,
}

/// The injected-failure scenarios, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Baseline,
    LinkFlap,
    KillFixed,
    KillElastic,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::LinkFlap => "link_flap",
            Scenario::KillFixed => "kill_fixed",
            Scenario::KillElastic => "kill_elastic",
        }
    }

    /// Kills pack instances (LocalityFirst) so a dead node takes whole
    /// instances with it; the flap spreads them (SpreadLoad) so edges
    /// actually cross the flapping link.
    fn policy(self) -> Box<dyn PlacementPolicy> {
        match self {
            Scenario::LinkFlap => Box::new(SpreadLoad::new()),
            _ => Box::new(LocalityFirst::new()),
        }
    }
}

/// One cell's knobs — also the parallel job description.
#[derive(Clone, Copy)]
struct Job {
    scenario: Scenario,
    users: usize,
    rounds: usize,
}

/// Everything one scenario derives from a system's uncontended solo
/// makespan: the closed-loop shape and the failure schedule's geometry,
/// all in multiples of one user's think cycle so every system sees the
/// same *relative* failure pressure.
struct CellShape {
    load: ClosedLoop,
    /// One user's request cycle: solo makespan + think time.
    cycle_ns: Nanos,
    /// Virtual instant the kill scenarios kill their node.
    kill_at_ns: Nanos,
    /// Control-plane detection delay before the dead node is removed.
    detect_ns: Nanos,
}

fn shape(system: &SystemUnderLoad, payload: &Bytes, job: Job) -> CellShape {
    let solo = system.solo_ns;
    let think = solo / 4;
    let cycle = solo + think;
    CellShape {
        load: ClosedLoop {
            spec: pipeline_spec("bench"),
            payload: payload.clone(),
            users: job.users,
            think_ns: think,
            // A short ramp: the failure windows should hit a fully
            // ramped, saturated cluster, not the arrival transient.
            ramp_ns: solo / 8,
            instances: job.users * job.rounds,
            admission: AdmissionConfig::warm(),
        },
        cycle_ns: cycle,
        kill_at_ns: 4 * cycle,
        detect_ns: cycle / 2,
    }
}

/// The failure plan a scenario injects, given the cell's geometry and
/// the stable ids of the two initially active nodes.
fn plan_for(scenario: Scenario, shape: &CellShape, ids: (u64, u64)) -> Option<FailurePlan> {
    let cycle = shape.cycle_ns;
    match scenario {
        Scenario::Baseline => Some(FailurePlan::new(RetryPolicy::default())),
        Scenario::LinkFlap => {
            // Four periodic flaps, each a third of a cycle down, two
            // cycles apart starting after the ramp — offset by a
            // seventh of a cycle so the windows never resonate with the
            // closed loop's own periodic edge-ready lattice. The retry
            // budget (8 attempts, backoff 1/16-cycle doubling to a
            // half-cycle cap) cumulatively waits out well over one full
            // window, so every covered edge survives.
            let retry = RetryPolicy::new(8, (cycle / 16).max(1), (cycle / 2).max(1));
            let mut outages = OutageSchedule::new();
            for flap in 0..4u64 {
                let from = 2 * cycle + flap * 2 * cycle + cycle / 7;
                outages = outages.link_down(ids.0, ids.1, from, from + cycle / 3);
            }
            Some(FailurePlan::new(retry).with_outages(outages))
        }
        Scenario::KillFixed | Scenario::KillElastic => Some(
            FailurePlan::new(RetryPolicy::new(3, (cycle / 16).max(1), (cycle / 2).max(1)))
                .kill_node(ids.1, shape.kill_at_ns, shape.detect_ns),
        ),
    }
}

/// Completions (not failures) finishing inside `[from, to)`.
fn completions_in(run: &LoadRun, from: Nanos, to: Nanos) -> usize {
    run.outcomes.iter().filter(|o| !o.failed && o.finish_ns >= from && o.finish_ns < to).count()
}

/// Completion rate (instances per ns) over `[from, to)`.
fn rate_over(run: &LoadRun, from: Nanos, to: Nanos) -> f64 {
    if to <= from {
        return 0.0;
    }
    completions_in(run, from, to) as f64 / (to - from) as f64
}

/// Time from the kill to the start of the first `window`-wide interval
/// whose completion rate reaches 80 % of `pre_rate`; `None` if no
/// interval inside the horizon qualifies.
fn time_to_recover(
    run: &LoadRun,
    kill_ns: Nanos,
    detect_ns: Nanos,
    pre_rate: f64,
    window: Nanos,
) -> Option<Nanos> {
    let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(0);
    let step = (window / 8).max(1);
    let mut t = kill_ns + detect_ns;
    while t + window <= horizon {
        if rate_over(run, t, t + window) >= 0.8 * pre_rate {
            return Some(t - kill_ns);
        }
        t += step;
    }
    None
}

/// Per-cell derived failure metrics.
struct CellMetrics {
    pre_kill_rps: f64,
    post_kill_rps: f64,
    recover_ns: Option<Nanos>,
}

/// One closed-loop run of a scenario against one system.
fn run_cell(system: &mut SystemUnderLoad, bed: &Arc<Testbed>, payload: &Bytes, job: Job) -> LoadRun {
    let shape = shape(system, payload, job);
    let mut resources = SchedResources::mesh(&[CORES; START_NODES]);
    let ids = (resources.node_id(0), resources.node_id(1));
    let plan = plan_for(job.scenario, &shape, ids);
    let mut policy = job.scenario.policy();
    let clock = bed.clock().clone();
    let (label, solo_ns) = (system.label, system.solo_ns);
    system.plane.drive(&clock, |plane| {
        let mut run_on = |resources: &mut SchedResources,
                          policy: &mut dyn PlacementPolicy,
                          autoscaler: Option<&mut Autoscaler>,
                          failures: Option<&FailurePlan>| {
            let cluster = Cluster { plane: &mut *plane, resources, policy };
            let controls = Controls { autoscaler, failures, ..Controls::default() };
            loadgen::run(&shape.load, cluster, controls).expect("closed-loop run")
        };
        match job.scenario {
            Scenario::KillElastic => {
                let mut scaler = autoscaler(solo_ns);
                run_on(&mut resources, policy.as_mut(), Some(&mut scaler), plan.as_ref())
            }
            Scenario::Baseline => {
                // The in-process identity check: a run without a plan and
                // a run under an empty plan must be the same run, outcome
                // for outcome.
                let plain = run_on(&mut resources, policy.as_mut(), None, None);
                let mut fresh = SchedResources::mesh(&[CORES; START_NODES]);
                let mut fresh_policy = job.scenario.policy();
                let empty = plan.as_ref().expect("baseline plan is Some(empty)");
                assert!(empty.is_empty(), "the baseline plan must inject nothing");
                let faulty = run_on(&mut fresh, fresh_policy.as_mut(), None, Some(empty));
                assert_eq!(plain.outcomes.len(), faulty.outcomes.len());
                for (a, b) in plain.outcomes.iter().zip(&faulty.outcomes) {
                    assert_eq!(
                        (a.release_ns, a.finish_ns, a.sojourn_ns, &a.assignment),
                        (b.release_ns, b.finish_ns, b.sojourn_ns, &b.assignment),
                        "{label}: an empty failure plan must be invisible",
                    );
                }
                assert_eq!((faulty.failed, faulty.retries), (0, 0));
                plain
            }
            _ => run_on(&mut resources, policy.as_mut(), None, plan.as_ref()),
        }
    })
}

/// One cell's merged result: the three systems' runs plus derived
/// failure metrics.
struct CellResult {
    job: Job,
    systems: Vec<(&'static str, Nanos, LoadRun, CellMetrics)>,
}

/// Runs one cell as a self-contained job: fresh testbed, fresh
/// deployments, fresh scheduler state.
fn run_job(job: &Job, payload: &Bytes) -> CellResult {
    let bed = cluster();
    let mut under_load = systems(&bed, payload);
    let systems = under_load
        .iter_mut()
        .map(|system| {
            let shp = shape(system, payload, *job);
            let run = run_cell(system, &bed, payload, *job);
            // Conservation holds in every cell: every admitted instance
            // either completed or failed after exhausting its retries.
            assert_eq!(run.outcomes.len(), job.users * job.rounds);
            assert_eq!(run.outcomes.len(), run.completed() + run.failed);
            let (kill, detect) = (shp.kill_at_ns, shp.detect_ns);
            // Pre-kill rate over the ramped, saturated stretch before
            // the kill; post-kill over everything past detection.
            let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(0);
            let metrics = CellMetrics {
                pre_kill_rps: rate_over(&run, 2 * shp.cycle_ns, kill) * 1e9,
                post_kill_rps: rate_over(&run, kill + detect, horizon) * 1e9,
                recover_ns: time_to_recover(
                    &run,
                    kill,
                    detect,
                    rate_over(&run, 2 * shp.cycle_ns, kill),
                    2 * shp.cycle_ns,
                ),
            };
            (system.label, system.solo_ns, run, metrics)
        })
        .collect();
    CellResult { job: *job, systems }
}

fn cell_row(
    system: &str,
    solo_ns: Nanos,
    job: &Job,
    run: &LoadRun,
    metrics: &CellMetrics,
) -> Object {
    let digest = run.sojourn_percentiles().expect("every cell completes instances");
    let replacements =
        run.scale_events.iter().filter(|e| e.action == ScaleAction::Replace).count();
    let kill_cell = matches!(job.scenario, Scenario::KillFixed | Scenario::KillElastic);
    object! {
        "system" => system, "scenario" => job.scenario.label(), "users" => job.users,
        "instances" => run.outcomes.len(), "solo_s" => json_secs(solo_ns),
        "completed" => run.completed(), "retried" => run.retried(), "failed" => run.failed,
        "retries" => run.retries,
        "p50_s" => json_secs(digest.p50_ns), "p95_s" => json_secs(digest.p95_ns),
        "p99_s" => json_secs(digest.p99_ns),
        "throughput_rps" => fixed(run.throughput_rps(), 3),
        "pre_kill_rps" => kill_cell.then(|| fixed(metrics.pre_kill_rps, 3)),
        "post_kill_rps" => kill_cell.then(|| fixed(metrics.post_kill_rps, 3)),
        "time_to_recover_s" => metrics.recover_ns.filter(|_| kill_cell).map(json_secs),
        "final_nodes" => run.final_nodes, "replacements" => replacements,
    }
}

/// Runs the fig14 sweep under `opts` and returns the complete JSON
/// document. Execution mode is deliberately *not* recorded in the
/// output: serial and parallel runs must produce identical bytes.
pub fn fig14_json(opts: &Fig14Options) -> String {
    let payload_bytes = if opts.quick { MB } else { 2 * MB };
    // 12 users against 8 fixed lanes (2 nodes × 4 cores) keeps the
    // closed loop capacity-bound: losing a node halves deliverable
    // throughput, so a cluster that does not heal cannot fake recovery.
    let users = 12;
    let rounds = if opts.quick { 8 } else { 14 };
    let payload = Bytes::from(vec![0xE4u8; payload_bytes]);

    let jobs: Vec<Job> = [
        Scenario::Baseline,
        Scenario::LinkFlap,
        Scenario::KillFixed,
        Scenario::KillElastic,
    ]
    .into_iter()
    .map(|scenario| Job { scenario, users, rounds })
    .collect();

    let results = parallel_map(&jobs, opts.workers, |_, job| run_job(job, &payload));

    // Post-merge invariants over the deterministic, job-ordered results.
    let find = |scenario: Scenario| {
        results.iter().find(|c| c.job.scenario == scenario).expect("cell exists")
    };
    for (label, _, run, _) in &find(Scenario::LinkFlap).systems {
        assert_eq!(run.failed, 0, "{label}: the retry budget must ride out every flap");
        assert!(run.retried() > 0, "{label}: flaps must actually cover traffic");
    }
    for (label, _, run, metrics) in &find(Scenario::KillFixed).systems {
        assert!(run.failed > 0, "{label}: undetected-kill placements must fail");
        assert!(
            metrics.recover_ns.is_none(),
            "{label}: fixed capacity must not recover to 80% of pre-kill \
             (pre {:.3} rps, post {:.3} rps)",
            metrics.pre_kill_rps,
            metrics.post_kill_rps,
        );
        assert_eq!(run.final_nodes, START_NODES - 1, "{label}: the dead node stays dead");
    }
    for (label, _, run, metrics) in &find(Scenario::KillElastic).systems {
        let recover = metrics.recover_ns.unwrap_or_else(|| {
            panic!(
                "{label}: the elastic cluster must recover to 80% of pre-kill \
                 within the horizon (pre {:.3} rps, post {:.3} rps)",
                metrics.pre_kill_rps, metrics.post_kill_rps,
            )
        });
        assert!(
            run.scale_events.iter().any(|e| e.action == ScaleAction::Replace),
            "{label}: recovery must come through a replacement decision",
        );
        assert!(run.final_nodes >= START_NODES, "{label}: capacity restored");
        // And healing must beat not healing where it counts.
        let fixed = find(Scenario::KillFixed)
            .systems
            .iter()
            .find(|(l, ..)| l == label)
            .map(|(_, _, run, _)| run.completed())
            .expect("fixed cell exists");
        assert!(
            run.completed() >= fixed,
            "{label}: healing must not complete less than fixed capacity",
        );
        let _ = recover;
    }

    let mut rows: Vec<Object> = Vec::new();
    for cell in &results {
        for (label, solo_ns, run, metrics) in &cell.systems {
            rows.push(cell_row(label, *solo_ns, &cell.job, run, metrics));
        }
    }

    let doc = object! {
        "figure" => "fig14_failures", "cluster" => cluster_row(),
        "workflow" => "src -> relay -> sink",
        "payload_mb" => fixed(payload_bytes as f64 / MB as f64, 1),
        "users" => users, "rounds_per_user" => rounds,
        "recovery_threshold" => fixed(0.8, 1), "cells" => rows,
    };
    doc.document()
}
