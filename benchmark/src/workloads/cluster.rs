//! `cluster_load`: the control plane under load. One op is one
//! src → relay → sink workflow instance (256 KB payload) driven through a
//! [`MemoizedPlane`] onto a fresh 4 × 4-core cluster, co-located
//! deployment, whole-instance `PackThenSpill` placement.
//!
//! Every batch (seeded with `seed + batch index`) runs
//!
//! * **open** — a seeded Poisson trace at 0.8 × the calibrated saturation
//!   rate with a 3 × burst over its middle third, pooled admission with
//!   hybrid keep-alive, the overload layer (deadline, CoDel queue, retry
//!   budget) and a two-flap node outage plan;
//! * **closed** — 32 think-time users with the backlog autoscaler growing
//!   the cluster from 2 to 4 nodes.
//!
//! `loadgen::drive`, the workflow engine, the scheduler, the warm pool,
//! overload control, the percentile digests and `vkernel::sched`
//! timelines do the work; the memo cuts the data plane to a few real
//! transfers per batch, so a data-path change must not move this
//! workload. Shed, failed and deadline-exceeded instances are *correct
//! model outputs* of an overloaded cluster, not benchmark failures: an op
//! fails only when its run breaks conservation
//! (`arrivals = completed + failed + deadline_exceeded + shed`).
//!
//! Whole-instance placement is deliberate: under per-function
//! `SpreadLoad`, memoized and plain runs diverge today (counted by
//! [`ClusterLoad::prefix_mismatches`], fixed in a later issue).

use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, RoadrunnerPlane, ShimConfig};
use roadrunner_baselines::coldstart::{
    wasm_cold_ns, wasm_snapshot_restore_ns, PAPER_WASM_HELLO_BYTES,
};
use roadrunner_platform::{
    execute, execute_concurrent_at, AdmissionConfig, Autoscaler, AutoscalerConfig, ClosedLoop,
    DataPlane, FailurePlan, KeepAlive, LoadRun, MemoizedPlane, MultiLoad, OverloadConfig,
    PackThenSpill, PlacementPolicy, QueueConfig, RetryBudgetConfig, RetryPolicy, ShedPolicy,
    SpreadLoad, TenantLoad, WarmPoolConfig, WorkflowSpec,
};
use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_vkernel::{
    ClusterSpec, Nanos, OutageSchedule, SchedResources, Testbed, VirtualClock,
};

use super::{bundle, seeded_size, BatchOut, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{spanned, Tracer};

pub const NODES: usize = 4;
pub const CORES: u32 = 4;
pub const PAYLOAD_BYTES: usize = 256_000;
const USERS: usize = 32;
/// Instances of the unmemoized prefix the memo is checked against.
const PLAIN_PREFIX: usize = 300;
const SPREAD_PREFIX: usize = 200;
/// Deadline and queue geometry, in saturation intervals.
const DEADLINE_INTERVALS: u64 = 48;

/// Span names of the traced pass.
pub mod span {
    pub const BATCH: &str = "cluster_load.batch";
    pub const MEMO_NEW: &str = "platform.memo.new";
    pub const TRACE_GEN: &str = "benchmark.arrival_trace";
    pub const OPEN: &str = "platform.loadgen.open.run_overloaded";
    pub const CLOSED: &str = "platform.loadgen.closed.run_overloaded";
    pub const BOOK: &str = "benchmark.book_outcomes";
}

/// Exact model counters summed over the batches run so far — the raw
/// material of the `platform.*` ratio metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub failed: u64,
    pub retries: u64,
    pub scale_events: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

/// Everything a batch derives its load from — kept apart from the plane
/// so a memo can borrow the plane while the load is read.
struct Load {
    bed: Arc<Testbed>,
    spec: WorkflowSpec,
    payload: Bytes,
    /// Uncontended makespan of one instance.
    solo_ns: Nanos,
    /// Calibrated saturation interval: 1 / deliverable throughput.
    interval_ns: Nanos,
    admission: AdmissionConfig,
    open_instances: usize,
    closed_instances: usize,
}

/// The deployed pipeline and its load description.
pub struct ClusterLoad {
    load: Load,
    plane: RoadrunnerPlane,
    virt_batches: u64,
    trace_batches: u64,
    seed: u64,
    counters: Counters,
}

fn pipeline_spec() -> WorkflowSpec {
    WorkflowSpec::sequence(
        "pipeline",
        "bench",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    )
}

fn mesh(nodes: usize) -> SchedResources {
    SchedResources::mesh(&vec![CORES; nodes])
}

impl ClusterLoad {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let bed = Arc::new(ClusterSpec::homogeneous(NODES, CORES, 8 << 30).build());
        let clock = bed.clock().clone();
        let payload = Payload::synthetic(
            PayloadKind::ImageFrame,
            seed,
            seeded_size(PAYLOAD_BYTES, seed),
        )
        .flat()
        .clone();
        // Co-located on node 0 (kernel-space edges); the placement policy
        // moves whole instances, so the mode stays kernel-space.
        let mut plane = RoadrunnerPlane::new(
            Arc::clone(&bed),
            ShimConfig::default().with_load_costs(false),
        );
        for (name, module, handler, acks) in [
            ("src", guest::producer(), "produce", false),
            ("relay", guest::relay(), "relay", false),
            ("sink", guest::consumer(), "consume", true),
        ] {
            plane
                .deploy(0, name, bundle(name, module), handler, acks)
                .expect("deploy pipeline");
        }
        let spec = pipeline_spec();
        // Warm-up: lazy connections and guest heap growth are one-off
        // effects the memo's soundness contract wants outside it.
        let warm = execute(&mut plane, &clock, &spec, payload.clone()).expect("warm-up run");
        assert!(
            warm.edges.iter().all(|e| e.received == payload),
            "warm-up payload intact"
        );
        let solo_ns = execute_concurrent_at(
            &mut plane,
            &clock,
            &spec,
            payload.clone(),
            &mut mesh(NODES),
            0,
        )
        .expect("solo run")
        .total_latency_ns
        .max(1);

        let cost = bed.cost();
        let admission = AdmissionConfig::pooled(
            wasm_cold_ns(cost, PAPER_WASM_HELLO_BYTES),
            WarmPoolConfig {
                restore_ns: Some(wasm_snapshot_restore_ns(cost, PAPER_WASM_HELLO_BYTES)),
                keep_alive: KeepAlive::Hybrid {
                    min_ttl_ns: 1_000_000,
                    max_ttl_ns: 64 * solo_ns,
                },
                ..WarmPoolConfig::default()
            },
        );
        let mut load = Load {
            bed,
            spec,
            payload,
            solo_ns,
            interval_ns: 1,
            admission,
            open_instances: scale.ops(30_000, 600) as usize,
            closed_instances: scale.ops(10_000, 200) as usize,
        };
        load.interval_ns = load.calibrate(&mut plane);
        Self {
            load,
            plane,
            // Every batch draws a fresh arrival trace, so the virtual
            // percentiles pool many of them.
            virt_batches: scale.ops(30, 2),
            trace_batches: scale.ops(100, 2).min(4),
            seed,
            counters: Counters::default(),
        }
    }

    pub fn counters(&self) -> Counters {
        self.counters
    }

    pub fn instances_per_batch(&self) -> (usize, usize) {
        (self.load.open_instances, self.load.closed_instances)
    }

    /// One batch with spans (the per-layer pass times its halves).
    pub fn run_traced_batch(&mut self, index: u64, tracer: &mut Tracer, out: &mut BatchOut) {
        self.batch(index, Some(tracer), out);
    }

    /// Hands the warmed pipeline over: plane, its clock, the payload.
    pub fn into_plane(self) -> (RoadrunnerPlane, VirtualClock, Bytes) {
        (self.plane, self.load.bed.clock().clone(), self.load.payload)
    }
}

impl Load {
    /// Deliverable throughput as a saturation interval: one think-free
    /// closed-loop user per core, horizon over completions.
    fn calibrate(&self, plane: &mut RoadrunnerPlane) -> Nanos {
        let users = NODES * CORES as usize;
        let probe = ClosedLoop {
            spec: self.spec.clone(),
            payload: self.payload.clone(),
            users,
            think_ns: 0,
            ramp_ns: 0,
            instances: users * 4,
            admission: AdmissionConfig::warm(),
        };
        let clock = self.bed.clock().clone();
        let mut memo = MemoizedPlane::new(plane, clock.clone());
        let mut policy = PackThenSpill::new(self.solo_ns);
        let run = probe
            .run(&mut memo, &clock, &mut mesh(NODES), &mut policy)
            .expect("calibration probe");
        let horizon = run.outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(1);
        (horizon / run.completed().max(1) as u64).max(1)
    }

    fn overload(&self) -> OverloadConfig {
        let i = self.interval_ns;
        OverloadConfig {
            deadline_ns: Some(DEADLINE_INTERVALS * i),
            retry_budget: Some(RetryBudgetConfig::fraction_of_success(4, 20)),
            breaker: None,
            queue: Some(QueueConfig {
                max_in_flight: NODES * CORES as usize,
                queue_cap: 64,
                policy: ShedPolicy::CoDel {
                    target_ns: (DEADLINE_INTERVALS / 4 * i).max(1),
                },
            }),
        }
    }

    /// `n` seeded Poisson arrivals at 0.8 × saturation, 3 × denser over
    /// the middle third.
    fn arrival_trace(&self, n: usize, seed: u64) -> Vec<Nanos> {
        let mut rng = Rng::new(seed);
        let calm_gap = self.interval_ns as f64 / 0.8;
        let mut at = 0u64;
        (0..n)
            .map(|k| {
                let release = at;
                let mean = if (n / 3..2 * n / 3).contains(&k) {
                    calm_gap / 3.0
                } else {
                    calm_gap
                };
                at += (-(1.0 - rng.unit()).ln() * mean).round() as u64;
                release
            })
            .collect()
    }

    /// Two outages of node 1, inside the burst.
    fn flap_plan(&self, releases: &[Nanos], node_id: u64) -> FailurePlan {
        let i = self.interval_ns;
        let burst_start = releases[releases.len() / 3];
        let burst_len = releases[2 * releases.len() / 3] - burst_start;
        let mut outages = OutageSchedule::new();
        for flap in 0..2u64 {
            let from = burst_start + (1 + 2 * flap) * burst_len / 5;
            outages = outages.node_down(node_id, from, from + 24 * i);
        }
        FailurePlan::new(RetryPolicy::new(3, (i / 2).max(1), (4 * i).max(1))).with_outages(outages)
    }

    /// The open-loop half of a batch on `plane`, `instances` arrivals.
    fn open_on(
        &self,
        plane: &mut dyn DataPlane,
        policy: &mut dyn PlacementPolicy,
        releases: Vec<Nanos>,
        stressed: bool,
    ) -> LoadRun {
        let mut resources = mesh(NODES);
        // The memo-equivalence prefix runs warm and without outages: a
        // few hundred arrivals into a cold pool are nearly all shed, and
        // an instance aborted mid-flight leaves the real plane (but not
        // the memo) with a pending relay outbox.
        let plan = stressed.then(|| self.flap_plan(&releases, resources.node_id(1)));
        let admission = if stressed {
            self.admission.clone()
        } else {
            AdmissionConfig::warm()
        };
        let load = MultiLoad {
            tenants: vec![TenantLoad {
                name: "bench".to_owned(),
                spec: self.spec.clone(),
                payload: self.payload.clone(),
                releases,
                weight: 1,
            }],
            admission,
        };
        load.run_overloaded(
            plane,
            self.bed.clock(),
            &mut resources,
            policy,
            None,
            plan.as_ref(),
            &self.overload(),
        )
        .expect("open-loop run")
    }

    /// The closed-loop half of a batch: 32 users, autoscaler 2 → 4 nodes.
    fn closed_on(&self, plane: &mut dyn DataPlane) -> LoadRun {
        let solo = self.solo_ns;
        let load = ClosedLoop {
            spec: self.spec.clone(),
            payload: self.payload.clone(),
            users: USERS,
            think_ns: solo / 4,
            ramp_ns: solo / 4,
            instances: self.closed_instances,
            admission: self.admission.clone(),
        };
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 2,
            max_nodes: NODES,
            node_cores: CORES,
            scale_up_backlog_ns: solo / 2,
            scale_down_backlog_ns: solo / 16,
            window_ns: (solo / 4).max(1),
        });
        load.run_overloaded(
            plane,
            self.bed.clock(),
            &mut mesh(2),
            &mut PackThenSpill::new(solo),
            Some(&mut scaler),
            None,
            &OverloadConfig {
                queue: None,
                ..self.overload()
            },
        )
        .expect("closed-loop run")
    }
}

impl ClusterLoad {
    /// Books one run's instances: conservation decides pass/fail, each
    /// completed instance contributes its sojourn.
    fn book(&mut self, run: &LoadRun, out: &mut BatchOut) {
        let conserved = run.arrivals == run.outcomes.len() + run.shed
            && run.outcomes.len() >= run.failed + run.deadline_exceeded;
        out.attempted += run.arrivals as u64;
        if !conserved {
            out.failed += run.arrivals as u64;
            return;
        }
        for o in &run.outcomes {
            out.digest.write(o.release_ns);
            out.digest.write(
                o.finish_ns ^ (u64::from(o.failed) << 63) ^ (u64::from(o.deadline_exceeded) << 62),
            );
            if !o.failed && !o.deadline_exceeded {
                out.virt_ns.push(o.sojourn_ns);
            }
        }
        out.digest.write(run.shed as u64);
        out.virt_span_ns += run.horizon_ns;

        let c = &mut self.counters;
        c.arrivals += run.arrivals as u64;
        c.completed += run.completed() as u64;
        c.shed += run.shed as u64;
        c.deadline_exceeded += run.deadline_exceeded as u64;
        c.failed += run.failed as u64;
        c.retries += run.retries;
        c.scale_events += run.scale_events.len() as u64;
        if let Some(pool) = run.pool {
            c.pool_hits += pool.hits;
            c.pool_misses += pool.misses;
        }
    }

    /// One batch, with spans when `tracer` is given.
    fn batch(&mut self, index: u64, mut tracer: Option<&mut Tracer>, out: &mut BatchOut) {
        let batch_seed = self.seed.wrapping_add(index);
        let load = &self.load;
        let releases = spanned!(
            tracer,
            span::TRACE_GEN,
            index,
            load.arrival_trace(load.open_instances, batch_seed)
        );
        // A fresh memo per batch: its handful of real transfers is part
        // of every batch, not of the first one only.
        let clock = load.bed.clock().clone();
        let mut memo = spanned!(
            tracer,
            span::MEMO_NEW,
            index,
            MemoizedPlane::new(&mut self.plane, clock)
        );
        let mut policy = PackThenSpill::new(load.solo_ns);
        let open = spanned!(
            tracer,
            span::OPEN,
            index,
            load.open_on(&mut memo, &mut policy, releases, true)
        );
        let closed = spanned!(tracer, span::CLOSED, index, load.closed_on(&mut memo));
        self.counters.memo_hits += memo.hits();
        self.counters.memo_misses += memo.misses();
        spanned!(tracer, span::BOOK, index, {
            self.book(&open, out);
            self.book(&closed, out);
        });
    }

    /// Instances of an unmemoized open-loop prefix whose outcome differs
    /// from the memoized run of the same arrivals. Must be 0 under
    /// whole-instance placement; non-zero today under `SpreadLoad`.
    pub fn prefix_mismatches(&mut self, spread: bool) -> u64 {
        let load = &self.load;
        let n = if spread { SPREAD_PREFIX } else { PLAIN_PREFIX }.min(load.open_instances);
        let releases = load.arrival_trace(n, self.seed);
        let policy = || -> Box<dyn PlacementPolicy> {
            if spread {
                Box::new(SpreadLoad::new())
            } else {
                Box::new(PackThenSpill::new(load.solo_ns))
            }
        };
        let plain = load.open_on(&mut self.plane, policy().as_mut(), releases.clone(), false);
        let mut memo = MemoizedPlane::new(&mut self.plane, load.bed.clock().clone());
        let memoized = load.open_on(&mut memo, policy().as_mut(), releases, false);
        let signature = |run: &LoadRun| -> Vec<(Nanos, Nanos, Nanos, bool, bool)> {
            run.outcomes
                .iter()
                .map(|o| {
                    (
                        o.release_ns,
                        o.finish_ns,
                        o.cold_start_ns,
                        o.failed,
                        o.deadline_exceeded,
                    )
                })
                .collect()
        };
        let (a, b) = (signature(&plain), signature(&memoized));
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        (differing + a.len().abs_diff(b.len())) as u64
    }
}

impl Workload for ClusterLoad {
    fn batch_ops(&self) -> u64 {
        (self.load.open_instances + self.load.closed_instances) as u64
    }

    fn virt_batches(&self) -> u64 {
        self.virt_batches
    }

    fn run_batch(&mut self, index: u64, out: &mut BatchOut) {
        self.batch(index, None, out);
    }

    fn traced_pass(&mut self, tracer: &mut Tracer, out: &mut BatchOut) {
        for index in 0..self.trace_batches {
            let span = tracer.begin(span::BATCH, index);
            self.batch(index, Some(&mut *tracer), out);
            tracer.end(span);
        }
    }

    fn final_check(&mut self, out: &mut BatchOut) {
        // memo ≡ plain on an unmemoized prefix: every differing instance
        // is a failed op.
        let n = PLAIN_PREFIX.min(self.load.open_instances) as u64;
        out.attempted += n;
        out.failed += self.prefix_mismatches(false).min(n);
    }

    fn describe(&self) -> String {
        format!(
            "src->relay->sink instances ({} B payload) on a {NODES}x{CORES}-core cluster through MemoizedPlane; per batch {} open-loop arrivals (Poisson, 0.8x saturation, 3x burst, pool + overload + 2 node flaps) and {} closed-loop instances ({USERS} users, autoscaler 2->{NODES}); solo {:.3} ms, saturation interval {:.3} ms virtual",
            self.load.payload.len(),
            self.load.open_instances,
            self.load.closed_instances,
            self.load.solo_ns as f64 / 1e6,
            self.load.interval_ns as f64 / 1e6,
        )
    }
}
