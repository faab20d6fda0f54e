//! Multi-tenant load generation and the elastic control loop.
//!
//! The paper evaluates one workflow at a time; a platform serves many at
//! once. This module admits streams of workflow *instances* onto
//! **shared** [`SchedResources`] timelines through one completion-event
//! engine, reached through one function:
//!
//! ```text
//! loadgen::run(load, cluster, controls) -> Result<LoadRun, PlatformError>
//! ```
//!
//! * `load` — *what arrives*: an [`OpenLoop`], a [`ClosedLoop`] or a
//!   [`MultiLoad`], passed by reference (each converts into the
//!   engine's [`Load`] description).
//! * [`Cluster`] — *where it runs*: the data plane, its virtual clock,
//!   the shared resource timelines and the placement policy.
//! * [`Controls`] — *what watches it*: an optional [`Autoscaler`], an
//!   optional [`FailurePlan`] and the [`OverloadConfig`]; the default is
//!   all three off, and a run with a layer off is byte-identical to one
//!   built before the layer existed.
//!
//! Every admission pops from a deterministic event queue, takes a live
//! `ResourceView` snapshot, asks the [`PlacementPolicy`] where the
//! instance goes, charges whatever instantiation the
//! [`AdmissionConfig`] requires, and executes the instance at its
//! release time over a workflow compiled **once per run** — so every
//! in-flight instance contends for the same per-node core lanes and
//! per-pair links in virtual time. Completion events close the loop:
//! they gate the next arrival of a closed-loop user, drain the bounded
//! admission queue and give the autoscaler its observation points.
//!
//! * [`OpenLoop`] — arrivals do not wait for completions (the classic
//!   serverless traffic model — users do not coordinate), so offered
//!   load can exceed capacity and queueing shows up as growing sojourn
//!   times rather than a throttled arrival stream.
//! * [`ClosedLoop`] — N virtual users each keep exactly one instance in
//!   flight: a user's next arrival fires only after its previous
//!   instance completed plus a think time. Saturation throughput is
//!   measured directly instead of read off the achieved-vs-offered gap.
//! * [`MultiLoad`] — several tenants' explicit release traces
//!   interleaved, each with its own spec, warmth and fair-share weight.
//!
//! Admission is FIFO in arrival order: an earlier instance's
//! reservations are placed before a later instance's, the discipline of
//! a work-conserving platform queue.
//!
//! Module map: `arrivals` (release-time generators), `failure`
//! ([`FailurePlan`]), `autoscaler` (the elastic controller), `events` (the seeded-list +
//! heap event merge), `engine` (the event loop, one step per event
//! kind) and `report` ([`LoadRun`] and its percentiles).

mod arrivals;
mod autoscaler;
mod engine;
mod events;
mod failure;
mod report;
#[cfg(test)]
mod tests;

use bytes::Bytes;
use roadrunner_vkernel::sched::SchedResources;
use roadrunner_vkernel::{Nanos, VirtualClock};

use crate::error::PlatformError;
use crate::overload::OverloadConfig;
use crate::scheduler::PlacementPolicy;
use crate::warmpool::AdmissionConfig;
use crate::workflow::{DataPlane, WorkflowSpec};

pub use arrivals::ArrivalProcess;
pub use autoscaler::{Autoscaler, AutoscalerConfig, PrewarmConfig, ScaleAction, ScaleEvent};
pub use failure::{FailurePlan, NodeKill};
pub use report::{InstanceOutcome, LoadRun, TenantStats};

/// Where a load runs: the four references every run threads together.
///
/// `resources` is *not* reset: callers own the timescale and may
/// pre-load it (e.g. with background traffic). Utilizations are computed
/// from the reservations the run added, over its own horizon.
pub struct Cluster<'a> {
    /// The data plane every edge is driven through.
    pub plane: &'a mut dyn DataPlane,
    /// The virtual clock `plane` advances as it measures.
    pub clock: &'a VirtualClock,
    /// The shared per-node core lanes and per-pair links.
    pub resources: &'a mut SchedResources,
    /// Where each instance's functions go.
    pub policy: &'a mut dyn PlacementPolicy,
}

/// The optional layers of a run; `Controls::default()` is all of them
/// off.
#[derive(Default)]
pub struct Controls<'a> {
    /// Grows and shrinks capacity between instances as the controller
    /// reacts to the live backlog signal (and replaces killed nodes,
    /// and pre-warms pools when configured to).
    pub autoscaler: Option<&'a mut Autoscaler>,
    /// Outages reject reservations, edges retry with backoff, dead
    /// nodes are removed. Outage-induced failures become failed
    /// outcomes, not errors. `None` and an empty plan are byte-identical.
    pub failures: Option<&'a FailurePlan>,
    /// Deadlines, retry budgets, circuit breakers and bounded-queue
    /// shedding; the default has every knob off.
    pub overload: OverloadConfig,
}

/// Admits `load` onto `cluster` under `controls` — the one way to run a
/// load.
///
/// # Errors
///
/// [`PlatformError::InvalidLoad`] for a load that can never admit
/// anything by construction (a closed loop without users), the first
/// workflow-validation error, or the first non-fault transfer error.
pub fn run<'a>(
    load: impl Into<Load<'a>>,
    cluster: Cluster<'a>,
    controls: Controls<'a>,
) -> Result<LoadRun, PlatformError> {
    engine::Engine::new(load.into(), cluster, controls)?.run()
}

/// What arrives, in the engine's terms: the tenants' work, the arrival
/// discipline and the cold-start admission model. Built from an
/// [`OpenLoop`], [`ClosedLoop`] or [`MultiLoad`] by reference.
pub struct Load<'a> {
    tenants: Vec<TenantWork<'a>>,
    admission: Admission,
    admission_cfg: &'a AdmissionConfig,
}

/// One tenant's share of a [`Load`]: the spec/payload to run and the
/// fair-share weight. Single-tenant loads carry exactly one.
struct TenantWork<'a> {
    name: &'a str,
    spec: &'a WorkflowSpec,
    payload: &'a Bytes,
    weight: u64,
}

/// How the engine admits instances.
enum Admission {
    /// Pre-scheduled arrival times (instance k = user k, tenant 0).
    Open { releases: Vec<Nanos>, mean_interval_ns: Nanos },
    /// `users` slots seeded `ramp_ns` apart, each re-arming `think_ns`
    /// after its completion, until `instances` total have been admitted.
    Closed { users: usize, think_ns: Nanos, ramp_ns: Nanos, instances: usize },
    /// Pre-merged multi-tenant release trace: `(at, tenant, user)`,
    /// non-decreasing in time.
    Multi { releases: Vec<(Nanos, usize, usize)> },
}

impl<'a> Load<'a> {
    fn single(
        spec: &'a WorkflowSpec,
        payload: &'a Bytes,
        admission: Admission,
        admission_cfg: &'a AdmissionConfig,
    ) -> Self {
        let tenants = vec![TenantWork { name: &spec.tenant, spec, payload, weight: 1 }];
        Self { tenants, admission, admission_cfg }
    }
}

/// One tenant's workload in a [`MultiLoad`] run: a workflow spec, its
/// payload, an explicit release trace, and a fair-share weight for the
/// weighted-round-robin admission queue.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant name, carried into [`TenantStats::name`].
    pub name: String,
    /// The workflow every instance of this tenant runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// Explicit arrival instants (non-decreasing). An explicit trace —
    /// rather than an [`ArrivalProcess`] — lets a tenant model
    /// multi-phase shapes (pre-burst / burst / recovery) directly.
    pub releases: Vec<Nanos>,
    /// Fair-share weight at the admission queue (≥ 1; a weight-4 tenant
    /// dequeues 4× as often as a weight-1 tenant when both are backed
    /// up).
    pub weight: u64,
}

impl TenantLoad {
    /// A tenant generating `instances` arrivals from `arrivals`.
    pub fn from_process(
        name: impl Into<String>,
        spec: WorkflowSpec,
        payload: Bytes,
        arrivals: &ArrivalProcess,
        instances: usize,
    ) -> Self {
        Self {
            name: name.into(),
            spec,
            payload,
            releases: arrivals.times(instances),
            weight: 1,
        }
    }
}

/// A multi-tenant open-loop workload: every tenant's release trace is
/// interleaved onto the **shared** timelines (stable-ordered by time,
/// ties by tenant index), each instance runs its own tenant's spec and
/// payload, and per-tenant warmth never aliases — each tenant gets its
/// own admission lane, so one tenant's warm instances are invisible to
/// another's (the paper's per-tenant trust boundary).
///
/// Combined with an overload [`QueueConfig`](crate::overload::QueueConfig),
/// the weighted admission queue is the fairness lever the ROADMAP's
/// multi-tenant item calls for: an adversarial tenant's backlog queues
/// behind its own weight instead of starving everyone.
#[derive(Debug, Clone)]
pub struct MultiLoad {
    /// The tenants, in lane order.
    pub tenants: Vec<TenantLoad>,
    /// Cold-start admission model, applied per tenant lane.
    pub admission: AdmissionConfig,
}

impl<'a> From<&'a MultiLoad> for Load<'a> {
    fn from(load: &'a MultiLoad) -> Self {
        let mut releases: Vec<(Nanos, usize, usize)> = Vec::new();
        for (tenant, t) in load.tenants.iter().enumerate() {
            for (user, &at) in t.releases.iter().enumerate() {
                releases.push((at, tenant, user));
            }
        }
        // Stable by time: equal instants keep tenant order, so the
        // interleaving is deterministic.
        releases.sort_by_key(|&(at, _, _)| at);
        let tenants = load
            .tenants
            .iter()
            .map(|t| TenantWork {
                name: &t.name,
                spec: &t.spec,
                payload: &t.payload,
                weight: t.weight,
            })
            .collect();
        Self { tenants, admission: Admission::Multi { releases }, admission_cfg: &load.admission }
    }
}

/// An open-loop workload: `instances` copies of `spec` carrying
/// `payload`, admitted per `arrivals`.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// The workflow every instance runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of instances to admit.
    pub instances: usize,
    /// How instances are admitted: all-warm, or a warm pool with
    /// keep-alive eviction (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

impl<'a> From<&'a OpenLoop> for Load<'a> {
    fn from(load: &'a OpenLoop) -> Self {
        let admission = Admission::Open {
            releases: load.arrivals.times(load.instances),
            mean_interval_ns: load.arrivals.mean_interval_ns(),
        };
        Self::single(&load.spec, &load.payload, admission, &load.admission)
    }
}

/// A closed-loop workload: `users` virtual users each keep one instance
/// of `spec` in flight, thinking for `think_ns` between a completion and
/// their next request, until `instances` total have completed.
///
/// Concurrency is bounded by construction — at most `users` instances
/// ever overlap — and each user's arrivals are gated on its own
/// completions, so throughput saturates at what the cluster actually
/// sustains (the directly measured saturation throughput the elastic
/// experiments report).
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// The workflow every instance runs.
    pub spec: WorkflowSpec,
    /// Payload injected into every instance's roots.
    pub payload: Bytes,
    /// Number of concurrent virtual users.
    pub users: usize,
    /// Think time between a user's completion and its next arrival.
    pub think_ns: Nanos,
    /// Ramp-up stagger: user `u`'s first arrival fires at `u × ramp_ns`
    /// (0 starts every user at once). Ramping is how closed-loop
    /// harnesses avoid measuring the artificial thundering herd of a
    /// simultaneous start instead of steady-state queueing.
    pub ramp_ns: Nanos,
    /// Total instances to admit across all users.
    pub instances: usize,
    /// How instances are admitted: all-warm, or a warm pool with
    /// keep-alive eviction (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
}

impl<'a> From<&'a ClosedLoop> for Load<'a> {
    fn from(load: &'a ClosedLoop) -> Self {
        let admission = Admission::Closed {
            users: load.users,
            think_ns: load.think_ns,
            ramp_ns: load.ramp_ns,
            instances: load.instances,
        };
        Self::single(&load.spec, &load.payload, admission, &load.admission)
    }
}

// The three signatures below are frozen by the benchmark package —
// `benchmark/src/workloads/cluster.rs` is their sole caller — and are
// one-expression forwards to [`run`]. They go when that file is ported.

impl ClosedLoop {
    #[doc(hidden)]
    pub fn run(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<LoadRun, PlatformError> {
        run(self, Cluster { plane, clock, resources, policy }, Controls::default())
    }

    #[doc(hidden)]
    #[expect(clippy::too_many_arguments, reason = "signature frozen by benchmark/")]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        run(
            self,
            Cluster { plane, clock, resources, policy },
            Controls { autoscaler, failures, overload: *overload },
        )
    }
}

impl MultiLoad {
    #[doc(hidden)]
    #[expect(clippy::too_many_arguments, reason = "signature frozen by benchmark/")]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        run(
            self,
            Cluster { plane, clock, resources, policy },
            Controls { autoscaler, failures, overload: *overload },
        )
    }
}
