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
//! * `load` — *what arrives*: a [`MultiLoad`] or a [`ClosedLoop`],
//!   passed by reference (each converts into the engine's [`Load`]
//!   description).
//! * [`Cluster`] — *where it runs*: the data plane, the shared
//!   resource timelines and the placement policy.
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
//! * [`MultiLoad`] — open loop: each tenant's explicit release trace,
//!   with its own spec, warmth and fair-share weight; arrivals do not
//!   wait for completions (the classic serverless traffic model — users
//!   do not coordinate), so offered load can exceed capacity and
//!   queueing shows up as growing sojourn times rather than a throttled
//!   arrival stream. One tenant is the single-workflow open loop
//!   ([`TenantLoad::from_process`] draws its trace from an
//!   [`ArrivalProcess`]).
//! * [`ClosedLoop`] — N virtual users each keep exactly one instance in
//!   flight: a user's next arrival fires only after its previous
//!   instance completed plus a think time. Saturation throughput is
//!   measured directly instead of read off the achieved-vs-offered gap.
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
    /// The data plane every edge is driven through; each edge costs
    /// the [`TransferTiming`](crate::workflow::TransferTiming) it reports.
    pub plane: &'a mut dyn DataPlane,
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
/// discipline and the cold-start admission model. Built from a
/// [`MultiLoad`] or a [`ClosedLoop`] by reference.
pub struct Load<'a> {
    tenants: Vec<TenantWork<'a>>,
    admission: Admission,
    admission_cfg: &'a AdmissionConfig,
}

/// One tenant's share of a [`Load`]: the spec/payload to run, the
/// fair-share weight and, for an open loop, its release trace. A closed
/// loop carries exactly one, with no trace.
struct TenantWork<'a> {
    name: &'a str,
    spec: &'a WorkflowSpec,
    payload: &'a Bytes,
    weight: u64,
    releases: &'a [Nanos],
}

/// How the engine admits instances.
enum Admission {
    /// Every tenant's release trace, as given: a tenant's `k`-th
    /// release is its user `k`.
    Multi,
    /// `users` slots seeded `ramp_ns` apart, each re-arming `think_ns`
    /// after its completion, until `instances` total have been admitted.
    Closed { users: usize, think_ns: Nanos, ramp_ns: Nanos, instances: usize },
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

/// An open-loop workload of one or more tenants: every tenant's release
/// trace is interleaved onto the **shared** timelines (ordered by time;
/// at one instant by tenant index, then by release index), each instance
/// runs its own tenant's spec and payload, and per-tenant warmth never
/// aliases — each tenant gets its own admission lane, so one tenant's
/// warm instances are invisible to another's (the paper's per-tenant
/// trust boundary).
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
        let tenants = load
            .tenants
            .iter()
            .map(|t| TenantWork {
                name: &t.name,
                spec: &t.spec,
                payload: &t.payload,
                weight: t.weight,
                releases: &t.releases,
            })
            .collect();
        Self { tenants, admission: Admission::Multi, admission_cfg: &load.admission }
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
        let tenant = TenantWork {
            name: &load.spec.tenant,
            spec: &load.spec,
            payload: &load.payload,
            weight: 1,
            releases: &[],
        };
        Self { tenants: vec![tenant], admission, admission_cfg: &load.admission }
    }
}

// The three signatures below are frozen by the benchmark package —
// `benchmark/src/workloads/cluster.rs` is their sole caller — and are
// one-expression forwards to [`run`]. Each takes a clock and ignores it:
// an edge costs the timing its plane reports. They go when that file is
// ported.

impl ClosedLoop {
    #[doc(hidden)]
    pub fn run(
        &self,
        plane: &mut dyn DataPlane,
        _clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<LoadRun, PlatformError> {
        run(self, Cluster { plane, resources, policy }, Controls::default())
    }

    #[doc(hidden)]
    #[expect(clippy::too_many_arguments, reason = "signature frozen by benchmark/")]
    pub fn run_overloaded(
        &self,
        plane: &mut dyn DataPlane,
        _clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        run(
            self,
            Cluster { plane, resources, policy },
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
        _clock: &VirtualClock,
        resources: &mut SchedResources,
        policy: &mut dyn PlacementPolicy,
        autoscaler: Option<&mut Autoscaler>,
        failures: Option<&FailurePlan>,
        overload: &OverloadConfig,
    ) -> Result<LoadRun, PlatformError> {
        run(
            self,
            Cluster { plane, resources, policy },
            Controls { autoscaler, failures, overload: *overload },
        )
    }
}
