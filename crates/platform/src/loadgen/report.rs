//! What a run reports: per-instance outcomes, per-tenant counters and
//! the aggregate [`LoadRun`], whose percentiles — for the run and for
//! each tenant — are exact nearest-rank over the completed sojourns.

use roadrunner_vkernel::Nanos;

use super::autoscaler::ScaleEvent;
use crate::metrics::{percentiles, PercentileSummary};
use crate::warmpool::PoolStats;

/// One admitted workflow instance's outcome.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Instance index in admission order.
    pub instance: usize,
    /// The virtual user that issued the instance (equals `instance` for
    /// open-loop runs, the user slot for closed-loop runs).
    pub user: usize,
    /// Arrival time on the shared timescale.
    pub release_ns: Nanos,
    /// Cold-start delay charged before the instance's edges could start
    /// (0 when every function was already warm on its node).
    pub cold_start_ns: Nanos,
    /// Functions of this instance served warm out of the pool (always 0
    /// without pooled admission).
    pub pool_hits: u32,
    /// Functions of this instance that had to instantiate — full build
    /// or snapshot restore (always 0 without pooled admission).
    pub pool_misses: u32,
    /// When the instance's last edge finished.
    pub finish_ns: Nanos,
    /// Sojourn time: `finish_ns - release_ns` (cold start + queueing +
    /// service). For a failed instance this is time-in-system until the
    /// engine gave up.
    pub sojourn_ns: Nanos,
    /// The nodes the policy assigned, indexed by DAG node.
    pub assignment: Vec<usize>,
    /// Tenant (workload lane) index the instance belongs to; 0 for
    /// every single-tenant driver.
    pub tenant: usize,
    /// Whether the instance failed (an edge exhausted its retry budget
    /// under the run's [`FailurePlan`](super::FailurePlan)). Always `false` without one.
    pub failed: bool,
    /// Whether the instance aborted on its overload-control deadline
    /// (distinct from `failed`: the work was shed as stale, not
    /// exhausted). Always `false` without a configured deadline.
    pub deadline_exceeded: bool,
    /// Failed edge attempts the instance absorbed (0 when every edge
    /// succeeded first try).
    pub retries: u32,
}

/// Aggregate result of one load-generation run (open- or closed-loop).
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Per-instance outcomes in admission order.
    pub outcomes: Vec<InstanceOutcome>,
    /// First release to last finish — the horizon utilizations are
    /// normalized by. 0 for an empty run.
    pub horizon_ns: Nanos,
    /// Offered arrival rate (instances per second of virtual time,
    /// `1 / mean inter-arrival gap`) for open-loop runs; for closed-loop
    /// runs this equals the achieved rate (a closed loop offers exactly
    /// what completes). Note that achieved throughput
    /// ([`LoadRun::throughput_rps`]) can slightly exceed this under
    /// light open load with few instances: the horizon ends at the last
    /// *completion*, which then trails the last arrival by less than one
    /// inter-arrival gap.
    pub offered_rps: f64,
    /// Core-lane utilization over the horizon: Σ reserved CPU time
    /// divided by the **time-weighted** active core-lane capacity
    /// (∫ active lanes dt across the event timeline), so the figure
    /// stays comparable when an autoscaler resizes the cluster mid-run.
    /// For fixed capacity this reduces to the classic
    /// `reserved / (lanes × horizon)`.
    pub cpu_utilization: f64,
    /// Link utilization over the horizon (same time-weighted
    /// normalization).
    pub link_utilization: f64,
    /// The autoscaler's decision trace (empty without an autoscaler).
    pub scale_events: Vec<ScaleEvent>,
    /// Active node count when the run ended.
    pub final_nodes: usize,
    /// Instances that failed after exhausting their retries (0 without
    /// a [`FailurePlan`](super::FailurePlan)). Conservation: `outcomes.len()` admitted ==
    /// completed + `failed` + `deadline_exceeded`.
    pub failed: usize,
    /// Arrivals the run saw, admitted or not. Conservation:
    /// `arrivals == outcomes.len() + shed`.
    pub arrivals: usize,
    /// Arrivals shed at the bounded admission queue (0 without an
    /// overload [`QueueConfig`](crate::overload::QueueConfig)).
    pub shed: usize,
    /// Instances that aborted on their overload-control deadline (0
    /// without a configured deadline).
    pub deadline_exceeded: usize,
    /// Per-tenant accounting, indexed by tenant lane; single-tenant
    /// drivers produce exactly one entry.
    pub tenants: Vec<TenantStats>,
    /// Failed edge attempts absorbed across all instances, completed
    /// ones included.
    pub retries: u64,
    /// Warm-pool accounting (hits, misses, restores, evictions,
    /// prewarms, idle residency); `None` without pooled admission.
    pub pool: Option<PoolStats>,
}

impl LoadRun {
    /// Completed instances per second of virtual time over the horizon.
    ///
    /// Empty-run contract: an empty run reports `0.0` (nothing
    /// completed), and a non-empty run whose horizon is zero (every
    /// instance completed at its release instant) reports
    /// `f64::INFINITY` — so `0.0` always means "no throughput", never
    /// "instant throughput".
    pub fn throughput_rps(&self) -> f64 {
        if self.completed() == 0 {
            return 0.0;
        }
        if self.horizon_ns == 0 {
            return f64::INFINITY;
        }
        self.completed() as f64 * 1e9 / self.horizon_ns as f64
    }

    /// Instances that completed (admitted minus failed-after-retries
    /// minus deadline-exceeded aborts).
    pub fn completed(&self) -> usize {
        self.outcomes.len() - self.failed - self.deadline_exceeded
    }

    /// Instances that completed only after absorbing at least one
    /// retry.
    pub fn retried(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.failed && !o.deadline_exceeded && o.retries > 0)
            .count()
    }

    /// Sojourn-time percentile digest over the completed instances;
    /// `None` when nothing completed.
    pub fn sojourn_percentiles(&self) -> Option<PercentileSummary> {
        self.completed_sojourn_percentiles(|_| true)
    }

    /// [`sojourn_percentiles`](Self::sojourn_percentiles) of tenant lane
    /// `tenant` alone (an index into [`tenants`](Self::tenants)); `None`
    /// when that tenant completed nothing.
    pub fn tenant_sojourn_percentiles(&self, tenant: usize) -> Option<PercentileSummary> {
        self.completed_sojourn_percentiles(|o| o.tenant == tenant)
    }

    /// Nearest-rank digest of the completed instances `keep` selects.
    /// Failed and deadline-exceeded instances never delivered: their
    /// time-in-system is not a sojourn.
    fn completed_sojourn_percentiles(
        &self,
        keep: impl Fn(&InstanceOutcome) -> bool,
    ) -> Option<PercentileSummary> {
        let sojourns: Vec<Nanos> = self
            .outcomes
            .iter()
            .filter(|o| !o.failed && !o.deadline_exceeded && keep(o))
            .map(|o| o.sojourn_ns)
            .collect();
        percentiles(&sojourns)
    }

    /// The slowest instance's sojourn; `None` for an empty run (so an
    /// empty run is distinguishable from one whose slowest sojourn was
    /// genuinely zero).
    pub fn max_sojourn_ns(&self) -> Option<Nanos> {
        self.outcomes.iter().map(|o| o.sojourn_ns).max()
    }

    /// Total cold-start time charged across all instances.
    pub fn cold_start_total_ns(&self) -> Nanos {
        self.outcomes.iter().map(|o| o.cold_start_ns).sum()
    }

    /// Number of instances that paid a nonzero cold start.
    pub fn cold_starts(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cold_start_ns > 0).count()
    }
}

/// Per-tenant accounting of one load run: arrival/outcome conservation
/// counters. The tenant's sojourn percentiles come from
/// [`LoadRun::tenant_sojourn_percentiles`].
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Tenant name (from [`TenantLoad::name`](super::TenantLoad::name); the spec's tenant for
    /// single-tenant drivers).
    pub name: String,
    /// Arrivals the tenant offered, admitted or not. Conservation:
    /// `arrivals == completed + failed + deadline_exceeded + shed`.
    pub arrivals: usize,
    /// Instances that completed.
    pub completed: usize,
    /// Instances that failed after exhausting retries.
    pub failed: usize,
    /// Instances that aborted on their deadline.
    pub deadline_exceeded: usize,
    /// Arrivals shed at the admission queue.
    pub shed: usize,
}

impl TenantStats {
    pub(super) fn new(name: &str) -> Self {
        Self { name: name.to_owned(), ..Self::default() }
    }
}
