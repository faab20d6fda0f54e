//! Per-lane admission state: what an instance pays before its edges
//! may start (nothing, the fig. 2a warm-set cold start, or a warm-pool
//! tier).

use std::collections::HashSet;

use roadrunner_vkernel::sched::SchedResources;
use roadrunner_vkernel::Nanos;

use crate::warmpool::{AdmissionConfig, Admitted, PoolStats, WarmPool};

/// One lane's admission state for one run, resolved once from an
/// [`AdmissionConfig`].
pub(super) enum AdmissionState {
    /// No cold starts: every instance admits at its arrival instant.
    AllWarm,
    /// The legacy fig. 2a model: the first (function, node) landing
    /// pays the full cost and the pair stays warm for the whole run.
    WarmSet { cold_ns: Nanos, warm: HashSet<(usize, usize)> },
    /// Warm-pool admission with keep-alive eviction (and, with a
    /// prewarm-configured [`Autoscaler`], predictive pre-warming).
    Pool(Box<WarmPool>),
}

impl AdmissionState {
    pub(super) fn new(cfg: &AdmissionConfig, functions: usize) -> Self {
        match (cfg.cold_start_ns, &cfg.pool) {
            (None, _) => Self::AllWarm,
            (Some(cold_ns), None) => {
                Self::WarmSet { cold_ns, warm: HashSet::new() }
            }
            (Some(cold_ns), Some(pool)) => {
                Self::Pool(Box::new(WarmPool::new(cold_ns, pool.clone(), functions)))
            }
        }
    }

    /// Admits one instance at `now`: charges whatever instantiation the
    /// policy requires on the nodes' CPU timelines and returns the
    /// (possibly delayed) release instant plus pool accounting.
    pub(super) fn admit(
        &mut self,
        now: Nanos,
        assignment: &[usize],
        resources: &mut SchedResources,
    ) -> Admitted {
        match self {
            Self::AllWarm => Admitted { release_ns: now, hits: 0, misses: 0 },
            Self::WarmSet { cold_ns, warm } => {
                let mut release = now;
                let cold = *cold_ns;
                for (fi, &node) in assignment.iter().enumerate() {
                    if warm.insert((fi, node)) {
                        let start = resources.cpu(node).reserve(now, cold);
                        release = release.max(start.saturating_add(cold));
                    }
                }
                Admitted { release_ns: release, hits: 0, misses: 0 }
            }
            Self::Pool(pool) => pool.admit(now, assignment, resources),
        }
    }

    /// The warm pool behind this lane, when admission is pooled.
    pub(super) fn pool_mut(&mut self) -> Option<&mut WarmPool> {
        match self {
            Self::Pool(pool) => Some(pool),
            _ => None,
        }
    }

    /// A completed instance hands its warm functions back (pool only —
    /// the warm set never gives anything back by construction).
    pub(super) fn complete(&mut self, finish: Nanos, assignment: &[usize]) {
        if let Self::Pool(pool) = self {
            pool.complete(finish, assignment);
        }
    }

    /// Scale-in to `nodes` survivors: warmth on dropped indices dies
    /// with them (a re-added index is a brand-new machine).
    pub(super) fn shrink_to(&mut self, nodes: usize, now: Nanos) {
        match self {
            Self::AllWarm => {}
            Self::WarmSet { warm, .. } => warm.retain(|&(_, node)| node < nodes),
            Self::Pool(pool) => pool.shrink_to(nodes, now),
        }
    }

    /// A kill removed `victim` mid-run: its warmth dies, survivors
    /// above it shift down one index.
    pub(super) fn remove_node(&mut self, victim: usize, now: Nanos) {
        match self {
            Self::AllWarm => {}
            Self::WarmSet { warm, .. } => {
                *warm = warm
                    .iter()
                    .filter_map(|&(fi, n)| match n.cmp(&victim) {
                        std::cmp::Ordering::Less => Some((fi, n)),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some((fi, n - 1)),
                    })
                    .collect();
            }
            Self::Pool(pool) => pool.remove_node(victim, now),
        }
    }

    /// Settles keep-alive fates at the run horizon and surrenders the
    /// pool's accounting (None off the pool path).
    pub(super) fn finalize(self, end: Nanos) -> Option<PoolStats> {
        match self {
            Self::Pool(pool) => Some(pool.finalize(end)),
            _ => None,
        }
    }
}

/// Sums two lanes' pool accounting (lane pools merge by summation into
/// the run-level total).
pub(super) fn merge_pool_stats(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        restores: a.restores + b.restores,
        returns: a.returns + b.returns,
        evictions: a.evictions + b.evictions,
        prewarms: a.prewarms + b.prewarms,
        prewarm_ns: a.prewarm_ns + b.prewarm_ns,
        idle_ns: a.idle_ns + b.idle_ns,
        warm_at_end: a.warm_at_end + b.warm_at_end,
    }
}
