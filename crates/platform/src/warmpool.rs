//! Deterministic per-(function, node) warm-instance pools.
//!
//! The fig. 2a cold-start model charges a flat instantiation cost the
//! first time a function lands on a node and keeps the pair warm forever
//! — optimistic in steady state and silent about the regime where cold
//! starts actually hurt: bursty ramps, where every arrival in the burst
//! front pays full instantiation exactly when p99 matters. This module
//! is the warm-instance management layer the FaaS keep-alive literature
//! builds (FunLess' warm/cold scheduling, Shahrad et al.'s hybrid
//! histogram policy, Faasta's snapshot restore):
//!
//! * a [`WarmPool`] holds idle instances per (function, node) slot in
//!   **virtual time**; admission takes the most-recently-idle usable
//!   instance (a pool *hit*, free) or instantiates a new one (a *miss*,
//!   paying a cold-start tier on the node's CPU timeline);
//! * misses pay the **full** decode+instantiate cost the first time a
//!   (function, node) pair is ever built and the cheap
//!   **snapshot-restore** tier afterwards (when the pool is configured
//!   with one — the first build leaves a snapshot behind);
//! * completed instances return to the pool and idle there until a
//!   [`KeepAlive`] policy evicts them — a fixed TTL, or the hybrid
//!   histogram-of-reuse-gaps policy that learns each function's idle
//!   distribution and keeps instances just long enough to cover it;
//! * the autoscaler's predictive pre-warming
//!   ([`ensure_target`](WarmPool::ensure_target)) instantiates instances
//!   in the background — off any arrival's critical path — so a ramp
//!   finds warm capacity instead of a cold slab.
//!
//! Everything is deterministic: pools are driven only by virtual-time
//! events (admissions, completions, prewarm decisions), idle entries are
//! scanned in slot order, and eviction is lazy — an expired entry is
//! reaped at the next touch of its slot, with its idle time credited up
//! to its virtual deadline, so re-running a workload replays the exact
//! same hit/miss/eviction sequence.

use std::collections::{HashMap, HashSet};

use roadrunner_vkernel::sched::SchedResources;
use roadrunner_vkernel::Nanos;

/// How the load engine admits instances: the optional fig. 2a cold-start
/// cost and the optional warm pool managing it.
///
/// This is the one admission knob [`OpenLoop`](crate::OpenLoop) and
/// [`ClosedLoop`](crate::ClosedLoop) share (it used to be a
/// `cold_start_ns` field copy-pasted across both):
///
/// * [`AdmissionConfig::warm`] — every instance admits warm (no cold
///   starts at all);
/// * [`AdmissionConfig::cold`] — the legacy warm-*set* model: each
///   (function, node) pair pays the flat cost on its first landing and
///   stays warm for the rest of the run;
/// * [`AdmissionConfig::pooled`] — the full warm-pool model of this
///   module: per-instance hits and misses, cost tiers, keep-alive
///   eviction and (with a prewarm-configured autoscaler) predictive
///   pre-warming.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Full cold-start (decode + instantiate) cost charged on the
    /// node's CPU timeline when an instance must be built; `None`
    /// admits everything warm (and disables the pool — a pool of
    /// zero-cost instances would be indistinguishable from warm
    /// admission).
    pub cold_start_ns: Option<Nanos>,
    /// Warm-pool configuration; `None` keeps the legacy warm-set model.
    pub pool: Option<WarmPoolConfig>,
}

impl AdmissionConfig {
    /// Every instance admits warm — no cold-start accounting at all.
    pub fn warm() -> Self {
        Self { cold_start_ns: None, pool: None }
    }

    /// The legacy fig. 2a warm-set model: each (function, node) pair
    /// pays `cold_start_ns` once, on its first landing, and stays warm
    /// for the rest of the run.
    pub fn cold(cold_start_ns: Nanos) -> Self {
        Self { cold_start_ns: Some(cold_start_ns), pool: None }
    }

    /// Warm-pool admission: misses pay `cold_start_ns` (or the pool's
    /// snapshot-restore tier once a snapshot exists), hits admit free,
    /// and `pool`'s keep-alive policy evicts idle instances.
    pub fn pooled(cold_start_ns: Nanos, pool: WarmPoolConfig) -> Self {
        Self { cold_start_ns: Some(cold_start_ns), pool: Some(pool) }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::warm()
    }
}

/// Configuration of a [`WarmPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct WarmPoolConfig {
    /// Snapshot-restore cost tier: once a (function, node) pair has been
    /// built in full, later misses restore from the snapshot at this
    /// (much cheaper) cost instead of re-paying the full build. `None`
    /// disables the tier — every miss pays the full cost, the flat
    /// fig. 2a model applied per admission.
    pub restore_ns: Option<Nanos>,
    /// The keep-alive (eviction) policy idle instances live under.
    pub keep_alive: KeepAlive,
    /// At most this many idle instances are kept per (function, node)
    /// slot on the return path; returning one beyond the cap evicts the
    /// oldest. (Pre-warming may intentionally exceed the cap.)
    pub max_idle_per_slot: usize,
}

impl Default for WarmPoolConfig {
    fn default() -> Self {
        Self { restore_ns: None, keep_alive: KeepAlive::None, max_idle_per_slot: 8 }
    }
}

/// Keep-alive policy: how long an idle instance survives in the pool.
///
/// An instance idle since `s` is usable at `now` iff `now - s < ttl`
/// and evicted once `now - s >= ttl` (lazily, at the next touch of its
/// slot, with idle time credited up to the virtual deadline `s + ttl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepAlive {
    /// TTL 0: nothing is ever kept warm — every admission is a miss.
    /// This is the "no pool" baseline expressed inside the pool model
    /// (and must behave field-for-field like `FixedTtl { ttl_ns: 0 }`).
    None,
    /// Every function's idle instances live exactly `ttl_ns`.
    FixedTtl {
        /// The fixed idle lifetime.
        ttl_ns: Nanos,
    },
    /// The hybrid histogram policy (Shahrad et al., ATC '20): each
    /// function's observed reuse gaps feed a log₂-binned histogram, and
    /// the TTL tracks twice the 99th-percentile bin's upper edge —
    /// long enough to cover nearly every observed gap, no longer. With
    /// no observations yet the policy is optimistic (`max_ttl_ns`), so
    /// the first reuse can be observed at all.
    Hybrid {
        /// Floor for the learned TTL.
        min_ttl_ns: Nanos,
        /// Ceiling for the learned TTL (and the cold-history default).
        max_ttl_ns: Nanos,
    },
}

/// Pool accounting for one load run, attached to
/// [`LoadRun::pool`](crate::LoadRun::pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Admissions served by an idle pooled instance (no cold cost).
    pub hits: u64,
    /// Admissions that had to instantiate (full or restore tier).
    pub misses: u64,
    /// The subset of `misses` (plus prewarms) served by the
    /// snapshot-restore tier rather than a full build.
    pub restores: u64,
    /// Instances returned to the pool on completion.
    pub returns: u64,
    /// Idle instances torn down (TTL expiry, slot-cap overflow, or a
    /// scaled-in/killed node taking its pool down with it).
    pub evictions: u64,
    /// Instances instantiated ahead of demand by predictive prewarming.
    pub prewarms: u64,
    /// CPU time spent on prewarm instantiations (background, off every
    /// arrival's critical path).
    pub prewarm_ns: Nanos,
    /// Total virtual idle time instances spent sitting in the pool —
    /// the memory-residency cost of the keep-alive policy.
    pub idle_ns: u128,
    /// Instances still warm when the run ended.
    pub warm_at_end: u64,
}

/// What one admission cost: the instance's release time and its
/// per-function hit/miss split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// When the instance's edges may start (arrival plus the slowest
    /// cold instantiation among its misses).
    pub release_ns: Nanos,
    /// Functions served from the pool.
    pub hits: u32,
    /// Functions that had to instantiate.
    pub misses: u32,
}

/// Log₂-binned histogram of one function's reuse gaps (the hybrid
/// keep-alive policy's memory).
#[derive(Debug, Clone)]
struct IdleHistogram {
    /// `bins[b]` counts gaps in `[2^b, 2^(b+1))` (gap 0 lands in bin 0).
    bins: [u64; 64],
    total: u64,
}

impl Default for IdleHistogram {
    fn default() -> Self {
        Self { bins: [0; 64], total: 0 }
    }
}

impl IdleHistogram {
    fn record(&mut self, gap_ns: Nanos) {
        let bin = 63 - gap_ns.max(1).leading_zeros() as usize;
        self.bins[bin] += 1;
        self.total += 1;
    }

    /// TTL covering ~99 % of observed gaps with 2× margin, clamped to
    /// `[min, max]`; `max` (optimistic) while the histogram is empty.
    fn ttl(&self, min: Nanos, max: Nanos) -> Nanos {
        if self.total == 0 {
            return max;
        }
        let rank = self.total - self.total / 100;
        let mut cum = 0u64;
        for (bin, &count) in self.bins.iter().enumerate() {
            cum += count;
            if cum >= rank {
                // Upper edge of bin b is 2^(b+1); double it for margin.
                return (1u64 << (bin + 2).min(62)).clamp(min, max);
            }
        }
        max
    }
}

/// A deterministic warm-instance pool over the cluster's (function,
/// node) slots. See the module docs for the model; the load engine owns
/// one per pooled run and drives it at every admission, completion and
/// prewarm decision.
#[derive(Debug)]
pub struct WarmPool {
    cold_ns: Nanos,
    cfg: WarmPoolConfig,
    functions: usize,
    /// Idle-since timestamps per (function index, node index). An entry
    /// with a *future* timestamp is a prewarm still instantiating — not
    /// yet usable, not yet aging.
    slots: HashMap<(usize, usize), Vec<Nanos>>,
    /// (function, node) pairs that have paid the full build at least
    /// once — later misses restore from the snapshot (when the tier is
    /// configured).
    snapshots: HashSet<(usize, usize)>,
    /// Per-function reuse-gap histograms (hybrid keep-alive only).
    hists: Vec<IdleHistogram>,
    /// Round-robin node cursor spreading prewarm instantiations.
    prewarm_cursor: usize,
    stats: PoolStats,
}

impl WarmPool {
    /// A fresh pool for a workflow of `functions` functions whose full
    /// cold build costs `cold_ns`.
    pub fn new(cold_ns: Nanos, cfg: WarmPoolConfig, functions: usize) -> Self {
        Self {
            cold_ns,
            cfg,
            functions,
            slots: HashMap::new(),
            snapshots: HashSet::new(),
            hists: vec![IdleHistogram::default(); functions],
            prewarm_cursor: 0,
            stats: PoolStats::default(),
        }
    }

    /// The current TTL of `function`'s idle instances.
    pub fn ttl_ns(&self, function: usize) -> Nanos {
        match self.cfg.keep_alive {
            KeepAlive::None => 0,
            KeepAlive::FixedTtl { ttl_ns } => ttl_ns,
            KeepAlive::Hybrid { min_ttl_ns, max_ttl_ns } => {
                self.hists[function].ttl(min_ttl_ns, max_ttl_ns)
            }
        }
    }

    /// Accounting so far (without the end-of-run flush
    /// [`finalize`](Self::finalize) adds).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Admits one instance placed per `assignment` at `now`: each
    /// function takes the most-recently-idle usable instance from its
    /// slot or instantiates on the node's CPU timeline, delaying the
    /// instance's release past the slowest miss.
    pub fn admit(
        &mut self,
        now: Nanos,
        assignment: &[usize],
        resources: &mut SchedResources,
    ) -> Admitted {
        let mut release = now;
        let mut hits = 0u32;
        let mut misses = 0u32;
        for (fi, &node) in assignment.iter().enumerate() {
            let ttl = self.ttl_ns(fi);
            let slot = self.slots.entry((fi, node)).or_default();
            expire_slot(slot, now, ttl, &mut self.stats);
            // Most-recently-idle first (LIFO): the entry with the best
            // chance of staying warm for the *next* arrival is the one
            // left behind, and the measured reuse gap feeding the
            // hybrid histogram is the tightest one.
            let best = slot
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s <= now)
                .max_by_key(|&(_, &s)| s)
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    let idle_since = slot.remove(i);
                    let gap = now - idle_since;
                    if matches!(self.cfg.keep_alive, KeepAlive::Hybrid { .. }) {
                        self.hists[fi].record(gap);
                    }
                    self.stats.idle_ns += u128::from(gap);
                    self.stats.hits += 1;
                    hits += 1;
                }
                None => {
                    let cost = self.instantiation_cost(fi, node);
                    if cost > 0 {
                        let start = resources.cpu(node).reserve(now, cost);
                        release = release.max(start.saturating_add(cost));
                    }
                    self.stats.misses += 1;
                    misses += 1;
                }
            }
        }
        Admitted { release_ns: release, hits, misses }
    }

    /// Returns a completed instance's functions to their slots at
    /// `finish`, evicting past the per-slot idle cap.
    pub fn complete(&mut self, finish: Nanos, assignment: &[usize]) {
        let cap = self.cfg.max_idle_per_slot.max(1);
        for (fi, &node) in assignment.iter().enumerate() {
            let ttl = self.ttl_ns(fi);
            let slot = self.slots.entry((fi, node)).or_default();
            expire_slot(slot, finish, ttl, &mut self.stats);
            slot.push(finish);
            self.stats.returns += 1;
            if slot.len() > cap {
                let oldest = slot
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &s)| s)
                    .map(|(i, _)| i)
                    .expect("slot over cap is non-empty");
                let s = slot.remove(oldest);
                self.stats.idle_ns += u128::from(finish.saturating_sub(s));
                self.stats.evictions += 1;
            }
        }
    }

    /// Predictive pre-warming: tops every function's warm capacity
    /// (idle + in-flight instances) up to `target` by instantiating in
    /// the background — reserved on node CPU timelines *now*, usable
    /// when the instantiation finishes, never on an arrival's critical
    /// path. New instances spread round-robin across the active nodes.
    pub fn ensure_target(
        &mut self,
        now: Nanos,
        target: usize,
        in_flight: usize,
        resources: &mut SchedResources,
    ) {
        let nodes = resources.node_count();
        if nodes == 0 {
            return;
        }
        for fi in 0..self.functions {
            let ttl = self.ttl_ns(fi);
            let mut have = in_flight;
            for node in 0..nodes {
                if let Some(slot) = self.slots.get_mut(&(fi, node)) {
                    expire_slot(slot, now, ttl, &mut self.stats);
                    have += slot.len();
                }
            }
            // `max_idle_per_slot` bounds staffing the same way it bounds
            // returns: an over-eager target cannot flood the cluster with
            // more background instantiation than the pool could retain.
            let capacity: usize = (0..nodes)
                .map(|node| {
                    let held = self.slots.get(&(fi, node)).map_or(0, Vec::len);
                    self.cfg.max_idle_per_slot.saturating_sub(held)
                })
                .sum();
            for _ in 0..target.saturating_sub(have).min(capacity) {
                let mut node = self.prewarm_cursor % nodes;
                self.prewarm_cursor += 1;
                while self.slots.get(&(fi, node)).map_or(0, Vec::len)
                    >= self.cfg.max_idle_per_slot
                {
                    node = self.prewarm_cursor % nodes;
                    self.prewarm_cursor += 1;
                }
                let cost = self.instantiation_cost(fi, node);
                let ready = if cost > 0 {
                    let start = resources.cpu(node).reserve(now, cost);
                    start.saturating_add(cost)
                } else {
                    now
                };
                self.slots.entry((fi, node)).or_default().push(ready);
                self.stats.prewarms += 1;
                self.stats.prewarm_ns += cost;
            }
        }
    }

    /// The cost of building one instance of `function` on `node` right
    /// now: the full build the first time ever, the snapshot-restore
    /// tier afterwards (when configured). Records the snapshot and the
    /// restore count as a side effect.
    fn instantiation_cost(&mut self, function: usize, node: usize) -> Nanos {
        let first_build = self.snapshots.insert((function, node));
        if first_build {
            self.cold_ns
        } else {
            match self.cfg.restore_ns {
                Some(restore) => {
                    self.stats.restores += 1;
                    restore
                }
                None => self.cold_ns,
            }
        }
    }

    /// Scale-in to `nodes`: pools (and snapshots) on removed nodes die
    /// with them — a re-added index is a brand-new machine.
    pub fn shrink_to(&mut self, nodes: usize, now: Nanos) {
        let stats = &mut self.stats;
        self.slots.retain(|&(_, node), slot| {
            if node >= nodes {
                for &s in slot.iter() {
                    stats.idle_ns += u128::from(now.saturating_sub(s));
                    stats.evictions += 1;
                }
                false
            } else {
                true
            }
        });
        self.snapshots.retain(|&(_, node)| node < nodes);
    }

    /// A killed node `victim` leaves the cluster: its pool dies, and
    /// slots above it shift down one index (mirroring the resource
    /// mesh's reindexing).
    pub fn remove_node(&mut self, victim: usize, now: Nanos) {
        let mut slots = HashMap::with_capacity(self.slots.len());
        for ((fi, node), slot) in self.slots.drain() {
            match node.cmp(&victim) {
                std::cmp::Ordering::Less => {
                    slots.insert((fi, node), slot);
                }
                std::cmp::Ordering::Equal => {
                    for &s in &slot {
                        self.stats.idle_ns += u128::from(now.saturating_sub(s));
                        self.stats.evictions += 1;
                    }
                }
                std::cmp::Ordering::Greater => {
                    slots.insert((fi, node - 1), slot);
                }
            }
        }
        self.slots = slots;
        self.snapshots = self
            .snapshots
            .iter()
            .filter_map(|&(fi, node)| match node.cmp(&victim) {
                std::cmp::Ordering::Less => Some((fi, node)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some((fi, node - 1)),
            })
            .collect();
    }

    /// End-of-run flush at horizon `end`: entries whose TTL deadline
    /// passed count as evictions (idle credited to the deadline), the
    /// rest as still-warm (idle credited to the horizon). Consumes the
    /// pool and returns the final accounting.
    pub fn finalize(mut self, end: Nanos) -> PoolStats {
        for (&(fi, _), slot) in &self.slots {
            let ttl = self.ttl_ns(fi);
            for &s in slot {
                if s.saturating_add(ttl) <= end {
                    self.stats.evictions += 1;
                    self.stats.idle_ns += u128::from(ttl);
                } else {
                    self.stats.warm_at_end += 1;
                    self.stats.idle_ns += u128::from(end.saturating_sub(s));
                }
            }
        }
        self.stats
    }
}

/// Lazy eviction: reaps entries whose TTL deadline has passed at `now`,
/// crediting each the idle time it would have accrued by its deadline.
/// Entries with future timestamps (prewarms still instantiating) are
/// never expired here.
fn expire_slot(slot: &mut Vec<Nanos>, now: Nanos, ttl: Nanos, stats: &mut PoolStats) {
    slot.retain(|&s| {
        let dead = s <= now && now - s >= ttl;
        if dead {
            stats.evictions += 1;
            stats.idle_ns += u128::from(ttl);
        }
        !dead
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(nodes: usize) -> SchedResources {
        let shapes = vec![4u32; nodes];
        SchedResources::mesh(&shapes)
    }

    #[test]
    fn first_miss_pays_full_then_restores_from_snapshot() {
        let cfg = WarmPoolConfig {
            restore_ns: Some(50),
            keep_alive: KeepAlive::None,
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(1_000, cfg, 1);
        let mut r = res(1);
        let a = pool.admit(0, &[0], &mut r);
        assert_eq!((a.hits, a.misses), (0, 1));
        assert_eq!(a.release_ns, 1_000, "first build pays the full tier");
        // KeepAlive::None: nothing returns usable, but the snapshot
        // persists — the second miss restores.
        let b = pool.admit(10_000, &[0], &mut r);
        assert_eq!(b.misses, 1);
        assert_eq!(b.release_ns, 10_050, "second build restores from snapshot");
        assert_eq!(pool.stats().restores, 1);
    }

    #[test]
    fn ttl_zero_never_hits_and_none_matches_fixed_ttl_zero() {
        for keep in [KeepAlive::None, KeepAlive::FixedTtl { ttl_ns: 0 }] {
            let cfg = WarmPoolConfig { keep_alive: keep, ..WarmPoolConfig::default() };
            let mut pool = WarmPool::new(100, cfg, 1);
            let mut r = res(1);
            for k in 0..4u64 {
                let at = k * 10_000;
                let adm = pool.admit(at, &[0], &mut r);
                assert_eq!(adm.hits, 0, "{keep:?}: ttl 0 never serves warm");
                pool.complete(at + 500, &[0]);
            }
            let stats = pool.finalize(100_000);
            assert_eq!(stats.misses, 4);
            assert_eq!(stats.returns, 4);
            assert_eq!(stats.evictions, 4, "every returned instance dies");
            assert_eq!(stats.warm_at_end, 0);
            assert_eq!(stats.idle_ns, 0, "ttl 0 accrues no idle residency");
        }
    }

    #[test]
    fn fixed_ttl_hits_inside_the_window_and_evicts_past_it() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: 1_000 },
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(100, cfg, 1);
        let mut r = res(1);
        pool.admit(0, &[0], &mut r);
        pool.complete(200, &[0]);
        // 600 ns idle < ttl: hit, free, instant release.
        let hit = pool.admit(800, &[0], &mut r);
        assert_eq!((hit.hits, hit.misses), (1, 0));
        assert_eq!(hit.release_ns, 800);
        pool.complete(900, &[0]);
        // 1 900 ns later: expired — miss, eviction recorded.
        let miss = pool.admit(2_800, &[0], &mut r);
        assert_eq!((miss.hits, miss.misses), (0, 1));
        let stats = pool.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.idle_ns, 600 + 1_000, "hit gap + evicted entry's full ttl");
    }

    #[test]
    fn hybrid_defaults_to_max_then_learns_the_observed_gap() {
        let keep = KeepAlive::Hybrid { min_ttl_ns: 16, max_ttl_ns: 1 << 40 };
        let cfg = WarmPoolConfig { keep_alive: keep, ..WarmPoolConfig::default() };
        let mut pool = WarmPool::new(100, cfg, 1);
        assert_eq!(pool.ttl_ns(0), 1 << 40, "no history: optimistic");
        let mut r = res(1);
        let mut at = 0;
        for _ in 0..20 {
            pool.admit(at, &[0], &mut r);
            pool.complete(at + 100, &[0]);
            at += 1_100; // reuse gap: 1 000 ns
        }
        let ttl = pool.ttl_ns(0);
        // Gap 1 000 lands in bin 9 ([512, 1024)); ttl = 2^11 = 2 048.
        assert_eq!(ttl, 2_048, "learned ttl covers the observed gap with margin");
        assert!(pool.stats().hits >= 19, "optimistic default lets every reuse hit");
    }

    #[test]
    fn slot_cap_evicts_the_oldest_on_return() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
            max_idle_per_slot: 2,
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(100, cfg, 1);
        // Three returns into a cap-2 slot: the first (oldest) goes.
        pool.complete(10, &[0]);
        pool.complete(20, &[0]);
        pool.complete(30, &[0]);
        let stats = pool.stats();
        assert_eq!(stats.returns, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.idle_ns, 20, "the t=10 entry idled 20 ns before eviction");
    }

    #[test]
    fn prewarmed_instances_become_usable_when_instantiation_finishes() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(1_000, cfg, 1);
        let mut r = res(2);
        pool.ensure_target(0, 2, 0, &mut r);
        assert_eq!(pool.stats().prewarms, 2);
        assert_eq!(pool.stats().prewarm_ns, 2_000);
        // Still instantiating at t=500: a miss (paying again — here the
        // full tier, no restore configured).
        let early = pool.admit(500, &[0], &mut r);
        assert_eq!(early.misses, 1);
        // Ready at t=1 000: the next arrival hits.
        let late = pool.admit(1_500, &[0], &mut r);
        assert_eq!((late.hits, late.misses), (1, 0));
        assert_eq!(late.release_ns, 1_500);
    }

    #[test]
    fn ensure_target_counts_in_flight_and_tops_up_only_the_gap() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(100, cfg, 1);
        let mut r = res(1);
        pool.complete(0, &[0]); // one idle instance
        pool.ensure_target(10, 4, 2, &mut r); // 1 idle + 2 busy: need 1
        assert_eq!(pool.stats().prewarms, 1);
        pool.ensure_target(11, 4, 2, &mut r); // satisfied: no-op
        assert_eq!(pool.stats().prewarms, 1);
    }

    #[test]
    fn node_removal_drops_the_victims_pool_and_reindexes_survivors() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: Nanos::MAX },
            restore_ns: Some(10),
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(100, cfg, 1);
        let mut r = res(3);
        // Warm one instance on each of nodes 1 and 2.
        pool.admit(0, &[1], &mut r);
        pool.complete(10, &[1]);
        pool.admit(0, &[2], &mut r);
        pool.complete(10, &[2]);
        pool.remove_node(1, 20);
        let stats = pool.stats();
        assert_eq!(stats.evictions, 1, "node 1's idle instance died with it");
        // Old node 2 is now node 1 — still warm, snapshot intact.
        let hit = pool.admit(30, &[1], &mut r);
        assert_eq!(hit.hits, 1);
        // Old node 1's slot is gone at its new home too: a fresh index
        // is a fresh machine paying the *full* build, not a restore.
        let restores_before = pool.stats().restores;
        let miss = pool.admit(30, &[2], &mut r);
        assert_eq!(miss.misses, 1);
        assert_eq!(pool.stats().restores, restores_before, "fresh machine: full build");
    }

    #[test]
    fn conservation_hits_plus_misses_equals_admissions() {
        let cfg = WarmPoolConfig {
            keep_alive: KeepAlive::FixedTtl { ttl_ns: 700 },
            restore_ns: Some(5),
            ..WarmPoolConfig::default()
        };
        let mut pool = WarmPool::new(50, cfg, 2);
        let mut r = res(2);
        let mut admissions = 0u64;
        for k in 0..50u64 {
            let at = k * 333;
            let assignment = [(k % 2) as usize, ((k + 1) % 2) as usize];
            pool.admit(at, &assignment, &mut r);
            admissions += 2;
            pool.complete(at + 100, &assignment);
        }
        let stats = pool.finalize(60_000);
        assert_eq!(stats.hits + stats.misses, admissions);
        assert!(stats.evictions <= stats.returns + stats.prewarms);
        assert_eq!(stats.returns + stats.prewarms, stats.evictions + stats.warm_at_end
            + stats.hits);
    }
}
