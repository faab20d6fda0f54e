//! Overload control: deadlines, retry budgets, circuit breakers, and
//! load shedding.
//!
//! PR 8 made the cluster fail and heal, but recovery still assumed
//! infinite patience: retries were per-instance with no global budget,
//! admission queues grew without bound, and work that could no longer
//! meet any useful latency target was still executed to completion.
//! That combination is exactly how serverless platforms tip into
//! *metastable failure*: a burst fills the queues, naive retries
//! amplify offered load past capacity, and goodput stays collapsed
//! long after the burst ends. This module is the control layer that
//! breaks the feedback loop, spanning three seams:
//!
//! * **Deadlines** — a per-instance absolute deadline carried from
//!   admission into the workflow engine and checked at each edge's
//!   ready instant. A deadline-blown instance aborts *early* (before
//!   placing more phases) and is accounted as `deadline_exceeded`,
//!   distinct from `failed` — stale work stops burning CPU and link
//!   time the moment it can no longer be useful.
//! * **Retry budgets** — a deterministic token bucket per
//!   (tenant, function, node) layered *under* the
//!   [`RetryPolicy`](crate::workflow::RetryPolicy): a retry spends
//!   [`RETRY_COST_MILLITOKENS`], a bucket holds its burst plus a
//!   per-success credit, so retry traffic is capped at a fraction of
//!   success traffic (the anti-retry-storm rule) instead of multiplying
//!   under failure.
//! * **Circuit breakers** — per-(tenant, function, node) closed → open
//!   → half-open state driven by a windowed failure rate over rotating
//!   buckets. Open circuits fail attempts fast (no phases placed) and
//!   steer placement away by penalizing the node's backlog in the
//!   [`ResourceView`] snapshot
//!   the [`PlacementPolicy`](crate::scheduler::PlacementPolicy) routes
//!   on.
//! * **Load shedding** — bounded admission queues in the load engine
//!   with a configurable policy (reject-oldest, or tail drop with a
//!   CoDel-style sojourn target at dequeue) and smooth
//!   weighted-round-robin dequeue across tenants, so one adversarial
//!   tenant cannot starve the rest.
//!
//! **Determinism.** Every mechanism runs on integral virtual-time
//! arithmetic: buckets move only by whole millitokens on a retry or a
//! success, breaker windows are aligned to absolute
//! `now / window_ns` indices, and weighted round-robin breaks ties by
//! tenant index. Two runs with the same inputs take identical
//! decisions, which is what lets the fig16 bench pin serial and
//! parallel sweeps byte-for-byte.
//!
//! All knobs default **off** ([`OverloadConfig::default`]); a run with
//! the default config is byte-identical to one without overload
//! control, which CI pins by re-diffing the fig12/fig13 references.

use std::collections::HashMap;

use roadrunner_vkernel::sched::ResourceView;
use roadrunner_vkernel::Nanos;

use crate::wordhash::WordBuild;

/// Millitokens one retry attempt costs a (tenant, function, node)
/// budget bucket. Fixed-point at 1/1000 token lets per-success credits
/// express "retries ≤ 20 % of successes" as integral arithmetic
/// (`per_success_millitokens: 200`).
pub const RETRY_COST_MILLITOKENS: u64 = 1_000;

/// Retry-budget configuration: a token bucket per (tenant, function,
/// node). A retry spends [`RETRY_COST_MILLITOKENS`]; the bucket starts
/// at `burst_millitokens` and gains a credit per successful attempt —
/// the burst and the successes are its only supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudgetConfig {
    /// Bucket capacity and initial level.
    pub burst_millitokens: u64,
    /// Credit added per successful edge attempt — the "fraction of
    /// success traffic" lever (200 ⇒ retries capped near 20 % of
    /// successes once the burst is spent).
    pub per_success_millitokens: u64,
}

impl RetryBudgetConfig {
    /// A success-coupled budget: `burst` retries up front, then
    /// `percent` retries per 100 successes.
    pub fn fraction_of_success(burst_retries: u64, percent: u64) -> Self {
        Self {
            burst_millitokens: burst_retries * RETRY_COST_MILLITOKENS,
            per_success_millitokens: percent * RETRY_COST_MILLITOKENS / 100,
        }
    }
}

/// One deterministic token bucket (fixed-point millitokens).
#[derive(Debug, Clone)]
struct TokenBucket {
    level_millitokens: u64,
}

impl TokenBucket {
    fn new(cfg: &RetryBudgetConfig) -> Self {
        Self { level_millitokens: cfg.burst_millitokens }
    }

    fn try_spend(&mut self, cost: u64) -> bool {
        if self.level_millitokens >= cost {
            self.level_millitokens -= cost;
            true
        } else {
            false
        }
    }

    fn credit(&mut self, amount: u64, cap: u64) {
        self.level_millitokens = self.level_millitokens.saturating_add(amount).min(cap);
    }
}

/// Circuit-breaker configuration, per (tenant, function, node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Width of one failure-rate window bucket. The observed rate spans
    /// the current and previous buckets (a rotating two-bucket window),
    /// so the effective memory is one to two windows.
    pub window_ns: Nanos,
    /// Open when `failures × den ≥ total × num` over the window —
    /// the threshold failure rate as the integral fraction `num / den`
    /// (e.g. `(1, 2)` opens at 50 %).
    pub failure_rate: (u32, u32),
    /// Minimum attempts in the window before the rate is believed —
    /// one early failure must not open a cold circuit.
    pub min_samples: u32,
    /// How long an open circuit rejects before probing half-open.
    pub open_ns: Nanos,
    /// Consecutive half-open successes required to close again; any
    /// half-open failure re-opens for another `open_ns`.
    pub half_open_probes: u32,
    /// Backlog penalty applied to a node hosting any open circuit in
    /// the [`ResourceView`] placement policies route on — the steering
    /// seam that moves new placements away from a misbehaving node
    /// without changing any policy's own arithmetic.
    pub placement_penalty_ns: Nanos,
}

impl Default for BreakerConfig {
    /// 50 % failure rate over ≥ 4 samples opens for 10 ms; two probe
    /// successes close; open nodes carry a ~1.1 s backlog penalty.
    fn default() -> Self {
        Self {
            window_ns: 10_000_000,
            failure_rate: (1, 2),
            min_samples: 4,
            open_ns: 10_000_000,
            half_open_probes: 2,
            placement_penalty_ns: 1 << 30,
        }
    }
}

/// Breaker state: the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until: Nanos },
    HalfOpen { successes: u32 },
}

/// One circuit's state plus its rotating failure-rate window. Window
/// buckets are aligned to absolute `now / window_ns` indices, so the
/// rotation schedule depends only on virtual time — never on event
/// multiplicity — and replays identically.
#[derive(Debug, Clone)]
struct CircuitBreaker {
    state: BreakerState,
    bucket_idx: u64,
    cur: (u32, u32),
    prev: (u32, u32),
}

impl CircuitBreaker {
    fn new() -> Self {
        Self { state: BreakerState::Closed, bucket_idx: 0, cur: (0, 0), prev: (0, 0) }
    }

    fn rotate(&mut self, now: Nanos, window_ns: Nanos) {
        let idx = now / window_ns.max(1);
        if idx == self.bucket_idx {
            return;
        }
        self.prev = if idx == self.bucket_idx + 1 { self.cur } else { (0, 0) };
        self.cur = (0, 0);
        self.bucket_idx = idx;
    }

    /// Whether an attempt may proceed at `now`. Open → half-open
    /// transition happens here (time served), so the first attempt
    /// after `open_ns` is the probe.
    fn allow(&mut self, now: Nanos) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen { .. } => true,
            BreakerState::Open { until } => {
                if now >= until {
                    self.state = BreakerState::HalfOpen { successes: 0 };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Pure open-at query (no transition) — the placement-steering
    /// predicate, callable while iterating an unordered map because a
    /// boolean `any` over it is order-independent.
    fn is_open_at(&self, now: Nanos) -> bool {
        matches!(self.state, BreakerState::Open { until } if now < until)
    }

    /// Records one real attempt outcome (breaker-rejected attempts are
    /// not recorded — the breaker must not poison its own window).
    fn record(&mut self, now: Nanos, ok: bool, cfg: &BreakerConfig) {
        match self.state {
            BreakerState::HalfOpen { successes } => {
                if ok {
                    let successes = successes + 1;
                    if successes >= cfg.half_open_probes.max(1) {
                        self.state = BreakerState::Closed;
                        self.cur = (0, 0);
                        self.prev = (0, 0);
                        self.bucket_idx = now / cfg.window_ns.max(1);
                    } else {
                        self.state = BreakerState::HalfOpen { successes };
                    }
                } else {
                    self.state = BreakerState::Open { until: now.saturating_add(cfg.open_ns) };
                }
            }
            BreakerState::Closed => {
                self.rotate(now, cfg.window_ns);
                self.cur.1 += 1;
                if !ok {
                    self.cur.0 += 1;
                }
                let failures = self.cur.0 + self.prev.0;
                let total = self.cur.1 + self.prev.1;
                let (num, den) = cfg.failure_rate;
                if total >= cfg.min_samples.max(1)
                    && u64::from(failures) * u64::from(den) >= u64::from(total) * u64::from(num)
                {
                    self.state = BreakerState::Open { until: now.saturating_add(cfg.open_ns) };
                }
            }
            // A late completion of an attempt admitted before the
            // circuit opened: the window is already condemned, drop it.
            BreakerState::Open { .. } => {}
        }
    }
}

/// How a full admission queue (or a stale queue entry) sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// A full queue sheds the oldest queued instance cluster-wide (the
    /// one most likely already stale) and admits the new arrival.
    RejectOldest,
    /// CoDel-style: tail-drop on overflow, and additionally shed at
    /// *dequeue* any instance whose queue sojourn already exceeds
    /// `target_ns` — dead-on-arrival work never reaches the engine.
    /// With `target_ns: Nanos::MAX` no sojourn exceeds the target, and
    /// this is plain tail drop.
    CoDel {
        /// Queue-sojourn target past which a dequeued entry is shed.
        target_ns: Nanos,
    },
}

/// Bounded-admission configuration for the load engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Instances allowed in flight at once; arrivals beyond it queue.
    pub max_in_flight: usize,
    /// Queued instances allowed across all tenants; beyond it,
    /// `policy` sheds.
    pub queue_cap: usize,
    /// What to do when the queue is full (and, for CoDel, when a
    /// dequeued entry is stale).
    pub policy: ShedPolicy,
}

/// The full overload-control configuration. Every knob defaults to
/// `None` — the default config is the byte-identical no-op the CI
/// reference diffs pin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverloadConfig {
    /// Per-instance deadline, relative to *arrival* (queue wait
    /// included): an instance aborts as `deadline_exceeded` at the
    /// first edge ready instant past `arrival + deadline_ns`.
    pub deadline_ns: Option<Nanos>,
    /// Retry budget per (tenant, function, node).
    pub retry_budget: Option<RetryBudgetConfig>,
    /// Circuit breakers per (tenant, function, node).
    pub breaker: Option<BreakerConfig>,
    /// Bounded admission queues with shedding and weighted-fair
    /// dequeue.
    pub queue: Option<QueueConfig>,
}

impl OverloadConfig {
    /// Whether every mechanism is disabled (the default): the engine
    /// takes the legacy code path untouched.
    pub fn is_off(&self) -> bool {
        self.deadline_ns.is_none()
            && self.retry_budget.is_none()
            && self.breaker.is_none()
            && self.queue.is_none()
    }
}

/// Per-run overload state: the budget buckets and breaker circuits,
/// keyed by (tenant, function, node). Owned by the load engine for the
/// duration of one run and threaded into the workflow engine per
/// instance.
#[derive(Debug)]
pub struct OverloadState {
    budget_cfg: Option<RetryBudgetConfig>,
    breaker_cfg: Option<BreakerConfig>,
    // Keyed by indices the engine derived, probed once or twice per
    // edge attempt: the word hasher, not SipHash.
    budgets: HashMap<(usize, usize, usize), TokenBucket, WordBuild>,
    breakers: HashMap<(usize, usize, usize), CircuitBreaker, WordBuild>,
}

impl OverloadState {
    /// Fresh state for one run under `cfg`.
    pub fn new(cfg: &OverloadConfig) -> Self {
        Self {
            budget_cfg: cfg.retry_budget,
            breaker_cfg: cfg.breaker,
            budgets: HashMap::default(),
            breakers: HashMap::default(),
        }
    }

    /// Whether the circuit for (tenant, function, node) admits an
    /// attempt at `now`; an open circuit past its `open_ns` transitions
    /// to half-open here and admits the probe. Always true without a
    /// breaker config.
    pub fn breaker_allows(&mut self, tenant: usize, function: usize, node: usize, now: Nanos) -> bool {
        let Some(_cfg) = self.breaker_cfg else { return true };
        self.breakers
            .entry((tenant, function, node))
            .or_insert_with(CircuitBreaker::new)
            .allow(now)
    }

    /// Records one real attempt outcome on the circuit and (on
    /// success) credits the retry budget with its per-success credit.
    pub fn record_attempt(&mut self, tenant: usize, function: usize, node: usize, now: Nanos, ok: bool) {
        if let Some(cfg) = self.breaker_cfg {
            self.breakers
                .entry((tenant, function, node))
                .or_insert_with(CircuitBreaker::new)
                .record(now, ok, &cfg);
        }
        if ok {
            if let Some(cfg) = self.budget_cfg {
                if cfg.per_success_millitokens > 0 {
                    let bucket = self
                        .budgets
                        .entry((tenant, function, node))
                        .or_insert_with(|| TokenBucket::new(&cfg));
                    bucket.credit(cfg.per_success_millitokens, cfg.burst_millitokens);
                }
            }
        }
    }

    /// Attempts to spend one retry ([`RETRY_COST_MILLITOKENS`]) from
    /// the (tenant, function, node) bucket. Always true
    /// without a budget config; false means the edge must give up
    /// instead of retrying.
    pub fn try_spend_retry(&mut self, tenant: usize, function: usize, node: usize) -> bool {
        let Some(cfg) = self.budget_cfg else { return true };
        let bucket =
            self.budgets.entry((tenant, function, node)).or_insert_with(|| TokenBucket::new(&cfg));
        bucket.try_spend(RETRY_COST_MILLITOKENS)
    }

    /// Steers placement away from nodes hosting any circuit open at
    /// `now` by adding the configured backlog penalty to their
    /// [`ResourceView`] slice — policies keep their own arithmetic and
    /// simply see the node as deeply backlogged.
    pub fn penalize_view(&self, now: Nanos, view: &mut ResourceView) {
        let Some(cfg) = self.breaker_cfg else { return };
        if self.breakers.is_empty() {
            return;
        }
        for node in 0..view.node_count() {
            // `any` over an unordered map is order-independent, so the
            // unsorted iteration cannot perturb determinism.
            let open = self
                .breakers
                .iter()
                .any(|(&(_, _, n), b)| n == node && b.is_open_at(now));
            if open {
                view.add_backlog_penalty(node, cfg.placement_penalty_ns);
            }
        }
    }
}

/// The per-instance control block the load engine threads into the
/// workflow engine: the instance's tenant, its absolute deadline, and
/// the run's shared [`OverloadState`].
#[derive(Debug)]
pub struct OverloadCtl<'a> {
    /// Tenant index of the instance (0 for single-tenant runs).
    pub tenant: usize,
    /// Absolute deadline on the run's timescale (`arrival +
    /// deadline_ns`); `None` disables deadline checks.
    pub deadline_ns: Option<Nanos>,
    /// The run-wide budget/breaker state.
    pub state: &'a mut OverloadState,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(burst: u64, per_success: u64) -> RetryBudgetConfig {
        RetryBudgetConfig {
            burst_millitokens: burst,
            per_success_millitokens: per_success,
        }
    }

    #[test]
    fn bucket_spends_burst_then_refuses() {
        let cfg = budget(2 * RETRY_COST_MILLITOKENS, 0);
        let mut state = OverloadState::new(&OverloadConfig {
            retry_budget: Some(cfg),
            ..OverloadConfig::default()
        });
        assert!(state.try_spend_retry(0, 1, 0));
        assert!(state.try_spend_retry(0, 1, 0));
        assert!(!state.try_spend_retry(0, 1, 0), "burst exhausted");
        // A different (function, node) key has its own bucket.
        assert!(state.try_spend_retry(0, 2, 0));
    }

    #[test]
    fn success_credit_caps_at_burst() {
        let cfg = budget(RETRY_COST_MILLITOKENS, 500);
        let mut state = OverloadState::new(&OverloadConfig {
            retry_budget: Some(cfg),
            ..OverloadConfig::default()
        });
        assert!(state.try_spend_retry(0, 0, 0));
        assert!(!state.try_spend_retry(0, 0, 0));
        // Two successes credit one retry (500 + 500 millitokens).
        state.record_attempt(0, 0, 0, 30, true);
        assert!(!state.try_spend_retry(0, 0, 0));
        state.record_attempt(0, 0, 0, 50, true);
        assert!(state.try_spend_retry(0, 0, 0));
        // Credits never exceed the burst cap.
        for t in 0..100 {
            state.record_attempt(0, 0, 0, 100 + t, true);
        }
        assert_eq!(
            state.budgets[&(0, 0, 0)].level_millitokens,
            cfg.burst_millitokens,
            "credit must cap at burst"
        );
    }

    #[test]
    fn breaker_opens_at_the_windowed_rate_and_probes_half_open() {
        let cfg = BreakerConfig {
            window_ns: 1_000,
            failure_rate: (1, 2),
            min_samples: 4,
            open_ns: 5_000,
            half_open_probes: 2,
            placement_penalty_ns: 1 << 20,
        };
        let mut state = OverloadState::new(&OverloadConfig {
            breaker: Some(cfg),
            ..OverloadConfig::default()
        });
        // 2 ok + 1 fail: below min_samples, stays closed.
        state.record_attempt(0, 0, 1, 10, true);
        state.record_attempt(0, 0, 1, 20, true);
        state.record_attempt(0, 0, 1, 30, false);
        assert!(state.breaker_allows(0, 0, 1, 40));
        // A second failure: 2/4 = 50 % ≥ threshold → open.
        state.record_attempt(0, 0, 1, 50, false);
        assert!(!state.breaker_allows(0, 0, 1, 60), "circuit must open at 50%");
        assert!(!state.breaker_allows(0, 0, 1, 5_049));
        // After open_ns the probe is admitted (half-open).
        assert!(state.breaker_allows(0, 0, 1, 5_050));
        // Probe fails → re-opens for another open_ns.
        state.record_attempt(0, 0, 1, 5_060, false);
        assert!(!state.breaker_allows(0, 0, 1, 5_100));
        assert!(state.breaker_allows(0, 0, 1, 10_100));
        // Two probe successes → closed, window reset.
        state.record_attempt(0, 0, 1, 10_200, true);
        state.record_attempt(0, 0, 1, 10_300, true);
        assert!(state.breaker_allows(0, 0, 1, 10_400));
        // One fresh failure does not trip the reset window.
        state.record_attempt(0, 0, 1, 10_500, false);
        assert!(state.breaker_allows(0, 0, 1, 10_600));
    }

    #[test]
    fn breaker_window_rotation_forgets_stale_failures() {
        let cfg = BreakerConfig {
            window_ns: 1_000,
            failure_rate: (1, 2),
            min_samples: 4,
            open_ns: 1_000,
            half_open_probes: 1,
            placement_penalty_ns: 0,
        };
        let mut b = CircuitBreaker::new();
        // Two failures in bucket 0.
        b.record(100, false, &cfg);
        b.record(200, false, &cfg);
        // Two buckets later the failures have aged out entirely: two
        // successes must not trip the 50 % rate.
        b.record(2_500, true, &cfg);
        b.record(2_600, true, &cfg);
        b.record(2_700, true, &cfg);
        b.record(2_800, true, &cfg);
        assert!(b.allow(2_900), "aged-out failures must not open the circuit");
    }

    #[test]
    fn breaker_decisions_replay_identically() {
        let cfg = BreakerConfig::default();
        let drive = || {
            let mut b = CircuitBreaker::new();
            let mut trace = Vec::new();
            let mut t = 0;
            for i in 0..200u64 {
                t += 97 * (1 + i % 7);
                let ok = i % 3 != 0;
                if b.allow(t) {
                    b.record(t, ok, &cfg);
                }
                trace.push((t, b.is_open_at(t)));
            }
            trace
        };
        assert_eq!(drive(), drive(), "breaker must be a pure function of its input history");
    }

    #[test]
    fn default_config_is_off() {
        assert!(OverloadConfig::default().is_off());
        assert!(!OverloadConfig {
            deadline_ns: Some(1),
            ..OverloadConfig::default()
        }
        .is_off());
    }
}
