//! The elastic controller: backlog-driven node scaling, capacity-loss
//! replacement and predictive pre-warming.

use roadrunner_vkernel::sched::{ResourceView, SchedResources};
use roadrunner_vkernel::Nanos;

/// One autoscaler decision, for the scale-event trace the elastic
/// experiments emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the decision fired (virtual time).
    pub at_ns: Nanos,
    /// Direction.
    pub action: ScaleAction,
    /// Active node count after the action.
    pub nodes_after: usize,
    /// The windowed mean-backlog signal that triggered it.
    pub signal_ns: Nanos,
}

/// Direction of a scale event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// A node was added.
    Up,
    /// The last node was removed.
    Down,
    /// A node was added to replace capacity lost outside the
    /// controller's own decisions (a dead node the control plane
    /// removed). Replacement bypasses the decision cooldown — waiting a
    /// full window to restore known-lost capacity only deepens the
    /// backlog.
    Replace,
    /// A predictive pre-warm decision: the square-root staffing target
    /// rose and the warm pool was topped up ahead of demand. The node
    /// count is unchanged; `signal_ns` carries the new staffing target
    /// instead of a backlog signal.
    Prewarm,
}

/// Configuration of the backlog-driven [`Autoscaler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalerConfig {
    /// Never shrink below this many nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many nodes.
    pub max_nodes: usize,
    /// Core count of every node the controller adds.
    pub node_cores: u32,
    /// Scale **up** when the windowed mean per-node backlog exceeds
    /// this.
    pub scale_up_backlog_ns: Nanos,
    /// Scale **down** when the windowed mean per-node backlog falls
    /// below this *and* the last node has fully drained.
    pub scale_down_backlog_ns: Nanos,
    /// Observation window; also the minimum gap between two decisions
    /// (the cooldown that keeps the controller from flapping on one
    /// bursty arrival).
    pub window_ns: Nanos,
}

/// Predictive pre-warming configuration (see
/// [`Autoscaler::with_prewarm`]).
///
/// The controller watches the engine's in-flight demand estimate,
/// extrapolates it `lead_ns` ahead along the observed slope, and staffs
/// the warm pool to `ceil(demand + headroom·√demand)` — Erlang-style
/// square-root staffing, the classic safety-capacity rule for keeping
/// wait probability flat as demand grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmConfig {
    /// Square-root staffing headroom β in `ceil(d + β·√d)`.
    pub headroom: f64,
    /// How far ahead demand is extrapolated along the observed slope.
    pub lead_ns: Nanos,
    /// Demand-observation window; also the minimum gap between two
    /// staffing-target *increases* (the prewarm cooldown).
    pub window_ns: Nanos,
}

/// The elastic controller: watches the windowed mean-backlog signal from
/// live [`ResourceView`] snapshots and resizes the [`SchedResources`]
/// between instances.
///
/// The engine calls [`observe`](Self::observe) at every load event
/// (arrivals *and* completions). Each observation appends the view's
/// [`mean_backlog_ns`](ResourceView::mean_backlog_ns) to a sliding
/// window; once per `window_ns` the controller compares the window mean
/// against the two thresholds and adds ([`SchedResources::add_node`]) or
/// removes ([`SchedResources::remove_last_node`]) one node. Scale-in is
/// drain-safe: the last node is only removed once its own CPU backlog
/// *and* every one of its pair links have drained, so no in-flight
/// reservation is orphaned mid-instance.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    /// Sliding window of (time, mean-backlog) samples.
    window: Vec<(Nanos, Nanos)>,
    last_decision_ns: Nanos,
    events: Vec<ScaleEvent>,
    /// The node count this controller last decided the cluster should
    /// have (seeded from the first observation). A live count *below*
    /// it means capacity was lost outside the controller — a killed
    /// node — and triggers replacement.
    expected_nodes: Option<usize>,
    /// Predictive pre-warming; `None` leaves the controller scaling
    /// nodes only.
    prewarm: Option<PrewarmConfig>,
    /// Sliding (time, in-flight) demand samples for the prewarm slope.
    demand: Vec<(Nanos, usize)>,
    /// The ratcheted square-root staffing target (only grows within a
    /// run — bursty ramps re-cool between runs via [`reset`](Self::reset)).
    prewarm_level: usize,
    /// When the staffing target last rose (the prewarm cooldown anchor).
    last_prewarm_ns: Option<Nanos>,
}

impl Autoscaler {
    /// A fresh controller.
    ///
    /// # Panics
    ///
    /// Panics if `min_nodes` is zero or exceeds `max_nodes`, or if
    /// `window_ns` is zero.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        assert!(cfg.min_nodes > 0, "the cluster cannot shrink to zero nodes");
        assert!(cfg.min_nodes <= cfg.max_nodes, "min_nodes must not exceed max_nodes");
        assert!(cfg.window_ns > 0, "a zero observation window would decide on every event");
        Self {
            cfg,
            window: Vec::new(),
            last_decision_ns: 0,
            events: Vec::new(),
            expected_nodes: None,
            prewarm: None,
            demand: Vec::new(),
            prewarm_level: 0,
            last_prewarm_ns: None,
        }
    }

    /// Enables predictive pre-warming: square-root staffing on the
    /// engine's in-flight demand estimate, emitting
    /// [`ScaleAction::Prewarm`] events as the staffing target ratchets
    /// up. Only effective when the run also uses pooled admission
    /// ([`AdmissionConfig::pooled`](crate::warmpool::AdmissionConfig::pooled)).
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero or `headroom` is negative.
    #[must_use]
    pub fn with_prewarm(mut self, prewarm: PrewarmConfig) -> Self {
        assert!(prewarm.window_ns > 0, "a zero prewarm window would ratchet on every event");
        assert!(prewarm.headroom >= 0.0, "negative staffing headroom is meaningless");
        self.prewarm = Some(prewarm);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// The decisions taken so far, in order.
    pub fn events(&self) -> &[ScaleEvent] {
        &self.events
    }

    /// Forgets window samples and the decision trace (between runs);
    /// keeps the configuration.
    pub fn reset(&mut self) {
        self.window.clear();
        self.last_decision_ns = 0;
        self.events.clear();
        self.expected_nodes = None;
        self.demand.clear();
        self.prewarm_level = 0;
        self.last_prewarm_ns = None;
    }

    /// One prewarm observation at `now`: records the in-flight demand
    /// sample, ratchets the square-root staffing target when the
    /// `lead_ns`-ahead extrapolation warrants it (at most once per
    /// cooldown window, traced as a [`ScaleAction::Prewarm`] event),
    /// and returns the current target for the engine to staff the pool
    /// to. `None` when pre-warming is unconfigured or the target is
    /// still zero.
    pub(super) fn prewarm_target(&mut self, now: Nanos, in_flight: usize, nodes: usize) -> Option<usize> {
        let cfg = self.prewarm?;
        self.demand.push((now, in_flight));
        let cutoff = now.saturating_sub(cfg.window_ns);
        self.demand.retain(|&(t, _)| t >= cutoff);
        let (_, d0) = self.demand[0];
        // Normalise over the full window, not the observed sample span:
        // two samples landing nanoseconds apart would otherwise produce
        // an unbounded slope and ratchet the staffing level into the
        // hundreds from a single coincident-arrival tie.
        let slope = (in_flight as f64 - d0 as f64) / cfg.window_ns as f64;
        let predicted = (in_flight as f64 + slope.max(0.0) * cfg.lead_ns as f64).max(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let candidate = (predicted + cfg.headroom * predicted.sqrt()).ceil() as usize;
        let cooled =
            self.last_prewarm_ns.is_none_or(|t| now.saturating_sub(t) >= cfg.window_ns);
        if candidate > self.prewarm_level && cooled {
            self.prewarm_level = candidate;
            self.last_prewarm_ns = Some(now);
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Prewarm,
                nodes_after: nodes,
                signal_ns: candidate as Nanos,
            });
        }
        (self.prewarm_level > 0).then_some(self.prewarm_level)
    }

    /// One observation at virtual time `now`: record the live backlog
    /// signal and, at most once per window, act on it. Returns a view
    /// that is **current after any decision** (freshly re-snapshotted
    /// when the observation resized the cluster), so callers placing an
    /// instance at the same event need not snapshot twice.
    ///
    /// Allocates a fresh view; the load engine's per-event path uses
    /// [`observe_into`](Self::observe_into) with a reusable scratch view
    /// instead.
    pub fn observe(&mut self, now: Nanos, resources: &mut SchedResources) -> ResourceView {
        let mut view = ResourceView::default();
        self.observe_into(now, resources, &mut view);
        view
    }

    /// [`observe`](Self::observe), refreshing the caller's scratch `view`
    /// in place (allocation-free in steady state). On return `view` is
    /// current **after** any scaling decision this observation took.
    pub fn observe_into(
        &mut self,
        now: Nanos,
        resources: &mut SchedResources,
        view: &mut ResourceView,
    ) {
        resources.view_into(now, view);
        // Capacity-loss detection first: a live node count below what
        // this controller last decided (seeded from the first
        // observation) means something *outside* it — a kill — removed
        // capacity. Replacement bypasses the backlog cooldown: a dead
        // node is not a noisy signal to be smoothed, so `last_decision_ns`
        // stays put and a pending backlog decision is not delayed.
        let live = resources.node_count();
        let expected = (*self.expected_nodes.get_or_insert(live)).min(self.cfg.max_nodes);
        if live < expected {
            for replaced in live..expected {
                resources.add_node(self.cfg.node_cores);
                self.events.push(ScaleEvent {
                    at_ns: now,
                    action: ScaleAction::Replace,
                    nodes_after: replaced + 1,
                    signal_ns: 0,
                });
            }
            resources.view_into(now, view);
        }
        self.window.push((now, view.mean_backlog_ns()));
        let cutoff = now.saturating_sub(self.cfg.window_ns);
        self.window.retain(|&(t, _)| t >= cutoff);
        if now.saturating_sub(self.last_decision_ns) < self.cfg.window_ns {
            return;
        }
        let signal = self.window.iter().map(|&(_, b)| b).sum::<Nanos>()
            / self.window.len().max(1) as u64;
        let nodes = resources.node_count();
        if signal > self.cfg.scale_up_backlog_ns && nodes < self.cfg.max_nodes {
            resources.add_node(self.cfg.node_cores);
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Up,
                nodes_after: nodes + 1,
                signal_ns: signal,
            });
            self.expected_nodes = Some(nodes + 1);
            self.last_decision_ns = now;
        } else if signal < self.cfg.scale_down_backlog_ns
            && nodes > self.cfg.min_nodes
            && view.node(nodes - 1).backlog_ns == 0
            // The departing node's pair links must have drained too —
            // an in-flight transfer still occupies its wire even after
            // the node's own CPU went idle.
            && (0..nodes - 1).all(|o| view.link_backlog_between(o, nodes - 1) == 0)
        {
            resources.remove_last_node();
            self.events.push(ScaleEvent {
                at_ns: now,
                action: ScaleAction::Down,
                nodes_after: nodes - 1,
                signal_ns: signal,
            });
            self.expected_nodes = Some(nodes - 1);
            self.last_decision_ns = now;
        } else {
            return;
        }
        resources.view_into(now, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autoscaler_scales_down_after_the_surge_drains() {
        let mut res = SchedResources::mesh(&[1, 1, 1]);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 3,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 100,
            window_ns: 1_000,
        });
        // Idle cluster observed well past the window: scale down fires.
        scaler.observe(5_000, &mut res);
        assert_eq!(res.node_count(), 2);
        assert_eq!(scaler.events().len(), 1);
        assert_eq!(scaler.events()[0].action, ScaleAction::Down);
        // Cooldown: an immediate second observation does nothing…
        scaler.observe(5_100, &mut res);
        assert_eq!(res.node_count(), 2);
        // …but after another full window the next shrink fires, and the
        // floor holds.
        scaler.observe(6_500, &mut res);
        assert_eq!(res.node_count(), 1);
        scaler.observe(9_000, &mut res);
        assert_eq!(res.node_count(), 1, "min_nodes is a floor");
        scaler.reset();
        assert!(scaler.events().is_empty());
    }

    #[test]
    fn autoscaler_does_not_remove_a_node_with_busy_links() {
        let mut res = SchedResources::mesh(&[1, 1, 1]);
        // Node 2's CPU is idle but its wire to node 0 still drains.
        res.link_between(0, 2).reserve(0, 2_000);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 3,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 1_000_000,
            window_ns: 500,
        });
        scaler.observe(1_000, &mut res);
        assert_eq!(res.node_count(), 3, "a node with an in-flight transfer must stay");
        // Once the wire drains, scale-in proceeds.
        scaler.observe(3_000, &mut res);
        assert_eq!(res.node_count(), 2);
    }

    #[test]
    fn autoscaler_does_not_remove_a_backlogged_node() {
        let mut res = SchedResources::mesh(&[1, 1]);
        // Last node still draining: mean backlog is low, node backlog not.
        res.cpu(1).reserve(0, 2_000);
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            min_nodes: 1,
            max_nodes: 2,
            node_cores: 1,
            scale_up_backlog_ns: 1_000_000,
            scale_down_backlog_ns: 1_500,
            window_ns: 500,
        });
        scaler.observe(1_000, &mut res);
        assert_eq!(res.node_count(), 2, "a draining node must not be removed");
        // Once drained, it goes.
        scaler.observe(3_000, &mut res);
        assert_eq!(res.node_count(), 1);
    }
}
