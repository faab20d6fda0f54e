//! Function placement.
//!
//! Roadrunner explicitly does *not* control placement: it "optimizes
//! communication regardless of the scheduler's decisions" (paper §2.2).
//! The policies here stand in for the orchestrator. A
//! [`PlacementPolicy`] places a whole **workflow instance** onto the
//! cluster it observes through a live [`ResourceView`] snapshot: the
//! per-node backlog every earlier admission created, refreshed at each
//! instance's arrival. Policies therefore route around hot nodes without
//! keeping private counters, and they keep working when an autoscaler
//! grows or shrinks the active node set between arrivals. Its answer —
//! one node index per function, in DAG node order — is the only
//! placement representation the engines execute.
//!
//! * [`LocalityFirst`] packs each instance onto the least-backlogged
//!   node (maximizing user-/kernel-space edges for Roadrunner to
//!   exploit);
//! * [`SpreadLoad`] spreads functions across nodes in ascending-backlog
//!   order (maximizing parallel cores, at the price of network edges);
//! * [`PackThenSpill`] packs onto one node until its backlog exceeds a
//!   threshold, then spills to the next — the locality/spread hybrid the
//!   elastic experiments sweep;
//! * [`RoundRobin`] rotates whole instances over the nodes, load-blind;
//! * [`Pinned`] puts each function where a fixed map says.
//!
//! **The overload-steering seam.** The `ResourceView` snapshot is also
//! where circuit breakers steer placement: before a policy looks, the
//! load engine adds each open circuit's configured backlog penalty to
//! its node (see [`overload`](crate::overload)), so every policy here
//! routes away from a misbehaving node *without any change to its own
//! arithmetic* — the penalty is indistinguishable from real backlog.
//! One caveat worth knowing when tuning: [`SpreadLoad`] sorts nodes by
//! backlog and then round-robins functions over the whole sorted order,
//! so a penalized node drops to the *back* of the order but still
//! receives every `node_count`-th function — breaker penalties demote a
//! node under SpreadLoad, they cannot evacuate it. [`LocalityFirst`]
//! and [`PackThenSpill`] pack onto the front of the order, so for them
//! the penalty is a full evacuation until the circuit closes.

use std::collections::HashMap;

use roadrunner_vkernel::sched::ResourceView;

use crate::workflow::WorkflowSpec;

/// Packs the whole k-th instance onto node `k mod n` — load-blind by
/// design, the control baseline the backlog-aware policies are measured
/// against.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a policy starting at node 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        let idx = self.next;
        self.next = idx.wrapping_add(1);
        vec![idx % view.node_count(); spec.dag.node_count()]
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

/// Explicit placements with a default node for unlisted functions —
/// what the experiments use to pin function `a` to the edge node and
/// function `b` to the cloud node.
#[derive(Debug, Default)]
pub struct Pinned {
    map: HashMap<String, usize>,
    default: usize,
}

impl Pinned {
    /// Creates a pinned policy defaulting to node `default`.
    pub fn new(default: usize) -> Self {
        Self { map: HashMap::new(), default }
    }

    /// Pins `function` to `node` (chainable).
    pub fn pin(mut self, function: impl Into<String>, node: usize) -> Self {
        self.map.insert(function.into(), node);
        self
    }
}

/// Pinning ignores the live view entirely but clamps every pin to the currently active node set, so a placement map
/// written for a large cluster keeps working after the autoscaler shrank
/// it.
impl PlacementPolicy for Pinned {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        // Views are non-empty by construction (every SchedResources
        // constructor rejects zero nodes); saturate anyway so a hostile
        // view degrades to node 0 instead of underflowing.
        let last = view.node_count().saturating_sub(1);
        spec.dag
            .nodes()
            .map(|f| self.map.get(f).copied().unwrap_or(self.default).min(last))
            .collect()
    }

    fn reset(&mut self) {}
}

/// Assigns every function of a workflow instance to a cluster node,
/// observing the live [`ResourceView`] snapshot taken at the instance's
/// arrival.
///
/// The view already reflects every earlier admission's reservations
/// (including in-flight instances), so policies need no private load
/// counters — and placements automatically follow capacity as an
/// autoscaler resizes the cluster between arrivals. The returned vector
/// is indexed by the spec's DAG node index (the same index
/// [`WorkflowDag::nodes`](crate::dag::WorkflowDag) iterates in), one
/// entry per function — the load engine refuses any other length — and
/// is the placement slice the workflow engine reads each edge's
/// endpoints from and hands the plane through
/// [`DataPlane::transfer_placed`](crate::workflow::DataPlane::transfer_placed).
///
/// Determinism contract: given identical views and call sequences, a
/// policy must return identical assignments (ties broken by node index,
/// integral arithmetic only).
pub trait PlacementPolicy: Send {
    /// Human-readable policy name (used in benchmark series labels).
    fn name(&self) -> &'static str;

    /// Chooses a node for every function of `spec`, observing the live
    /// cluster state in `view`.
    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize>;

    /// Forgets any internal cursor state (between benchmark cells).
    fn reset(&mut self);
}

/// Orders nodes `a` and `b` by core-normalized backlog (`backlog/cores`
/// ascending), compared by cross-multiplication so the arithmetic stays
/// integral (and therefore deterministic across platforms). The single
/// definition of "less loaded" every backlog-aware policy shares.
fn backlog_order(view: &ResourceView, a: usize, b: usize) -> std::cmp::Ordering {
    let lhs = u128::from(view.node(a).backlog_ns) * u128::from(view.node(b).cores);
    let rhs = u128::from(view.node(b).backlog_ns) * u128::from(view.node(a).cores);
    lhs.cmp(&rhs)
}

/// Index of the node minimizing `backlog/cores`, ties to the lowest
/// index.
fn least_backlogged(view: &ResourceView) -> usize {
    (0..view.node_count())
        .min_by(|&a, &b| backlog_order(view, a, b))
        .expect("resource views are non-empty")
}

/// Packs the **whole instance** onto the node with the least live
/// backlog (normalized by its core count): every edge becomes a
/// user-/kernel-space edge, which is exactly the regime Roadrunner's
/// co-location modes accelerate.
#[derive(Debug, Default)]
pub struct LocalityFirst;

impl LocalityFirst {
    /// A fresh policy.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementPolicy for LocalityFirst {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        vec![least_backlogged(view); spec.dag.node_count()]
    }

    fn reset(&mut self) {}
}

/// Spreads the functions of every instance across the cluster: nodes are
/// ranked by ascending live backlog (normalized by core count, ties to
/// the lowest index) and functions deal round-robin over that ranking —
/// maximal parallel cores, at the price of turning workflow edges into
/// network transfers.
#[derive(Debug, Default)]
pub struct SpreadLoad;

impl SpreadLoad {
    /// A fresh policy.
    pub fn new() -> Self {
        Self
    }
}

impl PlacementPolicy for SpreadLoad {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        let mut order: Vec<usize> = (0..view.node_count()).collect();
        order.sort_by(|&a, &b| backlog_order(view, a, b).then(a.cmp(&b)));
        (0..spec.dag.node_count()).map(|i| order[i % order.len()]).collect()
    }

    fn reset(&mut self) {}
}

/// The paper-style locality/spread hybrid: keep **packing** the busiest
/// node whose backlog is still at or under the spill threshold (so
/// instances co-locate and Roadrunner's kernel-space edges stay in
/// play), and only when every candidate is saturated **spill** to the
/// least-backlogged node. Ties break to the lowest index; the whole
/// instance lands on one node either way.
#[derive(Debug)]
pub struct PackThenSpill {
    spill_backlog_ns: u64,
}

impl PackThenSpill {
    /// A policy spilling once a node's backlog exceeds
    /// `spill_backlog_ns`.
    pub fn new(spill_backlog_ns: u64) -> Self {
        Self { spill_backlog_ns }
    }

    /// The configured spill threshold.
    pub fn spill_backlog_ns(&self) -> u64 {
        self.spill_backlog_ns
    }
}

impl PlacementPolicy for PackThenSpill {
    fn name(&self) -> &'static str {
        "pack_spill"
    }

    fn place(&mut self, spec: &WorkflowSpec, view: &ResourceView) -> Vec<usize> {
        let node = (0..view.node_count())
            .filter(|&i| view.node(i).backlog_ns <= self.spill_backlog_ns)
            .max_by(|&a, &b| {
                // Busiest-but-under-threshold wins; ties to the LOWEST
                // index (max_by keeps the later of equals, so order the
                // index comparison accordingly).
                view.node(a)
                    .backlog_ns
                    .cmp(&view.node(b).backlog_ns)
                    .then(b.cmp(&a))
            })
            .unwrap_or_else(|| least_backlogged(view));
        vec![node; spec.dag.node_count()]
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_vkernel::sched::SchedResources;

    fn chain(name: &str) -> WorkflowSpec {
        WorkflowSpec::sequence(name, "t", ["f".to_owned(), "g".to_owned(), "h".to_owned()])
    }

    /// Backlog of `b` ns on each named node, 4 cores each, snapshot at 0.
    fn view_of(backlogs: &[u64]) -> roadrunner_vkernel::ResourceView {
        let mut res = SchedResources::new(backlogs.len(), 4);
        for (i, &b) in backlogs.iter().enumerate() {
            for _ in 0..res.cpu(i).capacity() {
                res.cpu(i).reserve(0, b);
            }
        }
        res.view(0)
    }

    #[test]
    fn locality_first_packs_onto_the_least_backlogged_node() {
        let mut policy = LocalityFirst::new();
        let a = policy.place(&chain("a"), &view_of(&[500, 100, 900]));
        assert_eq!(a, vec![1, 1, 1]);
        // All idle: ties break to the lowest index.
        let b = policy.place(&chain("b"), &view_of(&[0, 0, 0]));
        assert_eq!(b, vec![0, 0, 0]);
    }

    #[test]
    fn locality_follows_live_backlog_across_instances() {
        // Two instances admitted against the *same* resources: the
        // second observes the first's reservations and moves on.
        let mut res = SchedResources::new(2, 1);
        let mut policy = LocalityFirst::new();
        let first = policy.place(&chain("a"), &res.view(0));
        assert_eq!(first[0], 0);
        res.cpu(first[0]).reserve(0, 10_000);
        let second = policy.place(&chain("b"), &res.view(0));
        assert_eq!(second[0], 1, "live backlog must steer the second instance away");
    }

    #[test]
    fn spread_load_deals_functions_in_backlog_order() {
        let mut policy = SpreadLoad::new();
        // Ranking by backlog: node 2 (idle), node 0, node 1.
        let got = policy.place(&chain("a"), &view_of(&[300, 700, 0]));
        assert_eq!(got, vec![2, 0, 1]);
        // More functions than nodes: wraps around the ranking.
        let spec = WorkflowSpec::sequence(
            "wide",
            "t",
            (0..5).map(|i| format!("f{i}")).collect::<Vec<_>>(),
        );
        assert_eq!(policy.place(&spec, &view_of(&[0, 100])), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn policies_weight_backlog_by_core_count() {
        // Same absolute backlog: the 8-core node drains it twice as fast,
        // so it is the less-loaded choice.
        let mut res = SchedResources::heterogeneous(&[4, 8]);
        for i in 0..2 {
            for _ in 0..res.cpu(i).capacity() {
                res.cpu(i).reserve(0, 1_000);
            }
        }
        let view = res.view(0);
        assert_eq!(view.node(0).backlog_ns, view.node(1).backlog_ns);
        let mut policy = LocalityFirst::new();
        assert_eq!(policy.place(&chain("a"), &view)[0], 1);
    }

    #[test]
    fn pack_then_spill_packs_until_the_threshold_then_moves() {
        let mut policy = PackThenSpill::new(1_000);
        // Node 0 busiest under threshold: keep packing it.
        assert_eq!(policy.place(&chain("a"), &view_of(&[800, 200, 0])), vec![0, 0, 0]);
        // Node 0 over threshold: the busiest *under* it wins.
        assert_eq!(policy.place(&chain("b"), &view_of(&[1_500, 200, 0])), vec![1, 1, 1]);
        // Everyone over threshold: spill to the least backlogged.
        assert_eq!(
            policy.place(&chain("c"), &view_of(&[1_500, 2_000, 1_800])),
            vec![0, 0, 0]
        );
        // Ties under the threshold break to the lowest index.
        assert_eq!(policy.place(&chain("d"), &view_of(&[300, 300, 0])), vec![0, 0, 0]);
        assert_eq!(policy.spill_backlog_ns(), 1_000);
    }

    #[test]
    fn round_robin_instances_rotate_over_the_active_set() {
        let mut policy = RoundRobin::new();
        let view = view_of(&[0, 0, 0]);
        assert_eq!(policy.place(&chain("a"), &view), vec![0; 3]);
        assert_eq!(policy.place(&chain("b"), &view), vec![1; 3]);
        assert_eq!(policy.place(&chain("c"), &view), vec![2; 3]);
        assert_eq!(policy.place(&chain("d"), &view), vec![0; 3]);
        policy.reset();
        assert_eq!(policy.place(&chain("e"), &view), vec![0; 3]);
    }

    #[test]
    fn round_robin_cycles() {
        // Wraps at the view's node count, whatever the workflow's width.
        let mut policy = RoundRobin::new();
        let view = view_of(&[0, 0]);
        let firsts: Vec<usize> = (0..3).map(|_| policy.place(&chain("a"), &view)[0]).collect();
        assert_eq!(firsts, [0, 1, 0]);
    }

    #[test]
    fn round_robin_survives_single_node() {
        let mut policy = RoundRobin::new();
        let view = view_of(&[0]);
        assert_eq!(policy.place(&chain("a"), &view), vec![0; 3]);
        assert_eq!(policy.place(&chain("b"), &view), vec![0; 3]);
    }

    #[test]
    fn pinned_uses_map_then_default() {
        let mut policy = Pinned::new(1).pin("f", 0);
        assert_eq!(policy.place(&chain("a"), &view_of(&[0, 0])), vec![0, 1, 1]);
    }

    #[test]
    fn pinned_clamps_to_cluster_size() {
        let mut policy = Pinned::new(0).pin("f", 9);
        assert_eq!(policy.place(&chain("a"), &view_of(&[0, 0])), vec![1, 0, 0]);
    }

    #[test]
    fn pinned_instances_clamp_to_the_active_set() {
        let mut policy = Pinned::new(0).pin("f", 5).pin("g", 1);
        let got = policy.place(&chain("a"), &view_of(&[0, 0]));
        // f pinned past the active set clamps to the last node.
        assert_eq!(got, vec![1, 1, 0]);
    }

    #[test]
    fn policies_are_deterministic_given_the_same_view() {
        let view = view_of(&[400, 100, 100, 900]);
        let spec = chain("a");
        for policy in [
            &mut LocalityFirst::new() as &mut dyn PlacementPolicy,
            &mut SpreadLoad::new(),
            &mut PackThenSpill::new(500),
        ] {
            let a = policy.place(&spec, &view);
            let b = policy.place(&spec, &view);
            assert_eq!(a, b, "{} must be deterministic", policy.name());
        }
    }
}
