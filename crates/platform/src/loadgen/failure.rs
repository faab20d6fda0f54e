//! Failure plans: what a run injects (outage windows, node kills) and
//! the retry policy its edges run under.

use roadrunner_vkernel::{Nanos, OutageSchedule};

use crate::workflow::RetryPolicy;

/// A node kill in a [`FailurePlan`]: the node (by **stable id**, so the
/// schedule survives index reshuffling as the cluster resizes) dies at
/// `at_ns` and the control plane notices — and removes it from the
/// schedule — `detect_ns` later. Between those instants, instances
/// placed onto the dying node fail after exhausting their retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKill {
    /// Stable node id ([`SchedResources::node_id`](roadrunner_vkernel::sched::SchedResources::node_id)).
    pub node_id: u64,
    /// Virtual instant the node dies (its outage window opens here).
    pub at_ns: Nanos,
    /// Detection delay before the dead node is removed from the
    /// resource schedule and its un-started backlog migrates.
    pub detect_ns: Nanos,
}

/// Everything the load engine needs to make a run fallible: an outage
/// schedule for link flaps and node down-windows, a list of node kills
/// (permanent outages with control-plane removal), and the retry policy
/// the workflow engine drives edges with.
///
/// An empty plan (`FailurePlan::new(..)` with nothing added) leaves the
/// engine byte-identical to a failure-free run.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    outages: OutageSchedule,
    kills: Vec<NodeKill>,
    retry: RetryPolicy,
}

impl FailurePlan {
    /// A plan with no outages yet, retrying per `retry`.
    pub fn new(retry: RetryPolicy) -> Self {
        Self { outages: OutageSchedule::new(), kills: Vec::new(), retry }
    }

    /// Adds a whole outage schedule (link flaps, transient node
    /// windows) on top of whatever the plan already holds.
    #[must_use]
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = self.outages.merged_with(outages);
        self
    }

    /// Kills the node with stable id `node_id` at `at_ns`: its outage
    /// window opens immediately (transfers touching it start failing)
    /// and the engine removes it from the schedule `detect_ns` later.
    #[must_use]
    pub fn kill_node(mut self, node_id: u64, at_ns: Nanos, detect_ns: Nanos) -> Self {
        self.outages = self.outages.node_killed(node_id, at_ns);
        self.kills.push(NodeKill { node_id, at_ns, detect_ns });
        self
    }

    /// The outage schedule (kills included as never-ending windows).
    pub fn outages(&self) -> &OutageSchedule {
        &self.outages
    }

    /// The node kills, in insertion order.
    pub fn kills(&self) -> &[NodeKill] {
        &self.kills
    }

    /// The retry policy edges run under.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.kills.is_empty()
    }
}
