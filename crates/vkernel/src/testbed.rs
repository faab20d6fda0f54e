//! The assembled testbed: nodes plus links, wired like the paper's setup.

use std::sync::Arc;

use crate::clock::VirtualClock;
use crate::cluster::ClusterSpec;
use crate::costmodel::CostModel;
use crate::net::Link;
use crate::node::Node;

/// A complete simulated deployment: identical nodes sharing one virtual
/// clock and cost model, one link per node pair, and a loopback link per
/// node.
///
/// [`Testbed::paper`] reproduces §6.2: two 4-core/8 GB VMs joined by one
/// shaped link (1 ms RTT). [`ClusterSpec`] builds every testbed — the
/// paper's pair is its two-node case — and everything below the testbed
/// (shims, baselines, engines) is topology-agnostic.
///
/// ```
/// # use roadrunner_vkernel::Testbed;
/// let bed = Testbed::paper();
/// assert_eq!(bed.nodes().len(), 2);
/// assert_eq!(bed.node(0).cores(), 4);
/// ```
#[derive(Debug)]
pub struct Testbed {
    clock: VirtualClock,
    cost: Arc<CostModel>,
    nodes: Vec<Arc<Node>>,
    /// One link per node pair, flattened upper-triangular.
    pair_links: Vec<Arc<Link>>,
    loopbacks: Vec<Arc<Link>>,
}

impl Testbed {
    /// [`ClusterSpec::build`]'s body: `count` identical nodes over the
    /// paper's cost model, one link per pair (flattened upper-triangular)
    /// built from that model, and a loopback per node.
    pub(crate) fn from_cluster(count: usize, cores: u32, ram_bytes: u64) -> Self {
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let nodes = (0..count)
            .map(|i| Node::new(format!("node-{i}"), cores, ram_bytes, clock.clone(), cost.clone()))
            .collect();
        let (bps, rtt, mtu) = (cost.net_bandwidth_bps, cost.net_rtt_ns, cost.mtu_bytes);
        let link = move |a, b| Link::new(format!("link-{a}-{b}"), bps, rtt, mtu);
        let pair_links = (0..count).flat_map(|a| (a + 1..count).map(move |b| link(a, b))).collect();
        let loopbacks = (0..count).map(|i| Link::loopback(format!("lo-{i}"))).collect();
        Self { clock, cost, nodes, pair_links, loopbacks }
    }

    /// The paper's two-node edge–cloud testbed (§6.2): two 4-core/8 GB
    /// nodes joined by the cost model's link.
    pub fn paper() -> Self {
        ClusterSpec::homogeneous(2, 4, 8 << 30).build()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<Node>] {
        &self.nodes
    }

    /// Node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// The loopback link of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn loopback(&self, i: usize) -> &Arc<Link> {
        &self.loopbacks[i]
    }

    /// Link to use between node `a` and node `b`: the node's loopback
    /// when equal, the pair's own link otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn link_between(&self, a: usize, b: usize) -> &Arc<Link> {
        if a == b {
            return self.loopback(a);
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(hi < self.nodes.len(), "link_between({a}, {b}) is out of range");
        &self.pair_links[crate::sched::pair_index(self.nodes.len(), lo, hi)]
    }

    /// Resets link reservations and every sandbox account — called between
    /// benchmark repetitions.
    pub fn reset_telemetry(&self) {
        for link in self.pair_links.iter().chain(&self.loopbacks) {
            link.reset();
        }
        for node in &self.nodes {
            for account in node.accounts() {
                account.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_section_6_2() {
        let bed = Testbed::paper();
        assert_eq!(bed.nodes().len(), 2);
        assert_eq!(bed.node(0).cores(), 4);
        assert_eq!(bed.node(0).ram_bytes(), 8 << 30);
        // Effective bandwidth implied by the paper's own Fig. 8a series
        // (see CostModel::net_bandwidth_bps docs).
        assert_eq!(bed.link_between(0, 1).bandwidth_bps(), 700_000_000);
        assert_eq!(bed.link_between(0, 1).rtt_ns(), 1_000_000);
    }

    #[test]
    fn link_between_picks_loopback_for_same_node() {
        let bed = Testbed::paper();
        assert_eq!(bed.link_between(0, 0).name(), "lo-0");
        assert_eq!(bed.link_between(0, 1).name(), "link-0-1");
        assert_eq!(bed.link_between(1, 0).name(), "link-0-1");
    }

    #[test]
    fn nodes_share_one_clock() {
        let bed = Testbed::paper();
        bed.node(0).clock().advance(5);
        assert_eq!(bed.node(1).clock().now(), 5);
    }

    #[test]
    fn reset_telemetry_clears_accounts_and_links() {
        let bed = Testbed::paper();
        let sb = bed.node(0).sandbox("fn");
        sb.charge_user(100);
        let link = bed.link_between(0, 1);
        link.reserve(0, 1 << 20);
        bed.reset_telemetry();
        assert_eq!(sb.account().total_cpu_ns(), 0);
        assert_eq!(link.reserve(0, 0), link.propagation_ns());
    }
}
