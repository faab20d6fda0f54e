//! N-node cluster topologies, the paper's two-VM pair among them.
//!
//! The paper evaluates Roadrunner on exactly two nodes (§6.2); its
//! motivating scenario is a platform serving many co-scheduled workflows
//! across an edge–cloud continuum. [`ClusterSpec`] describes such a
//! deployment — heterogeneous nodes (per-node cores/RAM) joined by a
//! full mesh of point-to-point links with per-pair bandwidth/RTT — and
//! [`ClusterSpec::build`] assembles it into a [`Testbed`]. It builds every
//! testbed: [`Testbed::paper`] is its two-node case, so everything that
//! runs on the paper testbed (shims, baselines, the workflow engines)
//! runs unchanged on an N-node cluster.
//!
//! ```
//! use roadrunner_vkernel::cluster::{ClusterSpec, LinkSpec, NodeSpec};
//!
//! let bed = ClusterSpec::homogeneous(4, 4, 8 << 30)
//!     .node(NodeSpec::new(16, 32 << 30))          // add a big cloud node
//!     .link(0, 1, LinkSpec::lan())                // fast edge-local pair
//!     .build();
//! assert_eq!(bed.nodes().len(), 5);
//! assert_eq!(bed.node(4).cores(), 16);
//! assert_eq!(bed.link_between(0, 1).bandwidth_bps(), LinkSpec::lan().bandwidth_bps);
//! ```

use std::collections::HashMap;

use crate::costmodel::CostModel;
use crate::net::Link;
use crate::testbed::Testbed;
use crate::Nanos;

/// One node of a cluster: its core count and RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Number of CPU cores.
    pub cores: u32,
    /// RAM in bytes.
    pub ram_bytes: u64,
}

impl NodeSpec {
    /// A node with `cores` cores and `ram_bytes` of RAM.
    pub fn new(cores: u32, ram_bytes: u64) -> Self {
        assert!(cores > 0, "a node needs at least one core");
        Self { cores, ram_bytes }
    }

    /// The paper's VM shape: 4 cores, 8 GB (§6.2).
    pub fn paper_vm() -> Self {
        Self::new(4, 8 << 30)
    }
}

/// One point-to-point link of a cluster: bandwidth, RTT and MTU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Round-trip time in nanoseconds.
    pub rtt_ns: Nanos,
    /// MTU in bytes (per-packet framing granularity).
    pub mtu_bytes: usize,
}

impl LinkSpec {
    /// A link with the given bandwidth and RTT at the standard 1500-byte
    /// MTU.
    pub fn new(bandwidth_bps: u64, rtt_ns: Nanos) -> Self {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        Self { bandwidth_bps, rtt_ns, mtu_bytes: 1500 }
    }

    /// The WAN shape of `cost`'s calibration (the paper's effective
    /// 700 Mbit/s, 1 ms RTT by default).
    pub fn from_cost(cost: &CostModel) -> Self {
        Self { bandwidth_bps: cost.net_bandwidth_bps, rtt_ns: cost.net_rtt_ns, mtu_bytes: cost.mtu_bytes }
    }

    /// A datacenter-local link: 10 Gbit/s at 100 µs RTT.
    pub fn lan() -> Self {
        Self::new(10_000_000_000, 100_000)
    }

    /// The paper's literal `tc` shape: 100 Mbit/s, 1 ms RTT (§6.2).
    pub fn paper_wan() -> Self {
        Self::new(100_000_000, 1_000_000)
    }

    fn build(&self, name: String) -> std::sync::Arc<Link> {
        Link::new(name, self.bandwidth_bps, self.rtt_ns, self.mtu_bytes)
    }
}

/// Builder for an N-node cluster testbed.
///
/// Nodes are added in index order; every node pair gets the default link
/// unless overridden with [`link`](Self::link). [`build`](Self::build)
/// produces a [`Testbed`] whose [`link_between`](Testbed::link_between)
/// resolves to the pair's own link, and whose
/// [`SchedResources::for_testbed`](crate::sched::SchedResources::for_testbed)
/// mirrors the per-node core counts and the per-pair link mesh.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
    cost: CostModel,
    default_link: Option<LinkSpec>,
    overrides: HashMap<(usize, usize), LinkSpec>,
    link_lanes: usize,
}

impl ClusterSpec {
    /// An empty spec over the paper's cost model; add nodes with
    /// [`node`](Self::node).
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            cost: CostModel::paper_testbed(),
            default_link: None,
            overrides: HashMap::new(),
            link_lanes: 1,
        }
    }

    /// `count` identical nodes of `cores` cores and `ram_bytes` RAM.
    pub fn homogeneous(count: usize, cores: u32, ram_bytes: u64) -> Self {
        let mut spec = Self::new();
        for _ in 0..count {
            spec.nodes.push(NodeSpec::new(cores, ram_bytes));
        }
        spec
    }

    /// Appends a node (chainable).
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.nodes.push(node);
        self
    }

    /// Replaces the cost model (chainable).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the link used by every pair without an override (chainable).
    /// Defaults to [`LinkSpec::from_cost`] of the spec's cost model.
    pub fn default_link(mut self, link: LinkSpec) -> Self {
        self.default_link = Some(link);
        self
    }

    /// Sets how many transfers each pair link carries concurrently
    /// before they queue (chainable; defaults to 1). The lane count is
    /// mirrored into
    /// [`SchedResources::for_testbed`](crate::sched::SchedResources::for_testbed),
    /// including every link a later scale-out creates.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn link_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "a link needs at least one lane");
        self.link_lanes = lanes;
        self
    }

    /// Overrides the link between nodes `a` and `b` (chainable; order of
    /// `a`/`b` does not matter).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` — a node's loopback is not configurable here.
    pub fn link(mut self, a: usize, b: usize, link: LinkSpec) -> Self {
        assert_ne!(a, b, "loopbacks are built automatically, not configured");
        let key = if a < b { (a, b) } else { (b, a) };
        self.overrides.insert(key, link);
        self
    }

    /// Number of nodes currently in the spec.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Per-node core counts, in node order.
    pub fn cores(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.cores).collect()
    }

    /// Assembles the cluster into a [`Testbed`].
    ///
    /// # Panics
    ///
    /// Panics if the spec has no nodes, or if a link override names a
    /// node that does not exist.
    pub fn build(self) -> Testbed {
        assert!(!self.nodes.is_empty(), "a cluster needs at least one node");
        let n = self.nodes.len();
        for &(a, b) in self.overrides.keys() {
            assert!(b < n, "link override ({a}, {b}) names a missing node");
        }
        let default_link = self.default_link.unwrap_or_else(|| LinkSpec::from_cost(&self.cost));
        let mut links = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                let spec = self.overrides.get(&(a, b)).copied().unwrap_or(default_link);
                links.push(spec.build(format!("link-{a}-{b}")));
            }
        }
        Testbed::from_cluster(self.nodes, self.cost, links, self.link_lanes)
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedResources;

    #[test]
    fn homogeneous_cluster_builds_n_nodes() {
        let bed = ClusterSpec::homogeneous(4, 4, 8 << 30).build();
        assert_eq!(bed.nodes().len(), 4);
        for node in bed.nodes() {
            assert_eq!(node.cores(), 4);
            assert_eq!(node.ram_bytes(), 8 << 30);
        }
    }

    #[test]
    fn heterogeneous_nodes_keep_their_shapes() {
        let bed = ClusterSpec::new()
            .node(NodeSpec::new(2, 4 << 30))
            .node(NodeSpec::new(16, 64 << 30))
            .build();
        assert_eq!(bed.node(0).cores(), 2);
        assert_eq!(bed.node(1).cores(), 16);
        assert_eq!(bed.node(1).ram_bytes(), 64 << 30);
    }

    #[test]
    fn default_links_follow_the_cost_model() {
        let bed = ClusterSpec::homogeneous(3, 4, 1 << 30).build();
        let cost = CostModel::paper_testbed();
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(bed.link_between(a, b).bandwidth_bps(), cost.net_bandwidth_bps);
            assert_eq!(bed.link_between(a, b).rtt_ns(), cost.net_rtt_ns);
        }
    }

    #[test]
    fn link_overrides_apply_to_their_pair_only() {
        let bed = ClusterSpec::homogeneous(3, 4, 1 << 30)
            .link(2, 0, LinkSpec::lan())
            .build();
        assert_eq!(bed.link_between(0, 2).bandwidth_bps(), LinkSpec::lan().bandwidth_bps);
        assert_eq!(bed.link_between(2, 0).bandwidth_bps(), LinkSpec::lan().bandwidth_bps);
        assert_eq!(
            bed.link_between(0, 1).bandwidth_bps(),
            CostModel::paper_testbed().net_bandwidth_bps
        );
    }

    #[test]
    fn pair_links_are_distinct_objects() {
        let bed = ClusterSpec::homogeneous(3, 4, 1 << 30).build();
        // Reserving one pair's link leaves the others free.
        bed.link_between(0, 1).reserve(0, 10_000_000);
        let done = bed.link_between(1, 2).reserve(0, 0);
        assert_eq!(done, bed.link_between(1, 2).propagation_ns());
    }

    #[test]
    fn same_node_resolves_to_loopback() {
        let bed = ClusterSpec::homogeneous(2, 4, 1 << 30).build();
        assert_eq!(bed.link_between(1, 1).name(), "lo-1");
    }

    #[test]
    fn sched_resources_mirror_cluster_topology() {
        let bed = ClusterSpec::new()
            .node(NodeSpec::new(2, 1 << 30))
            .node(NodeSpec::new(8, 1 << 30))
            .node(NodeSpec::new(4, 1 << 30))
            .build();
        let mut res = SchedResources::for_testbed(&bed);
        assert_eq!(res.cpu(0).capacity(), 2);
        assert_eq!(res.cpu(1).capacity(), 8);
        assert_eq!(res.cpu(2).capacity(), 4);
        // Mesh: disjoint pairs schedule independently.
        let a = res.link_between(0, 1).reserve(0, 1_000);
        let b = res.link_between(0, 2).reserve(0, 1_000);
        assert_eq!((a, b), (0, 0));
    }

    #[test]
    fn reset_telemetry_clears_every_pair_link() {
        let bed = ClusterSpec::homogeneous(3, 2, 1 << 30).build();
        bed.link_between(0, 2).reserve(0, 50_000_000);
        bed.reset_telemetry();
        let done = bed.link_between(0, 2).reserve(0, 0);
        assert_eq!(done, bed.link_between(0, 2).propagation_ns());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        ClusterSpec::new().build();
    }

    #[test]
    #[should_panic(expected = "missing node")]
    fn out_of_range_override_panics() {
        ClusterSpec::homogeneous(2, 4, 1 << 30)
            .link(0, 5, LinkSpec::lan())
            .build();
    }

    #[test]
    #[should_panic(expected = "loopbacks")]
    fn self_link_override_panics() {
        let _ = ClusterSpec::homogeneous(2, 4, 1 << 30).link(1, 1, LinkSpec::lan());
    }
}
