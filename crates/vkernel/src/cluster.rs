//! The one cluster shape: `n` identical nodes, every pair joined by its
//! own link.
//!
//! The paper evaluates Roadrunner on two identical VMs joined by one
//! shaped link (§6.2). Every testbed here is that shape scaled up:
//! [`ClusterSpec`] names the node count and each node's cores and RAM,
//! and [`ClusterSpec::build`] assembles a [`Testbed`] whose every node
//! pair gets its own link built from the cost model's bandwidth, RTT and
//! MTU. [`Testbed::paper`] is the two-node case, so everything that runs
//! on the paper testbed (shims, baselines, the workflow engines) runs
//! unchanged on an `n`-node cluster.
//!
//! ```
//! let bed = roadrunner_vkernel::ClusterSpec::homogeneous(4, 4, 8 << 30).build();
//! assert_eq!(bed.nodes().len(), 4);
//! assert_eq!(bed.link_between(2, 3).name(), "link-2-3");
//! assert_eq!(bed.link_between(0, 3).bandwidth_bps(), bed.cost().net_bandwidth_bps);
//! ```

use crate::testbed::Testbed;

/// An `n`-node cluster of identical nodes: its node count and each
/// node's cores and RAM. [`build`](Self::build) produces a [`Testbed`]
/// whose [`link_between`](Testbed::link_between) resolves to the pair's
/// own link; [`SchedResources::for_testbed`](crate::SchedResources::for_testbed)
/// mirrors its cores and link mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    count: usize,
    cores: u32,
    ram_bytes: u64,
}

impl ClusterSpec {
    /// `count` identical nodes of `cores` cores and `ram_bytes` RAM.
    pub fn homogeneous(count: usize, cores: u32, ram_bytes: u64) -> Self {
        Self { count, cores, ram_bytes }
    }

    /// Assembles the cluster into a [`Testbed`].
    ///
    /// # Panics
    ///
    /// Panics if the spec has no nodes or its nodes have no cores.
    pub fn build(self) -> Testbed {
        assert!(self.count > 0, "a cluster needs at least one node");
        assert!(self.cores > 0, "a node needs at least one core");
        Testbed::from_cluster(self.count, self.cores, self.ram_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::CostModel;
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

    /// The one cluster shape, pinned for n = 1..=5: n identical nodes,
    /// n(n−1)/2 pair links built from the cost model, a loopback per
    /// node, and scheduling resources that mirror the bed.
    #[test]
    fn every_cluster_is_n_identical_nodes_on_a_calibrated_mesh() {
        let cost = CostModel::paper_testbed();
        for n in 1..=5 {
            let (cores, ram) = (n as u32 + 1, (n as u64) << 30);
            let bed = ClusterSpec::homogeneous(n, cores, ram).build();
            let mut res = SchedResources::for_testbed(&bed);
            assert_eq!((bed.nodes().len(), res.node_count()), (n, n));
            assert_eq!(res.link_lanes(), n * (n - 1) / 2, "n = {n}");
            for a in 0..n {
                assert_eq!((bed.node(a).cores(), bed.node(a).ram_bytes()), (cores, ram));
                assert_eq!(res.cpu(a).capacity(), cores as usize, "n = {n}");
                assert_eq!(bed.link_between(a, a).name(), format!("lo-{a}"));
                for b in a + 1..n {
                    let link = bed.link_between(a, b);
                    assert_eq!(link.name(), format!("link-{a}-{b}"));
                    let shape = (link.bandwidth_bps(), link.rtt_ns(), link.mtu_bytes());
                    assert_eq!(shape, (cost.net_bandwidth_bps, cost.net_rtt_ns, cost.mtu_bytes));
                    assert_eq!(res.link_between(a, b).capacity(), 1, "n = {n}");
                }
            }
        }
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
        let bed = ClusterSpec::homogeneous(3, 2, 1 << 30).build();
        let mut res = SchedResources::for_testbed(&bed);
        for i in 0..3 {
            assert_eq!(res.cpu(i).capacity(), 2);
        }
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
        ClusterSpec::homogeneous(0, 4, 1 << 30).build();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn coreless_nodes_panic() {
        ClusterSpec::homogeneous(2, 0, 1 << 30).build();
    }
}
