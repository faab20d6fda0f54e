//! Hosts and sandboxes.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::account::ResourceAccount;
use crate::clock::VirtualClock;
use crate::costmodel::CostModel;
use crate::Nanos;

/// A simulated host: a number of CPU cores plus the sandboxes running on
/// it. Matches one VM of the paper's testbed (4 cores, 8 GB).
#[derive(Debug)]
pub struct Node {
    name: String,
    cores: u32,
    ram_bytes: u64,
    clock: VirtualClock,
    cost: Arc<CostModel>,
    sandboxes: Mutex<Vec<Arc<ResourceAccount>>>,
}

impl Node {
    /// Creates a node with `cores` CPUs sharing `clock` and `cost`.
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        ram_bytes: u64,
        clock: VirtualClock,
        cost: Arc<CostModel>,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            cores,
            ram_bytes,
            clock,
            cost,
            sandboxes: Mutex::new(Vec::new()),
        })
    }

    /// Host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of CPU cores (bounds effective parallelism in fan-out).
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Installed RAM in bytes.
    pub fn ram_bytes(&self) -> u64 {
        self.ram_bytes
    }

    /// The node's (shared) virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The node's cost model.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Creates a new sandbox (cgroup) on this node and returns its
    /// execution context.
    pub fn sandbox(&self, name: impl Into<String>) -> Sandbox {
        let account = ResourceAccount::new(name);
        self.sandboxes.lock().push(Arc::clone(&account));
        Sandbox { account, clock: self.clock.clone(), cost: Arc::clone(&self.cost) }
    }

    /// Accounts of every sandbox ever created on this node.
    pub fn accounts(&self) -> Vec<Arc<ResourceAccount>> {
        self.sandboxes.lock().clone()
    }
}

/// Execution context of one sandboxed process: its resource account plus
/// handles to the clock and cost model. All virtual-kernel object methods
/// take a `&Sandbox` identifying the calling process, so CPU time lands in
/// the right cgroup — exactly how the paper attributes usage.
///
/// A sandbox is charged from one thread at a time, the thread of the
/// simulation that owns its testbed (every job of a parallel sweep builds
/// its own, as the module docs of `roadrunner_platform::sweep`, in
/// `sweep.rs`, require): its account and clock are single-writer
/// ([`VirtualClock`]), so a charge is two plain load-and-store updates,
/// each saturating at `u64::MAX`.
#[derive(Debug, Clone)]
pub struct Sandbox {
    account: Arc<ResourceAccount>,
    clock: VirtualClock,
    cost: Arc<CostModel>,
}

impl Sandbox {
    /// Creates a free-standing sandbox (not attached to a [`Node`]) —
    /// convenient in unit tests.
    pub fn detached(name: impl Into<String>, clock: VirtualClock, cost: Arc<CostModel>) -> Self {
        Self { account: ResourceAccount::new(name), clock, cost }
    }

    /// The sandbox's resource account.
    pub fn account(&self) -> &Arc<ResourceAccount> {
        &self.account
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `ns` of user-space CPU: advances the clock and the account.
    #[inline]
    pub fn charge_user(&self, ns: Nanos) {
        self.account.charge_user(ns);
        self.clock.advance(ns);
    }

    /// Charges `ns` of kernel-space CPU: advances the clock and the
    /// account.
    #[inline]
    pub fn charge_kernel(&self, ns: Nanos) {
        self.account.charge_kernel(ns);
        self.clock.advance(ns);
    }

    /// Records `bytes` of allocation against this sandbox and charges the
    /// allocator cost as user time.
    pub fn alloc(&self, bytes: usize) {
        self.account.alloc(bytes as u64);
        self.charge_user(self.cost.alloc_ns(bytes));
    }

    /// Records a release of `bytes`.
    pub fn free(&self, bytes: usize) {
        self.account.free(bytes as u64);
    }

    /// Convenience passthrough to [`ResourceAccount::user_ns`].
    pub fn user_ns(&self) -> Nanos {
        self.account.user_ns()
    }

    /// Convenience passthrough to [`ResourceAccount::kernel_ns`].
    pub fn kernel_ns(&self) -> Nanos {
        self.account.kernel_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_node() -> Arc<Node> {
        Node::new("n0", 4, 8 << 30, VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
    }

    #[test]
    fn sandbox_charges_advance_clock_and_account() {
        let node = test_node();
        let sb = node.sandbox("fn-a");
        sb.charge_user(100);
        sb.charge_kernel(50);
        assert_eq!(node.clock().now(), 150);
        assert_eq!(sb.user_ns(), 100);
        assert_eq!(sb.kernel_ns(), 50);
    }

    #[test]
    fn alloc_tracks_ram_and_costs_time() {
        let node = test_node();
        let sb = node.sandbox("fn-a");
        sb.alloc(1 << 20);
        assert_eq!(sb.account().ram_current(), 1 << 20);
        assert!(node.clock().now() > 0);
        sb.free(1 << 20);
        assert_eq!(sb.account().ram_current(), 0);
        assert_eq!(sb.account().ram_peak(), 1 << 20);
    }

    #[test]
    fn node_registers_all_sandboxes() {
        let node = test_node();
        node.sandbox("a");
        node.sandbox("b");
        let names: Vec<_> = node.accounts().iter().map(|a| a.name().to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn sandboxes_share_the_node_clock() {
        let node = test_node();
        let a = node.sandbox("a");
        let b = node.sandbox("b");
        a.charge_user(10);
        b.charge_user(20);
        assert_eq!(node.clock().now(), 30);
    }
}
