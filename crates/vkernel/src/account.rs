//! cgroup-style per-sandbox resource accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Nanos;

/// Per-sandbox resource telemetry, mirroring what the paper reads from the
/// cgroup of each container: user-space CPU time, kernel-space CPU time,
/// and memory (current and peak) — plus one host-side ledger the cgroup
/// has no counterpart for: the payload bytes the sandbox's calls really
/// `memcpy`'d ([`copied_bytes`](Self::copied_bytes)), so the cost model's
/// copy charges can be held against the copies the host performs.
///
/// Handles are cheaply cloneable and thread-safe; all charging methods take
/// `&self`.
///
/// ```
/// # use roadrunner_vkernel::ResourceAccount;
/// let acct = ResourceAccount::new("fn-a");
/// acct.charge_user(500);
/// acct.charge_kernel(200);
/// acct.alloc(4096);
/// assert_eq!(acct.total_cpu_ns(), 700);
/// assert_eq!(acct.ram_peak(), 4096);
/// ```
#[derive(Debug, Default)]
pub struct ResourceAccount {
    name: String,
    user_ns: AtomicU64,
    kernel_ns: AtomicU64,
    ram_current: AtomicU64,
    ram_peak: AtomicU64,
    copied_bytes: AtomicU64,
}

impl ResourceAccount {
    /// Creates a fresh account labelled `name` (the sandbox/function name).
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(Self { name: name.into(), ..Self::default() })
    }

    /// Sandbox name this account belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Charges `ns` of user-space CPU time.
    pub fn charge_user(&self, ns: Nanos) {
        self.user_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Charges `ns` of kernel-space CPU time.
    pub fn charge_kernel(&self, ns: Nanos) {
        self.kernel_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one real host `memcpy` of `bytes` payload bytes made on
    /// this sandbox's behalf. Called once per copying *call*, beside the
    /// virtual charge for it; reference moves (gift, splice) never call it.
    pub fn count_copy(&self, bytes: usize) {
        self.copied_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records an allocation of `bytes`, updating the peak watermark.
    pub fn alloc(&self, bytes: u64) {
        let new = self.ram_current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.ram_peak.fetch_max(new, Ordering::Relaxed);
    }

    /// Records a release of `bytes`. Saturates at zero rather than
    /// panicking so accounting bugs degrade to warnings in reports instead
    /// of aborting simulations.
    pub fn free(&self, bytes: u64) {
        let mut current = self.ram_current.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.ram_current.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Accumulated user-space CPU time.
    pub fn user_ns(&self) -> Nanos {
        self.user_ns.load(Ordering::Relaxed)
    }

    /// Accumulated kernel-space CPU time.
    pub fn kernel_ns(&self) -> Nanos {
        self.kernel_ns.load(Ordering::Relaxed)
    }

    /// Total CPU time (user + kernel).
    pub fn total_cpu_ns(&self) -> Nanos {
        self.user_ns() + self.kernel_ns()
    }

    /// Currently allocated memory in bytes.
    pub fn ram_current(&self) -> u64 {
        self.ram_current.load(Ordering::Relaxed)
    }

    /// Peak allocated memory in bytes.
    pub fn ram_peak(&self) -> u64 {
        self.ram_peak.load(Ordering::Relaxed)
    }

    /// Payload bytes really copied by the host for this sandbox.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    /// Resets CPU counters, the copy ledger and the peak watermark
    /// (current RAM is kept). Used between benchmark repetitions.
    pub fn reset(&self) {
        self.user_ns.store(0, Ordering::Relaxed);
        self.kernel_ns.store(0, Ordering::Relaxed);
        self.copied_bytes.store(0, Ordering::Relaxed);
        let current = self.ram_current.load(Ordering::Relaxed);
        self.ram_peak.store(current, Ordering::Relaxed);
    }

    /// CPU utilisation (0.0–1.0 per core) over a window of `window_ns`,
    /// as the paper's "% CPU usage" panels report it.
    pub fn cpu_utilisation(&self, window_ns: Nanos) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        self.total_cpu_ns() as f64 / window_ns as f64
    }
}

/// A snapshot of an account's counters, convenient for diffing before and
/// after an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccountSnapshot {
    /// User-space CPU nanoseconds at snapshot time.
    pub user_ns: Nanos,
    /// Kernel-space CPU nanoseconds at snapshot time.
    pub kernel_ns: Nanos,
    /// Current RAM in bytes at snapshot time.
    pub ram_current: u64,
    /// Peak RAM in bytes at snapshot time.
    pub ram_peak: u64,
}

impl AccountSnapshot {
    /// Takes a snapshot of `account`.
    pub fn of(account: &ResourceAccount) -> Self {
        Self {
            user_ns: account.user_ns(),
            kernel_ns: account.kernel_ns(),
            ram_current: account.ram_current(),
            ram_peak: account.ram_peak(),
        }
    }

    /// Counter deltas from `earlier` to `self` (peak is reported as the
    /// later absolute peak, since peaks do not subtract meaningfully).
    pub fn since(&self, earlier: &AccountSnapshot) -> AccountSnapshot {
        AccountSnapshot {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            kernel_ns: self.kernel_ns.saturating_sub(earlier.kernel_ns),
            ram_current: self.ram_current,
            ram_peak: self.ram_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_independently() {
        let a = ResourceAccount::new("x");
        a.charge_user(10);
        a.charge_kernel(20);
        a.charge_user(5);
        assert_eq!(a.user_ns(), 15);
        assert_eq!(a.kernel_ns(), 20);
        assert_eq!(a.total_cpu_ns(), 35);
    }

    #[test]
    fn ram_peak_tracks_high_water() {
        let a = ResourceAccount::new("x");
        a.alloc(100);
        a.alloc(50);
        a.free(120);
        a.alloc(10);
        assert_eq!(a.ram_current(), 40);
        assert_eq!(a.ram_peak(), 150);
    }

    #[test]
    fn free_saturates_at_zero() {
        let a = ResourceAccount::new("x");
        a.alloc(10);
        a.free(100);
        assert_eq!(a.ram_current(), 0);
    }

    #[test]
    fn reset_clears_cpu_keeps_ram() {
        let a = ResourceAccount::new("x");
        a.charge_user(5);
        a.count_copy(7);
        a.alloc(64);
        assert_eq!(a.copied_bytes(), 7);
        a.reset();
        assert_eq!(a.total_cpu_ns(), 0);
        assert_eq!(a.copied_bytes(), 0);
        assert_eq!(a.ram_current(), 64);
        assert_eq!(a.ram_peak(), 64);
    }

    #[test]
    fn utilisation_is_cpu_over_window() {
        let a = ResourceAccount::new("x");
        a.charge_user(500);
        a.charge_kernel(500);
        assert!((a.cpu_utilisation(10_000) - 0.1).abs() < 1e-9);
        assert_eq!(a.cpu_utilisation(0), 0.0);
    }

    #[test]
    fn snapshot_diff() {
        let a = ResourceAccount::new("x");
        a.charge_user(100);
        let before = AccountSnapshot::of(&a);
        a.charge_user(50);
        a.charge_kernel(25);
        let after = AccountSnapshot::of(&a);
        let delta = after.since(&before);
        assert_eq!(delta.user_ns, 50);
        assert_eq!(delta.kernel_ns, 25);
    }

    #[test]
    fn shared_handles_see_same_counters() {
        let a = ResourceAccount::new("x");
        let b = Arc::clone(&a);
        a.charge_user(1);
        b.charge_user(2);
        assert_eq!(a.user_ns(), 3);
    }
}
