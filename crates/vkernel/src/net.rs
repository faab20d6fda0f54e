//! Point-to-point links with bandwidth and propagation delay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Nanos;

/// Per-packet L2–L4 framing overhead (Ethernet + IPv4 + TCP headers).
pub const FRAMING_BYTES: u64 = 66;

/// A shared point-to-point link between two hosts (or a host's loopback).
///
/// Tracks when the link becomes free (`busy_until`) so concurrent senders
/// serialize on the shared bandwidth — this is what bends the inter-node
/// fan-out curves (Fig. 10) once the 100 Mbit/s pipe saturates.
#[derive(Debug)]
pub struct Link {
    name: String,
    bandwidth_bps: u64,
    rtt_ns: Nanos,
    mtu_bytes: usize,
    busy_until: AtomicU64,
}

impl Link {
    /// Creates a link. `bandwidth_bps` is in bits per second.
    pub fn new(
        name: impl Into<String>,
        bandwidth_bps: u64,
        rtt_ns: Nanos,
        mtu_bytes: usize,
    ) -> Arc<Self> {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        assert!(mtu_bytes > 0, "link MTU must be positive");
        Arc::new(Self {
            name: name.into(),
            bandwidth_bps,
            rtt_ns,
            mtu_bytes,
            busy_until: AtomicU64::new(0),
        })
    }

    /// The paper's shaped inter-node link: 100 Mbit/s, 1 ms RTT.
    pub fn paper_wan(name: impl Into<String>) -> Arc<Self> {
        Self::new(name, 100_000_000, 1_000_000, 1500)
    }

    /// A host-local loopback, fixed here rather than in
    /// [`CostModel`](crate::CostModel): the kernel-internal move of
    /// co-located HTTP at 80 Gbit/s (≈ 10 GB/s) and 60 µs RTT. The copies
    /// themselves are charged separately.
    pub fn loopback(name: impl Into<String>) -> Arc<Self> {
        Self::new(name, 80_000_000_000, 60_000, 65536)
    }

    /// Link name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Configured round-trip time.
    pub fn rtt_ns(&self) -> Nanos {
        self.rtt_ns
    }

    /// MTU in bytes: the packet size [`wire_ns`](Self::wire_ns) frames
    /// a transfer in.
    pub fn mtu_bytes(&self) -> usize {
        self.mtu_bytes
    }

    /// One-way propagation delay.
    pub fn propagation_ns(&self) -> Nanos {
        self.rtt_ns / 2
    }

    /// Pure transmission time of `bytes` including per-MTU framing,
    /// computed in `u128` and saturated only at the `Nanos` range.
    pub fn wire_ns(&self, bytes: usize) -> Nanos {
        let packets = bytes.div_ceil(self.mtu_bytes) as u128;
        let framed = bytes as u128 + packets * u128::from(FRAMING_BYTES);
        let ns = framed * 8 * 1_000_000_000 / u128::from(self.bandwidth_bps);
        Nanos::try_from(ns).unwrap_or(Nanos::MAX)
    }

    /// Reserves the link for `bytes` starting no earlier than `now`.
    /// Returns the time the last bit leaves the wire at the far end
    /// (transmission + propagation), accounting for earlier reservations.
    /// A link has one writer at a time, as the clock its senders charge
    /// does ([`VirtualClock`](crate::VirtualClock)): a load and a store.
    pub fn reserve(&self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.busy_until.load(Ordering::Relaxed).max(now);
        let done = start.saturating_add(self.wire_ns(bytes));
        self.busy_until.store(done, Ordering::Relaxed);
        done.saturating_add(self.propagation_ns())
    }

    /// Forgets prior reservations (between benchmark repetitions).
    pub fn reset(&self) {
        self.busy_until.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes() {
        let link = Link::paper_wan("wan");
        assert!(link.wire_ns(2_000_000) > 2 * link.wire_ns(999_000));
        assert_eq!(link.wire_ns(0), 0);
    }

    /// Regression: the product saturated `u64` past ≈ 2.3 GB of framed
    /// bytes, so 3 GB reported ×0.74 of its wire time and 4 GB ×0.55.
    #[test]
    fn wire_time_stays_linear_past_two_gigabytes() {
        let link = Arc::clone(crate::Testbed::paper().link_between(0, 1));
        let two = link.wire_ns(2_000_000_000) as f64;
        for gb in [3, 4] {
            let t = link.wire_ns(gb * 1_000_000_000) as f64;
            let ratio = t / (two * gb as f64 / 2.0);
            assert!((ratio - 1.0).abs() < 1e-6, "{gb} GB: {t} ns, ×{ratio} of linear");
        }
    }

    #[test]
    fn reserve_saturates_at_the_end_of_virtual_time() {
        let link = Link::paper_wan("wan");
        assert_eq!(link.reserve(Nanos::MAX - 1, 1_000_000), Nanos::MAX);
    }

    #[test]
    fn hundred_mb_takes_about_eight_seconds_on_paper_wan() {
        let link = Link::paper_wan("wan");
        let t = link.wire_ns(100_000_000);
        assert!((8.0..9.0).contains(&(t as f64 / 1e9)), "{t}");
    }

    #[test]
    fn loopback_is_orders_of_magnitude_faster() {
        let wan = Link::paper_wan("wan");
        let lo = Link::loopback("lo");
        assert!(wan.wire_ns(1 << 20) > 100 * lo.wire_ns(1 << 20));
    }

    #[test]
    fn reservations_serialize_bandwidth() {
        let link = Link::paper_wan("wan");
        let a = link.reserve(0, 1_000_000);
        let b = link.reserve(0, 1_000_000);
        // Second transfer starts after the first's transmission finishes.
        assert!(b >= a + link.wire_ns(1_000_000) - link.propagation_ns());
    }

    #[test]
    fn reserve_includes_propagation() {
        let link = Link::paper_wan("wan");
        let done = link.reserve(0, 0);
        assert_eq!(done, link.propagation_ns());
    }

    #[test]
    fn reset_clears_backlog() {
        let link = Link::paper_wan("wan");
        link.reserve(0, 10_000_000);
        link.reset();
        let done = link.reserve(0, 1500);
        assert!(done < 1_000_000 + link.propagation_ns());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        Link::new("bad", 0, 0, 1500);
    }
}
