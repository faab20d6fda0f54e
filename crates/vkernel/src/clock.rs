//! Virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Nanos;

/// A shared, monotonically advancing virtual clock.
///
/// All simulated work advances this clock instead of consuming wall time,
/// which makes multi-hundred-megabyte experiments finish in milliseconds
/// and renders every run bit-for-bit reproducible.
///
/// Cloning a `VirtualClock` yields a handle to the *same* clock.
///
/// **One writer.** A clock is advanced by one thread at a time: each
/// simulation owns its clock (every job of a parallel sweep builds its
/// own testbed, as the module docs of `roadrunner_platform::sweep`, in
/// `sweep.rs`, require), and two threads charging one clock would
/// already make its readings depend on their interleaving. So an advance
/// is a plain load and store, not a locked read-modify-write; the type
/// stays `Sync`, and a concurrent writer could lose an advance but never
/// tear a reading.
///
/// Time ends at `Nanos::MAX`: an advance past it stays there.
///
/// ```
/// # use roadrunner_vkernel::VirtualClock;
/// let clock = VirtualClock::new();
/// let handle = clock.clone();
/// clock.advance(500);
/// assert_eq!(handle.now(), 500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta` nanoseconds, saturating at the end of
    /// time, and returns the new time.
    #[inline]
    pub fn advance(&self, delta: Nanos) -> Nanos {
        let now = self.now().saturating_add(delta);
        self.now.store(now, Ordering::Relaxed);
        now
    }

    /// Moves the clock forward to `t` if `t` is later than now; returns the
    /// (possibly unchanged) current time. Used when merging parallel
    /// branches whose completion times were computed independently.
    #[inline]
    pub fn advance_to(&self, t: Nanos) -> Nanos {
        let now = self.now().max(t);
        self.now.store(now, Ordering::Relaxed);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let clock = VirtualClock::new();
        clock.advance(10);
        clock.advance(5);
        assert_eq!(clock.now(), 15);
    }

    #[test]
    fn clones_share_state() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now(), 7);
        b.advance(3);
        assert_eq!(a.now(), 10);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let clock = VirtualClock::new();
        clock.advance(100);
        assert_eq!(clock.advance_to(50), 100);
        assert_eq!(clock.now(), 100);
        assert_eq!(clock.advance_to(250), 250);
        assert_eq!(clock.now(), 250);
    }

    /// Regression: `advance` wrapped past `Nanos::MAX` (a release build
    /// ran time backwards to a small value; a debug build panicked).
    #[test]
    fn advance_saturates_at_the_end_of_virtual_time() {
        let clock = VirtualClock::new();
        clock.advance_to(Nanos::MAX - 5);
        assert_eq!(clock.advance(10), Nanos::MAX);
        assert_eq!(clock.advance(1), Nanos::MAX);
        assert_eq!(clock.advance_to(3), Nanos::MAX);
        assert_eq!(clock.now(), Nanos::MAX);
    }
}
