//! Outage schedules: deterministic link/node up–down windows.
//!
//! The paper's testbed is immortal — links and nodes never fail — so the
//! claim that Roadrunner "optimizes communication regardless of the
//! scheduler's decisions" (§2.2) goes untested in exactly the regime
//! where middleware earns its keep: FunLess-style private-edge clusters
//! where one node dying is a big deal. An [`OutageSchedule`] makes the
//! virtual cluster fallible without giving up determinism: every window
//! is fixed up front (explicitly or derived from a seed), so two runs
//! with the same schedule fail at the same virtual nanoseconds.
//!
//! Windows are keyed by **stable node ids**, not node indices: the
//! autoscaler adds and removes nodes mid-run, shifting indices, while a
//! schedule written before the run must keep naming the same physical
//! machine. [`crate::sched::SchedResources`] assigns each node a stable
//! id at construction (`0..n`) and every node added later the next
//! fresh id; `remove_node` retires the id with the node.
//!
//! A window is half-open `[from_ns, until_ns)`: the resource is down at
//! `from_ns` and back up at `until_ns`. A node that is down takes every
//! link touching it down too. [`OutageSchedule::transitions_until`]
//! counts window boundaries that have passed — the *link-health epoch*
//! the transfer memo mixes into its keys so entries recorded under one
//! health regime never replay under another.

use std::collections::BTreeMap;

use crate::Nanos;

/// One half-open down window `[from_ns, until_ns)` in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First nanosecond the resource is down.
    pub from_ns: Nanos,
    /// First nanosecond the resource is back up (`Nanos::MAX` = never).
    pub until_ns: Nanos,
}

impl OutageWindow {
    /// Whether `at` falls inside the window.
    pub fn covers(&self, at: Nanos) -> bool {
        self.from_ns <= at && at < self.until_ns
    }
}

/// A deterministic schedule of per-node and per-link down windows.
///
/// Keys are **stable node ids** (see the module docs); link windows are
/// stored under the normalized `(min, max)` id pair, so
/// `link_down(3, 1, ..)` and queries for `(1, 3)` agree. Both maps are
/// ordered: the load engine asks them on every edge, and a lookup among
/// a handful of ids is a few integer compares where SipHash would hash
/// the key first. Iteration — `Debug` output included — follows id
/// order.
#[derive(Debug, Clone, Default)]
pub struct OutageSchedule {
    node_windows: BTreeMap<u64, Vec<OutageWindow>>,
    link_windows: BTreeMap<(u64, u64), Vec<OutageWindow>>,
}

fn pair(a: u64, b: u64) -> (u64, u64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// splitmix64 — the same tiny PRNG the load generator's Poisson
/// sampler uses, so seeded schedules are reproducible everywhere.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl OutageSchedule {
    /// An empty schedule: nothing ever fails. Running the stack with an
    /// empty schedule is byte-identical to running it without one.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the schedule contains no windows at all.
    pub fn is_empty(&self) -> bool {
        self.node_windows.values().all(Vec::is_empty)
            && self.link_windows.values().all(Vec::is_empty)
    }

    /// Marks node `id` down over `[from_ns, until_ns)` (chainable).
    pub fn node_down(mut self, id: u64, from_ns: Nanos, until_ns: Nanos) -> Self {
        if from_ns < until_ns {
            self.node_windows.entry(id).or_default().push(OutageWindow { from_ns, until_ns });
        }
        self
    }

    /// Marks node `id` down forever from `from_ns` — a kill.
    pub fn node_killed(self, id: u64, from_ns: Nanos) -> Self {
        self.node_down(id, from_ns, Nanos::MAX)
    }

    /// Marks the link between nodes `a` and `b` down over
    /// `[from_ns, until_ns)` (chainable; the pair is normalized).
    pub fn link_down(mut self, a: u64, b: u64, from_ns: Nanos, until_ns: Nanos) -> Self {
        if from_ns < until_ns {
            self.link_windows
                .entry(pair(a, b))
                .or_default()
                .push(OutageWindow { from_ns, until_ns });
        }
        self
    }

    /// A deterministic flap schedule derived from `seed`: within
    /// `[0, horizon_ns)`, each of `flaps` windows takes one pseudo-random
    /// link from `node_ids` down for `down_ns`, with start times spread
    /// pseudo-uniformly over the horizon. Same seed, same schedule.
    pub fn seeded_link_flaps(
        seed: u64,
        node_ids: &[u64],
        horizon_ns: Nanos,
        flaps: usize,
        down_ns: Nanos,
    ) -> Self {
        let mut out = Self::new();
        if node_ids.len() < 2 || horizon_ns == 0 {
            return out;
        }
        let mut state = seed;
        for _ in 0..flaps {
            let a = node_ids[(splitmix64(&mut state) % node_ids.len() as u64) as usize];
            let mut b = a;
            while b == a {
                b = node_ids[(splitmix64(&mut state) % node_ids.len() as u64) as usize];
            }
            let from = splitmix64(&mut state) % horizon_ns;
            out = out.link_down(a, b, from, from.saturating_add(down_ns));
        }
        out
    }

    /// The union of this schedule and `other`: every window of both.
    #[must_use]
    pub fn merged_with(mut self, other: Self) -> Self {
        for (id, ws) in other.node_windows {
            self.node_windows.entry(id).or_default().extend(ws);
        }
        for (key, ws) in other.link_windows {
            self.link_windows.entry(key).or_default().extend(ws);
        }
        self
    }

    /// Whether node `id` is down at virtual time `at`.
    pub fn node_down_at(&self, id: u64, at: Nanos) -> bool {
        self.node_windows
            .get(&id)
            .is_some_and(|ws| ws.iter().any(|w| w.covers(at)))
    }

    /// Whether the link between `a` and `b` is down at `at` — true when
    /// the pair has a covering window *or either endpoint node* is down.
    pub fn link_down_at(&self, a: u64, b: u64, at: Nanos) -> bool {
        self.node_down_at(a, at)
            || self.node_down_at(b, at)
            || self
                .link_windows
                .get(&pair(a, b))
                .is_some_and(|ws| ws.iter().any(|w| w.covers(at)))
    }

    /// The number of window boundaries (starts and finite ends) at or
    /// before `at` — the link-health epoch. It is 0 before the first
    /// outage, bumps on every up→down and down→up transition, and never
    /// decreases, so memo entries keyed on it can only replay within one
    /// uninterrupted health regime.
    pub fn transitions_until(&self, at: Nanos) -> u64 {
        let count = |ws: &Vec<OutageWindow>| -> u64 {
            ws.iter()
                .map(|w| {
                    u64::from(w.from_ns <= at) + u64::from(w.until_ns != Nanos::MAX && w.until_ns <= at)
                })
                .sum()
        };
        self.node_windows.values().map(count).sum::<u64>()
            + self.link_windows.values().map(count).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_never_fails() {
        let s = OutageSchedule::new();
        assert!(s.is_empty());
        assert!(!s.node_down_at(0, 0));
        assert!(!s.link_down_at(0, 1, u64::MAX - 1));
        assert_eq!(s.transitions_until(Nanos::MAX), 0);
    }

    #[test]
    fn windows_are_half_open() {
        let s = OutageSchedule::new().node_down(7, 100, 200);
        assert!(!s.node_down_at(7, 99));
        assert!(s.node_down_at(7, 100));
        assert!(s.node_down_at(7, 199));
        assert!(!s.node_down_at(7, 200));
        assert!(!s.node_down_at(8, 150), "other nodes unaffected");
    }

    #[test]
    fn link_pair_is_normalized_and_inherits_node_outages() {
        let s = OutageSchedule::new().link_down(3, 1, 10, 20).node_down(5, 50, 60);
        assert!(s.link_down_at(1, 3, 15));
        assert!(s.link_down_at(3, 1, 15));
        assert!(!s.link_down_at(1, 3, 25));
        // A down node takes every link touching it down.
        assert!(s.link_down_at(5, 0, 55));
        assert!(s.link_down_at(0, 5, 55));
        assert!(!s.link_down_at(0, 1, 55));
    }

    #[test]
    fn kill_never_ends() {
        let s = OutageSchedule::new().node_killed(2, 1_000);
        assert!(!s.node_down_at(2, 999));
        assert!(s.node_down_at(2, Nanos::MAX - 1));
    }

    #[test]
    fn transitions_count_window_boundaries() {
        let s = OutageSchedule::new().node_down(0, 100, 200).link_down(0, 1, 150, 250);
        assert_eq!(s.transitions_until(0), 0);
        assert_eq!(s.transitions_until(100), 1); // node down
        assert_eq!(s.transitions_until(150), 2); // link down
        assert_eq!(s.transitions_until(200), 3); // node up
        assert_eq!(s.transitions_until(300), 4); // link up
        // A kill's MAX end never counts as a transition.
        let k = OutageSchedule::new().node_killed(9, 10);
        assert_eq!(k.transitions_until(Nanos::MAX), 1);
    }

    #[test]
    fn seeded_flaps_are_deterministic_and_span_distinct_endpoints() {
        let ids = [0u64, 1, 2, 3];
        let a = OutageSchedule::seeded_link_flaps(42, &ids, 1_000_000, 8, 5_000);
        let b = OutageSchedule::seeded_link_flaps(42, &ids, 1_000_000, 8, 5_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.is_empty());
        // Different seed, different schedule (with overwhelming odds).
        let c = OutageSchedule::seeded_link_flaps(43, &ids, 1_000_000, 8, 5_000);
        let at = |s: &OutageSchedule| {
            (0..1_000_000u64)
                .step_by(1_000)
                .filter(|&t| {
                    ids.iter().any(|&x| ids.iter().any(|&y| x < y && s.link_down_at(x, y, t)))
                })
                .count()
        };
        assert!(at(&a) > 0);
        let _ = at(&c);
    }

    #[test]
    fn degenerate_seeded_inputs_yield_empty_schedules() {
        assert!(OutageSchedule::seeded_link_flaps(1, &[0], 1_000, 4, 10).is_empty());
        assert!(OutageSchedule::seeded_link_flaps(1, &[0, 1], 0, 4, 10).is_empty());
    }
}
