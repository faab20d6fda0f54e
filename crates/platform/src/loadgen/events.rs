//! The engine's two event sources, merged in one deterministic order.

use roadrunner_vkernel::sched::EventQueue;
use roadrunner_vkernel::Nanos;

/// Events in ascending time order, FIFO among equals — exactly the
/// order one [`EventQueue`] fed the seeded events first and the pushed
/// ones after would pop, without sifting the seeded ones through a heap.
///
/// Events known before the run starts (`seeded`: kills, then arrivals)
/// are sorted once, stably, and consumed by cursor; only events created
/// during the run go through the heap. At equal instants the seeded
/// event wins: every seeded event was inserted before every pushed one,
/// so that is insertion order.
pub(super) struct MergedEvents<T> {
    seeded: std::iter::Peekable<std::vec::IntoIter<(Nanos, T)>>,
    pushed: EventQueue<T>,
}

impl<T> MergedEvents<T> {
    /// `seeded` in insertion order, any time order.
    pub(super) fn new(mut seeded: Vec<(Nanos, T)>) -> Self {
        seeded.sort_by_key(|&(at, _)| at);
        Self { seeded: seeded.into_iter().peekable(), pushed: EventQueue::new() }
    }

    /// Enqueues an event created during the run.
    pub(super) fn push(&mut self, at: Nanos, item: T) {
        self.pushed.push(at, item);
    }

    /// Removes and returns the earliest event.
    pub(super) fn pop(&mut self) -> Option<(Nanos, T)> {
        match (self.seeded.peek(), self.pushed.peek_time()) {
            (Some(&(seeded_at, _)), Some(pushed_at)) if pushed_at < seeded_at => self.pushed.pop(),
            (Some(_), _) => self.seeded.next(),
            (None, _) => self.pushed.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The merge pops what a single queue pops: arbitrary unsorted
        /// seeded lists with duplicate instants, and pushes made during
        /// the drain (some at the instant being popped, some earlier
        /// than it, some colliding with seeded instants).
        #[test]
        fn the_merge_pops_exactly_what_one_event_queue_pops(
            seeded in proptest::collection::vec(0u64..40, 0..60),
            pushes in proptest::collection::vec((0usize..80, 0u64..50), 0..60),
        ) {
            let seeded: Vec<(Nanos, usize)> =
                seeded.into_iter().enumerate().map(|(id, at)| (at, id)).collect();
            let mut single = EventQueue::new();
            for &(at, id) in &seeded {
                single.push(at, id);
            }
            let mut merged = MergedEvents::new(seeded.clone());
            // Push `(at, id)` right after the `after`-th pop, into both.
            let mut next_id = seeded.len();
            let mut pops = 0usize;
            loop {
                for &(after, at) in &pushes {
                    if after == pops {
                        single.push(at, next_id);
                        merged.push(at, next_id);
                        next_id += 1;
                    }
                }
                let (a, b) = (single.pop(), merged.pop());
                prop_assert_eq!(a, b, "pop {} differs", pops);
                if a.is_none() && pushes.iter().all(|&(after, _)| after <= pops) {
                    break;
                }
                pops += 1;
            }
        }
    }

    #[test]
    fn seeded_events_win_ties_and_keep_their_insertion_order() {
        let mut events = MergedEvents::new(vec![(20, "kill"), (10, "a0"), (20, "a1"), (10, "a2")]);
        events.push(10, "late-10");
        events.push(20, "late-20");
        let drained: Vec<_> = std::iter::from_fn(|| events.pop()).collect();
        assert_eq!(
            drained,
            vec![
                (10, "a0"),
                (10, "a2"),
                (10, "late-10"),
                (20, "kill"),
                (20, "a1"),
                (20, "late-20"),
            ]
        );
    }
}
