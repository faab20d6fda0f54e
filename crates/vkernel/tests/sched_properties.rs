//! Property-based tests for the scheduling primitives: timelines must be
//! monotone and work-conserving under arbitrary reservation sequences,
//! and elastic resizing must preserve surviving reservations.

use proptest::prelude::*;
use roadrunner_vkernel::sched::{SchedResources, Timeline};

proptest! {
    /// `free_at` never moves backwards under any reservation sequence:
    /// reserving work can only keep lanes busy longer.
    #[test]
    fn free_at_is_monotone_under_reservations(
        capacity in 1usize..6,
        ops in proptest::collection::vec((0u64..50_000, 0u64..10_000), 1..60),
    ) {
        let mut tl = Timeline::new("t", capacity);
        let mut last_free = tl.free_at();
        for (earliest, duration) in ops {
            let start = tl.reserve(earliest, duration);
            // The grant honors the caller's ready time.
            prop_assert!(start >= earliest || duration == 0);
            let free = tl.free_at();
            prop_assert!(
                free >= last_free,
                "free_at went backwards: {last_free} -> {free}"
            );
            last_free = free;
            // busy_until bounds free_at from above.
            prop_assert!(tl.busy_until() >= free);
        }
    }

    /// Total reserved time equals the sum of nonzero durations, and the
    /// makespan never exceeds the fully serialized schedule.
    #[test]
    fn reserved_time_accounts_every_duration(
        capacity in 1usize..5,
        ops in proptest::collection::vec((0u64..1_000, 0u64..5_000), 1..40),
    ) {
        let mut tl = Timeline::new("t", capacity);
        let mut total = 0u64;
        let mut horizon = 0u64;
        for (earliest, duration) in ops {
            tl.reserve(earliest, duration);
            total += duration;
            horizon = horizon.max(earliest) + duration;
        }
        prop_assert_eq!(tl.reserved_ns(), total);
        prop_assert!(tl.busy_until() <= horizon);
    }

    /// Growing and then shrinking a mesh preserves every surviving
    /// pair's reservations and retires the rest — total link-reserved
    /// time is invariant under resizing.
    #[test]
    fn mesh_resizing_conserves_reserved_time(
        base in 2usize..5,
        grow in 0usize..3,
        reserves in proptest::collection::vec((0usize..6, 0usize..6, 1u64..10_000), 0..30),
    ) {
        let cores: Vec<u32> = vec![2; base];
        let mut res = SchedResources::mesh(&cores);
        for _ in 0..grow {
            res.add_node(2);
        }
        let n = res.node_count();
        let mut expected = 0u64;
        for (a, b, d) in reserves {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            res.link_between(a, b).reserve(0, d);
            expected += d;
        }
        while res.node_count() > 2 {
            res.remove_last_node();
        }
        prop_assert_eq!(res.link_reserved(), expected);
    }
}
