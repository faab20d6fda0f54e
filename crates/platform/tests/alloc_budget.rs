//! The load engine's steady state allocates per *instance*, never per
//! edge: the placement policy's assignment `Vec` (kept in the
//! instance's outcome) plus amortised growth of the outcome list and
//! the event heap. Counted with a test-only global allocator; this file
//! holds one test so nothing else allocates on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use roadrunner_platform::{
    loadgen, AdmissionConfig, ArrivalProcess, Cluster, Controls, DataPlane, MemoizedPlane,
    OpenLoop, PackThenSpill, PlatformError, TransferTiming, WorkflowSpec,
};
use roadrunner_vkernel::{SchedResources, VirtualClock};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a bump of a const-initialised, destructor-free
// thread-local, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three phases per edge, transformed payload: enough for the memo to
/// have something to replay.
struct Plane {
    clock: VirtualClock,
}

impl DataPlane for Plane {
    fn transfer_placed(
        &mut self,
        _from: &str,
        _to: &str,
        p: Bytes,
        _src_node: Option<usize>,
        _dst_node: Option<usize>,
    ) -> Result<(Bytes, Option<TransferTiming>), PlatformError> {
        let timing = TransferTiming { prepare_ns: 200, transfer_ns: 1_000, consume_ns: 300 };
        self.clock.advance(timing.total_ns());
        let received = Bytes::from(p.iter().map(|b| b.wrapping_add(1)).collect::<Vec<u8>>());
        Ok((received, Some(timing)))
    }
}

#[test]
fn a_warm_memoized_instance_costs_at_most_three_allocations() {
    const INSTANCES: usize = 1_000;
    let spec = WorkflowSpec::sequence(
        "pipeline",
        "t",
        ["src".to_owned(), "relay".to_owned(), "sink".to_owned()],
    );
    let load = |instances| OpenLoop {
        spec: spec.clone(),
        payload: Bytes::from(vec![7u8; 4_096]),
        arrivals: ArrivalProcess::Uniform { interval_ns: 2_000 },
        instances,
        admission: AdmissionConfig::warm(),
    };
    let clock = VirtualClock::new();
    let mut plane = Plane { clock: clock.clone() };
    let mut memo = MemoizedPlane::new(&mut plane, clock.clone());
    let mut run = |load: &OpenLoop| {
        let cluster = Cluster {
            plane: &mut memo,
            clock: &clock,
            resources: &mut SchedResources::mesh(&[4, 4]),
            policy: &mut PackThenSpill::new(10_000),
        };
        let before = ALLOCATIONS.with(Cell::get);
        let run = loadgen::run(load, cluster, Controls::default()).unwrap();
        let spent = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(run.completed(), load.instances);
        spent
    };
    // One instance fills the memo (its two edges run for real) and pays
    // the run's fixed costs; the long run pays those once more plus its
    // instances.
    let fixed = run(&load(1));
    let spent = run(&load(INSTANCES));
    assert_eq!(memo.misses(), 2, "both edges of every later instance replay");
    assert_eq!(memo.hits(), 2 * INSTANCES as u64);
    let per_instance = spent as f64 / INSTANCES as f64;
    assert!(
        per_instance <= 3.0,
        "{spent} allocations for {INSTANCES} warm instances ({per_instance:.2} each; a 1-instance run makes {fixed})",
    );
}
