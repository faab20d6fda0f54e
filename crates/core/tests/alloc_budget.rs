//! The real plane's fixed path allocates a known, small number of times
//! per edge: the kernel buffers a socket send copies into and the
//! integrity read-back — nothing per name looked up, nothing for the
//! frame header and nothing for a guest call's results. Counted with a test-only global
//! allocator; this file holds one test so nothing else allocates on the
//! counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner::{guest, Mode, RoadrunnerPlane, ShimConfig};
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::encode;

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

fn bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
    Arc::new(
        FunctionBundle::wasm(name, encode::encode(&module))
            .with_workflow("wf")
            .with_tenant("t"),
    )
}

#[test]
fn a_warm_4_kib_edge_allocates_a_pinned_number_of_times_per_mode() {
    const OPS: u64 = 200;
    let mut plane = RoadrunnerPlane::new(Arc::new(Testbed::paper()), ShimConfig::default());
    plane
        .deploy(0, "src", bundle("src", guest::producer()), "produce", false)
        .unwrap();
    plane
        .deploy_into_shared_vm(
            "src",
            "user",
            bundle("user", guest::consumer()),
            "consume",
            true,
        )
        .unwrap();
    plane
        .deploy(
            0,
            "kernel",
            bundle("kernel", guest::consumer()),
            "consume",
            true,
        )
        .unwrap();
    plane
        .deploy(
            1,
            "network",
            bundle("network", guest::consumer()),
            "consume",
            true,
        )
        .unwrap();
    let payload = Bytes::from(vec![7u8; 4_096]);

    // (mode, sink, allocations per warm edge). Before the fixed path
    // stopped hashing names and staging the header: 5 / 12 / 14; before
    // guest calls lent their results instead of returning a `Vec`: 5 / 9 /
    // 11.
    for (mode, sink, pinned) in [
        (Mode::UserSpace, "user", 2),
        (Mode::KernelSpace, "kernel", 6),
        (Mode::Network, "network", 8),
    ] {
        // Warm-up: the connection, the guest heap and every queue grow
        // to their steady size.
        for _ in 0..3 {
            assert_eq!(plane.transfer_edge("src", sink, &payload).unwrap(), payload);
        }
        assert_eq!(plane.last_breakdown().map(|b| b.mode), Some(mode));
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..OPS {
            plane.transfer_edge("src", sink, &payload).unwrap();
        }
        let spent = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            spent,
            pinned * OPS,
            "{mode}: {} allocations per edge",
            spent as f64 / OPS as f64
        );
    }
}
