//! A kernel-space edge through the plane's route holds one chunk in the
//! socket at a time: the host heap grows by at most about one
//! `io_chunk` while a 4 MiB payload crosses. Running `send` to
//! completion before `recv` parks the whole payload in kernel buffers.
//! Live heap bytes are tracked with a test-only global allocator; this
//! file holds one test so nothing else allocates on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use roadrunner::{guest, kernelspace, MemoryRegion, Shim, ShimConfig};
use roadrunner_platform::FunctionBundle;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::Testbed;
use roadrunner_wasm::encode;
use roadrunner_wasm::types::Value;

struct Tracking;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread (frees of memory
    /// another thread allocated can take it below zero).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is arithmetic on const-initialised, destructor-free
// thread-locals, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// How far live heap bytes rose above their starting level during `f`.
fn peak_growth(f: impl FnOnce()) -> i64 {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    f();
    PEAK.with(Cell::get) - base
}

fn shim(bed: &Testbed, name: &str, module: roadrunner_wasm::Module) -> Shim {
    let bundle = FunctionBundle::wasm(name, encode::encode(&module))
        .with_workflow("wf")
        .with_tenant("t");
    let mut shim = Shim::new(name, bed.node(0), ShimConfig::default().with_load_costs(false));
    shim.load_module(name, Arc::new(bundle)).unwrap();
    shim
}

/// Delivers `payload` into `a` and lets it hand the region over.
fn produce(shim: &mut Shim, payload: &[u8]) {
    let region = shim.write_memory_host("a", payload).unwrap();
    let args = [Value::I32(region.addr as i32), Value::I32(region.len as i32)];
    shim.invoke("a", "produce", &args).unwrap();
}

#[test]
fn a_lockstep_edge_keeps_one_chunk_in_flight_and_send_then_recv_queues_the_payload() {
    const LEN: usize = 4 << 20;
    let bed = Testbed::paper();
    let chunk = bed.cost().io_chunk_bytes as i64;
    let mut src = shim(&bed, "a", guest::producer());
    let mut dst = shim(&bed, "b", guest::consumer());
    let (tx, rx) = UnixConn::pair();
    let payload = vec![0x3Cu8; LEN];
    let check_and_free = |dst: &mut Shim, landed: MemoryRegion| {
        assert_eq!(&dst.peek_memory("b", landed).unwrap()[..], &payload[..]);
        dst.deallocate("b", landed).unwrap();
    };

    // Warm-up: both guest memories grow to hold the payload on first use.
    produce(&mut src, &payload);
    let landed = kernelspace::move_outbox(&mut src, "a", &mut dst, "b", &tx, &rx).unwrap();
    check_and_free(&mut dst, landed);

    // Measured 65 576 bytes: one 64 KiB kernel buffer and the header's.
    produce(&mut src, &payload);
    let mut landed = MemoryRegion::new(0, 0);
    let growth = peak_growth(|| {
        landed = kernelspace::move_outbox(&mut src, "a", &mut dst, "b", &tx, &rx).unwrap();
    });
    check_and_free(&mut dst, landed);
    assert!(growth <= 2 * chunk + 4096, "lockstep: heap grew {growth} bytes");

    produce(&mut src, &payload);
    let growth = peak_growth(|| {
        kernelspace::send(&mut src, "a", &tx).unwrap();
        landed = kernelspace::recv(&mut dst, "b", &rx).unwrap();
    });
    check_and_free(&mut dst, landed);
    assert!(growth >= LEN as i64, "send then recv: heap grew only {growth} bytes");
}
