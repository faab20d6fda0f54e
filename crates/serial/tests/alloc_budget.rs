//! A batch of records costs one allocation per record, not one per field:
//! the decoders and the generator share the five key strings across all
//! records. Counted with a test-only global allocator; this file holds
//! one test so nothing else allocates on the counting thread.
//!
//! With a `String` per key (before `Value::Map` keyed on `Arc<str>`) the
//! three counts below were 24 003, 24 001 and 24 012 — six allocations
//! per record, five of them keys — against 4 008, 4 009 and 4 020 now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roadrunner_serial::payload::{Payload, PayloadKind};
use roadrunner_serial::{binary, text};

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

/// What `work` returns, and how many times it allocated.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let made = work();
    (made, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_sensor_batch_allocates_once_per_record() {
    const SIZE: usize = 128_000;
    let (sensor, synth) = counted(|| Payload::synthetic(PayloadKind::SensorRecords, 1, SIZE));
    let records = sensor.value().as_list().expect("a list of records").len() as u64;
    assert_eq!(records, 4_000);

    let document = text::to_text(sensor.value());
    let packed = binary::to_binary(sensor.value());
    let (from_text, text_allocs) = counted(|| text::from_text(&document));
    let (from_binary, binary_allocs) = counted(|| binary::from_binary(&packed));
    assert_eq!(from_text.as_ref(), Ok(sensor.value()));
    assert_eq!(from_binary.as_ref(), Ok(sensor.value()));

    // One entry vector per record; beyond that the flat buffer, the
    // record list, the five keys and — decoding — the key cache.
    assert!(synth <= records + 16, "synthetic: {synth} allocations");
    assert!(binary_allocs <= records + 16, "from_binary: {binary_allocs} allocations");
    // The text document does not say how long its list is, so the list
    // doubles its way up: 11 more steps to hold 4 000 records.
    assert!(text_allocs <= records + 16 + 11, "from_text: {text_allocs} allocations");
}
