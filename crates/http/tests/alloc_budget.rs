//! A received body lands with one copy: each segment goes from its
//! kernel buffer straight into the reader's, and the body is handed out
//! as a slice of that buffer. A head alone reserves nothing, whatever
//! `content-length` it states. Counted with a test-only global allocator;
//! this file holds one test so nothing else allocates on the counting
//! thread.
//!
//! Before bodies were sliced out of the reader, a receive made two
//! allocations of at least the body's size: the reader's buffer, and the
//! body copied out of it (and each segment was copied once more, into a
//! buffer of its own, on the way into the reader).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use roadrunner_http::parse::MAX_BODY_BYTES;
use roadrunner_http::{read_request, send_request, MessageReader, Request};
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::{CostModel, VirtualClock};

struct Counting;

thread_local! {
    /// Allocations of at least this many bytes are counted.
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= THRESHOLD.with(Cell::get) {
        LARGE.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a read and a bump of const-initialised, destructor-free
// thread-locals, which neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` returns, and how many allocations of at least `size`
/// bytes it made.
fn counted<T>(size: usize, work: impl FnOnce() -> T) -> (T, u64) {
    THRESHOLD.with(|t| t.set(size));
    let before = LARGE.with(Cell::get);
    let made = work();
    let large = LARGE.with(Cell::get) - before;
    THRESHOLD.with(|t| t.set(usize::MAX));
    (made, large)
}

#[test]
fn a_body_lands_with_one_copy_and_a_head_alone_reserves_nothing() {
    const BODY: usize = 500_000;
    // 4 KiB segments: the body arrives in 123 of them.
    let cost = Arc::new(CostModel { io_chunk_bytes: 4 * 1024, ..CostModel::paper_testbed() });
    let clock = VirtualClock::new();
    let client = Sandbox::detached("client", clock.clone(), Arc::clone(&cost));
    let server = Sandbox::detached("server", clock, cost);
    let (tx, rx) = UnixConn::pair();
    let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
    let request = Request::post("/invoke", body.clone());
    let wire = request.to_bytes().len();
    send_request(&tx, &client, &request).expect("sends");

    let copied = server.account().copied_bytes();
    let (received, large) = counted(BODY, || read_request(&rx, &server));
    let received = received.expect("a whole request");
    assert_eq!((received.method.as_str(), received.path.as_str()), ("POST", "/invoke"));
    assert!(received.body[..] == body[..], "the body lands intact");
    // The one copy is the modelled kernel→user one: head plus body.
    assert_eq!(server.account().copied_bytes() - copied, wire as u64);
    // The reader's buffer, grown to hold the message, and nothing else
    // that size: the body is a slice of it.
    assert_eq!(large, 1, "allocations of a body's size");

    // A head that announces the largest body the reader accepts makes it
    // wait for that body, and reserve nothing for it.
    let head = format!("POST /f HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\nab");
    let mut reader = MessageReader::new();
    let (polled, large) = counted(4 * 1024, || {
        reader.feed(head.as_bytes());
        reader.try_request()
    });
    assert_eq!((polled, large), (Ok(None), 0));
}
