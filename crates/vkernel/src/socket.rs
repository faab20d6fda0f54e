//! Kernel stream sockets: one type behind both of the paper's kernel
//! transports.
//!
//! Kernel-space mode (paper §4.2) moves raw bytes between two co-located
//! shims over a Unix-domain socket; network mode (§4.3) moves them over
//! TCP. Both are the same stream socket: a send pays the syscalls and the
//! user→kernel copy, a receive pays the kernel→user copy plus the
//! receiver's wakeup context switch, and a zero-copy lane
//! ([`Endpoint::send_spliced`] / [`Endpoint::recv_spliced`]) models
//! `splice` between a pipe and the socket — page references move and only
//! page-map costs are charged. Roadrunner's virtual data hose rides that
//! lane.
//!
//! The one difference is the wire. A TCP connection runs over a [`Link`]:
//! a send reserves the link at the sender's clock and stamps each segment
//! with its arrival, and a receive waits (advances the clock without
//! consuming CPU) until that arrival. A Unix pair has no link, so nothing
//! but the charges moves the clock. [`UnixConn::pair`](crate::unix::UnixConn::pair)
//! and [`TcpConn::establish`](crate::tcp::TcpConn::establish) are the only
//! ways to connect.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::VkError;
use crate::net::Link;
use crate::node::Sandbox;
use crate::Nanos;

#[derive(Debug)]
struct Segment {
    data: Bytes,
    /// When the segment has crossed the link; 0 on a Unix pair, whose
    /// receivers never wait.
    arrives_at: Nanos,
}

#[derive(Debug, Default)]
struct Direction {
    queue: VecDeque<Segment>,
    closed: bool,
}

#[derive(Debug)]
struct Shared {
    /// Direction 0: endpoint A → endpoint B. Direction 1: B → A.
    dirs: [Direction; 2],
    /// The link segments cross: `None` for a Unix pair.
    link: Option<Arc<Link>>,
}

/// One endpoint of a connected stream socket, Unix or TCP.
///
/// Created in pairs by [`UnixConn::pair`](crate::unix::UnixConn::pair) and
/// [`TcpConn::establish`](crate::tcp::TcpConn::establish); endpoints are
/// `Send` and can be handed to different shims.
#[derive(Debug)]
pub struct Endpoint {
    shared: Arc<Mutex<Shared>>,
    /// Index of the direction this endpoint *sends* on.
    tx: usize,
}

impl Endpoint {
    /// A connected pair whose segments cross `link`, or a Unix pair.
    pub(crate) fn pair(link: Option<Arc<Link>>) -> (Endpoint, Endpoint) {
        let shared = Arc::new(Mutex::new(Shared {
            dirs: [Direction::default(), Direction::default()],
            link,
        }));
        (
            Endpoint { shared: Arc::clone(&shared), tx: 0 },
            Endpoint { shared, tx: 1 },
        )
    }

    /// Queues `segments`, `len` bytes in all, on this endpoint's sending
    /// direction after charging `caller` `charge_ns` of kernel time, and
    /// returns `len`. An empty send on an open direction is free.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if this direction was shut down, whatever
    /// `len` is.
    fn push(
        &self,
        caller: &Sandbox,
        len: usize,
        charge_ns: Nanos,
        segments: impl Iterator<Item = Bytes>,
    ) -> Result<usize, VkError> {
        let mut shared = self.shared.lock();
        let Shared { dirs, link } = &mut *shared;
        let dir = &mut dirs[self.tx];
        if dir.closed {
            return Err(VkError::Closed);
        }
        if len == 0 {
            return Ok(0);
        }
        caller.charge_kernel(charge_ns);
        let arrives_at = link.as_ref().map_or(0, |link| link.reserve(caller.clock().now(), len));
        dir.queue.extend(segments.map(|data| Segment { data, arrives_at }));
        Ok(len)
    }

    /// Sends `data`, charging `caller` for the syscalls (one per
    /// [`CostModel::io_chunk_bytes`](crate::CostModel) burst) and the
    /// user→kernel copy; on a TCP connection the transmission is
    /// scheduled on the link.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if this direction was shut down.
    pub fn send(&self, caller: &Sandbox, data: &[u8]) -> Result<usize, VkError> {
        let cost = caller.cost();
        let chunk = cost.io_chunk_bytes.max(1);
        let syscalls = data.len().div_ceil(chunk) as u64;
        let charge_ns = syscalls * cost.syscall_ns + cost.memcpy_ns(data.len());
        // The copy into kernel buffers is real: fresh storage per chunk.
        let copies = data.chunks(chunk).map(Bytes::copy_from_slice);
        let sent = self.push(caller, data.len(), charge_ns, copies)?;
        caller.account().count_copy(sent);
        Ok(sent)
    }

    /// Zero-copy send used by `splice` from a pipe into the socket: the
    /// kernel moves page references; only per-page map cost is charged.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if this direction was shut down.
    pub fn send_spliced(&self, caller: &Sandbox, data: Bytes) -> Result<usize, VkError> {
        let cost = caller.cost();
        let charge_ns = cost.syscall_ns + cost.page_map_ns_for(data.len());
        self.push(caller, data.len(), charge_ns, std::iter::once(data))
    }

    /// The next segment towards this endpoint, cut to its first `max`
    /// bytes (the rest stays queued at the head of the stream): `None` if
    /// the peer closed and the stream is drained, `Some(None)` if no data
    /// is ready.
    fn pop(&self, max: usize) -> Option<Option<Segment>> {
        let mut shared = self.shared.lock();
        let dir = &mut shared.dirs[1 - self.tx];
        match dir.queue.front_mut() {
            None if dir.closed => None,
            Some(seg) if seg.data.len() > max => {
                Some(Some(Segment { data: seg.data.split_to(max), arrives_at: seg.arrives_at }))
            }
            _ => Some(dir.queue.pop_front()),
        }
    }

    /// Receives at most `max` bytes of one buffered segment, waiting (in
    /// virtual time) until it has crossed the link, and lends them, still
    /// in their kernel buffer, to `sink` — which performs the kernel→user
    /// copy of `recv(2)` straight into wherever the bytes are to rest.
    /// What the segment holds past `max` stays at the head of the stream
    /// for the next receive. Charges that copy, the syscall and the
    /// receiver's wakeup context switch before `sink` runs. Returns
    /// `Ok(None)` if the peer closed and the stream is drained; `sink`
    /// sees an empty slice, for one syscall, if no data is ready.
    pub fn recv_with<R>(
        &self,
        caller: &Sandbox,
        max: usize,
        sink: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, VkError> {
        let Some(seg) = self.pop(max) else {
            return Ok(None);
        };
        let cost = caller.cost();
        let Some(seg) = seg else {
            caller.charge_kernel(cost.syscall_ns);
            return Ok(Some(sink(&[])));
        };
        caller.clock().advance_to(seg.arrives_at);
        caller.charge_kernel(cost.syscall_ns + cost.ctx_switch_ns + cost.memcpy_ns(seg.data.len()));
        Ok(Some(sink(&seg.data)))
    }

    /// [`recv_with`](Self::recv_with) into a fresh user buffer: returns
    /// the copied segment, `Ok(None)` if the peer closed and the stream
    /// is drained, and an empty buffer if no data is ready.
    pub fn recv(&self, caller: &Sandbox) -> Result<Option<Bytes>, VkError> {
        self.recv_with(caller, usize::MAX, |seg| {
            if seg.is_empty() {
                return Bytes::new();
            }
            caller.account().count_copy(seg.len());
            Bytes::copy_from_slice(seg)
        })
    }

    /// Zero-copy receive used by `splice` from the socket into a pipe:
    /// after the same wait as [`recv_with`](Self::recv_with), page
    /// references move — no copy, no user-space wakeup.
    pub fn recv_spliced(&self, caller: &Sandbox) -> Result<Option<Bytes>, VkError> {
        let Some(seg) = self.pop(usize::MAX) else {
            return Ok(None);
        };
        let cost = caller.cost();
        let Some(seg) = seg else {
            caller.charge_kernel(cost.syscall_ns);
            return Ok(Some(Bytes::new()));
        };
        caller.clock().advance_to(seg.arrives_at);
        caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(seg.data.len()));
        Ok(Some(seg.data))
    }

    /// Closes this endpoint's sending direction (`shutdown(SHUT_WR)`).
    pub fn close(&self) {
        self.shared.lock().dirs[self.tx].closed = true;
    }
}

/// The socket behaviour table. Each row is one behaviour, checked on a
/// connection a [`Connect`] opens; [`socket_table!`] turns the rows into
/// tests. `unix::tests` runs them on a Unix pair, `tcp::tests` on TCP
/// over loopback and over the paper WAN.
#[cfg(test)]
pub(crate) mod table {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::costmodel::CostModel;

    /// Opens a connection, charging the first sandbox for it.
    pub(crate) type Connect = fn(&Sandbox) -> (Endpoint, Endpoint);

    /// A connection and the sandboxes at its two ends, on one clock.
    pub(crate) struct Conn {
        pub a: Endpoint,
        pub b: Endpoint,
        pub sa: Sandbox,
        pub sb: Sandbox,
    }

    impl Conn {
        pub(crate) fn new(connect: Connect) -> Self {
            let clock = VirtualClock::new();
            let (sa, sb) = (sandbox("a", &clock), sandbox("b", &clock));
            let (a, b) = connect(&sa);
            Self { a, b, sa, sb }
        }

        fn link(&self) -> Option<Arc<Link>> {
            self.a.shared.lock().link.clone()
        }
    }

    fn sandbox(name: &str, clock: &VirtualClock) -> Sandbox {
        Sandbox::detached(name, clock.clone(), Arc::new(CostModel::paper_testbed()))
    }

    fn cost() -> CostModel {
        CostModel::paper_testbed()
    }

    /// Runs `row` on a fresh connection from each of `lanes`.
    pub(crate) fn run(lanes: &[Connect], row: fn(Conn)) {
        for &connect in lanes {
            row(Conn::new(connect));
        }
    }

    /// Everything `ep` can receive before the stream runs dry or ends.
    pub(crate) fn drain(ep: &Endpoint, sb: &Sandbox) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(seg) = ep.recv(sb).unwrap().filter(|seg| !seg.is_empty()) {
            out.extend_from_slice(&seg);
        }
        out
    }

    /// Expands, inside a test module, to one `#[test]` per row, each run
    /// over every connection in `$lanes` (a `&[Connect]`).
    macro_rules! socket_table {
        ($lanes:expr) => {
            $crate::socket::table::socket_table!(@rows $lanes;
                send_recv_round_trips,
                duplex_directions_are_independent,
                large_sends_are_chunked,
                send_to_closed_peer_fails,
                empty_send_on_a_closed_direction_fails,
                empty_send_is_noop,
                empty_queue_reports_empty_chunk_and_costs_syscall,
                recv_with_lends_the_kernel_segment_and_charges_like_recv,
                recv_with_takes_at_most_max_and_leaves_the_rest,
                recv_copies_bytes,
                spliced_path_is_zero_copy,
                only_the_copying_lane_reaches_the_copy_ledger,
                receiver_pays_context_switch,
                receiver_waits_for_wire_time,
                spliced_send_charges_less_than_copy_send,
            );
        };
        (@rows $lanes:expr; $($row:ident),+ $(,)?) => {
            $(
                #[test]
                fn $row() {
                    $crate::socket::table::run($lanes, $crate::socket::table::$row);
                }
            )+
        };
    }
    pub(crate) use socket_table;

    pub(crate) fn send_recv_round_trips(c: Conn) {
        c.a.send(&c.sa, b"stream socket").unwrap();
        c.a.close();
        assert_eq!(drain(&c.b, &c.sb), b"stream socket");
    }

    pub(crate) fn duplex_directions_are_independent(c: Conn) {
        c.a.send(&c.sa, b"to-b").unwrap();
        c.b.send(&c.sb, b"to-a").unwrap();
        c.a.close();
        c.b.close();
        assert_eq!(drain(&c.b, &c.sb), b"to-b");
        assert_eq!(drain(&c.a, &c.sa), b"to-a");
    }

    /// One syscall and one kernel segment per `io_chunk_bytes`, the last
    /// one short.
    pub(crate) fn large_sends_are_chunked(c: Conn) {
        let cost = cost();
        let chunk = cost.io_chunk_bytes;
        let data = vec![5u8; chunk * 3 + 17];
        let before = c.sa.kernel_ns();
        c.a.send(&c.sa, &data).unwrap();
        assert_eq!(c.sa.kernel_ns() - before, 4 * cost.syscall_ns + cost.memcpy_ns(data.len()));
        c.a.close();
        let mut segments = Vec::new();
        let mut out = Vec::new();
        while let Some(seg) = c.b.recv(&c.sb).unwrap() {
            segments.push(seg.len());
            out.extend_from_slice(&seg);
        }
        assert_eq!(segments, [chunk, chunk, chunk, 17]);
        assert_eq!(out, data);
    }

    pub(crate) fn send_to_closed_peer_fails(c: Conn) {
        c.a.close();
        assert_eq!(c.a.send(&c.sa, b"x").unwrap_err(), VkError::Closed);
        assert_eq!(c.a.send_spliced(&c.sa, Bytes::from_static(b"x")).unwrap_err(), VkError::Closed);
        // The other direction stays open.
        c.b.send(&c.sb, b"y").unwrap();
    }

    /// A closed direction refuses even an empty send, on both lanes and
    /// for free: the check comes before the emptiness shortcut, as in
    /// [`Pipe`](crate::pipe::Pipe).
    pub(crate) fn empty_send_on_a_closed_direction_fails(c: Conn) {
        c.a.close();
        let before = c.sa.kernel_ns();
        assert_eq!(c.a.send(&c.sa, b"").unwrap_err(), VkError::Closed);
        assert_eq!(c.a.send_spliced(&c.sa, Bytes::new()).unwrap_err(), VkError::Closed);
        assert_eq!(c.sa.kernel_ns(), before);
    }

    /// An empty send on an open direction charges, copies, queues and
    /// reserves nothing.
    pub(crate) fn empty_send_is_noop(c: Conn) {
        let (before, now) = (c.sa.kernel_ns(), c.sa.clock().now());
        assert_eq!(c.a.send(&c.sa, b"").unwrap(), 0);
        assert_eq!(c.a.send_spliced(&c.sa, Bytes::new()).unwrap(), 0);
        assert_eq!((c.sa.kernel_ns(), c.sa.clock().now()), (before, now));
        assert_eq!(c.sa.account().copied_bytes(), 0);
        assert_eq!(c.b.recv(&c.sb).unwrap(), Some(Bytes::new()));
    }

    /// Nothing ready costs one syscall on either lane; a drained, closed
    /// stream ends for free.
    pub(crate) fn empty_queue_reports_empty_chunk_and_costs_syscall(c: Conn) {
        let syscall = cost().syscall_ns;
        let got = c.b.recv(&c.sb).unwrap().unwrap();
        assert!(got.is_empty());
        assert_eq!(c.sb.kernel_ns(), syscall);
        assert_eq!(c.b.recv_spliced(&c.sb).unwrap(), Some(Bytes::new()));
        assert_eq!(c.sb.kernel_ns(), 2 * syscall);
        c.a.close();
        assert_eq!(c.b.recv(&c.sb).unwrap(), None);
        assert_eq!(c.b.recv_spliced(&c.sb).unwrap(), None);
        assert_eq!(c.sb.kernel_ns(), 2 * syscall);
    }

    pub(crate) fn recv_with_lends_the_kernel_segment_and_charges_like_recv(c: Conn) {
        let lent = sandbox("lent", c.sb.clock());
        let copied = sandbox("copied", c.sb.clock());
        let data = Bytes::from(vec![1u8; 4096]);
        let ptr = data.as_ptr();
        c.a.send_spliced(&c.sa, data.clone()).unwrap();
        c.a.send_spliced(&c.sa, data).unwrap();
        let seen = c.b.recv_with(&lent, usize::MAX, |seg| (seg.as_ptr(), seg.len())).unwrap();
        assert_eq!(seen, Some((ptr, 4096)), "the sink sees the queued buffer itself");
        c.b.recv(&copied).unwrap().unwrap();
        assert_eq!(lent.kernel_ns(), copied.kernel_ns());
        // The ledger counts the copy where it is made: in `recv`, not in
        // the lending call, whose sink decides where the bytes land.
        assert_eq!((lent.account().copied_bytes(), copied.account().copied_bytes()), (0, 4096));
        // Nothing ready: the sink sees an empty slice for one syscall.
        let before = lent.kernel_ns();
        assert_eq!(c.b.recv_with(&lent, usize::MAX, <[u8]>::len).unwrap(), Some(0));
        assert_eq!(lent.kernel_ns() - before, cost().syscall_ns);
        c.a.close();
        assert_eq!(c.b.recv_with(&lent, usize::MAX, <[u8]>::len).unwrap(), None);
    }

    /// A receive bounded below the segment's length lends a prefix and is
    /// charged for it alone; the rest stays at the head of the stream, and
    /// the next receive returns it, ahead of anything sent later.
    pub(crate) fn recv_with_takes_at_most_max_and_leaves_the_rest(c: Conn) {
        let cost = cost();
        c.a.send(&c.sa, b"0123456789abcdef").unwrap();
        c.a.send(&c.sa, b"next").unwrap();
        c.a.close();
        let before = c.sb.kernel_ns();
        assert_eq!(c.b.recv_with(&c.sb, 10, <[u8]>::to_vec).unwrap().unwrap(), b"0123456789");
        let charged = cost.syscall_ns + cost.ctx_switch_ns + cost.memcpy_ns(10);
        assert_eq!(c.sb.kernel_ns() - before, charged);
        assert_eq!(c.b.recv_with(&c.sb, 10, <[u8]>::to_vec).unwrap().unwrap(), b"abcdef");
        assert_eq!(drain(&c.b, &c.sb), b"next");
    }

    pub(crate) fn recv_copies_bytes(c: Conn) {
        let data = Bytes::from(vec![1u8; 4096]);
        let ptr = data.as_ptr();
        c.a.send_spliced(&c.sa, data).unwrap();
        let got = c.b.recv(&c.sb).unwrap().unwrap();
        assert_ne!(got.as_ptr(), ptr);
        assert_eq!(got, vec![1u8; 4096]);
    }

    pub(crate) fn spliced_path_is_zero_copy(c: Conn) {
        let data = Bytes::from(vec![7u8; 8192]);
        let ptr = data.as_ptr();
        c.a.send_spliced(&c.sa, data).unwrap();
        let got = c.b.recv_spliced(&c.sb).unwrap().unwrap();
        assert_eq!(got.as_ptr(), ptr);
    }

    pub(crate) fn only_the_copying_lane_reaches_the_copy_ledger(c: Conn) {
        let ledger = |c: &Conn| (c.sa.account().copied_bytes(), c.sb.account().copied_bytes());
        c.a.send_spliced(&c.sa, Bytes::from(vec![7u8; 8192])).unwrap();
        c.b.recv_spliced(&c.sb).unwrap().unwrap();
        assert_eq!(ledger(&c), (0, 0));
        c.a.send(&c.sa, &[1u8; 300]).unwrap();
        c.b.recv(&c.sb).unwrap().unwrap();
        assert_eq!(ledger(&c), (300, 300));
    }

    pub(crate) fn receiver_pays_context_switch(c: Conn) {
        let cost = cost();
        c.a.send(&c.sa, b"ping").unwrap();
        c.b.recv(&c.sb).unwrap();
        assert_eq!(c.sb.kernel_ns(), cost.syscall_ns + cost.ctx_switch_ns + cost.memcpy_ns(4));
    }

    /// A receive moves the clock by its charges plus, on a link, the wait
    /// for the data to land: wire time and propagation past the send.
    /// A Unix receive never waits.
    pub(crate) fn receiver_waits_for_wire_time(c: Conn) {
        let len = 1_000_000;
        c.a.send(&c.sa, &vec![0u8; len]).unwrap();
        c.a.close();
        let (sent_at, charged) = (c.sb.clock().now(), c.sb.kernel_ns());
        assert_eq!(drain(&c.b, &c.sb).len(), len);
        let waited = (c.sb.clock().now() - sent_at) - (c.sb.kernel_ns() - charged);
        let wire = c.link().map_or(0, |link| link.wire_ns(len) + link.propagation_ns());
        assert_eq!(waited, wire);
    }

    /// The same bytes cost the sender less kernel time spliced than
    /// copied.
    pub(crate) fn spliced_send_charges_less_than_copy_send(c: Conn) {
        let payload = vec![0u8; 1 << 20];
        let (copy_before, gift_before) = (c.sa.kernel_ns(), c.sb.kernel_ns());
        c.a.send(&c.sa, &payload).unwrap();
        c.b.send_spliced(&c.sb, Bytes::from(payload)).unwrap();
        assert!(c.sb.kernel_ns() - gift_before < c.sa.kernel_ns() - copy_before);
    }
}
