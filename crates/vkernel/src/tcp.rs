//! TCP-like byte streams across links.
//!
//! A [`TcpConn`] carries bytes between two sandboxes over a [`Link`]
//! (inter-node WAN or host loopback). Segments are stamped with their
//! arrival time from the link's bandwidth/RTT model; receivers *wait*
//! (advance the clock without consuming CPU) until data lands. Sends pay a
//! user→kernel copy and receives a kernel→user copy plus the wakeup
//! context switch — the standard path the paper's baselines ride.
//!
//! A zero-copy lane ([`TcpEndpoint::send_spliced`] / [`TcpEndpoint::recv_spliced`])
//! models `splice` between a pipe and the socket: page references move and
//! only page-map costs are charged. Roadrunner's virtual data hose uses
//! this lane.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::VkError;
use crate::net::Link;
use crate::node::Sandbox;
use crate::Nanos;

#[derive(Debug)]
struct TimedSeg {
    data: Bytes,
    arrives_at: Nanos,
}

#[derive(Debug, Default)]
struct Direction {
    queue: VecDeque<TimedSeg>,
    closed: bool,
}

#[derive(Debug)]
struct Shared {
    dirs: [Direction; 2],
    link: Arc<Link>,
}

/// One endpoint of an established TCP-like connection.
#[derive(Debug)]
pub struct TcpEndpoint {
    shared: Arc<Mutex<Shared>>,
    tx: usize,
}

/// Factory for established TCP-like connections.
#[derive(Debug)]
pub struct TcpConn;

impl TcpConn {
    /// Establishes a connection over `link`, charging the connecting
    /// sandbox one RTT of setup latency (SYN/SYN-ACK) plus two syscalls.
    pub fn establish(client: &Sandbox, link: Arc<Link>) -> (TcpEndpoint, TcpEndpoint) {
        let cost = client.cost();
        client.charge_kernel(2 * cost.syscall_ns);
        client.clock().advance(link.rtt_ns());
        let shared = Arc::new(Mutex::new(Shared {
            dirs: [Direction::default(), Direction::default()],
            link,
        }));
        (
            TcpEndpoint { shared: Arc::clone(&shared), tx: 0 },
            TcpEndpoint { shared, tx: 1 },
        )
    }
}

impl TcpEndpoint {
    /// Sends `data` the ordinary way: syscalls per chunk plus a
    /// user→kernel copy; transmission is scheduled on the link.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if this direction was shut down.
    pub fn send(&self, caller: &Sandbox, data: &[u8]) -> Result<usize, VkError> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut shared = self.shared.lock();
        if shared.dirs[self.tx].closed {
            return Err(VkError::Closed);
        }
        let cost = caller.cost();
        let chunk = cost.io_chunk_bytes.max(1);
        let syscalls = data.len().div_ceil(chunk) as u64;
        caller.charge_kernel(syscalls * cost.syscall_ns + cost.memcpy_ns(data.len()));
        caller.account().count_copy(data.len());
        let arrives_at = shared.link.reserve(caller.clock().now(), data.len());
        shared.dirs[self.tx].queue.extend(data.chunks(chunk).map(|seg| TimedSeg {
            data: Bytes::copy_from_slice(seg),
            arrives_at,
        }));
        Ok(data.len())
    }

    /// Zero-copy send: `splice` moves page references from a pipe into the
    /// socket; only page-map cost is charged, no byte copy.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if this direction was shut down.
    pub fn send_spliced(&self, caller: &Sandbox, data: Bytes) -> Result<usize, VkError> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut shared = self.shared.lock();
        if shared.dirs[self.tx].closed {
            return Err(VkError::Closed);
        }
        let cost = caller.cost();
        caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(data.len()));
        let arrives_at = shared.link.reserve(caller.clock().now(), data.len());
        let n = data.len();
        shared.dirs[self.tx].queue.push_back(TimedSeg { data, arrives_at });
        Ok(n)
    }

    /// Receives the next segment, blocking (in virtual time) until it has
    /// arrived, and lends it, still in its kernel buffer, to `sink` —
    /// which performs the kernel→user copy of `recv(2)` straight into
    /// wherever the bytes are to rest. Charges that copy, the syscall and
    /// the wakeup switch before `sink` runs. Returns `Ok(None)` when the
    /// peer closed and the stream is drained; `sink` sees an empty slice
    /// if no data is ready.
    pub fn recv_with<R>(
        &self,
        caller: &Sandbox,
        sink: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, VkError> {
        let seg = {
            let mut shared = self.shared.lock();
            let dir = &mut shared.dirs[1 - self.tx];
            match dir.queue.pop_front() {
                None if dir.closed => return Ok(None),
                seg => seg,
            }
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
    /// the copied segment, `Ok(None)` when the peer closed and the stream
    /// is drained, and an empty buffer if no data is ready.
    pub fn recv(&self, caller: &Sandbox) -> Result<Option<Bytes>, VkError> {
        self.recv_with(caller, |seg| {
            if seg.is_empty() {
                return Bytes::new();
            }
            caller.account().count_copy(seg.len());
            Bytes::copy_from_slice(seg)
        })
    }

    /// Zero-copy receive: `splice` from the socket towards a pipe. Page
    /// references move; no byte copy, no user wakeup.
    pub fn recv_spliced(&self, caller: &Sandbox) -> Result<Option<Bytes>, VkError> {
        let mut shared = self.shared.lock();
        let dir = &mut shared.dirs[1 - self.tx];
        let cost = caller.cost();
        match dir.queue.pop_front() {
            Some(seg) => {
                caller.clock().advance_to(seg.arrives_at);
                caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(seg.data.len()));
                Ok(Some(seg.data))
            }
            None if dir.closed => Ok(None),
            None => {
                caller.charge_kernel(cost.syscall_ns);
                Ok(Some(Bytes::new()))
            }
        }
    }

    /// Shuts down this endpoint's sending direction.
    pub fn close(&self) {
        let mut shared = self.shared.lock();
        shared.dirs[self.tx].closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::costmodel::CostModel;

    fn pair(link: Arc<Link>) -> (TcpEndpoint, TcpEndpoint, Sandbox, Sandbox) {
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let a = Sandbox::detached("a", clock.clone(), Arc::clone(&cost));
        let b = Sandbox::detached("b", clock, cost);
        let (ea, eb) = TcpConn::establish(&a, link);
        (ea, eb, a, b)
    }

    fn drain(ep: &TcpEndpoint, sb: &Sandbox) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            match ep.recv(sb).unwrap() {
                None => return out,
                Some(seg) if seg.is_empty() => return out,
                Some(seg) => out.extend_from_slice(&seg),
            }
        }
    }

    #[test]
    fn establish_costs_one_rtt() {
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let a = Sandbox::detached("a", clock.clone(), cost);
        let link = Link::paper_wan("wan");
        let _conn = TcpConn::establish(&a, link.clone());
        assert!(clock.now() >= link.rtt_ns());
    }

    #[test]
    fn bytes_round_trip_across_wan() {
        let (ea, eb, sa, sb) = pair(Link::paper_wan("wan"));
        ea.send(&sa, b"over the wire").unwrap();
        ea.close();
        assert_eq!(drain(&eb, &sb), b"over the wire");
    }

    #[test]
    fn receiver_waits_for_wire_time() {
        let (ea, eb, sa, sb) = pair(Link::paper_wan("wan"));
        let start = sa.clock().now();
        let payload = vec![0u8; 1_000_000];
        ea.send(&sa, &payload).unwrap();
        ea.close();
        drain(&eb, &sb);
        let elapsed = sb.clock().now() - start;
        let wire = Link::paper_wan("ref").wire_ns(1_000_000);
        assert!(elapsed >= wire, "elapsed {elapsed} < wire {wire}");
    }

    #[test]
    fn loopback_is_fast() {
        let (ea, eb, sa, sb) = pair(Link::loopback("lo"));
        let start = sa.clock().now();
        ea.send(&sa, &vec![0u8; 1_000_000]).unwrap();
        ea.close();
        drain(&eb, &sb);
        let elapsed = sb.clock().now() - start;
        assert!(elapsed < 3_000_000, "loopback took {elapsed} ns");
    }

    #[test]
    fn spliced_lane_preserves_pointer_identity() {
        let (ea, eb, sa, sb) = pair(Link::loopback("lo"));
        let data = Bytes::from(vec![7u8; 8192]);
        let ptr = data.as_ptr();
        ea.send_spliced(&sa, data).unwrap();
        let got = eb.recv_spliced(&sb).unwrap().unwrap();
        assert_eq!(got.as_ptr(), ptr);
    }

    #[test]
    fn only_the_copying_lane_reaches_the_copy_ledger() {
        let (ea, eb, sa, sb) = pair(Link::loopback("lo"));
        ea.send_spliced(&sa, Bytes::from(vec![7u8; 8192])).unwrap();
        eb.recv_spliced(&sb).unwrap().unwrap();
        assert_eq!((sa.account().copied_bytes(), sb.account().copied_bytes()), (0, 0));
        ea.send(&sa, &[1u8; 300]).unwrap();
        eb.recv(&sb).unwrap().unwrap();
        assert_eq!((sa.account().copied_bytes(), sb.account().copied_bytes()), (300, 300));
    }

    #[test]
    fn send_after_close_fails() {
        let (ea, _eb, sa, _sb) = pair(Link::loopback("lo"));
        ea.close();
        assert_eq!(ea.send(&sa, b"x").unwrap_err(), VkError::Closed);
        assert_eq!(
            ea.send_spliced(&sa, Bytes::from_static(b"x")).unwrap_err(),
            VkError::Closed
        );
    }

    #[test]
    fn empty_send_is_noop() {
        let (ea, _eb, sa, _sb) = pair(Link::loopback("lo"));
        let before = sa.kernel_ns();
        assert_eq!(ea.send(&sa, b"").unwrap(), 0);
        assert_eq!(sa.kernel_ns(), before);
    }

    #[test]
    fn spliced_send_charges_less_than_copy_send() {
        let link = Link::loopback("lo");
        let clock = VirtualClock::new();
        let cost = Arc::new(CostModel::paper_testbed());
        let copy_sb = Sandbox::detached("c", clock.clone(), Arc::clone(&cost));
        let gift_sb = Sandbox::detached("g", clock, cost);
        let (ec, _kc) = TcpConn::establish(&copy_sb, link.clone());
        let (eg, _kg) = TcpConn::establish(&gift_sb, link);
        let copy_before = copy_sb.kernel_ns();
        let gift_before = gift_sb.kernel_ns();
        let payload = vec![0u8; 1 << 20];
        ec.send(&copy_sb, &payload).unwrap();
        eg.send_spliced(&gift_sb, Bytes::from(payload)).unwrap();
        assert!(gift_sb.kernel_ns() - gift_before < copy_sb.kernel_ns() - copy_before);
    }
}
