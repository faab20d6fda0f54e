//! Unix-domain stream sockets — the kernel-space IPC mechanism.
//!
//! The paper's kernel-space transfer (§4.2) moves raw bytes between two
//! co-located shims over a Unix socket: one user→kernel copy on `send`,
//! one kernel→user copy on `recv`, plus a context switch when the receiver
//! wakes. No serialization is involved — that is Roadrunner's saving — but
//! the copies and switches remain, which is why kernel-space mode sits
//! between user-space mode and the network path in every figure.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::VkError;
use crate::node::Sandbox;

#[derive(Debug, Default)]
struct Direction {
    queue: VecDeque<Bytes>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Shared {
    /// Direction 0: endpoint A → endpoint B. Direction 1: B → A.
    dirs: [Direction; 2],
}

/// One endpoint of a connected Unix-domain socket pair.
///
/// Created in pairs by [`UnixConn::pair`]; endpoints are `Send` and can be
/// handed to different shims.
#[derive(Debug)]
pub struct UnixEndpoint {
    shared: Arc<Mutex<Shared>>,
    /// Index of the direction this endpoint *sends* on.
    tx: usize,
}

/// Factory for connected Unix-domain socket pairs.
#[derive(Debug)]
pub struct UnixConn;

impl UnixConn {
    /// Creates a connected pair, like `socketpair(2)`.
    ///
    /// ```
    /// # use roadrunner_vkernel::unix::UnixConn;
    /// let (a, b) = UnixConn::pair();
    /// # let _ = (a, b);
    /// ```
    pub fn pair() -> (UnixEndpoint, UnixEndpoint) {
        let shared = Arc::new(Mutex::new(Shared::default()));
        (
            UnixEndpoint { shared: Arc::clone(&shared), tx: 0 },
            UnixEndpoint { shared, tx: 1 },
        )
    }
}

impl UnixEndpoint {
    /// Sends `data`, charging `caller` for the syscalls (one per
    /// [`CostModel::io_chunk_bytes`](crate::CostModel) burst) and the
    /// user→kernel copy.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if the peer has closed the connection.
    pub fn send(&self, caller: &Sandbox, data: &[u8]) -> Result<usize, VkError> {
        let mut shared = self.shared.lock();
        let dir = &mut shared.dirs[self.tx];
        if dir.closed {
            return Err(VkError::Closed);
        }
        if data.is_empty() {
            return Ok(0);
        }
        let cost = caller.cost();
        let chunk = cost.io_chunk_bytes.max(1);
        let syscalls = data.len().div_ceil(chunk) as u64;
        caller.charge_kernel(syscalls * cost.syscall_ns + cost.memcpy_ns(data.len()));
        caller.account().count_copy(data.len());
        // The copy into kernel buffers is real: fresh storage per chunk.
        dir.queue.extend(data.chunks(chunk).map(Bytes::copy_from_slice));
        Ok(data.len())
    }

    /// Zero-copy send used by `splice` from a pipe into the socket: the
    /// kernel moves page references; only per-page map cost is charged.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if the peer has closed the connection.
    pub fn send_spliced(&self, caller: &Sandbox, data: Bytes) -> Result<usize, VkError> {
        let mut shared = self.shared.lock();
        let dir = &mut shared.dirs[self.tx];
        if dir.closed {
            return Err(VkError::Closed);
        }
        if data.is_empty() {
            return Ok(0);
        }
        let cost = caller.cost();
        caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(data.len()));
        let n = data.len();
        dir.queue.push_back(data);
        Ok(n)
    }

    /// Receives one buffered segment and lends it, still in its kernel
    /// buffer, to `sink` — which performs the kernel→user copy of
    /// `recv(2)` straight into wherever the bytes are to rest. Charges
    /// that copy, the syscall and the receiver's wakeup context switch
    /// before `sink` runs. Returns `Ok(None)` if the peer closed and the
    /// stream is drained; `sink` sees an empty slice if no data is ready.
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
                seg => seg.unwrap_or_default(),
            }
        };
        let cost = caller.cost();
        caller.charge_kernel(if seg.is_empty() {
            cost.syscall_ns
        } else {
            cost.syscall_ns + cost.ctx_switch_ns + cost.memcpy_ns(seg.len())
        });
        Ok(Some(sink(&seg)))
    }

    /// [`recv_with`](Self::recv_with) into a fresh user buffer: returns
    /// the copied segment, `Ok(None)` if the peer closed and the stream
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

    /// Zero-copy receive used by `splice` from the socket into a pipe:
    /// page references move, no copy, no user-space wakeup.
    pub fn recv_spliced(&self, caller: &Sandbox) -> Result<Option<Bytes>, VkError> {
        let mut shared = self.shared.lock();
        let dir = &mut shared.dirs[1 - self.tx];
        let cost = caller.cost();
        match dir.queue.pop_front() {
            Some(seg) => {
                caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(seg.len()));
                Ok(Some(seg))
            }
            None if dir.closed => Ok(None),
            None => {
                caller.charge_kernel(cost.syscall_ns);
                Ok(Some(Bytes::new()))
            }
        }
    }

    /// Closes this endpoint's sending direction (`shutdown(SHUT_WR)`).
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

    fn sandbox(name: &str) -> Sandbox {
        Sandbox::detached(name, VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
    }

    fn drain(ep: &UnixEndpoint, sb: &Sandbox) -> Vec<u8> {
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
    fn send_recv_round_trips() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        a.send(&sa, b"kernel space").unwrap();
        a.close();
        assert_eq!(drain(&b, &sb), b"kernel space");
    }

    #[test]
    fn duplex_directions_are_independent() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        a.send(&sa, b"to-b").unwrap();
        b.send(&sb, b"to-a").unwrap();
        a.close();
        b.close();
        assert_eq!(drain(&b, &sb), b"to-b");
        assert_eq!(drain(&a, &sa), b"to-a");
    }

    #[test]
    fn send_to_closed_peer_fails() {
        let (a, _b) = UnixConn::pair();
        let sa = sandbox("a");
        a.close();
        assert_eq!(a.send(&sa, b"x").unwrap_err(), VkError::Closed);
    }

    #[test]
    fn large_sends_are_chunked() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        let cost = CostModel::paper_testbed();
        let data = vec![5u8; cost.io_chunk_bytes * 3 + 17];
        a.send(&sa, &data).unwrap();
        a.close();
        assert_eq!(drain(&b, &sb), data);
    }

    #[test]
    fn recv_copies_bytes() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        let data = Bytes::from(vec![1u8; 4096]);
        let ptr = data.as_ptr();
        a.send_spliced(&sa, data).unwrap();
        let got = b.recv(&sb).unwrap().unwrap();
        assert_ne!(got.as_ptr(), ptr);
    }

    #[test]
    fn recv_with_lends_the_kernel_segment_and_charges_like_recv() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let (lent, copied) = (sandbox("lent"), sandbox("copied"));
        let data = Bytes::from(vec![1u8; 4096]);
        let ptr = data.as_ptr();
        a.send_spliced(&sa, data.clone()).unwrap();
        a.send_spliced(&sa, data).unwrap();
        let seen = b.recv_with(&lent, |seg| (seg.as_ptr(), seg.len())).unwrap();
        assert_eq!(seen, Some((ptr, 4096)), "the sink sees the queued buffer itself");
        b.recv(&copied).unwrap().unwrap();
        assert_eq!(lent.kernel_ns(), copied.kernel_ns());
        // The ledger counts the copy where it is made: in `recv`, not in
        // the lending call, whose sink decides where the bytes land.
        assert_eq!((lent.account().copied_bytes(), copied.account().copied_bytes()), (0, 4096));
        // Nothing ready: the sink sees an empty slice for one syscall.
        let before = lent.kernel_ns();
        assert_eq!(b.recv_with(&lent, <[u8]>::len).unwrap(), Some(0));
        assert_eq!(lent.kernel_ns() - before, CostModel::paper_testbed().syscall_ns);
        a.close();
        assert_eq!(b.recv_with(&lent, <[u8]>::len).unwrap(), None);
    }

    #[test]
    fn spliced_path_is_zero_copy() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        let data = Bytes::from(vec![1u8; 4096]);
        let ptr = data.as_ptr();
        a.send_spliced(&sa, data).unwrap();
        let got = b.recv_spliced(&sb).unwrap().unwrap();
        assert_eq!(got.as_ptr(), ptr);
    }

    #[test]
    fn receiver_pays_context_switch() {
        let (a, b) = UnixConn::pair();
        let sa = sandbox("a");
        let sb = sandbox("b");
        a.send(&sa, b"ping").unwrap();
        b.recv(&sb).unwrap();
        let cost = CostModel::paper_testbed();
        assert!(sb.kernel_ns() >= cost.ctx_switch_ns);
    }

    #[test]
    fn empty_queue_reports_empty_chunk_and_costs_syscall() {
        let (_a, b) = UnixConn::pair();
        let sb = sandbox("b");
        let got = b.recv(&sb).unwrap().unwrap();
        assert!(got.is_empty());
        assert_eq!(sb.kernel_ns(), CostModel::paper_testbed().syscall_ns);
    }
}
