//! Kernel pipes with `splice`/`vmsplice` — the virtual data hose.
//!
//! The paper's network transfer (§4.3, Algorithm 1) builds a *virtual data
//! hose*: user-space pages are **gifted** into a pipe with `vmsplice(2)`
//! (the kernel takes references to the caller's pages instead of copying
//! them) and then **moved** between the pipe and a socket with `splice(2)`
//! (reference moves between kernel buffers). The only per-byte work left
//! is page-table bookkeeping, charged here as
//! [`CostModel::page_map_ns`](crate::CostModel) per 4 KiB page.
//!
//! Copying entry points ([`Pipe::write`]/[`Pipe::read`]) model ordinary
//! `write(2)`/`read(2)` for comparison; tests verify via pointer identity
//! that the splice paths really do not move payload bytes.

use bytes::Bytes;

use crate::buffer::SegBuf;
use crate::costmodel::PAGE_SIZE;
use crate::error::VkError;
use crate::node::Sandbox;

/// Default pipe capacity (matches Linux: 16 pages = 64 KiB).
pub const DEFAULT_CAPACITY: usize = 16 * PAGE_SIZE;

/// A unidirectional kernel pipe.
#[derive(Debug)]
pub struct Pipe {
    buf: SegBuf,
    capacity: usize,
    write_open: bool,
    read_open: bool,
}

impl Default for Pipe {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Pipe {
    /// Creates a pipe with the given capacity in bytes.
    ///
    /// The simulator does not block writers; capacity determines syscall
    /// batching (a transfer of `n` bytes costs `ceil(n / capacity)`
    /// syscalls, as a real writer loops when the pipe fills).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: SegBuf::new(),
            capacity: capacity.max(PAGE_SIZE),
            write_open: true,
            read_open: true,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently buffered in the pipe.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Closes the write end. Subsequent writes fail; reads drain what is
    /// left and then return `Ok(None)`.
    pub fn close_write(&mut self) {
        self.write_open = false;
    }

    /// Closes the read end. Subsequent writes fail with a broken pipe.
    pub fn close_read(&mut self) {
        self.read_open = false;
    }

    fn check_writable(&self) -> Result<(), VkError> {
        if !self.write_open || !self.read_open {
            return Err(VkError::Closed);
        }
        Ok(())
    }

    /// Ordinary `write(2)`: copies `data` from user space into kernel pipe
    /// buffers. Charges syscalls (one per capacity-sized burst) plus a
    /// user→kernel `memcpy`, all as kernel time of `caller`.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if either end is closed.
    pub fn write(&mut self, caller: &Sandbox, data: &[u8]) -> Result<usize, VkError> {
        self.check_writable()?;
        if data.is_empty() {
            return Ok(0);
        }
        let cost = caller.cost();
        let syscalls = data.len().div_ceil(self.capacity) as u64;
        caller.charge_kernel(syscalls * cost.syscall_ns + cost.memcpy_ns(data.len()));
        caller.account().count_copy(data.len());
        self.buf.push_copy(data);
        Ok(data.len())
    }

    /// `vmsplice(2)` with `SPLICE_F_GIFT`: moves page *references* from
    /// user memory into the pipe without copying. Charges syscalls plus
    /// per-page map cost as kernel time of `caller`.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if either end is closed.
    pub fn vmsplice_gift(&mut self, caller: &Sandbox, data: Bytes) -> Result<usize, VkError> {
        self.check_writable()?;
        if data.is_empty() {
            return Ok(0);
        }
        let cost = caller.cost();
        let syscalls = data.len().div_ceil(self.capacity) as u64;
        caller.charge_kernel(syscalls * cost.syscall_ns + cost.page_map_ns_for(data.len()));
        let n = data.len();
        self.buf.push_ref(data);
        Ok(n)
    }

    /// `splice(2)` *into* the pipe from another kernel buffer (e.g. a
    /// socket): reference move, no copy.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if either end is closed.
    pub fn splice_in(&mut self, caller: &Sandbox, data: Bytes) -> Result<usize, VkError> {
        self.check_writable()?;
        if data.is_empty() {
            return Ok(0);
        }
        let cost = caller.cost();
        caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(data.len()));
        let n = data.len();
        self.buf.push_ref(data);
        Ok(n)
    }

    /// Ordinary `read(2)`: copies up to `max` bytes from the pipe into a
    /// fresh user buffer. Returns `Ok(None)` when the pipe is drained and
    /// the write end closed.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if the read end was closed.
    pub fn read(&mut self, caller: &Sandbox, max: usize) -> Result<Option<Bytes>, VkError> {
        if !self.read_open {
            return Err(VkError::Closed);
        }
        let cost = caller.cost();
        match self.buf.pop_copy(max) {
            Some(chunk) => {
                caller.charge_kernel(cost.syscall_ns + cost.memcpy_ns(chunk.len()));
                caller.account().count_copy(chunk.len());
                Ok(Some(chunk))
            }
            None if !self.write_open => Ok(None),
            None => {
                // A real read would block; the simulator charges the
                // syscall and reports no data.
                caller.charge_kernel(cost.syscall_ns);
                Ok(Some(Bytes::new()))
            }
        }
    }

    /// `splice(2)` *out of* the pipe towards another kernel buffer:
    /// removes up to `max` bytes as a reference, no copy. Returns
    /// `Ok(None)` when drained and the write end closed.
    ///
    /// # Errors
    ///
    /// [`VkError::Closed`] if the read end was closed.
    pub fn splice_out(&mut self, caller: &Sandbox, max: usize) -> Result<Option<Bytes>, VkError> {
        if !self.read_open {
            return Err(VkError::Closed);
        }
        let cost = caller.cost();
        match self.buf.pop_ref(max) {
            Some(chunk) => {
                caller.charge_kernel(cost.syscall_ns + cost.page_map_ns_for(chunk.len()));
                Ok(Some(chunk))
            }
            None if !self.write_open => Ok(None),
            None => {
                caller.charge_kernel(cost.syscall_ns);
                Ok(Some(Bytes::new()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::costmodel::CostModel;
    use std::sync::Arc;

    fn sandbox() -> Sandbox {
        Sandbox::detached("test", VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
    }

    #[test]
    fn write_then_read_round_trips() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        pipe.write(&sb, b"hello pipe").unwrap();
        pipe.close_write();
        let got = pipe.read(&sb, 1024).unwrap().unwrap();
        assert_eq!(&got[..], b"hello pipe");
        assert_eq!(pipe.read(&sb, 1024).unwrap(), None);
    }

    #[test]
    fn vmsplice_is_zero_copy() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        let data = Bytes::from(vec![3u8; 8192]);
        let ptr = data.as_ptr();
        pipe.vmsplice_gift(&sb, data).unwrap();
        let out = pipe.splice_out(&sb, 8192).unwrap().unwrap();
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn write_is_copying() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        let data = vec![4u8; 4096];
        pipe.write(&sb, &data).unwrap();
        let out = pipe.splice_out(&sb, 4096).unwrap().unwrap();
        assert_ne!(out.as_ptr(), data.as_ptr());
        assert_eq!(&out[..], &data[..]);
    }

    #[test]
    fn only_the_copying_lane_reaches_the_copy_ledger() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        pipe.vmsplice_gift(&sb, Bytes::from(vec![3u8; 8192])).unwrap();
        let pages = pipe.splice_out(&sb, usize::MAX).unwrap().unwrap();
        pipe.splice_in(&sb, pages).unwrap();
        assert_eq!(sb.account().copied_bytes(), 0, "gift and splice move references");
        pipe.read(&sb, 4096).unwrap();
        pipe.write(&sb, &[4u8; 100]).unwrap();
        assert_eq!(sb.account().copied_bytes(), 4096 + 100);
    }

    #[test]
    fn gift_charges_less_kernel_time_than_copy_for_big_buffers() {
        let cost = Arc::new(CostModel::paper_testbed());
        let copy_sb =
            Sandbox::detached("copy", VirtualClock::new(), Arc::clone(&cost));
        let gift_sb = Sandbox::detached("gift", VirtualClock::new(), cost);
        let data = vec![0u8; 1 << 20];
        Pipe::default().write(&copy_sb, &data).unwrap();
        Pipe::default().vmsplice_gift(&gift_sb, Bytes::from(data)).unwrap();
        // memcpy at 8 GB/s = 131 µs/MiB vs 256 pages * 150 ns = 38 µs.
        assert!(gift_sb.kernel_ns() < copy_sb.kernel_ns());
    }

    #[test]
    fn syscall_count_scales_with_capacity() {
        let cost = Arc::new(CostModel::paper_testbed());
        let small_sb = Sandbox::detached("s", VirtualClock::new(), Arc::clone(&cost));
        let big_sb = Sandbox::detached("b", VirtualClock::new(), cost);
        let data = vec![0u8; 1 << 20];
        Pipe::new(4096).write(&small_sb, &data).unwrap();
        Pipe::new(1 << 20).write(&big_sb, &data).unwrap();
        assert!(small_sb.kernel_ns() > big_sb.kernel_ns());
    }

    #[test]
    fn closed_pipe_rejects_writes() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        pipe.close_read();
        assert_eq!(pipe.write(&sb, b"x").unwrap_err(), VkError::Closed);
        assert_eq!(pipe.vmsplice_gift(&sb, Bytes::from_static(b"x")).unwrap_err(), VkError::Closed);
    }

    #[test]
    fn closed_reader_rejects_reads() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        pipe.close_read();
        assert_eq!(pipe.read(&sb, 1).unwrap_err(), VkError::Closed);
    }

    #[test]
    fn empty_open_pipe_reports_empty_chunk() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        let got = pipe.read(&sb, 16).unwrap().unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn splice_in_then_out_preserves_identity() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        let data = Bytes::from(vec![9u8; 4096]);
        let ptr = data.as_ptr();
        pipe.splice_in(&sb, data).unwrap();
        let out = pipe.splice_out(&sb, usize::MAX).unwrap().unwrap();
        assert_eq!(out.as_ptr(), ptr);
    }

    #[test]
    fn empty_payload_operations_are_noops() {
        let sb = sandbox();
        let mut pipe = Pipe::default();
        assert_eq!(pipe.write(&sb, b"").unwrap(), 0);
        assert_eq!(pipe.vmsplice_gift(&sb, Bytes::new()).unwrap(), 0);
        assert_eq!(pipe.splice_in(&sb, Bytes::new()).unwrap(), 0);
        assert_eq!(sb.kernel_ns(), 0);
    }
}
