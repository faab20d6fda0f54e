//! The WASI context: per-instance host state behind the system interface.

use std::collections::HashMap;

use roadrunner_vkernel::node::Sandbox;

use crate::sock::EndpointSocket;

/// WASI errno values used by this subset.
pub mod errno {
    /// Success.
    pub const SUCCESS: i32 = 0;
    /// Bad file descriptor.
    pub const BADF: i32 = 8;
    /// Invalid argument.
    pub const INVAL: i32 = 28;
    /// I/O error.
    pub const IO: i32 = 29;
    /// No such file or directory.
    pub const NOENT: i32 = 44;
}

#[derive(Debug)]
struct OpenFile {
    path: String,
    cursor: usize,
}

/// Host-side state for one WASI instance: captured stdout, the files the
/// host seeded with [`put_file`](Self::put_file) (read-only to the
/// guest), sockets, and the sandbox whose account is charged for every
/// boundary crossing. Descriptors other than fd 1, an open file or an
/// installed socket answer `BADF`.
///
/// The paper's Fig. 2a shows WASI-mediated host access dominating Wasm
/// execution time for I/O workloads — the per-call boundary cost plus the
/// copy in/out of linear memory charged here is exactly that overhead.
pub struct WasiCtx {
    sandbox: Sandbox,
    /// Bytes written to fd 1.
    pub stdout: Vec<u8>,
    files: HashMap<String, Vec<u8>>,
    open_files: HashMap<u32, OpenFile>,
    sockets: HashMap<u32, Box<EndpointSocket>>,
    next_fd: u32,
    /// Number of WASI calls made (diagnostic; each one paid the boundary
    /// cost).
    pub call_count: u64,
}

impl std::fmt::Debug for WasiCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WasiCtx")
            .field("sandbox", &self.sandbox.account().name())
            .field("stdout_len", &self.stdout.len())
            .field("files", &self.files.len())
            .field("call_count", &self.call_count)
            .finish_non_exhaustive()
    }
}

impl WasiCtx {
    /// Creates a context charging costs to `sandbox`.
    pub fn new(sandbox: Sandbox) -> Self {
        Self {
            sandbox,
            stdout: Vec::new(),
            files: HashMap::new(),
            open_files: HashMap::new(),
            sockets: HashMap::new(),
            next_fd: 4, // 0-2 are the stdio numbers, 3 the preopened root
            call_count: 0,
        }
    }

    /// The sandbox charged for WASI work.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Seeds a file the guest can open and read (replacing any file at
    /// `path`).
    pub fn put_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.files.insert(path.into(), contents);
    }

    /// Installs a socket (boxed, the shape `benchmark/` calls); returns
    /// its fd.
    pub fn add_socket(&mut self, socket: Box<EndpointSocket>) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.sockets.insert(fd, socket);
        fd
    }

    pub(crate) fn socket(&self, fd: u32) -> Option<&EndpointSocket> {
        self.sockets.get(&fd).map(Box::as_ref)
    }

    pub(crate) fn open_path(&mut self, path: &str) -> Result<u32, i32> {
        if !self.files.contains_key(path) {
            return Err(errno::NOENT);
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open_files.insert(fd, OpenFile { path: path.to_owned(), cursor: 0 });
        Ok(fd)
    }

    /// Appends `parts`, in order, to `fd` — stdout, the one writable
    /// descriptor — and returns the bytes written.
    pub(crate) fn write_fd<'a>(
        &mut self,
        fd: u32,
        parts: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<usize, i32> {
        if fd != 1 {
            return Err(errno::BADF);
        }
        let before = self.stdout.len();
        for part in parts {
            self.stdout.extend_from_slice(part);
        }
        Ok(self.stdout.len() - before)
    }

    /// Lends the next at most `max` bytes of the open file `fd`, straight
    /// from the seeded contents, and moves its cursor past them.
    pub(crate) fn read_fd(&mut self, fd: u32, max: usize) -> Result<&[u8], i32> {
        let open = self.open_files.get_mut(&fd).ok_or(errno::BADF)?;
        let file = self.files.get(&open.path).ok_or(errno::NOENT)?;
        // Empty once the cursor is past the end (the host may have
        // re-seeded the file shorter while it was open).
        let rest = file.get(open.cursor..).unwrap_or_default();
        let out = &rest[..max.min(rest.len())];
        open.cursor += out.len();
        Ok(out)
    }

    /// Charges one guest↔host boundary crossing plus `bytes` of VM I/O to
    /// the sandbox (user time) and bumps the call counter. Exposed so
    /// other host-function families (e.g. Roadrunner's Table-1 API) share
    /// the same boundary accounting.
    pub fn charge_boundary(&mut self, bytes: usize) {
        self.call_count += 1;
        let cost = self.sandbox.cost();
        let ns = cost.wasm_boundary_ns + cost.vm_io_ns(bytes);
        self.sandbox.charge_user(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadrunner_vkernel::{CostModel, VirtualClock};
    use std::sync::Arc;

    fn ctx() -> WasiCtx {
        let sandbox =
            Sandbox::detached("wasi", VirtualClock::new(), Arc::new(CostModel::paper_testbed()));
        WasiCtx::new(sandbox)
    }

    #[test]
    fn only_stdout_is_writable() {
        let mut c = ctx();
        c.put_file("/in.bin", vec![1]);
        let fd = c.open_path("/in.bin").unwrap();
        assert_eq!(c.write_fd(1, [b"ou".as_slice(), b"t"]).unwrap(), 3);
        for other in [0, 2, fd] {
            assert_eq!(c.write_fd(other, []).unwrap_err(), errno::BADF);
        }
        assert_eq!(c.stdout, b"out");
    }

    #[test]
    fn file_open_read_write() {
        let mut c = ctx();
        c.put_file("/in.bin", vec![1, 2, 3, 4]);
        let fd = c.open_path("/in.bin").unwrap();
        assert_eq!(c.read_fd(fd, 2).unwrap(), vec![1, 2]);
        assert_eq!(c.read_fd(fd, 10).unwrap(), vec![3, 4]);
        assert_eq!(c.read_fd(fd, 10).unwrap(), b"");
        assert_eq!(c.write_fd(fd, [[9, 9].as_slice()]).unwrap_err(), errno::BADF, "read-only");
        // A second open reads from the start; the host's re-seed is seen.
        c.put_file("/in.bin", vec![7]);
        let again = c.open_path("/in.bin").unwrap();
        assert_eq!(c.read_fd(again, 10).unwrap(), vec![7]);
        assert_eq!(c.read_fd(fd, 10).unwrap(), b"", "cursor past the shorter file");
    }

    #[test]
    fn missing_file_is_noent() {
        let mut c = ctx();
        assert_eq!(c.open_path("/missing").unwrap_err(), errno::NOENT);
    }

    #[test]
    fn boundary_charges_accumulate() {
        let mut c = ctx();
        let before = c.sandbox().account().user_ns();
        c.charge_boundary(1 << 20);
        assert!(c.sandbox().account().user_ns() > before);
        assert_eq!(c.call_count, 1);
    }

    #[test]
    fn bad_fd_errors() {
        let mut c = ctx();
        assert_eq!(c.write_fd(99, [b"x".as_slice()]).unwrap_err(), errno::BADF);
        assert_eq!(c.read_fd(99, 1).unwrap_err(), errno::BADF);
        assert_eq!(c.read_fd(0, 1).unwrap_err(), errno::BADF, "no stdin");
    }
}
