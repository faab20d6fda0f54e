//! The WASI context: per-instance host state behind the system interface.

use std::collections::HashMap;

use roadrunner_vkernel::node::Sandbox;

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

/// Largest size a guest's writes may grow an in-memory file to: the
/// engine's default linear-memory cap. A guest can seek anywhere, but a
/// write that would stretch the file past this is refused (`INVAL`)
/// rather than served by zero-filling whatever the host has.
const MAX_FILE_LEN: usize = 1 << 30;

/// A socket backend a WASI `sock_send`/`sock_recv` pair talks to.
///
/// The baselines install adapters over the virtual kernel's TCP or Unix
/// endpoints; tests install loopback stubs.
pub trait WasiSocket: Send {
    /// Sends `data`, returning bytes accepted.
    fn send(&mut self, sandbox: &Sandbox, data: &[u8]) -> Result<usize, i32>;
    /// Receives up to one buffered segment (empty when nothing is ready,
    /// `None` when the peer closed).
    fn recv(&mut self, sandbox: &Sandbox) -> Result<Option<Vec<u8>>, i32>;
}

#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    cursor: usize,
    writable: bool,
}

/// Host-side state for one WASI instance: stdio, an in-memory filesystem,
/// sockets, args/env, and the sandbox whose account is charged for every
/// boundary crossing.
///
/// The paper's Fig. 2a shows WASI-mediated host access dominating Wasm
/// execution time for I/O workloads — the per-call boundary cost plus the
/// copy in/out of linear memory charged here is exactly that overhead.
pub struct WasiCtx {
    sandbox: Sandbox,
    /// Bytes written to fd 1.
    pub stdout: Vec<u8>,
    /// Bytes written to fd 2.
    pub stderr: Vec<u8>,
    /// Bytes readable from fd 0.
    pub stdin: Vec<u8>,
    stdin_cursor: usize,
    args: Vec<String>,
    env: Vec<(String, String)>,
    files: HashMap<String, Vec<u8>>,
    open_files: HashMap<u32, OpenFile>,
    sockets: HashMap<u32, Box<dyn WasiSocket>>,
    next_fd: u32,
    rng_state: u64,
    /// Exit code recorded by `proc_exit`.
    pub exit_code: Option<u32>,
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
            stderr: Vec::new(),
            stdin: Vec::new(),
            stdin_cursor: 0,
            args: Vec::new(),
            env: Vec::new(),
            files: HashMap::new(),
            open_files: HashMap::new(),
            sockets: HashMap::new(),
            next_fd: 4, // 0-2 stdio, 3 reserved for the preopened root
            rng_state: 0x853c_49e6_748f_ea9b,
            exit_code: None,
            call_count: 0,
        }
    }

    /// The sandbox charged for WASI work.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Sets command-line arguments.
    pub fn set_args<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, args: I) {
        self.args = args.into_iter().map(Into::into).collect();
    }

    /// Arguments visible to the guest.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Adds an environment variable.
    pub fn push_env(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.env.push((key.into(), value.into()));
    }

    /// Environment visible to the guest.
    pub fn env(&self) -> &[(String, String)] {
        &self.env
    }

    /// Seeds the deterministic `random_get` stream.
    pub fn seed_rng(&mut self, seed: u64) {
        self.rng_state = seed.max(1);
    }

    pub(crate) fn next_random(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// Places a file in the in-memory filesystem.
    pub fn put_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.files.insert(path.into(), contents);
    }

    /// Reads a file back out of the in-memory filesystem.
    pub fn file(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(Vec::as_slice)
    }

    /// Installs a socket backend; returns its fd.
    pub fn add_socket(&mut self, socket: Box<dyn WasiSocket>) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.sockets.insert(fd, socket);
        fd
    }

    pub(crate) fn socket_mut(&mut self, fd: u32) -> Option<&mut Box<dyn WasiSocket>> {
        self.sockets.get_mut(&fd)
    }

    pub(crate) fn open_path(&mut self, path: &str, create: bool) -> Result<u32, i32> {
        if !self.files.contains_key(path) {
            if create {
                self.files.insert(path.to_owned(), Vec::new());
            } else {
                return Err(errno::NOENT);
            }
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open_files
            .insert(fd, OpenFile { path: path.to_owned(), cursor: 0, writable: true });
        Ok(fd)
    }

    pub(crate) fn close_fd(&mut self, fd: u32) -> Result<(), i32> {
        if self.open_files.remove(&fd).is_some() || self.sockets.remove(&fd).is_some() {
            Ok(())
        } else {
            Err(errno::BADF)
        }
    }

    pub(crate) fn write_fd(&mut self, fd: u32, data: &[u8]) -> Result<usize, i32> {
        match fd {
            1 => {
                self.stdout.extend_from_slice(data);
                Ok(data.len())
            }
            2 => {
                self.stderr.extend_from_slice(data);
                Ok(data.len())
            }
            _ => {
                let open = self.open_files.get_mut(&fd).ok_or(errno::BADF)?;
                if !open.writable {
                    return Err(errno::INVAL);
                }
                let file = self.files.get_mut(&open.path).ok_or(errno::NOENT)?;
                let end = open.cursor.saturating_add(data.len());
                if end > MAX_FILE_LEN.max(file.len()) {
                    return Err(errno::INVAL);
                }
                if file.len() < end {
                    file.resize(end, 0);
                }
                file[open.cursor..end].copy_from_slice(data);
                open.cursor = end;
                Ok(data.len())
            }
        }
    }

    pub(crate) fn read_fd(&mut self, fd: u32, max: usize) -> Result<Vec<u8>, i32> {
        match fd {
            0 => {
                let end = self.stdin_cursor.saturating_add(max).min(self.stdin.len());
                let out = self.stdin[self.stdin_cursor..end].to_vec();
                self.stdin_cursor = end;
                Ok(out)
            }
            _ => {
                let open = self.open_files.get_mut(&fd).ok_or(errno::BADF)?;
                let file = self.files.get(&open.path).ok_or(errno::NOENT)?;
                // A cursor seeked past the end reads nothing and stays put.
                let Some(rest) = file.get(open.cursor..) else {
                    return Ok(Vec::new());
                };
                let out = rest[..max.min(rest.len())].to_vec();
                open.cursor += out.len();
                Ok(out)
            }
        }
    }

    pub(crate) fn seek_fd(&mut self, fd: u32, offset: i64, whence: u8) -> Result<u64, i32> {
        let open = self.open_files.get_mut(&fd).ok_or(errno::BADF)?;
        let len = self.files.get(&open.path).map(Vec::len).unwrap_or(0) as i64;
        let base = match whence {
            0 => 0,                    // SET
            1 => open.cursor as i64,   // CUR
            2 => len,                  // END
            _ => return Err(errno::INVAL),
        };
        let target = base
            .checked_add(offset)
            .and_then(|t| usize::try_from(t).ok())
            .ok_or(errno::INVAL)?;
        open.cursor = target;
        Ok(target as u64)
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
    fn stdout_and_stderr_capture() {
        let mut c = ctx();
        assert_eq!(c.write_fd(1, b"out").unwrap(), 3);
        assert_eq!(c.write_fd(2, b"err").unwrap(), 3);
        assert_eq!(c.stdout, b"out");
        assert_eq!(c.stderr, b"err");
    }

    #[test]
    fn stdin_reads_advance_cursor() {
        let mut c = ctx();
        c.stdin = b"abcdef".to_vec();
        assert_eq!(c.read_fd(0, 4).unwrap(), b"abcd");
        assert_eq!(c.read_fd(0, 4).unwrap(), b"ef");
        assert_eq!(c.read_fd(0, 4).unwrap(), b"");
    }

    #[test]
    fn file_open_read_write() {
        let mut c = ctx();
        c.put_file("/in.bin", vec![1, 2, 3, 4]);
        let fd = c.open_path("/in.bin", false).unwrap();
        assert_eq!(c.read_fd(fd, 2).unwrap(), vec![1, 2]);
        assert_eq!(c.read_fd(fd, 10).unwrap(), vec![3, 4]);
        c.seek_fd(fd, 0, 0).unwrap();
        c.write_fd(fd, &[9, 9]).unwrap();
        assert_eq!(c.file("/in.bin").unwrap(), &[9, 9, 3, 4]);
        c.close_fd(fd).unwrap();
        assert_eq!(c.read_fd(fd, 1).unwrap_err(), errno::BADF);
    }

    #[test]
    fn missing_file_is_noent() {
        let mut c = ctx();
        assert_eq!(c.open_path("/missing", false).unwrap_err(), errno::NOENT);
        let fd = c.open_path("/created", true).unwrap();
        c.write_fd(fd, b"x").unwrap();
        assert_eq!(c.file("/created").unwrap(), b"x");
    }

    #[test]
    fn seek_whence_variants() {
        let mut c = ctx();
        c.put_file("/f", vec![0; 10]);
        let fd = c.open_path("/f", false).unwrap();
        assert_eq!(c.seek_fd(fd, 4, 0).unwrap(), 4);
        assert_eq!(c.seek_fd(fd, 2, 1).unwrap(), 6);
        assert_eq!(c.seek_fd(fd, -1, 2).unwrap(), 9);
        assert_eq!(c.seek_fd(fd, -100, 1).unwrap_err(), errno::INVAL);
        assert_eq!(c.seek_fd(fd, 0, 9).unwrap_err(), errno::INVAL);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = ctx();
        let mut b = ctx();
        a.seed_rng(7);
        b.seed_rng(7);
        assert_eq!(a.next_random(), b.next_random());
        b.seed_rng(8);
        assert_ne!(a.next_random(), b.next_random());
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
        assert_eq!(c.write_fd(99, b"x").unwrap_err(), errno::BADF);
        assert_eq!(c.read_fd(99, 1).unwrap_err(), errno::BADF);
        assert_eq!(c.close_fd(99).unwrap_err(), errno::BADF);
    }
}
