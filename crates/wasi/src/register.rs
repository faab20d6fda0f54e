//! Registration of the WASI calls the guests make into a [`Linker`].
//!
//! Five calls: `fd_read`, `fd_write`, `path_open`, `sock_send` and
//! `sock_recv` — the file reads, stdout writes and socket sends/receives
//! on which the paper's baselines pay WASI's per-call price. They follow
//! the `wasi_snapshot_preview1` ABI (iovec arrays in linear memory, errno
//! return codes) so guest code generated for real WASI toolchains maps
//! 1:1. Every call charges the guest↔host boundary cost plus per-byte VM
//! I/O for data crossing the sandbox — the overhead the paper's Fig. 2
//! quantifies. A guest importing any other WASI call fails to
//! instantiate with `InstanceError::MissingImport` (deny-by-default).

use std::borrow::Cow;

use roadrunner_wasm::types::{FuncType, ValType};
use roadrunner_wasm::{Caller, Linker, Memory, Trap};

use crate::ctx::{errno, WasiCtx};

/// Import namespace used by WASI preview 1.
pub const MODULE: &str = "wasi_snapshot_preview1";

/// Access to the [`WasiCtx`] inside an instance's host state.
///
/// Implemented by any embedder state that embeds a WASI context (the
/// Roadrunner shim's state does, so unmodified modules keep working —
/// the paper's backward-compatibility requirement in §7).
pub trait HasWasi {
    /// The embedded WASI context.
    fn wasi(&mut self) -> &mut WasiCtx;
}

impl HasWasi for WasiCtx {
    fn wasi(&mut self) -> &mut WasiCtx {
        self
    }
}

/// One guest iovec: a `(ptr, len)` pair in linear memory.
#[derive(Debug, Clone, Copy)]
struct IoVec {
    ptr: u32,
    len: u32,
}

/// The trap an access of `len` bytes at `addr` raises when it cannot
/// lie in `memory` — for ranges whose end does not even fit the `u32`
/// address space, which [`Memory::read`] has no way to be asked about.
fn out_of_bounds(memory: &Memory, addr: u64, len: u64) -> Trap {
    Trap::MemoryOutOfBounds { addr, len, memory_size: memory.len() as u64 }
}

/// Checks that the guest range `[ptr, ptr + len)` lies in `memory`.
/// Every call validates the ranges its arguments name with this before it
/// reserves, charges or consumes anything on their behalf, so
/// a call that traps on a bad pointer has had no other effect.
fn check_range(memory: &Memory, ptr: u32, len: u32) -> Result<(), Trap> {
    memory.read(ptr, len).map(drop)
}

/// Reads the `count` iovecs at `iovs` and checks every buffer they name.
///
/// The array itself must lie in memory, which bounds `count` by
/// `memory.len() / 8` before a single element is reserved for — a guest
/// cannot make the host allocate by naming a large count.
fn read_iovecs(memory: &Memory, iovs: u32, count: u32) -> Result<Vec<IoVec>, Trap> {
    let array_len = count
        .checked_mul(8)
        .ok_or_else(|| out_of_bounds(memory, iovs as u64, count as u64 * 8))?;
    let array = memory.read(iovs, array_len)?;
    let mut out = Vec::with_capacity(count as usize);
    for raw in array.chunks_exact(8) {
        let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
        let iov = IoVec { ptr: word(0), len: word(4) };
        check_range(memory, iov.ptr, iov.len)?;
        out.push(iov);
    }
    Ok(out)
}

/// The buffers `iovecs` name, lent from `memory` in order — `None` when
/// together they name more bytes than the memory holds (iovecs may
/// overlap, so a few words could otherwise make the host move gigabytes).
fn lend<'m>(memory: &'m Memory, iovecs: &[IoVec]) -> Result<Option<Vec<&'m [u8]>>, Trap> {
    if capacity(iovecs) > memory.len() {
        return Ok(None);
    }
    let parts = iovecs.iter().map(|iov| memory.read(iov.ptr, iov.len));
    parts.collect::<Result<_, _>>().map(Some)
}

/// The bytes `iovecs` name together.
fn capacity(iovecs: &[IoVec]) -> usize {
    iovecs.iter().map(|iov| iov.len as usize).sum()
}

/// Scatters `data` over `iovecs` in order; returns the bytes placed
/// (`data` may be longer than the buffers, or shorter).
fn scatter(memory: &mut Memory, iovecs: &[IoVec], data: &[u8]) -> Result<usize, Trap> {
    let mut offset = 0usize;
    for iov in iovecs {
        if offset >= data.len() {
            break;
        }
        let take = (iov.len as usize).min(data.len() - offset);
        memory.write(iov.ptr, &data[offset..offset + take])?;
        offset += take;
    }
    Ok(offset)
}

fn arg_i32(args: &[roadrunner_wasm::Value], i: usize) -> i32 {
    args[i].as_i32().expect("typed by signature")
}

fn ret(errno: i32) -> Result<Vec<roadrunner_wasm::Value>, Trap> {
    Ok(vec![roadrunner_wasm::Value::I32(errno)])
}

/// Registers the five calls into `linker` for host state `T`: `fd_write`
/// (fd 1 only), `fd_read` and `path_open` (the host's
/// [`WasiCtx::put_file`] seeds, read-only), `sock_send` and `sock_recv`.
pub fn register<T: HasWasi + Send + 'static>(linker: &mut Linker) {
    let i32_ = ValType::I32;
    let i64_ = ValType::I64;

    // fd_write(fd, iovs, iovs_len, nwritten) -> errno
    linker.define(
        MODULE,
        "fd_write",
        FuncType::new([i32_, i32_, i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let iovs = arg_i32(args, 1) as u32;
            let count = arg_i32(args, 2) as u32;
            let nwritten_ptr = arg_i32(args, 3) as u32;
            let (memory, state) = caller.memory_and_data::<T>()?;
            check_range(memory, nwritten_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let Some(parts) = lend(memory, &iovecs)? else {
                return ret(errno::INVAL);
            };
            let ctx = state.wasi();
            ctx.charge_boundary(capacity(&iovecs));
            match ctx.write_fd(fd, parts) {
                Ok(n) => {
                    memory.store::<4>(nwritten_ptr, 0, (n as u32).to_le_bytes())?;
                    ret(errno::SUCCESS)
                }
                Err(e) => ret(e),
            }
        },
    );

    // fd_read(fd, iovs, iovs_len, nread) -> errno
    linker.define(
        MODULE,
        "fd_read",
        FuncType::new([i32_, i32_, i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let iovs = arg_i32(args, 1) as u32;
            let count = arg_i32(args, 2) as u32;
            let nread_ptr = arg_i32(args, 3) as u32;
            let (memory, state) = caller.memory_and_data::<T>()?;
            check_range(memory, nread_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let ctx = state.wasi();
            let placed = match ctx.read_fd(fd, capacity(&iovecs)) {
                Ok(data) => scatter(memory, &iovecs, data)?,
                Err(e) => return ret(e),
            };
            ctx.charge_boundary(placed);
            memory.store::<4>(nread_ptr, 0, (placed as u32).to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );

    // path_open(dirfd, dirflags, path, path_len, oflags, rights_base,
    //           rights_inheriting, fdflags, opened_fd) -> errno
    linker.define(
        MODULE,
        "path_open",
        FuncType::new(
            [i32_, i32_, i32_, i32_, i32_, i64_, i64_, i32_, i32_],
            [i32_],
        ),
        |mut caller: Caller<'_>, args| {
            let path_ptr = arg_i32(args, 2) as u32;
            let path_len = arg_i32(args, 3) as u32;
            let fd_ptr = arg_i32(args, 8) as u32;
            check_range(caller.memory()?, fd_ptr, 4)?;
            let path = caller.read_string(path_ptr, path_len)?;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(path.len());
            match ctx.open_path(&path) {
                Ok(fd) => {
                    caller.memory()?.store::<4>(fd_ptr, 0, fd.to_le_bytes())?;
                    ret(errno::SUCCESS)
                }
                Err(e) => ret(e),
            }
        },
    );

    // sock_send(fd, si_data, si_data_len, si_flags, so_datalen) -> errno
    linker.define(
        MODULE,
        "sock_send",
        FuncType::new([i32_, i32_, i32_, i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let iovs = arg_i32(args, 1) as u32;
            let count = arg_i32(args, 2) as u32;
            let sent_ptr = arg_i32(args, 4) as u32;
            let (memory, state) = caller.memory_and_data::<T>()?;
            check_range(memory, sent_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let Some(parts) = lend(memory, &iovecs)? else {
                return ret(errno::INVAL);
            };
            // The socket takes one buffer: several iovecs are gathered
            // into one first, a single one is sent from where it lies.
            let data = match parts[..] {
                [one] => Cow::Borrowed(one),
                _ => Cow::Owned(parts.concat()),
            };
            let ctx = state.wasi();
            ctx.charge_boundary(data.len());
            let Some(socket) = ctx.socket(fd) else {
                return ret(errno::BADF);
            };
            match socket.send(ctx.sandbox(), &data) {
                Ok(n) => {
                    memory.store::<4>(sent_ptr, 0, (n as u32).to_le_bytes())?;
                    ret(errno::SUCCESS)
                }
                Err(e) => ret(e),
            }
        },
    );

    // sock_recv(fd, ri_data, ri_data_len, ri_flags, ro_datalen, ro_flags)
    linker.define(
        MODULE,
        "sock_recv",
        FuncType::new([i32_, i32_, i32_, i32_, i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let iovs = arg_i32(args, 1) as u32;
            let count = arg_i32(args, 2) as u32;
            let recvd_ptr = arg_i32(args, 4) as u32;
            let flags_ptr = arg_i32(args, 5) as u32;
            let (memory, state) = caller.memory_and_data::<T>()?;
            check_range(memory, recvd_ptr, 4)?;
            check_range(memory, flags_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let ctx = state.wasi();
            let Some(socket) = ctx.socket(fd) else {
                return ret(errno::BADF);
            };
            // The segment lands straight from its kernel buffer; what the
            // iovecs cannot hold stays queued for the next call.
            let sandbox = ctx.sandbox();
            let landed = socket.recv_with(sandbox, capacity(&iovecs), |seg| {
                sandbox.account().count_copy(seg.len());
                scatter(memory, &iovecs, seg)
            });
            let placed = match landed {
                Ok(Some(placed)) => placed?,
                // Peer closed: zero bytes, ro_flags = 0 (like EOF).
                Ok(None) => 0,
                Err(e) => return ret(e),
            };
            ctx.charge_boundary(placed);
            memory.store::<4>(recvd_ptr, 0, (placed as u32).to_le_bytes())?;
            memory.store::<4>(flags_ptr, 0, 0u32.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::EndpointSocket;
    use roadrunner_vkernel::node::Sandbox;
    use roadrunner_vkernel::unix::UnixConn;
    use roadrunner_vkernel::{CostModel, VirtualClock};
    use roadrunner_wasm::types::Value;
    use roadrunner_wasm::{EngineLimits, Instance, InstanceError, Instr, MemArg, ModuleBuilder};
    use std::sync::Arc;

    fn sandbox(name: &str) -> Sandbox {
        Sandbox::detached(name, VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
    }

    fn wasi_ctx() -> WasiCtx {
        WasiCtx::new(sandbox("guest"))
    }

    fn linker() -> Linker {
        let mut linker = Linker::new();
        register::<WasiCtx>(&mut linker);
        linker
    }

    /// Builds a module that writes `msg` to fd 1 via one iovec at address
    /// 0 (iovec) / 16 (payload).
    fn hello_module(msg: &[u8]) -> roadrunner_wasm::Module {
        let i32_ = ValType::I32;
        ModuleBuilder::new()
            .import_func(
                MODULE,
                "fd_write",
                FuncType::new([i32_, i32_, i32_, i32_], [i32_]),
            )
            .memory(1, None)
            .data(16, msg.to_vec())
            .func(
                FuncType::new([], [ValType::I32]),
                [],
                [
                    // iovec { ptr: 16, len: msg.len() } at address 0.
                    Instr::I32Const(0),
                    Instr::I32Const(16),
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(4),
                    Instr::I32Const(msg.len() as i32),
                    Instr::I32Store(MemArg::default()),
                    // fd_write(1, 0, 1, 8)
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(1),
                    Instr::I32Const(8),
                    Instr::Call(0),
                ],
            )
            .export_func("_start", 1)
            .build()
            .unwrap()
    }

    #[test]
    fn guest_fd_write_reaches_stdout() {
        let module = hello_module(b"hello wasi");
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(wasi_ctx()))
                .unwrap();
        let out = inst.invoke("_start", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(errno::SUCCESS)]);
        let ctx = inst.data::<WasiCtx>().unwrap();
        assert_eq!(ctx.stdout, b"hello wasi");
        assert!(ctx.call_count >= 1);
        assert!(ctx.sandbox().account().user_ns() > 0, "boundary cost charged");
    }

    #[test]
    fn preview1_calls_no_guest_makes_fail_to_instantiate() {
        // Each with its preview-1 signature, so only the missing
        // definition can refuse it.
        let (i32_, i64_) = (ValType::I32, ValType::I64);
        let errno_ = || vec![i32_];
        let calls = [
            ("fd_close", vec![i32_], errno_()),
            ("fd_seek", vec![i32_, i64_, i32_, i32_], errno_()),
            ("random_get", vec![i32_; 2], errno_()),
            ("clock_time_get", vec![i32_, i64_, i32_], errno_()),
            ("args_sizes_get", vec![i32_; 2], errno_()),
            ("args_get", vec![i32_; 2], errno_()),
            ("environ_sizes_get", vec![i32_; 2], errno_()),
            ("environ_get", vec![i32_; 2], errno_()),
            ("proc_exit", vec![i32_], vec![]),
        ];
        for (call, params, results) in calls {
            let module = ModuleBuilder::new()
                .import_func(MODULE, call, FuncType::new(params, results))
                .memory(1, None)
                .build()
                .unwrap();
            match Instance::new(module, &linker(), EngineLimits::default(), Box::new(wasi_ctx())) {
                Err(InstanceError::MissingImport { module, name }) => {
                    assert_eq!((module.as_str(), name.as_str()), (MODULE, call));
                }
                other => panic!("{call}: expected MissingImport, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn sock_send_and_recv_through_a_unix_pair() {
        let i32_ = ValType::I32;
        let module = ModuleBuilder::new()
            .import_func(
                MODULE,
                "sock_send",
                FuncType::new([i32_, i32_, i32_, i32_, i32_], [i32_]),
            )
            .import_func(
                MODULE,
                "sock_recv",
                FuncType::new([i32_, i32_, i32_, i32_, i32_, i32_], [i32_]),
            )
            .memory(1, None)
            .data(32, b"ping".to_vec())
            .func(
                FuncType::new([i32_], [i32_]),
                [],
                [
                    // iovec {32, 4} at 0.
                    Instr::I32Const(0),
                    Instr::I32Const(32),
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(4),
                    Instr::I32Const(4),
                    Instr::I32Store(MemArg::default()),
                    // sock_send(fd, 0, 1, 0, 8)
                    Instr::LocalGet(0),
                    Instr::I32Const(0),
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(8),
                    Instr::Call(0),
                    Instr::Drop,
                    // recv iovec {64, 16} at 12.
                    Instr::I32Const(12),
                    Instr::I32Const(64),
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(16),
                    Instr::I32Const(16),
                    Instr::I32Store(MemArg::default()),
                    // sock_recv(fd, 12, 1, 0, 20, 24)
                    Instr::LocalGet(0),
                    Instr::I32Const(12),
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(20),
                    Instr::I32Const(24),
                    Instr::Call(1),
                ],
            )
            .export_func("echo", 2)
            .build()
            .unwrap();
        let (peer, end) = UnixConn::pair();
        let outside = sandbox("peer");
        peer.send(&outside, b"pong").unwrap();
        let mut ctx = wasi_ctx();
        let fd = ctx.add_socket(Box::new(EndpointSocket::new(end)));
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(ctx)).unwrap();
        let out = inst.invoke("echo", &[Value::I32(fd as i32)]).unwrap();
        assert_eq!(out, vec![Value::I32(errno::SUCCESS)]);
        let mem = inst.memory().unwrap();
        assert_eq!(mem.read(64, 4).unwrap(), b"pong");
        let received = u32::from_le_bytes(mem.load::<4>(20, 0).unwrap());
        assert_eq!(received, 4);
        assert_eq!(peer.recv(&outside).unwrap().unwrap(), b"ping".as_slice());
    }

    /// A module exporting `recv(fd, ptr, len)`: one `sock_recv` into the
    /// iovec `{ptr, len}` at address 0, the byte count received at 8.
    fn recv_module() -> roadrunner_wasm::Module {
        let i32_ = ValType::I32;
        ModuleBuilder::new()
            .import_func(MODULE, "sock_recv", FuncType::new([i32_; 6], [i32_]))
            .memory(1, None)
            .func(
                FuncType::new([i32_; 3], [i32_]),
                [],
                [
                    Instr::I32Const(0),
                    Instr::LocalGet(1),
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(4),
                    Instr::LocalGet(2),
                    Instr::I32Store(MemArg::default()),
                    // sock_recv(fd, 0, 1, 0, 8, 12)
                    Instr::LocalGet(0),
                    Instr::I32Const(0),
                    Instr::I32Const(1),
                    Instr::I32Const(0),
                    Instr::I32Const(8),
                    Instr::I32Const(12),
                    Instr::Call(0),
                ],
            )
            .export_func("recv", 1)
            .build()
            .unwrap()
    }

    #[test]
    fn sock_recv_keeps_what_a_short_iovec_cannot_hold() {
        let (peer, end) = UnixConn::pair();
        peer.send(&sandbox("peer"), b"0123456789abcdef").unwrap();
        peer.send(&sandbox("peer"), b"next").unwrap();
        let mut ctx = wasi_ctx();
        let fd = ctx.add_socket(Box::new(EndpointSocket::new(end))) as i32;
        let guest = ctx.sandbox().clone();
        let cost = guest.cost().clone();
        let mut inst =
            Instance::new(recv_module(), &linker(), EngineLimits::default(), Box::new(ctx))
                .unwrap();
        for (at, want) in [(64, b"01234567"), (128, b"89abcdef")] {
            let (user, kernel) = (guest.user_ns(), guest.kernel_ns());
            let out = inst.invoke("recv", &[Value::I32(fd), Value::I32(at), Value::I32(8)]);
            assert_eq!(out.unwrap(), vec![Value::I32(errno::SUCCESS)]);
            let mem = inst.memory().unwrap();
            assert_eq!(mem.load::<4>(8, 0).unwrap(), 8u32.to_le_bytes());
            assert_eq!(mem.read(at as u32, 8).unwrap(), want);
            // Each call is charged for the eight bytes it placed.
            assert_eq!(guest.user_ns() - user, cost.wasm_boundary_ns + cost.vm_io_ns(8));
            let recv = cost.syscall_ns + cost.ctx_switch_ns + cost.memcpy_ns(8);
            assert_eq!(guest.kernel_ns() - kernel, recv);
        }
        assert_eq!(guest.account().copied_bytes(), 16);
        let out = inst.invoke("recv", &[Value::I32(fd), Value::I32(192), Value::I32(8)]);
        assert_eq!(out.unwrap(), vec![Value::I32(errno::SUCCESS)]);
        assert_eq!(inst.memory().unwrap().read(192, 4).unwrap(), b"next");
    }

    #[test]
    fn sock_on_bad_fd_returns_badf() {
        let i32_ = ValType::I32;
        let module = ModuleBuilder::new()
            .import_func(
                MODULE,
                "sock_send",
                FuncType::new([i32_, i32_, i32_, i32_, i32_], [i32_]),
            )
            .memory(1, None)
            .func(
                FuncType::new([], [i32_]),
                [],
                [
                    Instr::I32Const(99),
                    Instr::I32Const(0),
                    Instr::I32Const(0),
                    Instr::I32Const(0),
                    Instr::I32Const(8),
                    Instr::Call(0),
                ],
            )
            .export_func("bad", 1)
            .build()
            .unwrap();
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(wasi_ctx()))
                .unwrap();
        let out = inst.invoke("bad", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(errno::BADF)]);
    }

    #[test]
    fn file_io_through_path_open() {
        let i32_ = ValType::I32;
        let i64_ = ValType::I64;
        let module = ModuleBuilder::new()
            .import_func(
                MODULE,
                "path_open",
                FuncType::new(
                    [i32_, i32_, i32_, i32_, i32_, i64_, i64_, i32_, i32_],
                    [i32_],
                ),
            )
            .import_func(MODULE, "fd_read", FuncType::new([i32_, i32_, i32_, i32_], [i32_]))
            .memory(1, None)
            .data(0, b"/data/frame.raw".to_vec())
            .func(
                FuncType::new([], [i32_]),
                [ValType::I32],
                [
                    // path_open(3, 0, path=0, len=15, oflags=0, 0, 0, 0, fd@100)
                    Instr::I32Const(3),
                    Instr::I32Const(0),
                    Instr::I32Const(0),
                    Instr::I32Const(15),
                    Instr::I32Const(0),
                    Instr::I64Const(0),
                    Instr::I64Const(0),
                    Instr::I32Const(0),
                    Instr::I32Const(100),
                    Instr::Call(0),
                    Instr::Drop,
                    // fd = *(100)
                    Instr::I32Const(100),
                    Instr::I32Load(MemArg::default()),
                    Instr::LocalSet(0),
                    // iovec {200, 8} at 104.
                    Instr::I32Const(104),
                    Instr::I32Const(200),
                    Instr::I32Store(MemArg::default()),
                    Instr::I32Const(108),
                    Instr::I32Const(8),
                    Instr::I32Store(MemArg::default()),
                    // fd_read(fd, 104, 1, 112)
                    Instr::LocalGet(0),
                    Instr::I32Const(104),
                    Instr::I32Const(1),
                    Instr::I32Const(112),
                    Instr::Call(1),
                ],
            )
            .export_func("read_file", 2)
            .build()
            .unwrap();
        let mut ctx = wasi_ctx();
        ctx.put_file("/data/frame.raw", b"RAWDATA!".to_vec());
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(ctx)).unwrap();
        let out = inst.invoke("read_file", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(errno::SUCCESS)]);
        assert_eq!(inst.memory().unwrap().read(200, 8).unwrap(), b"RAWDATA!");
    }
}
