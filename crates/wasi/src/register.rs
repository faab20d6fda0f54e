//! Registration of the WASI host-function family into a [`Linker`].
//!
//! Functions follow the `wasi_snapshot_preview1` ABI (iovec arrays in
//! linear memory, errno return codes) so guest code generated for real
//! WASI toolchains maps 1:1. Every call charges the guest↔host boundary
//! cost plus per-byte VM I/O for data crossing the sandbox — the overhead
//! the paper's Fig. 2 quantifies.

use roadrunner_wasm::types::{FuncType, ValType};
use roadrunner_wasm::{Caller, Linker, Memory, Trap};

use crate::ctx::{errno, WasiCtx};

/// Import namespace used by WASI preview 1.
pub const MODULE: &str = "wasi_snapshot_preview1";

/// Trap message raised by `proc_exit`; embedders treat it as a clean
/// termination and read the code from [`WasiCtx::exit_code`].
pub const PROC_EXIT: &str = "proc_exit";

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
/// reserves, charges, generates or consumes anything on their behalf, so
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

/// Gathers the bytes the `count` iovecs at `iovs` name, in order —
/// `None` when together they name more bytes than the memory holds
/// (iovecs may overlap, so a few words could otherwise ask the host to
/// assemble gigabytes).
fn gather(memory: &Memory, iovs: u32, count: u32) -> Result<Option<Vec<u8>>, Trap> {
    let iovecs = read_iovecs(memory, iovs, count)?;
    let total: u64 = iovecs.iter().map(|v| v.len as u64).sum();
    if total > memory.len() as u64 {
        return Ok(None);
    }
    let mut data = Vec::with_capacity(total as usize);
    for iov in iovecs {
        data.extend_from_slice(memory.read(iov.ptr, iov.len)?);
    }
    Ok(Some(data))
}

/// Scatters `data` over `iovecs` in order; returns the bytes placed
/// (`data` may be longer than the buffers, or shorter).
fn scatter(memory: &mut Memory, iovecs: &[IoVec], data: &[u8]) -> Result<u32, Trap> {
    let mut offset = 0usize;
    for iov in iovecs {
        if offset >= data.len() {
            break;
        }
        let take = (iov.len as usize).min(data.len() - offset);
        memory.write(iov.ptr, &data[offset..offset + take])?;
        offset += take;
    }
    Ok(offset as u32)
}

/// Lays `entries` out the way `args_get` and `environ_get` do: a table
/// of pointers at `table_ptr`, the NUL-terminated strings packed from
/// `buf_ptr`.
fn write_string_table(
    memory: &mut Memory,
    table_ptr: u32,
    buf_ptr: u32,
    entries: &[String],
) -> Result<(), Trap> {
    let mut cursor = buf_ptr;
    for (i, entry) in entries.iter().enumerate() {
        let len = entry.len() as u32;
        memory.store::<4>(table_ptr, 4 * i as u32, cursor.to_le_bytes())?;
        memory.write(cursor, entry.as_bytes())?;
        memory.store::<1>(cursor, len, [0])?;
        cursor = cursor
            .checked_add(len + 1)
            .ok_or_else(|| out_of_bounds(memory, cursor as u64, len as u64 + 1))?;
    }
    Ok(())
}

fn arg_i32(args: &[roadrunner_wasm::Value], i: usize) -> i32 {
    args[i].as_i32().expect("typed by signature")
}

fn arg_i64(args: &[roadrunner_wasm::Value], i: usize) -> i64 {
    args[i].as_i64().expect("typed by signature")
}

fn ret(errno: i32) -> Result<Vec<roadrunner_wasm::Value>, Trap> {
    Ok(vec![roadrunner_wasm::Value::I32(errno)])
}

/// Registers the full WASI subset into `linker` for host state `T`.
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
            let memory = caller.memory()?;
            check_range(memory, nwritten_ptr, 4)?;
            let Some(data) = gather(memory, iovs, count)? else {
                return ret(errno::INVAL);
            };
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(data.len());
            match ctx.write_fd(fd, &data) {
                Ok(n) => {
                    caller.memory()?.store::<4>(nwritten_ptr, 0, (n as u32).to_le_bytes())?;
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
            let memory = caller.memory()?;
            check_range(memory, nread_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let want: usize = iovecs.iter().map(|v| v.len as usize).sum();
            let ctx = caller.data::<T>()?.wasi();
            let data = match ctx.read_fd(fd, want) {
                Ok(d) => d,
                Err(e) => return ret(e),
            };
            ctx.charge_boundary(data.len());
            let memory = caller.memory()?;
            let placed = scatter(memory, &iovecs, &data)?;
            memory.store::<4>(nread_ptr, 0, placed.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );

    // fd_close(fd) -> errno
    linker.define(
        MODULE,
        "fd_close",
        FuncType::new([i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(0);
            match ctx.close_fd(fd) {
                Ok(()) => ret(errno::SUCCESS),
                Err(e) => ret(e),
            }
        },
    );

    // fd_seek(fd, offset, whence, newoffset) -> errno
    linker.define(
        MODULE,
        "fd_seek",
        FuncType::new([i32_, i64_, i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let fd = arg_i32(args, 0) as u32;
            let offset = arg_i64(args, 1);
            let whence = arg_i32(args, 2) as u8;
            let new_ptr = arg_i32(args, 3) as u32;
            check_range(caller.memory()?, new_ptr, 8)?;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(0);
            match ctx.seek_fd(fd, offset, whence) {
                Ok(pos) => {
                    caller.memory()?.store::<8>(new_ptr, 0, pos.to_le_bytes())?;
                    ret(errno::SUCCESS)
                }
                Err(e) => ret(e),
            }
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
            let oflags = arg_i32(args, 4);
            let fd_ptr = arg_i32(args, 8) as u32;
            check_range(caller.memory()?, fd_ptr, 4)?;
            let path = caller.read_string(path_ptr, path_len)?;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(path.len());
            let create = oflags & 0x1 != 0; // OFLAGS_CREAT
            match ctx.open_path(&path, create) {
                Ok(fd) => {
                    caller.memory()?.store::<4>(fd_ptr, 0, fd.to_le_bytes())?;
                    ret(errno::SUCCESS)
                }
                Err(e) => ret(e),
            }
        },
    );

    // random_get(buf, len) -> errno
    linker.define(
        MODULE,
        "random_get",
        FuncType::new([i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let buf = arg_i32(args, 0) as u32;
            let len = arg_i32(args, 1) as u32;
            check_range(caller.memory()?, buf, len)?;
            let len = len as usize;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(len);
            let mut bytes = Vec::with_capacity(len);
            while bytes.len() < len {
                bytes.extend_from_slice(&ctx.next_random().to_le_bytes());
            }
            bytes.truncate(len);
            caller.memory()?.write(buf, &bytes)?;
            ret(errno::SUCCESS)
        },
    );

    // clock_time_get(id, precision, time_ptr) -> errno
    linker.define(
        MODULE,
        "clock_time_get",
        FuncType::new([i32_, i64_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let time_ptr = arg_i32(args, 2) as u32;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(8);
            let now = ctx.sandbox().clock().now();
            caller.memory()?.store::<8>(time_ptr, 0, now.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );

    // args_sizes_get(argc_ptr, argv_buf_size_ptr) -> errno
    linker.define(
        MODULE,
        "args_sizes_get",
        FuncType::new([i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let argc_ptr = arg_i32(args, 0) as u32;
            let size_ptr = arg_i32(args, 1) as u32;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(8);
            let argc = ctx.args().len() as u32;
            let buf: u32 = ctx.args().iter().map(|a| a.len() as u32 + 1).sum();
            let memory = caller.memory()?;
            memory.store::<4>(argc_ptr, 0, argc.to_le_bytes())?;
            memory.store::<4>(size_ptr, 0, buf.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );

    // args_get(argv_ptr, argv_buf_ptr) -> errno
    linker.define(
        MODULE,
        "args_get",
        FuncType::new([i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let argv_ptr = arg_i32(args, 0) as u32;
            let buf_ptr = arg_i32(args, 1) as u32;
            let arg_list = {
                let ctx = caller.data::<T>()?.wasi();
                let list = ctx.args().to_vec();
                ctx.charge_boundary(list.iter().map(String::len).sum());
                list
            };
            write_string_table(caller.memory()?, argv_ptr, buf_ptr, &arg_list)?;
            ret(errno::SUCCESS)
        },
    );

    // environ_sizes_get / environ_get — same layout as args.
    linker.define(
        MODULE,
        "environ_sizes_get",
        FuncType::new([i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let count_ptr = arg_i32(args, 0) as u32;
            let size_ptr = arg_i32(args, 1) as u32;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(8);
            let count = ctx.env().len() as u32;
            let buf: u32 = ctx.env().iter().map(|(k, v)| (k.len() + v.len() + 2) as u32).sum();
            let memory = caller.memory()?;
            memory.store::<4>(count_ptr, 0, count.to_le_bytes())?;
            memory.store::<4>(size_ptr, 0, buf.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );

    linker.define(
        MODULE,
        "environ_get",
        FuncType::new([i32_, i32_], [i32_]),
        |mut caller: Caller<'_>, args| {
            let environ_ptr = arg_i32(args, 0) as u32;
            let buf_ptr = arg_i32(args, 1) as u32;
            let pairs = {
                let ctx = caller.data::<T>()?.wasi();
                let pairs: Vec<String> =
                    ctx.env().iter().map(|(k, v)| format!("{k}={v}")).collect();
                ctx.charge_boundary(pairs.iter().map(String::len).sum());
                pairs
            };
            write_string_table(caller.memory()?, environ_ptr, buf_ptr, &pairs)?;
            ret(errno::SUCCESS)
        },
    );

    // proc_exit(code) -> never returns
    linker.define(
        MODULE,
        "proc_exit",
        FuncType::new([i32_], []),
        |mut caller: Caller<'_>, args| {
            let code = arg_i32(args, 0) as u32;
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(0);
            ctx.exit_code = Some(code);
            Err(Trap::host(PROC_EXIT))
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
            let memory = caller.memory()?;
            check_range(memory, sent_ptr, 4)?;
            let Some(data) = gather(memory, iovs, count)? else {
                return ret(errno::INVAL);
            };
            let ctx = caller.data::<T>()?.wasi();
            ctx.charge_boundary(data.len());
            let sandbox = ctx.sandbox().clone();
            let Some(socket) = ctx.socket_mut(fd) else {
                return ret(errno::BADF);
            };
            match socket.send(&sandbox, &data) {
                Ok(n) => {
                    caller.memory()?.store::<4>(sent_ptr, 0, (n as u32).to_le_bytes())?;
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
            let memory = caller.memory()?;
            check_range(memory, recvd_ptr, 4)?;
            check_range(memory, flags_ptr, 4)?;
            let iovecs = read_iovecs(memory, iovs, count)?;
            let ctx = caller.data::<T>()?.wasi();
            let sandbox = ctx.sandbox().clone();
            let Some(socket) = ctx.socket_mut(fd) else {
                return ret(errno::BADF);
            };
            let data = match socket.recv(&sandbox) {
                Ok(Some(d)) => d,
                // Peer closed: zero bytes, ro_flags = 0 (like EOF).
                Ok(None) => Vec::new(),
                Err(e) => return ret(e),
            };
            caller.data::<T>()?.wasi().charge_boundary(data.len());
            let memory = caller.memory()?;
            let placed = scatter(memory, &iovecs, &data)?;
            memory.store::<4>(recvd_ptr, 0, placed.to_le_bytes())?;
            memory.store::<4>(flags_ptr, 0, 0u32.to_le_bytes())?;
            ret(errno::SUCCESS)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::LoopbackSocket;
    use roadrunner_vkernel::node::Sandbox;
    use roadrunner_vkernel::{CostModel, VirtualClock};
    use roadrunner_wasm::types::Value;
    use roadrunner_wasm::{EngineLimits, Instance, Instr, MemArg, ModuleBuilder};
    use std::sync::Arc;

    fn wasi_ctx() -> WasiCtx {
        let sandbox =
            Sandbox::detached("guest", VirtualClock::new(), Arc::new(CostModel::paper_testbed()));
        WasiCtx::new(sandbox)
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
    fn proc_exit_traps_with_code() {
        let module = ModuleBuilder::new()
            .import_func(MODULE, "proc_exit", FuncType::new([ValType::I32], []))
            .memory(1, None)
            .func(FuncType::new([], []), [], [Instr::I32Const(42), Instr::Call(0)])
            .export_func("_start", 1)
            .build()
            .unwrap();
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(wasi_ctx()))
                .unwrap();
        let err = inst.invoke("_start", &[]).unwrap_err();
        assert_eq!(err, Trap::host(PROC_EXIT));
        assert_eq!(inst.data::<WasiCtx>().unwrap().exit_code, Some(42));
    }

    #[test]
    fn random_get_fills_guest_memory_deterministically() {
        let module = ModuleBuilder::new()
            .import_func(MODULE, "random_get", FuncType::new([ValType::I32; 2], [ValType::I32]))
            .memory(1, None)
            .func(
                FuncType::new([], [ValType::I32]),
                [],
                [Instr::I32Const(64), Instr::I32Const(16), Instr::Call(0)],
            )
            .export_func("roll", 1)
            .build()
            .unwrap();
        let run = |seed: u64| {
            let mut ctx = wasi_ctx();
            ctx.seed_rng(seed);
            let mut inst = Instance::new(
                module.clone(),
                &linker(),
                EngineLimits::default(),
                Box::new(ctx),
            )
            .unwrap();
            inst.invoke("roll", &[]).unwrap();
            inst.memory().unwrap().read(64, 16).unwrap().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        assert!(run(5).iter().any(|&b| b != 0));
    }

    #[test]
    fn clock_time_get_reads_virtual_clock() {
        let module = ModuleBuilder::new()
            .import_func(
                MODULE,
                "clock_time_get",
                FuncType::new([ValType::I32, ValType::I64, ValType::I32], [ValType::I32]),
            )
            .memory(1, None)
            .func(
                FuncType::new([], [ValType::I32]),
                [],
                [
                    Instr::I32Const(0),
                    Instr::I64Const(0),
                    Instr::I32Const(128),
                    Instr::Call(0),
                ],
            )
            .export_func("now", 1)
            .build()
            .unwrap();
        let ctx = wasi_ctx();
        let clock = ctx.sandbox().clock().clone();
        clock.advance(123_456);
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(ctx)).unwrap();
        inst.invoke("now", &[]).unwrap();
        let raw = inst.memory().unwrap().load::<8>(128, 0).unwrap();
        // The boundary charge advances the clock past the sampled floor.
        assert!(u64::from_le_bytes(raw) >= 123_456);
    }

    #[test]
    fn sock_send_and_recv_through_loopback() {
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
        let mut ctx = wasi_ctx();
        let fd = ctx.add_socket(Box::new(LoopbackSocket::new()));
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(ctx)).unwrap();
        let out = inst.invoke("echo", &[Value::I32(fd as i32)]).unwrap();
        assert_eq!(out, vec![Value::I32(errno::SUCCESS)]);
        let mem = inst.memory().unwrap();
        assert_eq!(mem.read(64, 4).unwrap(), b"ping");
        let received = u32::from_le_bytes(mem.load::<4>(20, 0).unwrap());
        assert_eq!(received, 4);
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
    fn args_roundtrip_through_guest_memory() {
        let i32_ = ValType::I32;
        let module = ModuleBuilder::new()
            .import_func(MODULE, "args_sizes_get", FuncType::new([i32_, i32_], [i32_]))
            .import_func(MODULE, "args_get", FuncType::new([i32_, i32_], [i32_]))
            .memory(1, None)
            .func(
                FuncType::new([], [i32_]),
                [],
                [
                    Instr::I32Const(0),
                    Instr::I32Const(4),
                    Instr::Call(0),
                    Instr::Drop,
                    Instr::I32Const(8),
                    Instr::I32Const(64),
                    Instr::Call(1),
                ],
            )
            .export_func("load_args", 2)
            .build()
            .unwrap();
        let mut ctx = wasi_ctx();
        ctx.set_args(["prog", "input.bin"]);
        let mut inst =
            Instance::new(module, &linker(), EngineLimits::default(), Box::new(ctx)).unwrap();
        inst.invoke("load_args", &[]).unwrap();
        let mem = inst.memory().unwrap();
        assert_eq!(u32::from_le_bytes(mem.load::<4>(0, 0).unwrap()), 2); // argc
        let total = u32::from_le_bytes(mem.load::<4>(4, 0).unwrap());
        assert_eq!(total, 5 + 10); // "prog\0" + "input.bin\0"
        assert_eq!(mem.read(64, 4).unwrap(), b"prog");
        assert_eq!(mem.read(69, 9).unwrap(), b"input.bin");
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
