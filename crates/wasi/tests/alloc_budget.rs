//! A WASI data call moves guest bytes once: `sock_recv` copies each
//! segment from its kernel buffer straight into linear memory, `fd_read`
//! scatters from the seeded file's own bytes, and `fd_write` appends each
//! iovec to stdout. None of them stages the bytes in a buffer of its own.
//! Counted with a test-only global allocator whose counters are
//! thread-local, so tests running beside each other do not see each
//! other's allocations.
//!
//! Before the calls lent guest memory and host state together, each
//! staged its bytes: a received segment was copied twice more (into a
//! `Bytes`, then a `Vec`) before landing, a file read went through a
//! `Vec`, and a write gathered its iovecs into one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_vkernel::{CostModel, VirtualClock};
use roadrunner_wasi::sock::EndpointSocket;
use roadrunner_wasi::{errno, register, WasiCtx, MODULE};
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{EngineLimits, Instance, Instr, Linker, ModuleBuilder, PAGE};

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

const MIB: usize = 1 << 20;
const I32: ValType = ValType::I32;
const I64: ValType = ValType::I64;
/// The WASI calls under test and `path_open`, which opens the file, each
/// with its parameter types (all return one `i32` errno).
const FUNCS: [(&str, &[ValType]); 4] = [
    ("fd_read", &[I32; 4]),
    ("fd_write", &[I32; 4]),
    ("path_open", &[I32, I32, I32, I32, I32, I64, I64, I32, I32]),
    ("sock_recv", &[I32; 6]),
];
/// Where the one iovec sits, where each call stores its result, and
/// where the file's path and the guest's buffer start.
const IOVEC: u32 = 0;
const RESULT: u32 = 8;
const PATH: u32 = 16;
const BUFFER: u32 = PAGE as u32;

/// An instance whose module exports, per function in [`FUNCS`], a wasm
/// wrapper of the same name and signature that forwards its parameters to
/// the import, with room for a `buffer`-byte buffer past the first page.
fn instance(buffer: usize, ctx: WasiCtx) -> Instance {
    let mut builder = ModuleBuilder::new();
    for (name, params) in FUNCS {
        builder = builder.import_func(MODULE, name, FuncType::new(params.iter().copied(), [I32]));
    }
    for (import, (name, params)) in FUNCS.iter().enumerate() {
        let mut body: Vec<Instr> = (0..params.len() as u32).map(Instr::LocalGet).collect();
        body.push(Instr::Call(import as u32));
        builder = builder
            .func(FuncType::new(params.iter().copied(), [I32]), [], body)
            .export_func(*name, (FUNCS.len() + import) as u32);
    }
    let pages = 1 + buffer.div_ceil(PAGE) as u32;
    let module = builder.memory(pages, Some(pages)).build().expect("validates");
    let mut linker = Linker::new();
    register::<WasiCtx>(&mut linker);
    Instance::new(module, &linker, EngineLimits::default(), Box::new(ctx)).expect("instantiates")
}

/// Makes the call `name(args)`, which must succeed, and returns the word
/// it stored at [`RESULT`].
fn call(inst: &mut Instance, name: &str, args: &[Value]) -> u32 {
    assert_eq!(inst.invoke(name, args), Ok(&[Value::I32(errno::SUCCESS)][..]), "{name}");
    let memory = inst.memory().expect("declared");
    u32::from_le_bytes(memory.load::<4>(RESULT, 0).expect("in memory"))
}

/// Points the iovec at `[ptr, ptr + len)`.
fn set_iovec(inst: &mut Instance, ptr: u32, len: u32) {
    let memory = inst.memory_mut().expect("declared");
    memory.write(IOVEC, &ptr.to_le_bytes()).expect("in memory");
    memory.write(IOVEC + 4, &len.to_le_bytes()).expect("in memory");
}

fn i32s(values: &[u32]) -> Vec<Value> {
    values.iter().map(|&v| Value::from(v)).collect()
}

fn sandbox(name: &str) -> Sandbox {
    Sandbox::detached(name, VirtualClock::new(), Arc::new(CostModel::paper_testbed()))
}

#[test]
fn sock_recv_lands_each_segment_without_a_buffer_of_its_own() {
    const STREAM: usize = 256 * 1024;
    // 4 KiB segments: the stream arrives in 64 of them, each large
    // enough for the threshold below to catch any copy of one.
    let cost = Arc::new(CostModel { io_chunk_bytes: 4 * 1024, ..CostModel::paper_testbed() });
    let clock = VirtualClock::new();
    let receiver = Sandbox::detached("receiver", clock.clone(), Arc::clone(&cost));
    let (peer, end) = UnixConn::pair();
    let stream: Vec<u8> = (0..STREAM).map(|i| (i % 251) as u8).collect();
    peer.send(&Sandbox::detached("sender", clock, cost), &stream).expect("sends");
    peer.close();
    let mut ctx = WasiCtx::new(receiver.clone());
    let fd = ctx.add_socket(Box::new(EndpointSocket::new(end)));
    let mut inst = instance(STREAM, ctx);

    let args = i32s(&[fd, IOVEC, 1, 0, RESULT, RESULT + 4]);
    let copied = receiver.account().copied_bytes();
    let (received, large) = counted(4 * 1024, || {
        let mut offset = 0;
        loop {
            set_iovec(&mut inst, BUFFER + offset, STREAM as u32 - offset);
            match call(&mut inst, "sock_recv", &args) {
                0 => return offset,
                n => offset += n,
            }
        }
    });
    assert_eq!(received as usize, STREAM);
    let landed = inst.memory().expect("declared").read(BUFFER, STREAM as u32);
    assert!(landed.expect("in memory") == &stream[..], "the stream lands intact");
    assert_eq!(large, 0, "allocations of a segment's size");
    // The one copy is the modelled kernel→user one.
    assert_eq!(receiver.account().copied_bytes() - copied, STREAM as u64);
}

#[test]
fn fd_read_scatters_from_the_file_itself() {
    const PATH_NAME: &str = "/in.bin";
    let mut ctx = WasiCtx::new(sandbox("reader"));
    let file: Vec<u8> = (0..MIB).map(|i| (i % 253) as u8).collect();
    ctx.put_file(PATH_NAME, file.clone());
    let mut inst = instance(MIB, ctx);
    inst.memory_mut().expect("declared").write(PATH, PATH_NAME.as_bytes()).expect("in memory");
    let mut open = i32s(&[3, 0, PATH, PATH_NAME.len() as u32, 0, 0, 0, 0, RESULT]);
    open[5..7].fill(Value::I64(0));
    let fd = call(&mut inst, "path_open", &open);

    set_iovec(&mut inst, BUFFER, MIB as u32);
    let args = i32s(&[fd, IOVEC, 1, RESULT]);
    let (read, large) = counted(MIB, || call(&mut inst, "fd_read", &args));
    assert_eq!(read as usize, MIB);
    let landed = inst.memory().expect("declared").read(BUFFER, MIB as u32);
    assert!(landed.expect("in memory") == &file[..], "the file lands intact");
    assert_eq!(large, 0, "allocations of the file's size");
}

#[test]
fn fd_write_appends_to_stdout_without_gathering() {
    let mut ctx = WasiCtx::new(sandbox("writer"));
    ctx.stdout.reserve(MIB);
    let mut inst = instance(MIB, ctx);
    let payload: Vec<u8> = (0..MIB).map(|i| (i % 241) as u8).collect();
    inst.memory_mut().expect("declared").write(BUFFER, &payload).expect("in memory");
    set_iovec(&mut inst, BUFFER, MIB as u32);
    let args = i32s(&[1, IOVEC, 1, RESULT]);
    let (written, large) = counted(MIB, || call(&mut inst, "fd_write", &args));
    assert_eq!(written as usize, MIB);
    assert!(inst.data::<WasiCtx>().expect("state").stdout == payload, "stdout holds the write");
    assert_eq!(large, 0, "allocations of the write's size");
}
