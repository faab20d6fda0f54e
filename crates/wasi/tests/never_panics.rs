//! Never-panics property at the WASI boundary.
//!
//! A guest chooses every argument of every WASI call, so each is hostile
//! input: pointers past the end of memory, counts and lengths near
//! `u32::MAX`, descriptors it never opened, paths that name no file.
//! Whatever it passes, every function [`roadrunner_wasi::register`]
//! defines must answer with an errno or a [`Trap`] — never a panic, an
//! arithmetic overflow (this suite also runs in the release
//! `overflow-checks=on` pass) or an allocation the guest sized — and may
//! write only to the guest ranges the call's arguments name.
//!
//! The instance under test has one page of memory, an open file and one
//! end of a Unix socket pair, so the success paths are reachable too.
//! Calls go through wasm wrapper functions, so the arguments also cross
//! the interpreter's slot-to-`Value` conversion at the host-call
//! boundary.

use std::ops::Range;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use roadrunner_vkernel::node::Sandbox;
use roadrunner_vkernel::{CostModel, VirtualClock};
use roadrunner_vkernel::unix::UnixConn;
use roadrunner_wasi::sock::EndpointSocket;
use roadrunner_wasi::{errno, register, WasiCtx, MODULE};
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{EngineLimits, Instance, Instr, Linker, ModuleBuilder, Trap, PAGE};

const I32: ValType = ValType::I32;
const I64: ValType = ValType::I64;

/// Every function `register` defines, with its parameter types (all
/// return one `i32` errno).
const FUNCS: [(&str, &[ValType]); 5] = [
    ("fd_write", &[I32, I32, I32, I32]),
    ("fd_read", &[I32, I32, I32, I32]),
    ("path_open", &[I32, I32, I32, I32, I32, I64, I64, I32, I32]),
    ("sock_send", &[I32, I32, I32, I32, I32]),
    ("sock_recv", &[I32, I32, I32, I32, I32, I32]),
];

const FILE_PATH: &str = "/data/in.bin";
/// Where the fixture keeps the file's path, and an iovec table whose
/// entries range from sound to hostile.
const PATH_ADDR: u32 = 16;
const IOVS_ADDR: u32 = 512;
const IOVECS: [(u32, u32); 6] = [
    (1024, 32),
    (2048, 0),
    (4096, 300),
    (PAGE as u32 - 8, 8),
    (PAGE as u32 - 4, 8),
    (u32::MAX, u32::MAX),
];
/// One page of memory and, per WASI function, an exported wasm wrapper of
/// the same signature that forwards its parameters to the import.
fn fixture() -> Instance {
    let mut linker = Linker::new();
    register::<WasiCtx>(&mut linker);
    let mut builder = ModuleBuilder::new();
    for (name, params) in FUNCS {
        let ty = FuncType::new(params.iter().copied(), [I32]);
        builder = builder.import_func(MODULE, name, ty);
    }
    for (import, (name, params)) in FUNCS.iter().enumerate() {
        let ty = FuncType::new(params.iter().copied(), [I32]);
        let mut body: Vec<Instr> = (0..params.len() as u32).map(Instr::LocalGet).collect();
        body.push(Instr::Call(import as u32));
        builder = builder
            .func(ty, [], body)
            .export_func(*name, (FUNCS.len() + import) as u32);
    }
    let module = builder
        .memory(1, Some(1))
        .export_memory("memory")
        .build()
        .expect("validates");

    let sandbox = Sandbox::detached(
        "guest",
        VirtualClock::new(),
        Arc::new(CostModel::paper_testbed()),
    );
    let mut ctx = WasiCtx::new(sandbox);
    ctx.put_file(FILE_PATH, (0..200u8).collect());
    // The peer's end is dropped once the segment is queued; the guest's
    // end stays open both ways.
    let (peer, end) = UnixConn::pair();
    peer.send(ctx.sandbox(), b"a queued segment")
        .expect("an open pair accepts");
    let socket_fd = ctx.add_socket(Box::new(EndpointSocket::new(end)));
    assert_eq!(socket_fd, SOCKET_FD);

    let mut inst = Instance::new(module, &linker, EngineLimits::default(), Box::new(ctx))
        .expect("instantiates");
    let memory = inst.memory_mut().expect("declared");
    memory.write(PATH_ADDR, FILE_PATH.as_bytes()).unwrap();
    for (i, (ptr, len)) in IOVECS.iter().enumerate() {
        let at = IOVS_ADDR + 8 * i as u32;
        memory.write(at, &ptr.to_le_bytes()).unwrap();
        memory.write(at + 4, &len.to_le_bytes()).unwrap();
    }
    // Open the file the way a guest does; its descriptor follows the
    // socket's.
    let open = path_open_args(PATH_ADDR, FILE_PATH.len() as u32, 256);
    assert_eq!(
        inst.invoke("path_open", &open),
        Ok(vec![Value::I32(errno::SUCCESS)])
    );
    assert_eq!(
        inst.memory().unwrap().read(256, 4).unwrap(),
        FILE_FD.to_le_bytes()
    );
    inst
}

const SOCKET_FD: u32 = 4;
const FILE_FD: u32 = 5;

fn path_open_args(path: u32, len: u32, fd_ptr: u32) -> [Value; 9] {
    [
        Value::I32(3),
        Value::I32(0),
        Value::from(path),
        Value::from(len),
        Value::I32(0),
        Value::I64(0),
        Value::I64(0),
        Value::I32(0),
        Value::from(fd_ptr),
    ]
}

fn i32s(values: &[u32]) -> Vec<Value> {
    values.iter().map(|&v| Value::from(v)).collect()
}

/// The part of `[start, start + len)` that lies in the page.
fn clip(start: u64, len: u64) -> Range<usize> {
    let end = start.saturating_add(len).min(PAGE as u64);
    start.min(end) as usize..end as usize
}

/// The iovec buffers a scatter call may fill, read leniently from the
/// memory as it stood before the call.
fn iovec_buffers(before: &[u8], iovs: u32, count: u32) -> Vec<Range<usize>> {
    (0..count as u64)
        .map(|i| iovs as u64 + 8 * i)
        .take_while(|at| at + 8 <= before.len() as u64)
        .map(|at| {
            let word = |o: usize| {
                u32::from_le_bytes(
                    before[at as usize + o..at as usize + o + 4]
                        .try_into()
                        .unwrap(),
                )
            };
            clip(word(0) as u64, word(4) as u64)
        })
        .collect()
}

/// Every guest range the call's arguments name as writable.
fn writable(name: &str, args: &[Value], before: &[u8]) -> Vec<Range<usize>> {
    let arg = |i: usize| match args[i] {
        Value::I32(v) => v as u32,
        _ => unreachable!("pointer arguments are i32"),
    };
    let cell = |i: usize, len: u64| clip(arg(i) as u64, len);
    match name {
        "fd_write" => vec![cell(3, 4)],
        "fd_read" => {
            let mut ranges = iovec_buffers(before, arg(1), arg(2));
            ranges.push(cell(3, 4));
            ranges
        }
        "path_open" => vec![cell(8, 4)],
        "sock_send" => vec![cell(4, 4)],
        "sock_recv" => {
            let mut ranges = iovec_buffers(before, arg(1), arg(2));
            ranges.extend([cell(4, 4), cell(5, 4)]);
            ranges
        }
        other => unreachable!("unknown function {other}"),
    }
}

fn snapshot(inst: &Instance) -> Vec<u8> {
    inst.memory()
        .unwrap()
        .read(0, PAGE as u32)
        .unwrap()
        .to_vec()
}

/// Makes one call and checks its contract: an errno or a trap comes
/// back, and no byte outside the ranges the call names has changed.
fn call(
    inst: &mut Instance,
    name: &str,
    args: &[Value],
) -> Result<Result<i32, Trap>, TestCaseError> {
    let before = snapshot(inst);
    let outcome = match inst.invoke(name, args) {
        Ok(values) => match values[..] {
            [Value::I32(code)] => Ok(code),
            _ => return Err(TestCaseError::fail(format!("{name} returned {values:?}"))),
        },
        Err(trap) => Err(trap),
    };
    let after = snapshot(inst);
    let mut may_differ = vec![false; PAGE];
    for range in writable(name, args, &before) {
        may_differ[range].fill(true);
    }
    let stray = (0..PAGE).find(|&i| before[i] != after[i] && !may_differ[i]);
    prop_assert_eq!(
        stray,
        None,
        "{}{:?} -> {:?} wrote outside the ranges it names",
        name,
        args,
        outcome
    );
    Ok(outcome)
}

// ---------------------------------------------------------------- strategies

/// An `i32` argument: boundary values and the fixture's landmarks
/// dominate; arbitrary bits fill in.
fn arb_i32() -> BoxedStrategy<i32> {
    let page = PAGE as i32;
    prop_oneof![
        3 => Just(0),
        2 => Just(1),
        2 => Just(-1),
        1 => Just(i32::MIN),
        1 => Just(i32::MAX),
        3 => page - 8..=page + 8,
        3 => (0..1024i32).prop_map(|v| v * 4),
        2 => Just(IOVS_ADDR as i32),
        2 => 0..8i32,
        1 => Just(PATH_ADDR as i32),
        1 => Just(FILE_PATH.len() as i32),
        2 => any::<i32>(),
    ]
    .boxed()
}

/// One call: which function, and an argument pool its parameters draw
/// from in order.
fn arb_call() -> impl Strategy<Value = (usize, Vec<Value>)> {
    (0..FUNCS.len(), vec(arb_i32(), 9), vec(any::<i64>(), 2)).prop_map(|(f, ints, longs)| {
        let (mut ints, mut longs) = (ints.into_iter(), longs.into_iter());
        let args = FUNCS[f]
            .1
            .iter()
            .map(|ty| match ty {
                ValType::I32 => Value::I32(ints.next().expect("nine cover the widest call")),
                _ => Value::I64(longs.next().expect("two cover the widest call")),
            })
            .collect();
        (f, args)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sequences, not single calls: a hostile `path_open` or a read that
    /// drains the file sets up the state the next call has to survive.
    #[test]
    fn arbitrary_calls_answer_with_an_errno_or_a_trap(calls in vec(arb_call(), 1..10)) {
        let mut inst = fixture();
        for (f, args) in &calls {
            let _errno_or_trap = call(&mut inst, FUNCS[*f].0, args)?;
        }
    }
}

// -------------------------------------------------------------- regressions

#[test]
fn fd_write_with_a_huge_iovec_count_traps_instead_of_reserving_for_it() {
    // Was: `Vec::with_capacity(0xFFFF_FFFF)` iovecs — a 34 GB request that
    // aborted the host before the first iovec was read.
    let mut inst = fixture();
    for name in ["fd_write", "fd_read"] {
        let out = call(&mut inst, name, &i32s(&[1, 0, u32::MAX, 8])).unwrap();
        assert!(
            matches!(out, Err(Trap::MemoryOutOfBounds { .. })),
            "{name}: {out:?}"
        );
    }
    let out = call(
        &mut inst,
        "sock_send",
        &i32s(&[SOCKET_FD, 0, u32::MAX, 0, 8]),
    )
    .unwrap();
    assert!(
        matches!(out, Err(Trap::MemoryOutOfBounds { .. })),
        "{out:?}"
    );
    let out = call(
        &mut inst,
        "sock_recv",
        &i32s(&[SOCKET_FD, 0, u32::MAX, 0, 8, 12]),
    )
    .unwrap();
    assert!(
        matches!(out, Err(Trap::MemoryOutOfBounds { .. })),
        "{out:?}"
    );
    // The largest count whose array still fits is served (the upper half
    // of the page is zeros: 4096 empty iovecs), one more is not.
    let (iovs, fits) = (PAGE as u32 / 2, PAGE as u32 / 16);
    assert_eq!(
        call(&mut inst, "fd_write", &i32s(&[1, iovs, fits, 8])).unwrap(),
        Ok(errno::SUCCESS)
    );
    let out = call(&mut inst, "fd_write", &i32s(&[1, iovs, fits + 1, 8])).unwrap();
    assert!(
        matches!(out, Err(Trap::MemoryOutOfBounds { .. })),
        "{out:?}"
    );
}

#[test]
fn overlapping_iovecs_cannot_make_the_host_gather_more_than_the_memory_holds() {
    // 4096 iovecs, each naming the whole page: 256 MiB to gather from 64 KiB.
    let mut inst = fixture();
    let table: Vec<u8> = (0..4096)
        .flat_map(|_| [0u32.to_le_bytes(), (PAGE as u32).to_le_bytes()].concat())
        .collect();
    inst.memory_mut()
        .unwrap()
        .write(PAGE as u32 / 2, &table)
        .unwrap();
    let iovs = PAGE as u32 / 2;
    assert_eq!(
        call(&mut inst, "fd_write", &i32s(&[1, iovs, 4096, 8])).unwrap(),
        Ok(errno::INVAL)
    );
    let send = i32s(&[SOCKET_FD, iovs, 4096, 0, 8]);
    assert_eq!(
        call(&mut inst, "sock_send", &send).unwrap(),
        Ok(errno::INVAL)
    );
    assert!(inst.data::<WasiCtx>().unwrap().stdout.is_empty());
    // One of them is an ordinary write.
    assert_eq!(
        call(&mut inst, "fd_write", &i32s(&[1, iovs, 1, 8])).unwrap(),
        Ok(errno::SUCCESS)
    );
    assert_eq!(inst.data::<WasiCtx>().unwrap().stdout.len(), PAGE);
}
