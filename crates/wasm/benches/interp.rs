//! Micro-benchmarks for the interpreter's hot paths (the committed
//! trajectory lives in `bench_wasm` / `BENCH_wasm.json`).
//!
//! Covered: the dispatch loop on a compute-bound kernel, a call-heavy
//! recursive fib, a load/store loop, an operand-stack-bound byte copy,
//! the host-call round-trip, and `Instance::new` cost (which after the first compile must not pay for
//! lowering again). Each kernel's result and retired-instruction count
//! are asserted against constants before it is timed, so a run that
//! measures the wrong work fails instead of reporting a number.
//!
//! Run: `cargo bench -p roadrunner-wasm`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{
    BlockType, EngineLimits, Instance, Instr, Linker, MemArg, Module, ModuleBuilder,
};

/// `loop(n) { x = xorshift32(x); acc += x }` — pure local arithmetic
/// and branch dispatch in the local-SSA style compilers emit, no calls,
/// no memory: the superinstruction pass's best case.
///
/// Locals: 0 = n (param), 1 = i, 2 = x, 3 = acc, 4 = t.
fn compute_module() -> Module {
    let shift = |amount: i32, op: Instr| {
        vec![
            // t = x <shift> amount; x = x ^ t
            Instr::LocalGet(2),
            Instr::I32Const(amount),
            op,
            Instr::LocalSet(4),
            Instr::LocalGet(2),
            Instr::LocalGet(4),
            Instr::I32Xor,
            Instr::LocalSet(2),
        ]
    };
    let mut body = vec![
        Instr::LocalGet(1),
        Instr::LocalGet(0),
        Instr::I32GeU,
        Instr::BrIf(1),
    ];
    body.extend(shift(13, Instr::I32Shl));
    body.extend(shift(17, Instr::I32ShrU));
    body.extend(shift(5, Instr::I32Shl));
    body.extend([
        // acc += x
        Instr::LocalGet(3),
        Instr::LocalGet(2),
        Instr::I32Add,
        Instr::LocalSet(3),
        // i += 1
        Instr::LocalGet(1),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalSet(1),
        Instr::Br(0),
    ]);
    ModuleBuilder::new()
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [ValType::I32; 4],
            [
                // x starts at the nonzero xorshift seed.
                Instr::I32Const(0x9E3779B9u32 as i32),
                Instr::LocalSet(2),
                Instr::Block(BlockType::Empty, vec![Instr::Loop(BlockType::Empty, body)]),
                Instr::LocalGet(3),
            ],
        )
        .export_func("run", 0)
        .build()
        .unwrap()
}

/// Naive recursive fib — every iteration is two wasm->wasm calls, so
/// this measures frame setup/teardown.
fn fib_module() -> Module {
    ModuleBuilder::new()
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [],
            [
                Instr::LocalGet(0),
                Instr::I32Const(2),
                Instr::I32LtS,
                Instr::If(
                    BlockType::Value(ValType::I32),
                    vec![Instr::LocalGet(0)],
                    vec![
                        Instr::LocalGet(0),
                        Instr::I32Const(1),
                        Instr::I32Sub,
                        Instr::Call(0),
                        Instr::LocalGet(0),
                        Instr::I32Const(2),
                        Instr::I32Sub,
                        Instr::Call(0),
                        Instr::I32Add,
                    ],
                ),
            ],
        )
        .export_func("fib", 0)
        .build()
        .unwrap()
}

/// `loop(n) { mem[i%page] = load(mem[i%page]) + 1 }` — bounds-checked
/// loads/stores dominate.
fn memory_module() -> Module {
    ModuleBuilder::new()
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [ValType::I32, ValType::I32],
            [
                Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Loop(
                        BlockType::Empty,
                        vec![
                            Instr::LocalGet(1),
                            Instr::LocalGet(0),
                            Instr::I32GeU,
                            Instr::BrIf(1),
                            // addr = (i * 4) & 0xFFFC
                            Instr::LocalGet(1),
                            Instr::I32Const(4),
                            Instr::I32Mul,
                            Instr::I32Const(0xFFFC),
                            Instr::I32And,
                            Instr::LocalTee(2),
                            Instr::LocalGet(2),
                            Instr::I32Load(MemArg::natural(4)),
                            Instr::I32Const(1),
                            Instr::I32Add,
                            Instr::I32Store(MemArg::natural(4)),
                            Instr::LocalGet(1),
                            Instr::I32Const(1),
                            Instr::I32Add,
                            Instr::LocalSet(1),
                            Instr::Br(0),
                        ],
                    )],
                ),
                Instr::LocalGet(1),
            ],
        )
        .memory(1, Some(1))
        .export_func("run", 0)
        .build()
        .unwrap()
}

/// `loop(n) { out[3*320 + i] = in[3*1280 + 2i] }` with both addresses
/// built on the operand stack, as `guest::resize_image`'s inner loop
/// builds them — push/pop traffic that fusion shortens but cannot
/// remove (`bench_wasm`'s `stack` row). Locals: 0 = n, 1 = i, 2 = y.
fn stack_module() -> Module {
    let out_index = |base: i32| {
        vec![
            Instr::LocalGet(2),
            Instr::I32Const(320),
            Instr::I32Mul,
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::I32Const(base),
            Instr::I32Add,
        ]
    };
    let mut body = vec![
        Instr::LocalGet(1),
        Instr::LocalGet(0),
        Instr::I32GeU,
        Instr::BrIf(1),
    ];
    body.extend(out_index(65_536));
    body.extend([
        Instr::LocalGet(2),
        Instr::I32Const(1280),
        Instr::I32Mul,
        Instr::LocalGet(1),
        Instr::I32Const(1),
        Instr::I32Shl,
        Instr::I32Add,
        Instr::I32Const(1024),
        Instr::I32Add,
        Instr::I32Load8U(MemArg::default()),
        Instr::I32Store8(MemArg::default()),
        Instr::LocalGet(1),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalSet(1),
        Instr::Br(0),
    ]);
    let mut func = vec![
        Instr::I32Const(3),
        Instr::LocalSet(2),
        Instr::Block(BlockType::Empty, vec![Instr::Loop(BlockType::Empty, body)]),
    ];
    // The last byte stored.
    func.extend(out_index(65_535));
    func.push(Instr::I32Load8U(MemArg::default()));
    ModuleBuilder::new()
        .func(FuncType::new([ValType::I32], [ValType::I32]), [ValType::I32; 2], func)
        .memory(2, Some(2))
        .data(1024, (0..32_768u32).map(|k| (7 * k + 3) as u8).collect())
        .export_func("run", 0)
        .build()
        .unwrap()
}

/// `loop(n) { acc = host(acc) }` — measures the wasm->host boundary.
fn host_module() -> Module {
    ModuleBuilder::new()
        .import_func("env", "bump", FuncType::new([ValType::I32], [ValType::I32]))
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [ValType::I32, ValType::I32],
            [
                Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Loop(
                        BlockType::Empty,
                        vec![
                            Instr::LocalGet(1),
                            Instr::LocalGet(0),
                            Instr::I32GeU,
                            Instr::BrIf(1),
                            Instr::LocalGet(2),
                            Instr::Call(0),
                            Instr::LocalSet(2),
                            Instr::LocalGet(1),
                            Instr::I32Const(1),
                            Instr::I32Add,
                            Instr::LocalSet(1),
                            Instr::Br(0),
                        ],
                    )],
                ),
                Instr::LocalGet(2),
            ],
        )
        .export_func("run", 1)
        .build()
        .unwrap()
}

fn instantiate(module: &Module, linker: &Linker) -> Instance {
    Instance::new(module.clone(), linker, EngineLimits::default(), Box::new(())).unwrap()
}

/// Instantiates `module` and checks that `export(arg)` returns `result`
/// after retiring exactly `instrs` instructions.
fn checked(
    module: &Module,
    linker: &Linker,
    export: &str,
    arg: i32,
    result: i32,
    instrs: u64,
) -> Instance {
    let mut inst = instantiate(module, linker);
    let out = inst.invoke(export, &[Value::I32(arg)]).unwrap();
    assert_eq!(out, [Value::I32(result)], "{export}({arg})");
    assert_eq!(inst.instr_count(), instrs, "{export}({arg}) retired-instruction count");
    inst
}

fn bench_compute(c: &mut Criterion) {
    let n = 10_000;
    // 37 instructions per iteration, 9 around the loop.
    let mut inst = checked(&compute_module(), &Linker::new(), "run", n, -1_041_914_565, 370_009);
    let mut group = c.benchmark_group("compute_loop");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("flat", |b| {
        b.iter(|| inst.invoke("run", &[Value::I32(black_box(n))]).unwrap())
    });
    group.finish();
}

fn bench_fib(c: &mut Criterion) {
    // c(n) = 13 + c(n-1) + c(n-2) from c(0) = c(1) = 5.
    let mut inst = checked(&fib_module(), &Linker::new(), "fib", 18, 2584, 75_245);
    let mut group = c.benchmark_group("fib_calls");
    group.bench_function("flat", |b| {
        b.iter(|| inst.invoke("fib", &[Value::I32(black_box(18))]).unwrap())
    });
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let n = 10_000;
    // 20 instructions per iteration, 7 around the loop.
    let mut inst = checked(&memory_module(), &Linker::new(), "run", n, n, 200_007);
    let mut group = c.benchmark_group("memory_loop");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("flat", |b| {
        b.iter(|| inst.invoke("run", &[Value::I32(black_box(n))]).unwrap())
    });
    group.finish();
}

fn bench_stack(c: &mut Criterion) {
    let n = 10_000;
    // 27 instructions per iteration, 16 around the loop; the result is
    // in[3 * 1280 + 2 * 9999].
    let mut inst = checked(&stack_module(), &Linker::new(), "run", n, 213, 270_016);
    let mut group = c.benchmark_group("stack_loop");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("flat", |b| {
        b.iter(|| inst.invoke("run", &[Value::I32(black_box(n))]).unwrap())
    });
    group.finish();
}

fn bench_host_roundtrip(c: &mut Criterion) {
    let mut linker = Linker::new();
    linker.define(
        "env",
        "bump",
        FuncType::new([ValType::I32], [ValType::I32]),
        |_caller, args| {
            let x = match args[0] {
                Value::I32(v) => v,
                _ => unreachable!(),
            };
            Ok(vec![Value::I32(x.wrapping_add(1))])
        },
    );
    let n = 1_000;
    // 12 instructions per iteration (the host's work is not counted), 7
    // around the loop.
    let mut inst = checked(&host_module(), &linker, "run", n, n, 12_007);
    let mut group = c.benchmark_group("host_roundtrip");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("flat", |b| {
        b.iter(|| inst.invoke("run", &[Value::I32(black_box(n))]).unwrap())
    });
    group.finish();
}

/// Instantiation cost in the steady state: the first `Instance::new` +
/// invoke pays the one-time lowering into the module's `CodeCache`;
/// every later instantiation of a clone must not.
fn bench_instantiate(c: &mut Criterion) {
    let module = compute_module();
    let linker = Linker::new();
    // Warm the code cache so the measurement excludes the first compile.
    instantiate(&module, &linker).invoke("run", &[Value::I32(1)]).unwrap();
    let mut group = c.benchmark_group("instance_new");
    group.bench_function("flat", |b| b.iter(|| black_box(instantiate(&module, &linker))));
    group.finish();
}

criterion_group!(
    benches,
    bench_compute,
    bench_fib,
    bench_memory,
    bench_stack,
    bench_host_roundtrip,
    bench_instantiate
);
criterion_main!(benches);
