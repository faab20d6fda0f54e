//! Interpreter-throughput benchmark.
//!
//! Times four guest kernels on the interpreter's dispatch loop and
//! records calls/sec and ns per retired wasm instruction for each:
//!
//! * `compute` — a two-round xorshift32/accumulate loop in the
//!   local-SSA style compilers emit: pure local arithmetic and branch
//!   dispatch, the superinstruction pass's best case;
//! * `calls` — naive recursive `fib`, all frame setup/teardown on the
//!   reusable frame arena;
//! * `memory` — a bounds-checked load/increment/store loop;
//! * `stack` — a byte copy whose two addresses are built on the operand
//!   stack, the shape of `guest::resize_image`'s inner loop: push/pop
//!   traffic that fusion shortens but cannot remove.
//!
//! Every scenario asserts the kernel's result and the exact number of
//! instructions it retires per call against constants (in full mode the
//! totals are 122 001 800 / 9 850 750 / 40 001 400 / 54 003 200), so a
//! change may only move wall-clock. What those counts *should* be is
//! settled elsewhere: `roadrunner-wasm`'s differential suite runs the
//! same four kernels against the reference tree walker. There is no
//! pass/fail speed gate here — the numbers are a trajectory, recorded
//! with the host they were measured on; the live regression guard is the
//! benchmark's `edge_resize` workload and its `wasm.instr_ns` layer
//! metric.
//!
//! Emits `BENCH_wasm.json` (written to the working directory) and the
//! same JSON on stdout.
//!
//! Run: `cargo run -p roadrunner-bench --release --bin bench_wasm [--quick]`

use std::process::Command;
use std::time::Instant;

use roadrunner_bench::{fixed, object, Args, Flag, Object};
use roadrunner_wasm::types::{FuncType, ValType, Value};
use roadrunner_wasm::{
    BlockType, EngineLimits, Instance, Instr, Linker, MemArg, Module, ModuleBuilder,
};

/// What `compute(10_000)` returns.
const COMPUTE_RESULT: i32 = 259_479_847;

/// `loop(n) { x = xorshift32(xorshift32(x)); acc += x }` — locals
/// 0 = n (param), 1 = i, 2 = x, 3 = acc, 4 = t. Two mixing rounds per
/// iteration keep the arithmetic-to-branch ratio near what compiled
/// guest code looks like.
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
    for _ in 0..2 {
        body.extend(shift(13, Instr::I32Shl));
        body.extend(shift(17, Instr::I32ShrU));
        body.extend(shift(5, Instr::I32Shl));
    }
    body.extend([
        // acc += x; i += 1
        Instr::LocalGet(3),
        Instr::LocalGet(2),
        Instr::I32Add,
        Instr::LocalSet(3),
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
        .expect("compute guest validates")
}

/// Naive recursive fib — every level is two wasm->wasm calls.
fn calls_module() -> Module {
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
        .export_func("run", 0)
        .build()
        .expect("calls guest validates")
}

/// `loop(n) { mem[a] = load(mem[a]) + 1 }` with `a = (i*4) & 0xFFFC`.
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
        .expect("memory guest validates")
}

/// Where the `stack` kernel reads (a data segment of `7k + 3 mod 256`
/// bytes) and writes; its row is fixed at 3.
const STACK_IN: i32 = 1024;
const STACK_OUT: i32 = 65_536;

/// `loop(n) { out[y*320 + i] = in[y*1280 + 2i] }` at `y = 3`, written
/// the way `guest::resize_image` writes its inner loop: both addresses
/// are built on the operand stack (`local·const·mul`, `local·add`,
/// `const·add`, …) under an `i32.load8_u` and an `i32.store8`, so every
/// iteration is a dozen pushes and pops and fusion can only shorten
/// them, not remove them. Locals: 0 = n (param), 1 = i, 2 = y. Returns
/// the last byte written.
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
    body.extend(out_index(STACK_OUT));
    body.extend([
        Instr::LocalGet(2),
        Instr::I32Const(1280),
        Instr::I32Mul,
        Instr::LocalGet(1),
        Instr::I32Const(1),
        Instr::I32Shl,
        Instr::I32Add,
        Instr::I32Const(STACK_IN),
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
    // The byte at `i - 1`, the last one stored.
    func.extend(out_index(STACK_OUT - 1));
    func.push(Instr::I32Load8U(MemArg::default()));
    ModuleBuilder::new()
        .func(FuncType::new([ValType::I32], [ValType::I32]), [ValType::I32; 2], func)
        .memory(2, Some(2))
        .data(STACK_IN as u32, (0..32_768u32).map(|k| (7 * k + 3) as u8).collect())
        .export_func("run", 0)
        .build()
        .expect("stack guest validates")
}

/// One timed run: `calls` invocations retiring `instrs` wasm
/// instructions in `wall_s` seconds of host time.
struct Measured {
    calls: usize,
    instrs: u64,
    wall_s: f64,
}

impl Measured {
    fn calls_per_sec(&self) -> f64 {
        self.calls as f64 / self.wall_s.max(1e-9)
    }

    fn ns_per_instr(&self) -> f64 {
        self.wall_s * 1e9 / self.instrs.max(1) as f64
    }
}

/// Timed batches per scenario. The reported wall time extrapolates the
/// *fastest* batch — every batch retires identical work, so the spread
/// between them is scheduler noise, not the interpreter.
const BATCHES: usize = 5;

/// One guest kernel and what a call of it must produce.
struct Kernel {
    name: &'static str,
    module: Module,
    /// Loop iterations (or fib argument) per call.
    arg: i32,
    /// The value `run(arg)` returns.
    result: i32,
    /// Instructions one call retires.
    instrs_per_call: u64,
    /// Timed calls in full mode (`--quick` runs a tenth).
    calls: usize,
}

/// Instantiates the kernel, warms it up (so the one-time lowering and the
/// OS's cold caches drop out), then times `calls` invocations in
/// [`BATCHES`] batches, keeping the fastest.
fn measure(kernel: &Kernel, calls: usize) -> Measured {
    let mut inst =
        Instance::new(kernel.module.clone(), &Linker::new(), EngineLimits::default(), Box::new(()))
            .expect("guest instantiates");
    let args = [Value::I32(kernel.arg)];
    let expect = [Value::I32(kernel.result)];
    for _ in 0..2 {
        assert_eq!(inst.invoke("run", &args).expect("warmup call"), expect, "{}", kernel.name);
    }
    inst.reset_instr_count();
    let per_batch = (calls / BATCHES).max(1);
    let mut best_s = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            let out = inst.invoke("run", &args).expect("timed call");
            assert_eq!(out, expect, "{}: wrong result", kernel.name);
        }
        best_s = best_s.min(start.elapsed().as_secs_f64());
    }
    let measured = Measured {
        calls: per_batch * BATCHES,
        instrs: inst.instr_count(),
        wall_s: best_s * BATCHES as f64,
    };
    assert_eq!(
        measured.instrs,
        kernel.instrs_per_call * measured.calls as u64,
        "{}: retired-instruction count moved",
        kernel.name
    );
    measured
}

fn scenario_row(kernel: &Kernel, m: &Measured) -> Object {
    object! {
        "scenario" => kernel.name, "arg" => kernel.arg, "calls" => m.calls,
        "instrs" => m.instrs, "wall_ms" => fixed(m.wall_s * 1e3, 3),
        "calls_per_sec" => fixed(m.calls_per_sec(), 1),
        "ns_per_instr" => fixed(m.ns_per_instr(), 2),
    }
}

/// The host a row was measured on.
fn host() -> Object {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    object! { "logical_cores" => cores, "cpu_model" => cpu_model, "rustc" => rustc }
}

fn main() {
    let quick = Args::parse(&[Flag::Quick]).quick;

    // Per-call counts: 61n + 9; c(n) = 13 + c(n-1) + c(n-2) from
    // c(0) = c(1) = 5; 20n + 7; 27n + 16.
    let kernels = [
        Kernel {
            name: "compute",
            module: compute_module(),
            arg: 10_000,
            result: COMPUTE_RESULT,
            instrs_per_call: 610_009,
            calls: 200,
        },
        Kernel {
            name: "calls",
            module: calls_module(),
            arg: 20,
            result: 6765,
            instrs_per_call: 197_015,
            calls: 50,
        },
        Kernel {
            name: "memory",
            module: memory_module(),
            arg: 10_000,
            result: 10_000,
            instrs_per_call: 200_007,
            calls: 200,
        },
        Kernel {
            name: "stack",
            module: stack_module(),
            arg: 10_000,
            // in[3 * 1280 + 2 * 9999] = 7 * 23838 + 3 mod 256.
            result: 213,
            instrs_per_call: 270_016,
            calls: 200,
        },
    ];

    let rows: Vec<Object> = kernels
        .iter()
        .map(|kernel| {
            let calls = if quick { kernel.calls / 10 } else { kernel.calls };
            scenario_row(kernel, &measure(kernel, calls))
        })
        .collect();
    let doc = object! {
        "benchmark" => "bench_wasm", "quick" => quick, "host" => host(), "scenarios" => rows,
    };
    let json = doc.document();
    std::fs::write("BENCH_wasm.json", format!("{json}\n")).expect("write BENCH_wasm.json");
    println!("{json}");
}
