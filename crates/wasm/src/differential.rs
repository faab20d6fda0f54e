//! Differential property suite: the dispatch loop and the reference
//! tree walker must be observationally identical.
//!
//! The walker (`interp/reference.rs`) exists only under `cfg(test)`, so
//! this suite lives in-crate. Every case builds one module, instantiates
//! it once per [`Runner`], invokes the same export, and asserts agreement
//! on the full observable state:
//!
//! * the invoke outcome — result values **and** trap variant,
//! * `instr_count` (exact, including the trapping instruction),
//! * remaining fuel (cases run both unmetered and with small budgets
//!   that exhaust mid-loop),
//! * host-call logs (order and arguments seen across the boundary),
//! * linear memory contents and exported globals afterwards.
//!
//! The generators lean on typed construction: each strategy emits an
//! instruction sequence with a known stack effect, so generated modules
//! always validate, while division, out-of-bounds accesses, fuel
//! budgets and call depth still make traps common.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crate::types::{FuncType, ValType, Value};
use crate::{
    BlockType, EngineLimits, Instance, Instr, Linker, MemArg, Module, ModuleBuilder, Trap,
};

mod hostile;

/// Which interpreter runs a case.
#[derive(Debug, Clone, Copy)]
enum Runner {
    /// The shipping dispatch loop ([`Instance::invoke`]).
    Loop,
    /// The reference tree walker ([`Instance::invoke_reference`]).
    Oracle,
}

impl Runner {
    fn invoke(self, inst: &mut Instance, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        match self {
            Runner::Loop => inst.invoke(name, args),
            Runner::Oracle => inst.invoke_reference(name, args),
        }
    }
}

/// Function index of the `env.acc` host import.
const HOST: u32 = 0;
/// Function index of the exported entry point.
const RUN: u32 = 1;
/// Function index of the wasm-defined helper.
const HELPER: u32 = 2;
/// Locals 0 and 1 are scratch; local 2 is reserved for loop counters.
const SCRATCH: u32 = 2;
const COUNTER: u32 = 2;

/// Everything an embedder can observe after one invocation.
#[derive(Debug, PartialEq)]
struct Observation {
    outcome: Result<Vec<Value>, Trap>,
    instrs: u64,
    fuel_left: Option<u64>,
    host_log: Vec<i32>,
    global: Option<Value>,
    memory: Vec<u8>,
}

/// Wraps the generated body into a full module: one host import, the
/// `run` entry (type `[] -> [i32]`, three i32 locals), a helper the
/// body may call, one page of memory, and a mutable exported global.
fn build_module(body: Vec<Instr>) -> Module {
    ModuleBuilder::new()
        .import_func("env", "acc", FuncType::new([ValType::I32], [ValType::I32]))
        .func(FuncType::new([], [ValType::I32]), [ValType::I32; 3], body)
        .func(
            FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
            [],
            [
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32Add,
                Instr::LocalGet(0),
                Instr::I32Xor,
            ],
        )
        .memory(1, Some(2))
        .global(ValType::I32, true, Value::I32(7))
        .export_func("run", RUN)
        .export_memory("mem")
        .export_global("g", 0)
        .build()
        .expect("generated module must validate")
}

/// A linker providing `env.acc`: logs its argument into the instance's
/// `Vec<i32>` host data and returns it plus one.
fn acc_linker() -> Linker {
    let mut linker = Linker::new();
    linker.define(
        "env",
        "acc",
        FuncType::new([ValType::I32], [ValType::I32]),
        |mut caller, args| {
            let x = match args[0] {
                Value::I32(v) => v,
                _ => unreachable!("acc takes one i32"),
            };
            caller.data::<Vec<i32>>()?.push(x);
            Ok(vec![Value::I32(x.wrapping_add(1))])
        },
    );
    linker
}

fn limits_with(fuel: Option<u64>, max_call_depth: usize) -> EngineLimits {
    let limits = EngineLimits::default().with_max_call_depth(max_call_depth);
    match fuel {
        Some(f) => limits.with_fuel(f),
        None => limits,
    }
}

/// Invokes `export` of `module` on `runner` and captures the observable
/// state.
fn observe(
    module: &Module,
    runner: Runner,
    limits: EngineLimits,
    export: &str,
    args: &[Value],
) -> Observation {
    let mut inst =
        Instance::new(module.clone(), &acc_linker(), limits, Box::new(Vec::<i32>::new()))
            .expect("instantiation");
    let outcome = runner.invoke(&mut inst, export, args);
    Observation {
        outcome,
        instrs: inst.instr_count(),
        fuel_left: inst.fuel(),
        host_log: inst.data::<Vec<i32>>().cloned().unwrap(),
        global: inst.global("g"),
        memory: inst
            .memory()
            .map(|m| m.read(0, m.len() as u32).unwrap().to_vec())
            .unwrap_or_default(),
    }
}

/// [`observe`] for a [`build_module`] module: its `run` export under the
/// suite's default call-depth cap.
fn run_on(module: &Module, runner: Runner, fuel: Option<u64>) -> Observation {
    observe(module, runner, limits_with(fuel, 48), "run", &[])
}

/// Asserts equivalence for one module + fuel budget. Memory is
/// compared separately so a mismatch doesn't dump 64 KiB into the
/// failure message.
fn assert_runners_agree(body: Vec<Instr>, fuel: Option<u64>) -> Result<(), TestCaseError> {
    let module = build_module(body);
    let flat = run_on(&module, Runner::Loop, fuel);
    let tree = run_on(&module, Runner::Oracle, fuel);
    prop_assert_eq!(&flat.outcome, &tree.outcome, "invoke outcome diverged");
    prop_assert_eq!(flat.instrs, tree.instrs, "instr_count diverged");
    prop_assert_eq!(flat.fuel_left, tree.fuel_left, "remaining fuel diverged");
    prop_assert_eq!(&flat.host_log, &tree.host_log, "host-call log diverged");
    prop_assert_eq!(flat.global, tree.global, "global diverged");
    prop_assert!(flat.memory == tree.memory, "linear memory diverged");
    Ok(())
}

// --------------------------------------------------------------- generators

/// Interesting i32 constants: boundary values dominate so wrapping,
/// division overflow (`i32::MIN / -1`) and shift-mask cases come up.
fn arb_const() -> impl Strategy<Value = i32> {
    prop_oneof![
        4 => (-4i32..=4).prop_map(|v| v),
        2 => any::<i32>(),
        1 => Just(i32::MIN),
        1 => Just(i32::MAX),
        1 => Just(-1),
    ]
}

/// An address expression. Weighted toward in-bounds (masked to the
/// first page) but sometimes raw, so out-of-bounds traps occur.
fn arb_addr(expr: BoxedStrategy<Vec<Instr>>) -> impl Strategy<Value = Vec<Instr>> {
    prop_oneof![
        3 => expr.clone().prop_map(|mut e| {
            e.push(Instr::I32Const(0xFFC));
            e.push(Instr::I32And);
            e
        }),
        1 => expr,
    ]
}

/// A sequence with net stack effect `[] -> [i32]`, built recursively.
fn arb_expr() -> BoxedStrategy<Vec<Instr>> {
    let leaf = prop_oneof![
        3 => arb_const().prop_map(|v| vec![Instr::I32Const(v)]),
        2 => (0..SCRATCH).prop_map(|i| vec![Instr::LocalGet(i)]),
        1 => Just(vec![Instr::GlobalGet(0)]),
        1 => Just(vec![Instr::MemorySize]),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        let unop = prop_oneof![
            Just(Instr::I32Eqz),
            Just(Instr::I32Clz),
            Just(Instr::I32Ctz),
            Just(Instr::I32Popcnt),
        ];
        let binop = prop_oneof![
            Just(Instr::I32Add),
            Just(Instr::I32Sub),
            Just(Instr::I32Mul),
            Just(Instr::I32And),
            Just(Instr::I32Or),
            Just(Instr::I32Xor),
            Just(Instr::I32Shl),
            Just(Instr::I32ShrS),
            Just(Instr::I32ShrU),
            Just(Instr::I32Rotl),
            Just(Instr::I32DivS),
            Just(Instr::I32DivU),
            Just(Instr::I32RemS),
            Just(Instr::I32RemU),
            Just(Instr::I32Eq),
            Just(Instr::I32Ne),
            Just(Instr::I32LtS),
            Just(Instr::I32GtU),
            Just(Instr::I32LeS),
            Just(Instr::I32GeU),
        ];
        let load = prop_oneof![
            Just(Instr::I32Load(MemArg::default())),
            Just(Instr::I32Load8U(MemArg::default())),
            Just(Instr::I32Load16S(MemArg::offset(2))),
        ];
        prop_oneof![
            // unary
            (inner.clone(), unop).prop_map(|(mut a, op)| {
                a.push(op);
                a
            }),
            // binary (incl. comparisons and trapping div/rem)
            (inner.clone(), inner.clone(), binop).prop_map(|(mut a, b, op)| {
                a.extend(b);
                a.push(op);
                a
            }),
            // select
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(mut a, b, c)| {
                a.extend(b);
                a.extend(c);
                a.push(Instr::Select);
                a
            }),
            // if/else with an i32 result
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(mut cond, t, e)| {
                cond.push(Instr::If(BlockType::Value(ValType::I32), t, e));
                cond
            }),
            // block with a value and a conditional early exit: on branch
            // the pending value is the block result; ditto on fall-through
            (inner.clone(), inner.clone()).prop_map(|(mut val, mut cond)| {
                val.append(&mut cond);
                val.push(Instr::BrIf(0));
                vec![Instr::Block(BlockType::Value(ValType::I32), val)]
            }),
            // memory load (address sometimes out of bounds)
            (arb_addr(inner.clone()), load).prop_map(|(mut a, op)| {
                a.push(op);
                a
            }),
            // wasm -> wasm call
            (inner.clone(), inner.clone()).prop_map(|(mut a, b)| {
                a.extend(b);
                a.push(Instr::Call(HELPER));
                a
            }),
            // wasm -> host call
            inner.clone().prop_map(|mut a| {
                a.push(Instr::Call(HOST));
                a
            }),
            // local.tee round-trip
            (inner.clone(), 0..SCRATCH).prop_map(|(mut a, i)| {
                a.push(Instr::LocalTee(i));
                a
            }),
        ]
        .boxed()
    })
    .boxed()
}

/// A sequence with net stack effect `[] -> []`.
fn arb_stmt() -> BoxedStrategy<Vec<Instr>> {
    let expr = arb_expr();
    let simple = prop_oneof![
        Just(vec![Instr::Nop]),
        (expr.clone(), 0..SCRATCH).prop_map(|(mut e, i)| {
            e.push(Instr::LocalSet(i));
            e
        }),
        expr.clone().prop_map(|mut e| {
            e.push(Instr::GlobalSet(0));
            e
        }),
        expr.clone().prop_map(|mut e| {
            e.push(Instr::Drop);
            e
        }),
        (arb_addr(expr.clone()), expr.clone()).prop_map(|(mut a, v)| {
            a.extend(v);
            a.push(Instr::I32Store(MemArg::default()));
            a
        }),
        (arb_addr(expr.clone()), expr.clone()).prop_map(|(mut a, v)| {
            a.extend(v);
            a.push(Instr::I32Store8(MemArg::offset(1)));
            a
        }),
    ]
    .boxed();

    // Bounded loop: local 2 counts down from a small constant; the body
    // is a nested statement. Exercises back-edges (counted once at
    // entry, not per iteration) and is the main fuel-exhaustion site.
    let looped = (0u32..6, simple.clone()).prop_map(|(n, inner)| {
        let mut body = vec![
            Instr::LocalGet(COUNTER),
            Instr::I32Eqz,
            Instr::BrIf(1),
            Instr::LocalGet(COUNTER),
            Instr::I32Const(1),
            Instr::I32Sub,
            Instr::LocalSet(COUNTER),
        ];
        body.extend(inner);
        body.push(Instr::Br(0));
        vec![
            Instr::I32Const(n as i32),
            Instr::LocalSet(COUNTER),
            Instr::Block(BlockType::Empty, vec![Instr::Loop(BlockType::Empty, body)]),
        ]
    });

    // Three-way br_table dispatch over nested empty blocks; each arm is
    // a nested statement.
    let dispatch = (expr, simple.clone(), simple.clone()).prop_map(|(sel, arm0, arm1)| {
        let mut innermost = sel;
        innermost.push(Instr::BrTable(vec![0, 1], 2));
        let mut mid = vec![Instr::Block(BlockType::Empty, innermost)];
        mid.extend(arm0);
        let mut outer = vec![Instr::Block(BlockType::Empty, mid)];
        outer.extend(arm1);
        vec![Instr::Block(BlockType::Empty, outer)]
    });

    prop_oneof![4 => simple, 1 => looped, 1 => dispatch].boxed()
}

/// A full `run` body: a few statements then the result expression,
/// occasionally behind an explicit `return`.
fn arb_body() -> impl Strategy<Value = Vec<Instr>> {
    (
        proptest::collection::vec(arb_stmt(), 0..4),
        arb_expr(),
        any::<bool>(),
    )
        .prop_map(|(stmts, expr, explicit_return)| {
            let mut body: Vec<Instr> = stmts.into_iter().flatten().collect();
            body.extend(expr);
            if explicit_return {
                body.push(Instr::Return);
            }
            body
        })
}

/// Fuel budgets: mostly unmetered, but often a budget small enough to
/// exhaust mid-execution.
fn arb_fuel() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        2 => Just(None),
        2 => (0u64..250).prop_map(Some),
        1 => (0u64..25).prop_map(Some),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn runners_agree_on_arbitrary_modules(body in arb_body(), fuel in arb_fuel()) {
        assert_runners_agree(body, fuel)?;
    }
}

// ------------------------------------------------------- deterministic cases

/// Sweeps every fuel budget from 0 to past completion on a fixed loop,
/// so the exhaustion point crosses every instruction — including block
/// entries, back-edges, and the call boundary.
#[test]
fn fuel_boundary_sweep_matches_on_every_budget() {
    let body = vec![
        Instr::I32Const(5),
        Instr::LocalSet(COUNTER),
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(COUNTER),
                    Instr::I32Eqz,
                    Instr::BrIf(1),
                    Instr::LocalGet(COUNTER),
                    Instr::I32Const(1),
                    Instr::I32Sub,
                    Instr::LocalSet(COUNTER),
                    Instr::LocalGet(COUNTER),
                    Instr::Call(HOST),
                    Instr::GlobalGet(0),
                    Instr::Call(HELPER),
                    Instr::GlobalSet(0),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::GlobalGet(0),
    ];
    let module = build_module(body);
    // Find the unmetered cost first, then sweep a little past it.
    let full = run_on(&module, Runner::Loop, None);
    assert!(full.outcome.is_ok());
    let cost = full.instrs;
    for budget in 0..=cost + 2 {
        let flat = run_on(&module, Runner::Loop, Some(budget));
        let tree = run_on(&module, Runner::Oracle, Some(budget));
        assert_eq!(flat, tree, "divergence at fuel budget {budget}");
        if budget < cost {
            assert_eq!(
                flat.outcome,
                Err(Trap::FuelExhausted),
                "budget {budget} below cost {cost} must exhaust"
            );
        }
    }
}

/// The call-depth cap must bite at the same depth (and instruction
/// count) on both runners: a zero budget refuses the entry call itself,
/// `down(n)` needs exactly `n + 1` frames, and runaway recursion hits
/// [`Trap::StackOverflow`].
#[test]
fn call_depth_cap_matches() {
    let module = ModuleBuilder::new()
        .func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [],
            [
                Instr::LocalGet(0),
                Instr::If(
                    BlockType::Value(ValType::I32),
                    vec![
                        Instr::LocalGet(0),
                        Instr::I32Const(1),
                        Instr::I32Sub,
                        Instr::Call(0),
                    ],
                    vec![Instr::I32Const(0)],
                ),
            ],
        )
        .export_func("down", 0)
        .build()
        .unwrap();

    for depth_limit in [0usize, 1, 2, 3, 17] {
        // Runaway, one frame too many, and (where any call fits) exact fit.
        let mut cases = vec![(1000, false), (depth_limit as i32, false)];
        if depth_limit > 0 {
            cases.push((depth_limit as i32 - 1, true));
        }
        for (n, fits) in cases {
            let limits = limits_with(None, depth_limit);
            let flat = observe(&module, Runner::Loop, limits, "down", &[Value::I32(n)]);
            let tree = observe(&module, Runner::Oracle, limits, "down", &[Value::I32(n)]);
            assert_eq!(flat, tree, "depth limit {depth_limit}, down({n})");
            let expected = if fits { Ok(vec![Value::I32(0)]) } else { Err(Trap::StackOverflow) };
            assert_eq!(flat.outcome, expected, "depth limit {depth_limit}, down({n})");
        }
    }
}

/// A trap raised *inside a host function* must propagate identically,
/// leaving the same partial state behind.
#[test]
fn host_trap_propagates_identically() {
    let body = vec![
        Instr::I32Const(10),
        Instr::Call(HOST),
        Instr::Drop,
        Instr::I32Const(99),
        Instr::Call(HOST),
    ];
    let module = build_module(body);
    let make = |runner: Runner| {
        let mut linker = Linker::new();
        linker.define(
            "env",
            "acc",
            FuncType::new([ValType::I32], [ValType::I32]),
            |mut caller, args| {
                let x = match args[0] {
                    Value::I32(v) => v,
                    _ => unreachable!(),
                };
                caller.data::<Vec<i32>>()?.push(x);
                if x == 99 {
                    return Err(Trap::Unreachable);
                }
                Ok(vec![Value::I32(x)])
            },
        );
        let mut inst = Instance::new(
            module.clone(),
            &linker,
            EngineLimits::default(),
            Box::new(Vec::<i32>::new()),
        )
        .unwrap();
        let out = runner.invoke(&mut inst, "run", &[]);
        (out, inst.instr_count(), inst.data::<Vec<i32>>().cloned().unwrap())
    };
    let flat = make(Runner::Loop);
    let tree = make(Runner::Oracle);
    assert_eq!(flat, tree);
    assert_eq!(flat.0, Err(Trap::Unreachable));
    assert_eq!(flat.2, vec![10, 99], "host saw both calls before the trap");
}

/// Division traps (by zero and `i32::MIN / -1`) carry the same variant
/// and leave the same counts on both runners.
#[test]
fn division_traps_match() {
    for (a, b, expect_trap) in [
        (10, 0, true),
        (i32::MIN, -1, true),
        (i32::MIN, 1, false),
        (7, -3, false),
    ] {
        let body = vec![Instr::I32Const(a), Instr::I32Const(b), Instr::I32DivS];
        let module = build_module(body);
        let flat = run_on(&module, Runner::Loop, None);
        let tree = run_on(&module, Runner::Oracle, None);
        assert_eq!(flat, tree, "divergence for {a} / {b}");
        assert_eq!(flat.outcome.is_err(), expect_trap, "{a} / {b}");
    }
}

// ------------------------------------------------- whole-kernel fixed cases
//
// The three guest kernels `bench_wasm` times (same bodies, small
// arguments): each must return the same value, retire the same
// `instr_count` and — metered — exhaust at the same point on both
// runners. `bench_wasm` itself pins the loop's full-size results and
// counts against constants.

/// `loop(n) { x = xorshift32(xorshift32(x)); acc += x }` in the local-SSA
/// style compilers emit — locals 0 = n (param), 1 = i, 2 = x, 3 = acc,
/// 4 = t; nearly every instruction lands in a fused superinstruction.
fn compute_kernel() -> Module {
    let shift = |amount: i32, op: Instr| {
        vec![
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

/// Naive recursive fib — every level is two wasm→wasm calls.
fn calls_kernel() -> Module {
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
        .unwrap()
}

/// `loop(n) { mem[a] = load(mem[a]) + 1 }` with `a = (i*4) & 0xFFFC`.
fn memory_kernel() -> Module {
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
        .export_memory("mem")
        .build()
        .unwrap()
}

#[test]
fn bench_kernels_match_metered_and_unmetered() {
    // (kernel, argument, instructions one call retires: 61n + 9,
    // c(n) = 13 + c(n-1) + c(n-2) from c(0) = c(1) = 5, and 20n + 7 —
    // the same formulas give `bench_wasm`'s full-size constants).
    let kernels = [
        ("compute", compute_kernel(), 40, 2449),
        ("calls", calls_kernel(), 9, 977),
        ("memory", memory_kernel(), 40, 807),
    ];
    for (name, module, arg, cost) in &kernels {
        let cost = *cost;
        let args = [Value::I32(*arg)];
        let limits = limits_with(None, 48);
        let flat = observe(module, Runner::Loop, limits, "run", &args);
        let tree = observe(module, Runner::Oracle, limits, "run", &args);
        assert!(flat.outcome.is_ok(), "{name} completes unmetered");
        assert_eq!(flat.instrs, cost, "{name} retires its formula's count");
        assert_eq!(flat, tree, "{name}, unmetered");
        // Budgets that run dry inside the loop, one short of completing,
        // exactly enough, and generous.
        for budget in [0, 1, cost / 3, cost / 2, cost - 1, cost, cost + 100] {
            let limits = limits_with(Some(budget), 48);
            let flat = observe(module, Runner::Loop, limits, "run", &args);
            let tree = observe(module, Runner::Oracle, limits, "run", &args);
            assert_eq!(flat, tree, "{name}, fuel {budget} of {cost}");
            assert_eq!(flat.outcome.is_ok(), budget >= cost, "{name}, fuel {budget} of {cost}");
        }
    }
}
