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
//! always validate, while out-of-bounds accesses, guarded `unreachable`s,
//! a host import that refuses one argument, fuel budgets and call depth
//! still make traps common. [`every_trap_variant_is_reached_alike`]
//! holds the suite to reaching each [`Trap`] variant on both runners.

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
/// `Vec<i32>` host data and returns it plus one — except `i32::MIN`,
/// which it logs and refuses with a host trap.
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
            if x == i32::MIN {
                return Err(Trap::host("acc refuses i32::MIN"));
            }
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
/// unsigned-compare and shift-mask cases (and the host's refusal of
/// `i32::MIN`) come up.
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
        let binop = prop_oneof![
            Just(Instr::I32Add),
            Just(Instr::I32Sub),
            Just(Instr::I32Mul),
            Just(Instr::I32And),
            Just(Instr::I32Xor),
            Just(Instr::I32Shl),
            Just(Instr::I32ShrU),
            Just(Instr::I32Eq),
            Just(Instr::I32LtS),
            Just(Instr::I32LtU),
            Just(Instr::I32LeU),
            Just(Instr::I32GeU),
        ];
        let load = prop_oneof![
            Just(vec![Instr::I32Load(MemArg::default())]),
            Just(vec![Instr::I32Load8U(MemArg::offset(2))]),
            Just(vec![Instr::I64Load(MemArg::default()), Instr::I32WrapI64]),
        ];
        prop_oneof![
            // unary
            inner.clone().prop_map(|mut a| {
                a.push(Instr::I32Eqz);
                a
            }),
            // binary (incl. comparisons)
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
                a.extend(op);
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
        // `unreachable` behind a condition: traps only when it holds.
        expr.clone().prop_map(|mut e| {
            e.push(Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]));
            e
        }),
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
        (arb_addr(expr.clone()), expr.clone()).prop_map(|(mut a, v)| {
            a.extend(v);
            a.extend([Instr::I64ExtendI32U, Instr::I64Store(MemArg::offset(4))]);
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

    // Three-way dispatch out of two nested empty blocks: a true first
    // selector (or neither) runs both arms, a true second selector
    // skips to the last; each arm is a nested statement.
    let dispatch = (expr.clone(), expr, simple.clone(), simple.clone()).prop_map(
        |(sel0, sel1, arm0, arm1)| {
            let mut innermost = sel0;
            innermost.push(Instr::BrIf(0));
            innermost.extend(sel1);
            innermost.push(Instr::BrIf(1));
            let mut outer = vec![Instr::Block(BlockType::Empty, innermost)];
            outer.extend(arm0);
            let mut body = vec![Instr::Block(BlockType::Empty, outer)];
            body.extend(arm1);
            body
        },
    );

    prop_oneof![4 => simple, 1 => looped, 1 => dispatch].boxed()
}

/// A full `run` body: a few statements then the result expression,
/// occasionally followed by an explicit branch to the function label.
fn arb_body() -> impl Strategy<Value = Vec<Instr>> {
    (
        proptest::collection::vec(arb_stmt(), 0..4),
        arb_expr(),
        any::<bool>(),
    )
        .prop_map(|(stmts, expr, explicit_exit)| {
            let mut body: Vec<Instr> = stmts.into_iter().flatten().collect();
            body.extend(expr);
            if explicit_exit {
                body.push(Instr::Br(0));
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

/// Stores and loads at the edge of memory trap at the same byte on both
/// runners, and those that fit do not: the last whole word, the byte
/// after it, and a static offset that carries the address past 4 GiB.
#[test]
fn memory_bound_traps_match() {
    let page = crate::PAGE as i32;
    let store = |addr: i32, offset: u32, wide: bool| {
        let mut body = vec![Instr::I32Const(addr)];
        if wide {
            body.extend([Instr::I64Const(-1), Instr::I64Store(MemArg::offset(offset))]);
        } else {
            body.extend([Instr::I32Const(-1), Instr::I32Store8(MemArg::offset(offset))]);
        }
        body.push(Instr::I32Const(0));
        body
    };
    let load = |addr: i32, offset: u32| {
        vec![Instr::I32Const(addr), Instr::I32Load(MemArg::offset(offset))]
    };
    for (what, body, fits) in [
        ("i64.store at the last word", store(page - 8, 0, true), true),
        ("i64.store one byte over", store(page - 7, 0, true), false),
        ("i32.store8 at the last byte", store(page - 2, 1, false), true),
        ("i32.store8 past the end", store(page, 0, false), false),
        ("i32.load at the last word", load(page - 8, 4), true),
        ("i32.load past 4 GiB", load(-4, 8), false),
    ] {
        let module = build_module(body);
        let flat = run_on(&module, Runner::Loop, None);
        let tree = run_on(&module, Runner::Oracle, None);
        assert_eq!(flat, tree, "divergence for {what}");
        match flat.outcome {
            Ok(_) => assert!(fits, "{what} must trap"),
            Err(Trap::MemoryOutOfBounds { .. }) => assert!(!fits, "{what} must fit"),
            Err(other) => panic!("{what}: {other}"),
        }
    }
}

/// Every [`Trap`] variant, by name. The match is exhaustive, so a new
/// variant does not compile until it is named here — and then
/// [`every_trap_variant_is_reached_alike`] fails until a case reaches it.
fn trap_name(trap: &Trap) -> &'static str {
    match trap {
        Trap::Unreachable => "Unreachable",
        Trap::MemoryOutOfBounds { .. } => "MemoryOutOfBounds",
        Trap::StackOverflow => "StackOverflow",
        Trap::FuelExhausted => "FuelExhausted",
        Trap::Host(_) => "Host",
        Trap::BadExport(_) => "BadExport",
    }
}

/// One case per [`Trap`] variant, each run on both runners: they agree
/// on everything observable, and together they reach every variant.
#[test]
fn every_trap_variant_is_reached_alike() {
    let unlimited = limits_with(None, 48);
    let cases = [
        (build_module(vec![Instr::Unreachable]), unlimited, "run", vec![]),
        (
            build_module(vec![
                Instr::I32Const(crate::PAGE as i32),
                Instr::I32Load(MemArg::default()),
            ]),
            unlimited,
            "run",
            vec![],
        ),
        (calls_kernel(), limits_with(None, 4), "run", vec![Value::I32(9)]),
        (calls_kernel(), limits_with(Some(100), 48), "run", vec![Value::I32(9)]),
        (
            build_module(vec![Instr::I32Const(i32::MIN), Instr::Call(HOST)]),
            unlimited,
            "run",
            vec![],
        ),
        (build_module(vec![Instr::I32Const(0)]), unlimited, "missing", vec![]),
    ];
    let mut reached = std::collections::BTreeSet::new();
    for (module, limits, export, args) in &cases {
        let flat = observe(module, Runner::Loop, *limits, export, args);
        let tree = observe(module, Runner::Oracle, *limits, export, args);
        assert_eq!(flat, tree, "{export}: {:?}", flat.outcome);
        let trap = flat.outcome.expect_err("every case traps");
        assert!(reached.insert(trap_name(&trap)), "two cases reach {trap}");
    }
    assert_eq!(reached.len(), 6, "one case per variant: {reached:?}");
}

// ------------------------------------------------- whole-kernel fixed cases
//
// The four guest kernels `bench_wasm` times (same bodies, small
// arguments): each must return the same value, retire the same
// `instr_count` and — metered — exhaust at the same point on both
// runners. `bench_wasm` itself pins the loop's full-size results and
// counts against constants.

/// `loop(n) { x = xorshift32(xorshift32(x)); acc += x }` in the local-SSA
/// style compilers emit — locals 0 = n (param), 1 = i, 2 = x, 3 = acc,
/// 4 = t. Fusion covers the shifts and the counter (`I32BinLCSet`); the
/// local-to-local steps and the exit test run as `LocalGet` then
/// `I32BinTL`.
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

/// `loop(n) { out[3*320 + i] = in[3*1280 + 2i] }`, both addresses built
/// on the operand stack the way `guest::resize_image` builds them.
fn stack_kernel() -> Module {
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
    func.extend(out_index(65_535));
    func.push(Instr::I32Load8U(MemArg::default()));
    ModuleBuilder::new()
        .func(FuncType::new([ValType::I32], [ValType::I32]), [ValType::I32; 2], func)
        .memory(2, Some(2))
        .data(1024, (0..32_768u32).map(|k| (7 * k + 3) as u8).collect())
        .export_func("run", 0)
        .export_memory("mem")
        .build()
        .unwrap()
}

#[test]
fn bench_kernels_match_metered_and_unmetered() {
    // (kernel, argument, instructions one call retires: 61n + 9,
    // c(n) = 13 + c(n-1) + c(n-2) from c(0) = c(1) = 5, 20n + 7 and
    // 27n + 16 — the same formulas give `bench_wasm`'s full-size
    // constants).
    let kernels = [
        ("compute", compute_kernel(), 40, 2449),
        ("calls", calls_kernel(), 9, 977),
        ("memory", memory_kernel(), 40, 807),
        ("stack", stack_kernel(), 40, 1096),
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

// ------------------------------------------------ what untyped slots must keep
//
// The loop's operand stack holds raw 64-bit slots where the walker holds
// tagged [`Value`]s, so everything a tag used to guarantee is checked
// here against the walker: integer bits survive every move, an i32 never
// drags stale high bits into a wider reader, and nothing a previous
// frame or a trapped invocation left on the stack is ever read.

/// A value as its type and bit pattern.
fn bits(v: Value) -> (ValType, u64) {
    let raw = match v {
        Value::I32(v) => v as u32 as u64,
        Value::I64(v) => v as u64,
    };
    (v.ty(), raw)
}

/// What one invocation of a [`session`] leaves observable.
#[derive(Debug, PartialEq)]
struct Step {
    outcome: Result<Vec<(ValType, u64)>, Trap>,
    instrs: u64,
    fuel_left: Option<u64>,
    /// Bit patterns the `env.echo32` / `env.echo64` imports saw so far.
    host_log: Vec<u64>,
    /// The exported globals `g32` and `g64`, where the module has them.
    globals: Vec<(ValType, u64)>,
    memory: Vec<u8>,
}

/// A linker whose `env.echo32` and `env.echo64` log the bits of their
/// argument into the instance's `Vec<u64>` and hand it straight back.
fn echo_linker() -> Linker {
    let mut linker = Linker::new();
    for (name, ty) in [("echo32", ValType::I32), ("echo64", ValType::I64)] {
        linker.define("env", name, FuncType::new([ty], [ty]), |mut caller, args| {
            caller.data::<Vec<u64>>()?.push(bits(args[0]).1);
            Ok(vec![args[0]])
        });
    }
    linker
}

/// Makes `calls` one after another on **one** instance of `module`
/// (refuelled to `limits`' budget before each) and records what every
/// one of them leaves behind.
fn session(
    module: &Module,
    runner: Runner,
    limits: EngineLimits,
    calls: &[(&str, Vec<Value>)],
) -> Vec<Step> {
    let mut inst =
        Instance::new(module.clone(), &echo_linker(), limits, Box::new(Vec::<u64>::new()))
            .expect("instantiation");
    calls
        .iter()
        .map(|(export, args)| {
            if let Some(fuel) = limits.initial_fuel {
                inst.set_fuel(fuel);
            }
            let outcome = runner.invoke(&mut inst, export, args);
            Step {
                outcome: outcome.map(|values| values.into_iter().map(bits).collect()),
                instrs: inst.instr_count(),
                fuel_left: inst.fuel(),
                host_log: inst.data::<Vec<u64>>().cloned().unwrap(),
                globals: ["g32", "g64"].iter().filter_map(|g| inst.global(g)).map(bits).collect(),
                memory: inst
                    .memory()
                    .map(|m| m.read(0, m.len() as u32).unwrap().to_vec())
                    .unwrap_or_default(),
            }
        })
        .collect()
}

/// Runs the session on both runners, asserts they agree step for step,
/// and returns the steps.
fn agreed_session(module: &Module, limits: EngineLimits, calls: &[(&str, Vec<Value>)]) -> Vec<Step> {
    let flat = session(module, Runner::Loop, limits, calls);
    let tree = session(module, Runner::Oracle, limits, calls);
    for (i, (f, t)) in flat.iter().zip(&tree).enumerate() {
        assert_eq!(f.outcome, t.outcome, "step {i} {:?}: outcome", calls[i]);
        assert_eq!(f.instrs, t.instrs, "step {i} {:?}: instr_count", calls[i]);
        assert_eq!(f.fuel_left, t.fuel_left, "step {i} {:?}: fuel", calls[i]);
        assert_eq!(f.host_log, t.host_log, "step {i} {:?}: host log", calls[i]);
        assert_eq!(f.globals, t.globals, "step {i} {:?}: globals", calls[i]);
        assert!(f.memory == t.memory, "step {i} {:?}: memory", calls[i]);
    }
    flat
}

/// A module that carries an integer through every kind of move the
/// engine has: `tour32(x: i32) -> i32` and `tour64(x: i64) -> i64` pass
/// their argument through `local.set/get/tee`, `select` (both arms) on
/// the operand stack, `global.set/get`, a wasm→wasm call's parameter and
/// result, and a host call's argument and result, and return it.
fn int_tour_module() -> Module {
    use ValType::{I32, I64};
    // (echo import, global, pass helper, a zero of the tour's type)
    let tour = |echo: u32, global: u32, pass: u32, zero: Instr| {
        vec![
            Instr::LocalGet(0),
            Instr::LocalSet(1),
            Instr::LocalGet(1),
            Instr::LocalTee(2),
            // select(x, 0, 1) keeps x; select(0, x, 0) keeps x too.
            zero.clone(),
            Instr::I32Const(1),
            Instr::Select,
            Instr::LocalSet(1),
            zero,
            Instr::LocalGet(1),
            Instr::I32Const(0),
            Instr::Select,
            Instr::GlobalSet(global),
            Instr::GlobalGet(global),
            Instr::Call(pass),
            Instr::Call(echo),
            // The copy `local.tee` made must be the same bits.
            Instr::Drop,
            Instr::LocalGet(2),
            Instr::Call(echo),
        ]
    };
    // A helper that moves its parameter through a declared local.
    let pass = vec![Instr::LocalGet(0), Instr::LocalSet(1), Instr::LocalGet(1)];
    ModuleBuilder::new()
        .import_func("env", "echo32", FuncType::new([I32], [I32]))
        .import_func("env", "echo64", FuncType::new([I64], [I64]))
        .global(I32, true, Value::I32(0))
        .global(I64, true, Value::I64(0))
        .func(FuncType::new([I32], [I32]), [I32], pass.clone())
        .func(FuncType::new([I64], [I64]), [I64], pass)
        .func(FuncType::new([I32], [I32]), [I32, I32], tour(0, 0, 2, Instr::I32Const(0)))
        .func(FuncType::new([I64], [I64]), [I64, I64], tour(1, 1, 3, Instr::I64Const(0)))
        .export_func("tour32", 4)
        .export_func("tour64", 5)
        .export_global("g32", 0)
        .export_global("g64", 1)
        .build()
        .expect("integer tour validates")
}

#[test]
fn integer_bits_survive_every_move() {
    // The sign bit with and without company, each half of the slot on
    // its own, and every bit at once: a move that sign-extends, truncates
    // or drops a half changes one of them.
    let i32_patterns: [u32; 6] = [u32::MAX, 0x8000_0001, 0x8000_0000, 0x7FFF_FFFF, 1, 0];
    let i64_patterns: [u64; 8] = [
        u64::MAX,
        0x8000_0000_0000_0001,
        0x8000_0000_0000_0000,
        0xFFFF_FFFF_0000_0000,
        0x0000_0000_FFFF_FFFF,
        0x0000_0001_0000_0000,
        0x7FFF_FFFF_FFFF_FFFF,
        1,
    ];
    let module = int_tour_module();
    let mut calls: Vec<(&str, Vec<Value>)> = Vec::new();
    for p in i32_patterns {
        calls.push(("tour32", vec![Value::I32(p as i32)]));
    }
    for p in i64_patterns {
        calls.push(("tour64", vec![Value::I64(p as i64)]));
    }
    let steps = agreed_session(&module, EngineLimits::default(), &calls);
    let mut log_len = 0;
    for (step, (export, args)) in steps.iter().zip(&calls) {
        let (ty, wanted) = bits(args[0]);
        assert_eq!(step.outcome, Ok(vec![(ty, wanted)]), "{export}({wanted:#x}) result");
        // Both host calls saw exactly these bits…
        log_len += 2;
        assert_eq!(step.host_log.len(), log_len);
        assert_eq!(step.host_log[log_len - 2..], [wanted, wanted], "{export}({wanted:#x}) host");
        // …and the global it went through still holds them.
        let global = if *export == "tour32" { step.globals[0] } else { step.globals[1] };
        assert_eq!(global.1, wanted, "{export}({wanted:#x}) global");
    }
}

/// `run` with a `[] -> [i64]` body and one i32 + one i64 local.
fn i64_result_module(body: Vec<Instr>) -> Module {
    ModuleBuilder::new()
        .func(FuncType::new([], [ValType::I64]), [ValType::I32, ValType::I64], body)
        .memory(1, Some(1))
        .data(0, vec![0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7])
        .export_func("run", 0)
        .build()
        .expect("slot hygiene case validates")
}

#[test]
fn i32_slots_carry_no_stale_high_bits() {
    let run = |body: Vec<Instr>| {
        let steps =
            agreed_session(&i64_result_module(body), EngineLimits::default(), &[("run", vec![])]);
        match steps[0].outcome.as_deref() {
            Ok([(ValType::I64, v)]) => *v,
            other => panic!("expected one i64, got {other:?}"),
        }
    };
    // -1 is 32 one-bits; widened unsigned it must stay 32 one-bits,
    // whether it came from a constant, a local, a fused op or a load.
    assert_eq!(run(vec![Instr::I32Const(-1), Instr::I64ExtendI32U]), 0xFFFF_FFFF);
    assert_eq!(
        run(vec![
            Instr::I32Const(-1),
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::I64ExtendI32U,
        ]),
        0xFFFF_FFFF
    );
    assert_eq!(
        // local·const·sub fuses; 0 - 1 wraps to -1.
        run(vec![Instr::LocalGet(0), Instr::I32Const(1), Instr::I32Sub, Instr::I64ExtendI32U]),
        0xFFFF_FFFF
    );
    assert_eq!(
        // The word at 0 has its sign bit set.
        run(vec![
            Instr::I32Const(0),
            Instr::I32Load(MemArg::default()),
            Instr::I64ExtendI32U,
        ]),
        0xA3A2_A1A0
    );

    // Wrapping 0x1_0000_0000 leaves 0 — a `br_if` condition that does
    // not branch…
    let branch = vec![Instr::Block(
        BlockType::Value(ValType::I64),
        vec![
            Instr::I64Const(100),
            Instr::I64Const(0x1_0000_0000),
            Instr::I32WrapI64,
            Instr::BrIf(0),
            Instr::Drop,
            Instr::I64Const(101),
        ],
    )];
    assert_eq!(run(branch), 101);
    // …and wrapping 0x1_0000_0001 leaves 1, under `i32.eqz`, a
    // conditional and `select`…
    let wrapped = || [Instr::I64Const(0x1_0000_0001), Instr::I32WrapI64];
    let mut eqz = wrapped().to_vec();
    eqz.extend([Instr::I32Eqz, Instr::I64ExtendI32U]);
    assert_eq!(run(eqz), 0);
    let mut cond = wrapped().to_vec();
    cond.extend([
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::If(
            BlockType::Value(ValType::I64),
            vec![Instr::I64Const(7)],
            vec![Instr::I64Const(8)],
        ),
    ]);
    assert_eq!(run(cond), 8, "1 - 1 is zero, not 0x1_0000_0000");
    // …as a load address (byte 1, not an out-of-bounds trap), and stored
    // through a local and a tee.
    let mut addr = wrapped().to_vec();
    addr.extend([Instr::I32Load8U(MemArg::default()), Instr::I64ExtendI32U]);
    assert_eq!(run(addr), 0xA1);
    let mut tee = wrapped().to_vec();
    tee.extend([Instr::LocalTee(0), Instr::Drop, Instr::LocalGet(0), Instr::I64ExtendI32U]);
    assert_eq!(run(tee), 1);
    // An i64 keeps its high half through a store and a load.
    assert_eq!(
        run(vec![
            Instr::I32Const(8),
            Instr::I64Const(0x1_0000_0000),
            Instr::I64Store(MemArg::default()),
            Instr::I32Const(8),
            Instr::I64Load(MemArg::default()),
        ]),
        0x1_0000_0000
    );
}

/// Exports for the stale-slot and after-trap cases:
///
/// * `junk(depth)` — fills a deep operand stack and four locals with
///   all-ones patterns of both types, recursing `depth` levels so the
///   junk reaches well up the slot stack, and returns normally;
/// * `zeros()` — declares two locals of each type and returns all four
///   plus a nested call's argument and four locals, untouched: every
///   local must read zero however dirty the slots they land on;
/// * `unreachable_deep(depth)`, `store_deep(depth)`, `spin_deep(depth)`
///   — leave the same junk, then trap `depth` frames down: `unreachable`,
///   an out-of-bounds store, an endless loop that runs out of fuel.
fn stale_slot_module() -> Module {
    use ValType::{I32, I64};
    const JUNK: u32 = 0;
    const ZEROS: u32 = 1;
    const FRESH: u32 = 2;
    let dirty_frame = || {
        vec![
            Instr::I32Const(-1),
            Instr::LocalSet(1),
            Instr::I64Const(-1),
            Instr::LocalSet(2),
            Instr::I32Const(-1),
            Instr::LocalSet(3),
            Instr::I64Const(-1),
            Instr::LocalSet(4),
            // Six operands deep, then gone.
            Instr::I64Const(-1),
            Instr::I64Const(-1),
            Instr::I64Const(-1),
            Instr::I32Const(-1),
            Instr::I64Const(-1),
            Instr::I32Const(-1),
            Instr::Drop,
            Instr::Drop,
            Instr::Drop,
            Instr::Drop,
            Instr::Drop,
            Instr::Drop,
        ]
    };
    // `f(depth)`: dirty this frame, recurse while depth > 0, and at the
    // bottom run `bottom`.
    let descend = |me: u32, bottom: Vec<Instr>| {
        let mut body = dirty_frame();
        body.extend([
            Instr::LocalGet(0),
            Instr::If(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I32Const(1),
                    Instr::I32Sub,
                    Instr::Call(me),
                ],
                bottom,
            ),
        ]);
        body
    };
    let locals = [I32, I64, I32, I64];
    ModuleBuilder::new()
        .func(FuncType::new([I32], []), locals, descend(JUNK, vec![]))
        .func(
            FuncType::new([], [I32, I64, I32, I64, I64, I32, I64, I32, I64]),
            locals,
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::LocalGet(2),
                Instr::LocalGet(3),
                // A callee frame opened above these operands.
                Instr::I64Const(5),
                Instr::Call(FRESH),
            ],
        )
        .func(
            // fresh(x: i64): x and every one of its zeroed locals.
            FuncType::new([I64], [I64, I32, I64, I32, I64]),
            locals,
            (0..5).map(Instr::LocalGet).collect::<Vec<_>>(),
        )
        .func(FuncType::new([I32], []), locals, descend(3, vec![Instr::Unreachable]))
        .func(
            FuncType::new([I32], []),
            locals,
            descend(
                4,
                vec![Instr::I32Const(-4), Instr::I64Const(-1), Instr::I64Store(MemArg::default())],
            ),
        )
        .func(
            FuncType::new([I32], []),
            locals,
            descend(5, vec![Instr::Loop(BlockType::Empty, vec![Instr::Br(0)])]),
        )
        .memory(1, Some(1))
        .export_func("junk", JUNK)
        .export_func("zeros", ZEROS)
        .export_func("unreachable_deep", 3)
        .export_func("store_deep", 4)
        .export_func("spin_deep", 5)
        .build()
        .expect("stale slot module validates")
}

/// What `zeros()` must return: four zeroed locals, then `fresh(5)`'s
/// argument and four zeroed locals.
fn all_zero() -> Result<Vec<(ValType, u64)>, Trap> {
    use ValType::{I32, I64};
    let locals = [(I32, 0), (I64, 0), (I32, 0), (I64, 0)];
    Ok([&locals[..], &[(I64, 5)], &locals].concat())
}

#[test]
fn declared_locals_read_zero_over_stale_slots() {
    let module = stale_slot_module();
    let calls = [
        ("zeros", vec![]),
        ("junk", vec![Value::I32(0)]),
        ("zeros", vec![]),
        ("junk", vec![Value::I32(9)]),
        ("zeros", vec![]),
    ];
    let steps = agreed_session(&module, limits_with(None, 48), &calls);
    for i in [0, 2, 4] {
        assert_eq!(steps[i].outcome, all_zero(), "zeros() at step {i}");
    }
    assert_eq!(steps[1].outcome, Ok(vec![]));
    assert_eq!(steps[3].outcome, Ok(vec![]));
}

#[test]
fn an_invoke_after_a_trap_mid_frame_starts_clean() {
    let module = stale_slot_module();
    let calls = [
        ("unreachable_deep", vec![Value::I32(6)]),
        ("zeros", vec![]),
        ("store_deep", vec![Value::I32(4)]),
        ("zeros", vec![]),
        ("spin_deep", vec![Value::I32(7)]),
        ("zeros", vec![]),
        // Deeper than the call-depth cap allows.
        ("junk", vec![Value::I32(100)]),
        ("zeros", vec![]),
        ("junk", vec![Value::I32(3)]),
    ];
    // Enough fuel for everything but the endless loop.
    let steps = agreed_session(&module, limits_with(Some(2_000), 48), &calls);
    assert_eq!(steps[0].outcome, Err(Trap::Unreachable));
    assert!(matches!(steps[2].outcome, Err(Trap::MemoryOutOfBounds { .. })));
    assert_eq!(steps[4].outcome, Err(Trap::FuelExhausted));
    assert_eq!(steps[6].outcome, Err(Trap::StackOverflow));
    for i in [1, 3, 5, 7] {
        assert_eq!(steps[i].outcome, all_zero(), "zeros() after the trap at step {}", i - 1);
    }
    assert_eq!(steps[8].outcome, Ok(vec![]));
    assert!(steps[8].memory.iter().all(|&b| b == 0), "the trapped store wrote nothing");
}
