//! AST → flat bytecode lowering.
//!
//! Executing the structured [`Instr`] tree directly would re-discover
//! control flow on every run: each `Block`/`Loop`/`If` a recursive Rust
//! call, each branch an unwind through them, each wasm→wasm call a
//! recursion. This module lowers a validated function body once into a
//! flat [`Vec<Op>`] where
//!
//! * blocks, loops and ifs become *jumps*: every branch carries a
//!   pre-resolved instruction offset plus the static operand-stack height
//!   and arity needed to unwind in O(arity);
//! * `br_table` becomes a dense offset table ([`BrTableOp`]);
//! * immediates are unpacked (`MemArg` → bare static offset, call targets
//!   split into defined vs host at compile time);
//! * per-function metadata (param count, locals, result arity) is computed
//!   once, so the dispatch loop never touches `FuncType` again.
//!
//! The lowering is a single pass that mirrors the validator's control
//! stack. Forward targets are backpatched when a frame closes; loop
//! back-edges resolve immediately. Dead code (after `br`/`return`/
//! `unreachable`) is lowered with saturating height tracking — the
//! validator's unreachable-code polymorphism means static heights there
//! are meaningless, and the ops can never execute.
//!
//! # Accounting
//!
//! `instr_count` and fuel are defined on the source tree: every [`Instr`]
//! node counts exactly once, when execution reaches it (the test-only
//! tree walker, `interp/reference.rs`, is that definition in executable
//! form). Two synthetic ops exist only in flat code and are therefore
//! **not counted**: [`Op::Goto`] (end of a then-arm skipping the else)
//! and [`Op::FnEnd`] (the fall-through return appended to every body).
//! A `Block`/`Loop` header lowers to [`Op::Enter`], which counts and does
//! nothing else; loop back-edges land *after* it, so the header counts
//! once per entry, not per iteration. Every other op stands for exactly
//! one source instruction.
//!
//! # Superinstruction fusion
//!
//! A peephole pass ([`fuse`]) then rewrites hot patterns over locals and
//! constants — `local.get a; local.get b; i32.add; local.set d` and
//! friends — into single register-style superinstructions, cutting both
//! dispatch count and operand-stack traffic. Only *pure* ops fuse:
//! non-trapping i32 arithmetic/comparisons, `local.get`/`local.set` and
//! `i32.const`. Each fused op charges the exact number of source
//! instructions it replaces; when fuel runs out inside a group, the
//! remaining sub-instructions are skipped entirely, which is
//! unobservable — they could only have touched the operand stack and
//! locals, both discarded when the trap unwinds — while `instr_count`
//! and fuel land on exactly the unfused sequence's values. Runs never
//! extend across a branch target (fusion would hide the landing pad);
//! all surviving targets are remapped to the shortened stream.
//!
//! # Frame size
//!
//! The lowering tracks the operand-stack height anyway (branches need
//! it), so it also records the deepest it gets: [`CompiledFunc::max_stack`].
//! With `frame_size` (params + declared locals) that is everything a call
//! will ever touch, so the dispatch loop reserves `frame_size + max_stack`
//! slots when it opens a frame and never checks capacity on a push.
//!
//! # Self-check
//!
//! The dispatch loop trusts the static facts computed here (it indexes
//! code, frames and the operand stack by them). Debug builds re-derive
//! them per function, after lowering and again after fusion ([`verify`]) —
//! including, by running every op's pops and pushes over the reachable
//! code, that the height stays within `max_stack`; release builds
//! compile the check out.

use crate::instr::Instr;
use crate::module::Module;
use crate::types::ValType;
use crate::validate::numeric_sig;

/// A pre-resolved branch: where to jump and how to unwind the operand
/// stack when taking it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Jump {
    /// Destination offset within the function's flat code.
    pub target: u32,
    /// Operand-stack height of the target label's block, relative to the
    /// frame's operand base.
    pub height: u32,
    /// Values carried to the label (0 for loop back-edges).
    pub arity: u32,
}

/// Pre-resolved `br_table`: a dense jump table plus the default.
#[derive(Debug, Clone)]
pub(crate) struct BrTableOp {
    /// Jump per table entry, indexed by the popped selector.
    pub targets: Box<[Jump]>,
    /// Jump taken when the selector is out of range.
    pub default: Jump,
}

/// The non-trapping i32 binary operators eligible for fusion. The
/// interpreter's `i32_bin_eval` must agree op-for-op with the plain
/// dispatch arms; the differential suite holds it to that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum I32Bin {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Rotl,
    Rotr,
    Eq,
    Ne,
    LtS,
    LtU,
    GtS,
    GtU,
    LeS,
    LeU,
    GeS,
    GeU,
}

/// Fused `local.get a; local.get b; <cmp>; br_if` — a compare-and-
/// branch with no operand-stack traffic (boxed: the jump plus operands
/// exceed the 16-byte op budget).
#[derive(Debug, Clone)]
pub(crate) struct BrFuseLL {
    pub op: I32Bin,
    pub a: u16,
    pub b: u16,
    pub jump: Jump,
}

/// Fused `local.get a; i32.const c; <cmp>; br_if`.
#[derive(Debug, Clone)]
pub(crate) struct BrFuseLC {
    pub op: I32Bin,
    pub a: u16,
    pub c: i32,
    pub jump: Jump,
}

/// The fusable twin of a flat op, if it has one. Division and
/// remainder are deliberately absent: they trap, and a trap inside a
/// fused group would need partial-execution bookkeeping.
fn i32_bin_of(op: &Op) -> Option<I32Bin> {
    Some(match op {
        Op::I32Add => I32Bin::Add,
        Op::I32Sub => I32Bin::Sub,
        Op::I32Mul => I32Bin::Mul,
        Op::I32And => I32Bin::And,
        Op::I32Or => I32Bin::Or,
        Op::I32Xor => I32Bin::Xor,
        Op::I32Shl => I32Bin::Shl,
        Op::I32ShrS => I32Bin::ShrS,
        Op::I32ShrU => I32Bin::ShrU,
        Op::I32Rotl => I32Bin::Rotl,
        Op::I32Rotr => I32Bin::Rotr,
        Op::I32Eq => I32Bin::Eq,
        Op::I32Ne => I32Bin::Ne,
        Op::I32LtS => I32Bin::LtS,
        Op::I32LtU => I32Bin::LtU,
        Op::I32GtS => I32Bin::GtS,
        Op::I32GtU => I32Bin::GtU,
        Op::I32LeS => I32Bin::LeS,
        Op::I32LeU => I32Bin::LeU,
        Op::I32GeS => I32Bin::GeS,
        Op::I32GeU => I32Bin::GeU,
        _ => return None,
    })
}

/// The fieldless pure-numeric instructions, shared verbatim between
/// [`Instr`] and [`Op`]. Invoked with a macro that receives the full
/// list, so the enum definition and the `Instr → Op` mapping can never
/// drift apart.
macro_rules! for_each_numeric_op {
    ($m:ident) => {
        $m! {
            I32Eqz, I32Eq, I32Ne, I32LtS, I32LtU, I32GtS, I32GtU, I32LeS, I32LeU,
            I32GeS, I32GeU, I64Eqz, I64Eq, I64Ne, I64LtS, I64LtU, I64GtS, I64GtU,
            I64LeS, I64LeU, I64GeS, I64GeU, F32Eq, F32Ne, F32Lt, F32Gt, F32Le,
            F32Ge, F64Eq, F64Ne, F64Lt, F64Gt, F64Le, F64Ge, I32Clz, I32Ctz,
            I32Popcnt, I32Add, I32Sub, I32Mul, I32DivS, I32DivU, I32RemS, I32RemU,
            I32And, I32Or, I32Xor, I32Shl, I32ShrS, I32ShrU, I32Rotl, I32Rotr,
            I64Clz, I64Ctz, I64Popcnt, I64Add, I64Sub, I64Mul, I64DivS, I64DivU,
            I64RemS, I64RemU, I64And, I64Or, I64Xor, I64Shl, I64ShrS, I64ShrU,
            I64Rotl, I64Rotr, F32Abs, F32Neg, F32Ceil, F32Floor, F32Trunc,
            F32Nearest, F32Sqrt, F32Add, F32Sub, F32Mul, F32Div, F32Min, F32Max,
            F32Copysign, F64Abs, F64Neg, F64Ceil, F64Floor, F64Trunc, F64Nearest,
            F64Sqrt, F64Add, F64Sub, F64Mul, F64Div, F64Min, F64Max, F64Copysign,
            I32WrapI64, I32TruncF32S, I32TruncF32U, I32TruncF64S, I32TruncF64U,
            I64ExtendI32S, I64ExtendI32U, I64TruncF32S, I64TruncF32U, I64TruncF64S,
            I64TruncF64U, F32ConvertI32S, F32ConvertI32U, F32ConvertI64S,
            F32ConvertI64U, F32DemoteF64, F64ConvertI32S, F64ConvertI32U,
            F64ConvertI64S, F64ConvertI64U, F64PromoteF32, I32ReinterpretF32,
            I64ReinterpretF64, F32ReinterpretI32, F64ReinterpretI64,
        }
    };
}

macro_rules! define_op {
    ($($num:ident),* $(,)?) => {
        /// One flat bytecode instruction.
        ///
        /// 16 bytes; numeric variants mirror [`Instr`] names one-to-one.
        #[derive(Debug, Clone)]
        pub(crate) enum Op {
            // Synthetic (uncounted) — see module docs.
            Goto(u32),
            FnEnd,
            // Control.
            Unreachable,
            Nop,
            /// `Block`/`Loop` header: counts one instruction, no effect.
            Enter,
            /// Pops the condition; jumps to the else arm (or merge point)
            /// when it is zero.
            IfElse(u32),
            Br(Jump),
            BrIf(Jump),
            BrTable(Box<BrTableOp>),
            Return,
            /// Call a module-defined function, by *defined* index.
            Call(u32),
            /// Call an imported host function.
            CallHost {
                /// Host-function index (= import index).
                func: u32,
                /// Number of arguments to slice off the operand stack.
                params: u32,
            },
            Drop,
            Select,
            LocalGet(u32),
            LocalSet(u32),
            LocalTee(u32),
            GlobalGet(u32),
            GlobalSet(u32),
            // Memory (immediate = static offset; align is a hint, dropped).
            I32Load(u32),
            I64Load(u32),
            F32Load(u32),
            F64Load(u32),
            I32Load8S(u32),
            I32Load8U(u32),
            I32Load16S(u32),
            I32Load16U(u32),
            I64Load8S(u32),
            I64Load8U(u32),
            I64Load16S(u32),
            I64Load16U(u32),
            I64Load32S(u32),
            I64Load32U(u32),
            I32Store(u32),
            I64Store(u32),
            F32Store(u32),
            F64Store(u32),
            I32Store8(u32),
            I32Store16(u32),
            I64Store8(u32),
            I64Store16(u32),
            I64Store32(u32),
            MemorySize,
            MemoryGrow,
            MemoryCopy,
            MemoryFill,
            I32Const(i32),
            I64Const(i64),
            F32Const(f32),
            F64Const(f64),
            // Fused superinstructions — produced only by the [`fuse`]
            // peephole pass, never by direct lowering. The trailing
            // comment gives the replaced pattern; each counts as that
            // many source instructions ("L" local, "C" const, "T" stack
            // top; the second operand of `TL`/`TC` forms is the RHS).
            /// `local[dst] = local[a] ⊕ local[b]` (get·get·op·set, 4).
            I32BinLLSet { op: I32Bin, a: u16, b: u16, dst: u16 },
            /// `local[dst] = local[a] ⊕ c` (get·const·op·set, 4).
            I32BinLCSet { op: I32Bin, a: u16, c: i32, dst: u16 },
            /// `local[dst] = pop() ⊕ local[a]` (get·op·set, 3).
            I32BinTLSet { op: I32Bin, a: u16, dst: u16 },
            /// `local[dst] = pop() ⊕ c` (const·op·set, 3).
            I32BinTCSet { op: I32Bin, c: i32, dst: u16 },
            /// `push(local[a] ⊕ local[b])` (get·get·op, 3).
            I32BinLL { op: I32Bin, a: u16, b: u16 },
            /// `push(local[a] ⊕ c)` (get·const·op, 3).
            I32BinLC { op: I32Bin, a: u16, c: i32 },
            /// `push(pop() ⊕ local[a])` (get·op, 2).
            I32BinTL { op: I32Bin, a: u16 },
            /// `push(pop() ⊕ c)` (const·op, 2).
            I32BinTC { op: I32Bin, c: i32 },
            /// `local[dst] = local[src]`, any type (get·set, 2).
            LocalCopy { src: u16, dst: u16 },
            /// `local[dst] = c` (const·set, 2).
            I32ConstSet { c: i32, dst: u16 },
            /// Branch when `local[a] ⊕ local[b]` is nonzero
            /// (get·get·cmp·br_if, 4).
            BrIfBinLL(Box<BrFuseLL>),
            /// Branch when `local[a] ⊕ c` is nonzero
            /// (get·const·cmp·br_if, 4).
            BrIfBinLC(Box<BrFuseLC>),
            $( $num, )*
        }

        /// Maps a pure-numeric [`Instr`] to its [`Op`] twin.
        fn numeric_op(i: &Instr) -> Op {
            match i {
                $( Instr::$num => Op::$num, )*
                other => unreachable!("not a pure numeric instruction: {other:?}"),
            }
        }

        /// `(pops, pushes)` of a pure-numeric [`Op`], from its [`Instr`]
        /// twin's signature.
        fn numeric_effect(op: &Op) -> Option<(usize, usize)> {
            let instr = match op {
                $( Op::$num => Instr::$num, )*
                _ => return None,
            };
            numeric_sig(&instr).map(|(params, results)| (params.len(), results.len()))
        }
    };
}

for_each_numeric_op!(define_op);

/// A function body lowered to flat bytecode plus the frame metadata the
/// dispatch loop needs, precomputed once.
#[derive(Debug)]
pub(crate) struct CompiledFunc {
    /// Flat code; always ends with [`Op::FnEnd`].
    pub code: Box<[Op]>,
    /// Number of parameters (popped from the caller's operand stack).
    pub params: u32,
    /// Params plus declared locals: operands start this far above the
    /// frame base. The declared locals (`params..frame_size`) are
    /// zeroed at call time; being untyped slots, their types are not
    /// kept.
    pub frame_size: u32,
    /// Deepest the operand stack gets above `frame_size`. A call
    /// reserves `frame_size + max_stack` slots once, and the dispatch
    /// loop then pushes without a capacity check.
    pub max_stack: u32,
    /// Result types; the entry call turns its result slots back into
    /// [`crate::Value`]s by them.
    pub results: Box<[ValType]>,
}

/// A whole module's functions in flat form, indexed by *defined* index
/// (imports excluded — they never have bodies).
#[derive(Debug)]
pub(crate) struct CompiledModule {
    /// One compiled body per `Module::funcs` entry.
    pub funcs: Box<[CompiledFunc]>,
}

/// Lowers every defined function of a **validated** module.
pub(crate) fn compile(module: &Module) -> CompiledModule {
    let funcs = module
        .funcs
        .iter()
        .map(|def| {
            let ty = &module.types[def.type_idx as usize];
            let ret_arity = ty.results().len() as u32;
            let mut c = FnCompiler {
                module,
                ops: Vec::with_capacity(def.body.iter().map(Instr::size).sum::<usize>() + 1),
                ctrls: vec![Ctrl {
                    kind: CtrlKind::Block,
                    arity: ret_arity,
                    height: 0,
                    patches: Vec::new(),
                }],
                height: 0,
                max_height: ret_arity as usize,
            };
            c.seq(&def.body);
            // Branches to the function label land on the trailing FnEnd.
            let root = c.ctrls.pop().expect("root frame");
            let end = c.ops.len() as u32;
            for (at, slot) in root.patches {
                patch_op(&mut c.ops[at], slot, end);
            }
            c.ops.push(Op::FnEnd);
            debug_assert_eq!(verify(&c.ops, module, c.max_height), Ok(()), "after lowering");
            let code = fuse(c.ops);
            debug_assert_eq!(verify(&code, module, c.max_height), Ok(()), "after fusion");
            CompiledFunc {
                code: code.into_boxed_slice(),
                params: ty.params().len() as u32,
                frame_size: (ty.params().len() + def.locals.len()) as u32,
                max_stack: c.max_height as u32,
                results: ty.results().into(),
            }
        })
        .collect();
    CompiledModule { funcs }
}

/// What one op does to the operand stack, as `(pops, pushes)`.
fn stack_effect(op: &Op, module: &Module) -> (usize, usize) {
    if let Some(effect) = numeric_effect(op) {
        return effect;
    }
    let sig = |type_idx: u32| {
        let ty = &module.types[type_idx as usize];
        (ty.params().len(), ty.results().len())
    };
    match op {
        Op::I32Const(_) | Op::I64Const(_) | Op::F32Const(_) | Op::F64Const(_) => (0, 1),
        Op::LocalGet(_) | Op::GlobalGet(_) | Op::MemorySize => (0, 1),
        Op::I32BinLL { .. } | Op::I32BinLC { .. } => (0, 1),
        Op::I32BinTL { .. } | Op::I32BinTC { .. } | Op::LocalTee(_) | Op::MemoryGrow => (1, 1),
        Op::I32Load(_) | Op::I64Load(_) | Op::F32Load(_) | Op::F64Load(_) => (1, 1),
        Op::I32Load8S(_) | Op::I32Load8U(_) | Op::I32Load16S(_) | Op::I32Load16U(_) => (1, 1),
        Op::I64Load8S(_) | Op::I64Load8U(_) | Op::I64Load16S(_) | Op::I64Load16U(_) => (1, 1),
        Op::I64Load32S(_) | Op::I64Load32U(_) => (1, 1),
        Op::Drop | Op::LocalSet(_) | Op::GlobalSet(_) => (1, 0),
        Op::IfElse(_) | Op::BrIf(_) | Op::BrTable(_) => (1, 0),
        Op::I32BinTLSet { .. } | Op::I32BinTCSet { .. } => (1, 0),
        Op::I32Store(_) | Op::I64Store(_) | Op::F32Store(_) | Op::F64Store(_) => (2, 0),
        Op::I32Store8(_) | Op::I32Store16(_) => (2, 0),
        Op::I64Store8(_) | Op::I64Store16(_) | Op::I64Store32(_) => (2, 0),
        Op::Select => (3, 1),
        Op::MemoryCopy | Op::MemoryFill => (3, 0),
        Op::Call(f) => sig(module.funcs[*f as usize].type_idx),
        Op::CallHost { func, .. } => sig(module.imports[*func as usize].type_idx),
        // Control that moves no value (the values a taken branch carries
        // stay where the unwind puts them) and the local-to-local fused
        // forms.
        _ => (0, 0),
    }
}

/// Re-derives the static facts the dispatch loop indexes by without
/// checking (see the module docs): every jump target inside the
/// function, every call index in range, `FnEnd` last — and, by running
/// the operand-stack height through every reachable op, that no op pops
/// below its frame's operand base, that every path into an op agrees on
/// the height there, and that the height never exceeds `max_stack`, the
/// slots a call reserves.
fn verify(code: &[Op], module: &Module, max_stack: usize) -> Result<(), String> {
    let target = |at: usize, t: u32| {
        if (t as usize) < code.len() {
            Ok(())
        } else {
            Err(format!("op {at}: target {t} outside {} ops", code.len()))
        }
    };
    let jump = |at: usize, j: &Jump| {
        target(at, j.target)?;
        if j.height as usize + j.arity as usize > max_stack {
            return Err(format!(
                "op {at}: unwind to {} + {} exceeds operand depth {max_stack}",
                j.height, j.arity
            ));
        }
        Ok(())
    };
    for (at, op) in code.iter().enumerate() {
        for j in jumps_of(op) {
            jump(at, j)?;
        }
        match op {
            Op::Goto(t) | Op::IfElse(t) => target(at, *t)?,
            Op::Call(f) if *f as usize >= module.funcs.len() => {
                return Err(format!("op {at}: call to undefined function {f}"));
            }
            Op::CallHost { func, .. } if *func as usize >= module.imports.len() => {
                return Err(format!("op {at}: call to unknown import {func}"));
            }
            Op::CallHost { func, params } => {
                let ty = &module.types[module.imports[*func as usize].type_idx as usize];
                if ty.params().len() != *params as usize {
                    return Err(format!("op {at}: host call passes {params} of {ty}"));
                }
            }
            _ => {}
        }
    }
    if !matches!(code.last(), Some(Op::FnEnd)) {
        return Err(format!("code ends with {:?}, not FnEnd", code.last()));
    }

    // Heights, over reachable ops only: dead code (whose static heights
    // mean nothing) is never visited, just as it is never run.
    let mut height_at: Vec<Option<usize>> = vec![None; code.len()];
    let mut pending = vec![(0usize, 0usize)];
    while let Some((mut at, mut height)) = pending.pop() {
        loop {
            match height_at[at] {
                Some(seen) if seen == height => break,
                Some(seen) => {
                    return Err(format!("op {at}: reached at heights {seen} and {height}"));
                }
                None => height_at[at] = Some(height),
            }
            let op = &code[at];
            let (pops, pushes) = stack_effect(op, module);
            if pops > height {
                return Err(format!("op {at}: {op:?} pops {pops} from height {height}"));
            }
            height = height - pops + pushes;
            if height > max_stack {
                return Err(format!(
                    "op {at}: {op:?} raises the stack to {height}, max_stack is {max_stack}"
                ));
            }
            for j in jumps_of(op) {
                let landing = (j.height + j.arity) as usize;
                if height < landing {
                    return Err(format!(
                        "op {at}: branch from height {height} carries {} to {}",
                        j.arity, j.height
                    ));
                }
                pending.push((j.target as usize, landing));
            }
            match op {
                Op::FnEnd | Op::Unreachable | Op::Return | Op::Br(_) | Op::BrTable(_) => break,
                Op::Goto(t) => {
                    at = *t as usize;
                    continue;
                }
                Op::IfElse(t) => pending.push((*t as usize, height)),
                _ => {}
            }
            at += 1;
        }
    }
    Ok(())
}

/// Every pre-resolved branch an op carries.
fn jumps_of(op: &Op) -> Vec<&Jump> {
    match op {
        Op::Br(j) | Op::BrIf(j) => vec![j],
        Op::BrIfBinLL(f) => vec![&f.jump],
        Op::BrIfBinLC(f) => vec![&f.jump],
        Op::BrTable(bt) => bt.targets.iter().chain([&bt.default]).collect(),
        _ => Vec::new(),
    }
}

/// The superinstruction peephole pass (see module docs).
///
/// Branch targets never land *inside* a fused run — a run may begin at
/// a target (the jump then resumes at the superinstruction) but never
/// extend across one. After rewriting, every surviving jump offset is
/// remapped to the shortened stream. `Return`'s jump-to-`FnEnd` and
/// call return addresses need no remapping: both are computed from the
/// new stream at run time.
fn fuse(code: Vec<Op>) -> Vec<Op> {
    let mut is_target = vec![false; code.len()];
    for op in &code {
        match op {
            Op::Goto(t) | Op::IfElse(t) => is_target[*t as usize] = true,
            Op::Br(j) | Op::BrIf(j) => is_target[j.target as usize] = true,
            Op::BrTable(bt) => {
                for j in bt.targets.iter() {
                    is_target[j.target as usize] = true;
                }
                is_target[bt.default.target as usize] = true;
            }
            _ => {}
        }
    }

    let mut out = Vec::with_capacity(code.len());
    let mut map = vec![0u32; code.len()];
    let mut i = 0;
    while i < code.len() {
        // Ops usable from `i` before the next branch target (capped at
        // the longest pattern).
        let free = 1 + is_target[i + 1..].iter().take(3).take_while(|&&t| !t).count();
        match match_superop(&code[i..], free) {
            Some((op, len)) => {
                debug_assert!(
                    !is_target[i + 1..i + len].contains(&true),
                    "fused run at op {i} covers a branch target"
                );
                for slot in &mut map[i..i + len] {
                    *slot = out.len() as u32;
                }
                out.push(op);
                i += len;
            }
            None => {
                map[i] = out.len() as u32;
                out.push(code[i].clone());
                i += 1;
            }
        }
    }

    for op in &mut out {
        match op {
            Op::Goto(t) | Op::IfElse(t) => *t = map[*t as usize],
            Op::Br(j) | Op::BrIf(j) => j.target = map[j.target as usize],
            Op::BrIfBinLL(f) => f.jump.target = map[f.jump.target as usize],
            Op::BrIfBinLC(f) => f.jump.target = map[f.jump.target as usize],
            Op::BrTable(bt) => {
                for j in bt.targets.iter_mut() {
                    j.target = map[j.target as usize];
                }
                bt.default.target = map[bt.default.target as usize];
            }
            _ => {}
        }
    }
    out
}

/// Matches the longest superinstruction pattern at the head of `w`,
/// using at most `free` ops. Local indices above `u16::MAX` simply
/// don't fuse.
fn match_superop(w: &[Op], free: usize) -> Option<(Op, usize)> {
    let loc = |i: &u32| u16::try_from(*i).ok();
    if free >= 4 {
        if let [Op::LocalGet(a), Op::LocalGet(b), o, Op::BrIf(jump), ..] = w {
            if let (Some(op), Some(a), Some(b)) = (i32_bin_of(o), loc(a), loc(b)) {
                let f = BrFuseLL { op, a, b, jump: *jump };
                return Some((Op::BrIfBinLL(Box::new(f)), 4));
            }
        }
        if let [Op::LocalGet(a), Op::I32Const(c), o, Op::BrIf(jump), ..] = w {
            if let (Some(op), Some(a)) = (i32_bin_of(o), loc(a)) {
                let f = BrFuseLC { op, a, c: *c, jump: *jump };
                return Some((Op::BrIfBinLC(Box::new(f)), 4));
            }
        }
        if let [Op::LocalGet(a), Op::LocalGet(b), o, Op::LocalSet(d), ..] = w {
            if let (Some(op), Some(a), Some(b), Some(dst)) =
                (i32_bin_of(o), loc(a), loc(b), loc(d))
            {
                return Some((Op::I32BinLLSet { op, a, b, dst }, 4));
            }
        }
        if let [Op::LocalGet(a), Op::I32Const(c), o, Op::LocalSet(d), ..] = w {
            if let (Some(op), Some(a), Some(dst)) = (i32_bin_of(o), loc(a), loc(d)) {
                return Some((Op::I32BinLCSet { op, a, c: *c, dst }, 4));
            }
        }
    }
    if free >= 3 {
        if let [Op::LocalGet(a), o, Op::LocalSet(d), ..] = w {
            if let (Some(op), Some(a), Some(dst)) = (i32_bin_of(o), loc(a), loc(d)) {
                return Some((Op::I32BinTLSet { op, a, dst }, 3));
            }
        }
        if let [Op::I32Const(c), o, Op::LocalSet(d), ..] = w {
            if let (Some(op), Some(dst)) = (i32_bin_of(o), loc(d)) {
                return Some((Op::I32BinTCSet { op, c: *c, dst }, 3));
            }
        }
        if let [Op::LocalGet(a), Op::LocalGet(b), o, ..] = w {
            if let (Some(op), Some(a), Some(b)) = (i32_bin_of(o), loc(a), loc(b)) {
                return Some((Op::I32BinLL { op, a, b }, 3));
            }
        }
        if let [Op::LocalGet(a), Op::I32Const(c), o, ..] = w {
            if let (Some(op), Some(a)) = (i32_bin_of(o), loc(a)) {
                return Some((Op::I32BinLC { op, a, c: *c }, 3));
            }
        }
    }
    if free >= 2 {
        if let [Op::LocalGet(a), o, ..] = w {
            if let (Some(op), Some(a)) = (i32_bin_of(o), loc(a)) {
                return Some((Op::I32BinTL { op, a }, 2));
            }
        }
        if let [Op::I32Const(c), o, ..] = w {
            if let Some(op) = i32_bin_of(o) {
                return Some((Op::I32BinTC { op, c: *c }, 2));
            }
        }
        if let [Op::LocalGet(s), Op::LocalSet(d), ..] = w {
            if let (Some(src), Some(dst)) = (loc(s), loc(d)) {
                return Some((Op::LocalCopy { src, dst }, 2));
            }
        }
        if let [Op::I32Const(c), Op::LocalSet(d), ..] = w {
            if let Some(dst) = loc(d) {
                return Some((Op::I32ConstSet { c: *c, dst }, 2));
            }
        }
    }
    None
}

enum CtrlKind {
    /// `Block` and `If` (and the function root): branches go forward to
    /// the merge point, carrying the label arity.
    Block,
    /// `Loop`: branches go back to the stored body start, carrying 0.
    Loop(u32),
}

struct Ctrl {
    kind: CtrlKind,
    arity: u32,
    /// Static operand height at block entry (= unwind floor).
    height: usize,
    /// Ops awaiting this frame's merge offset: `(op index, slot)`, where
    /// `slot` selects the entry inside a `br_table`.
    patches: Vec<(usize, usize)>,
}

struct FnCompiler<'m> {
    module: &'m Module,
    ops: Vec<Op>,
    ctrls: Vec<Ctrl>,
    /// Static operand height. Meaningless (but safely clamped) in dead
    /// code, where the validator permits polymorphic stack use.
    height: usize,
    /// Largest value `height` (or a label's `height + arity`) takes:
    /// the function's [`CompiledFunc::max_stack`], which [`verify`]
    /// re-derives.
    max_height: usize,
}

fn patch_op(op: &mut Op, slot: usize, target: u32) {
    match op {
        Op::Goto(t) | Op::IfElse(t) => *t = target,
        Op::Br(j) | Op::BrIf(j) => j.target = target,
        Op::BrTable(bt) => {
            if slot < bt.targets.len() {
                bt.targets[slot].target = target;
            } else {
                bt.default.target = target;
            }
        }
        other => unreachable!("unpatchable op {other:?}"),
    }
}

impl FnCompiler<'_> {
    /// Lowers a sequence. Recursion runs once per nested block through
    /// this function alone; [`FnCompiler::lower_plain`]'s large frame
    /// stays out of the cycle.
    fn seq(&mut self, body: &[Instr]) {
        for instr in body {
            match instr {
                Instr::Block(bt, inner) => {
                    self.ops.push(Op::Enter);
                    self.open(CtrlKind::Block, bt.arity() as u32);
                    self.seq(inner);
                    self.close();
                }
                Instr::Loop(bt, inner) => {
                    self.ops.push(Op::Enter);
                    // Back-edges re-enter *after* the header, so the Enter
                    // counts once per entry, not per iteration (see the
                    // module docs on accounting).
                    let start = self.ops.len() as u32;
                    self.open(CtrlKind::Loop(start), bt.arity() as u32);
                    self.seq(inner);
                    self.close();
                }
                Instr::If(bt, then, els) => {
                    self.pop_vals(1);
                    let if_at = self.ops.len();
                    self.ops.push(Op::IfElse(u32::MAX));
                    self.open(CtrlKind::Block, bt.arity() as u32);
                    self.seq(then);
                    if els.is_empty() {
                        // No else: a false condition falls through to merge.
                        self.ctrls.last_mut().expect("if frame").patches.push((if_at, 0));
                    } else {
                        let goto_at = self.ops.len();
                        self.ops.push(Op::Goto(u32::MAX));
                        let else_start = self.ops.len() as u32;
                        patch_op(&mut self.ops[if_at], 0, else_start);
                        let frame = self.ctrls.last_mut().expect("if frame");
                        frame.patches.push((goto_at, 0));
                        let floor = frame.height;
                        self.height = floor;
                        self.seq(els);
                    }
                    self.close();
                }
                plain => self.lower_plain(plain),
            }
        }
    }

    fn push_vals(&mut self, n: usize) {
        self.height += n;
        self.max_height = self.max_height.max(self.height);
    }

    /// Pops `n` static values, clamped at the innermost frame's floor so
    /// polymorphic dead code cannot underflow.
    fn pop_vals(&mut self, n: usize) {
        let floor = self.ctrls.last().expect("ctrl frame").height;
        self.height = self.height.saturating_sub(n).max(floor);
    }

    /// After an unconditional transfer the rest of the sequence is dead;
    /// reset to the frame floor, matching the validator.
    fn reset_to_floor(&mut self) {
        self.height = self.ctrls.last().expect("ctrl frame").height;
    }

    fn open(&mut self, kind: CtrlKind, arity: u32) {
        self.ctrls.push(Ctrl { kind, arity, height: self.height, patches: Vec::new() });
    }

    fn close(&mut self) {
        let frame = self.ctrls.pop().expect("ctrl frame");
        let merge = self.ops.len() as u32;
        for (at, slot) in frame.patches {
            patch_op(&mut self.ops[at], slot, merge);
        }
        self.height = frame.height + frame.arity as usize;
        self.max_height = self.max_height.max(self.height);
    }

    /// Builds the jump for a branch to the `depth`-th enclosing label.
    /// The op that will hold it sits at `at` (`slot` indexes `br_table`
    /// entries); forward targets are registered for backpatching.
    fn jump_to(&mut self, depth: u32, at: usize, slot: usize) -> Jump {
        let idx = self.ctrls.len() - 1 - depth as usize;
        let frame = &mut self.ctrls[idx];
        match frame.kind {
            CtrlKind::Loop(start) => {
                Jump { target: start, height: frame.height as u32, arity: 0 }
            }
            CtrlKind::Block => {
                frame.patches.push((at, slot));
                Jump { target: u32::MAX, height: frame.height as u32, arity: frame.arity }
            }
        }
    }

    fn emit(&mut self, op: Op, pops: usize, pushes: usize) {
        self.pop_vals(pops);
        self.push_vals(pushes);
        self.ops.push(op);
    }

    /// Lowers one instruction that contains no others.
    fn lower_plain(&mut self, instr: &Instr) {
        use Instr as I;
        if let Some((params, results)) = numeric_sig(instr) {
            return self.emit(numeric_op(instr), params.len(), results.len());
        }
        match instr {
            I::Unreachable => {
                self.ops.push(Op::Unreachable);
                self.reset_to_floor();
            }
            I::Nop => self.ops.push(Op::Nop),
            I::Br(depth) => {
                let at = self.ops.len();
                let jump = self.jump_to(*depth, at, 0);
                self.ops.push(Op::Br(jump));
                self.reset_to_floor();
            }
            I::BrIf(depth) => {
                self.pop_vals(1);
                let at = self.ops.len();
                let jump = self.jump_to(*depth, at, 0);
                self.ops.push(Op::BrIf(jump));
            }
            I::BrTable(targets, default) => {
                self.pop_vals(1);
                let at = self.ops.len();
                let entries: Box<[Jump]> = targets
                    .iter()
                    .enumerate()
                    .map(|(slot, &d)| self.jump_to(d, at, slot))
                    .collect();
                let default = self.jump_to(*default, at, targets.len());
                self.ops.push(Op::BrTable(Box::new(BrTableOp { targets: entries, default })));
                self.reset_to_floor();
            }
            I::Return => {
                self.ops.push(Op::Return);
                self.reset_to_floor();
            }
            I::Call(idx) => {
                let ty = self.module.func_type(*idx).expect("validated call target");
                let (np, nr) = (ty.params().len(), ty.results().len());
                self.pop_vals(np);
                self.push_vals(nr);
                let imports = self.module.imports.len() as u32;
                if *idx < imports {
                    self.ops.push(Op::CallHost { func: *idx, params: np as u32 });
                } else {
                    self.ops.push(Op::Call(*idx - imports));
                }
            }
            I::Drop => self.emit(Op::Drop, 1, 0),
            I::Select => self.emit(Op::Select, 3, 1),
            I::LocalGet(i) => self.emit(Op::LocalGet(*i), 0, 1),
            I::LocalSet(i) => self.emit(Op::LocalSet(*i), 1, 0),
            I::LocalTee(i) => self.ops.push(Op::LocalTee(*i)),
            I::GlobalGet(i) => self.emit(Op::GlobalGet(*i), 0, 1),
            I::GlobalSet(i) => self.emit(Op::GlobalSet(*i), 1, 0),
            I::I32Load(m) => self.emit(Op::I32Load(m.offset), 1, 1),
            I::I64Load(m) => self.emit(Op::I64Load(m.offset), 1, 1),
            I::F32Load(m) => self.emit(Op::F32Load(m.offset), 1, 1),
            I::F64Load(m) => self.emit(Op::F64Load(m.offset), 1, 1),
            I::I32Load8S(m) => self.emit(Op::I32Load8S(m.offset), 1, 1),
            I::I32Load8U(m) => self.emit(Op::I32Load8U(m.offset), 1, 1),
            I::I32Load16S(m) => self.emit(Op::I32Load16S(m.offset), 1, 1),
            I::I32Load16U(m) => self.emit(Op::I32Load16U(m.offset), 1, 1),
            I::I64Load8S(m) => self.emit(Op::I64Load8S(m.offset), 1, 1),
            I::I64Load8U(m) => self.emit(Op::I64Load8U(m.offset), 1, 1),
            I::I64Load16S(m) => self.emit(Op::I64Load16S(m.offset), 1, 1),
            I::I64Load16U(m) => self.emit(Op::I64Load16U(m.offset), 1, 1),
            I::I64Load32S(m) => self.emit(Op::I64Load32S(m.offset), 1, 1),
            I::I64Load32U(m) => self.emit(Op::I64Load32U(m.offset), 1, 1),
            I::I32Store(m) => self.emit(Op::I32Store(m.offset), 2, 0),
            I::I64Store(m) => self.emit(Op::I64Store(m.offset), 2, 0),
            I::F32Store(m) => self.emit(Op::F32Store(m.offset), 2, 0),
            I::F64Store(m) => self.emit(Op::F64Store(m.offset), 2, 0),
            I::I32Store8(m) => self.emit(Op::I32Store8(m.offset), 2, 0),
            I::I32Store16(m) => self.emit(Op::I32Store16(m.offset), 2, 0),
            I::I64Store8(m) => self.emit(Op::I64Store8(m.offset), 2, 0),
            I::I64Store16(m) => self.emit(Op::I64Store16(m.offset), 2, 0),
            I::I64Store32(m) => self.emit(Op::I64Store32(m.offset), 2, 0),
            I::MemorySize => self.emit(Op::MemorySize, 0, 1),
            I::MemoryGrow => self.emit(Op::MemoryGrow, 1, 1),
            I::MemoryCopy => self.emit(Op::MemoryCopy, 3, 0),
            I::MemoryFill => self.emit(Op::MemoryFill, 3, 0),
            I::I32Const(v) => self.emit(Op::I32Const(*v), 0, 1),
            I::I64Const(v) => self.emit(Op::I64Const(*v), 0, 1),
            I::F32Const(v) => self.emit(Op::F32Const(*v), 0, 1),
            I::F64Const(v) => self.emit(Op::F64Const(*v), 0, 1),
            other => unreachable!("structured or numeric instruction fell through: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::BlockType;
    use crate::types::{FuncType, Value};

    fn compile_body(body: Vec<Instr>) -> CompiledFunc {
        let module = ModuleBuilder::new()
            .func(FuncType::new([], [ValType::I32]), [], body)
            .build()
            .expect("validates");
        let mut compiled = compile(&module);
        let mut funcs = std::mem::take(&mut compiled.funcs).into_vec();
        funcs.remove(0)
    }

    #[test]
    fn op_stays_16_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn straight_line_body_appends_fnend() {
        let f = compile_body(vec![Instr::I32Const(7)]);
        assert_eq!(f.code.len(), 2);
        assert!(matches!(f.code[0], Op::I32Const(7)));
        assert!(matches!(f.code[1], Op::FnEnd));
        assert_eq!(f.results.len(), 1);
    }

    #[test]
    fn block_branch_resolves_to_merge_point() {
        // block (result i32) { i32.const 3; br 0 }; ...
        let f = compile_body(vec![
            Instr::Block(
                BlockType::Value(ValType::I32),
                vec![Instr::I32Const(3), Instr::Br(0)],
            ),
        ]);
        // Enter, I32Const, Br, FnEnd — the Br lands past the block.
        let Op::Br(j) = &f.code[2] else { panic!("expected Br, got {:?}", f.code[2]) };
        assert_eq!(j.target, 3);
        assert_eq!(j.arity, 1);
        assert_eq!(j.height, 0);
        assert!(matches!(f.code[3], Op::FnEnd));
    }

    #[test]
    fn loop_branch_goes_back_past_the_header() {
        // loop { br_if 0 } with a const condition.
        let f = compile_body(vec![
            Instr::Loop(
                BlockType::Empty,
                vec![Instr::I32Const(0), Instr::BrIf(0)],
            ),
            Instr::I32Const(1),
        ]);
        // Enter(0), I32Const(1), BrIf(2), I32Const(3), FnEnd(4).
        let Op::BrIf(j) = &f.code[2] else { panic!("expected BrIf, got {:?}", f.code[2]) };
        assert_eq!(j.target, 1, "loop back-edge skips the counted Enter header");
        assert_eq!(j.arity, 0);
    }

    #[test]
    fn if_without_else_jumps_to_merge() {
        let f = compile_body(vec![
            Instr::I32Const(1),
            Instr::If(BlockType::Empty, vec![Instr::Nop], vec![]),
            Instr::I32Const(9),
        ]);
        // I32Const(0), IfElse(1), Nop(2), I32Const(3), FnEnd(4).
        let Op::IfElse(t) = f.code[1] else { panic!("expected IfElse, got {:?}", f.code[1]) };
        assert_eq!(t, 3);
    }

    #[test]
    fn if_with_else_inserts_uncounted_goto() {
        let f = compile_body(vec![
            Instr::I32Const(1),
            Instr::If(
                BlockType::Value(ValType::I32),
                vec![Instr::I32Const(10)],
                vec![Instr::I32Const(20)],
            ),
        ]);
        // I32Const(0), IfElse(1), I32Const(2), Goto(3), I32Const(4), FnEnd(5).
        let Op::IfElse(t) = f.code[1] else { panic!("expected IfElse, got {:?}", f.code[1]) };
        assert_eq!(t, 4, "false condition jumps to the else arm");
        let Op::Goto(g) = f.code[3] else { panic!("expected Goto, got {:?}", f.code[3]) };
        assert_eq!(g, 5, "then arm skips the else to the merge point");
    }

    #[test]
    fn br_table_entries_resolve_independently() {
        // block { block { br_table [1, 0] default=1 } nop }; i32.const 7
        let f = compile_body(vec![
            Instr::Block(
                BlockType::Empty,
                vec![
                    Instr::Block(
                        BlockType::Empty,
                        vec![Instr::I32Const(0), Instr::BrTable(vec![1, 0], 1)],
                    ),
                    Instr::Nop,
                ],
            ),
            Instr::I32Const(7),
        ]);
        // Enter(0), Enter(1), I32Const(2), BrTable(3), Nop(4), I32Const(5), FnEnd(6).
        let Op::BrTable(bt) = &f.code[3] else { panic!("expected BrTable, got {:?}", f.code[3]) };
        // Entry 0 targets the outer block's merge, entry 1 the inner one.
        assert_eq!(bt.targets[0].target, 5);
        assert_eq!(bt.targets[1].target, 4);
        assert_eq!(bt.default.target, 5);
    }

    #[test]
    fn calls_split_host_from_defined_at_compile_time() {
        let module = ModuleBuilder::new()
            .import_func("env", "h", FuncType::new([], []))
            .func(FuncType::new([], []), [], vec![Instr::Call(0), Instr::Call(1)])
            .build()
            .expect("validates");
        let compiled = compile(&module);
        let code = &compiled.funcs[0].code;
        assert!(matches!(code[0], Op::CallHost { func: 0, params: 0 }));
        assert!(matches!(code[1], Op::Call(0)), "defined index space excludes imports");
    }

    #[test]
    fn polymorphic_dead_code_compiles_without_underflow() {
        // After `unreachable`, drops and numeric ops run on a polymorphic
        // stack; lowering must clamp instead of panicking.
        let f = compile_body(vec![
            Instr::Unreachable,
            Instr::Drop,
            Instr::I32Add,
            Instr::I32Const(0),
            Instr::Drop,
            Instr::Drop,
        ]);
        assert!(matches!(f.code[0], Op::Unreachable));
        assert!(matches!(f.code.last(), Some(Op::FnEnd)));
    }

    #[test]
    fn branch_to_function_label_targets_fnend() {
        let f = compile_body(vec![Instr::I32Const(5), Instr::Br(0)]);
        // I32Const(0), Br(1), FnEnd(2).
        let Op::Br(j) = &f.code[1] else { panic!("expected Br, got {:?}", f.code[1]) };
        assert_eq!(j.target, 2);
        assert_eq!(j.arity, 1, "function-label branches carry the result arity");
    }

    /// Like [`compile_body`] but with two zeroed i32 locals, for the
    /// fusion tests (superinstructions only form over locals/consts).
    fn compile_locals(body: Vec<Instr>) -> CompiledFunc {
        let module = ModuleBuilder::new()
            .func(FuncType::new([], [ValType::I32]), [ValType::I32; 2], body)
            .build()
            .expect("validates");
        let mut compiled = compile(&module);
        std::mem::take(&mut compiled.funcs).into_vec().remove(0)
    }

    #[test]
    fn fusion_rewrites_local_arithmetic_into_superops() {
        // get·get·add·set collapses to a single register-style op.
        let f = compile_locals(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(0),
            Instr::LocalGet(0),
        ]);
        assert_eq!(f.code.len(), 3);
        assert!(matches!(
            f.code[0],
            Op::I32BinLLSet { op: I32Bin::Add, a: 0, b: 1, dst: 0 }
        ));
        assert!(matches!(f.code[1], Op::LocalGet(0)));
        assert!(matches!(f.code[2], Op::FnEnd));
    }

    #[test]
    fn fusion_handles_stack_top_forms() {
        // The value under get·add·set comes off the operand stack, so
        // only the trailing three ops fuse (TLSet), not the ctz.
        let f = compile_locals(vec![
            Instr::LocalGet(0),
            Instr::I32Ctz,
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(0),
            Instr::LocalGet(0),
        ]);
        assert_eq!(f.code.len(), 5);
        assert!(matches!(f.code[0], Op::LocalGet(0)));
        assert!(matches!(f.code[1], Op::I32Ctz));
        assert!(matches!(f.code[2], Op::I32BinTLSet { op: I32Bin::Add, a: 1, dst: 0 }));
        assert!(matches!(f.code[3], Op::LocalGet(0)));
    }

    #[test]
    fn fusion_never_extends_across_a_branch_target() {
        // The else arm's `i32.const 20` is immediately followed by the
        // merge point (the Goto target): const·set must NOT fuse, or the
        // then arm's jump would land mid-superinstruction.
        let f = compile_locals(vec![
            Instr::LocalGet(0),
            Instr::If(
                BlockType::Value(ValType::I32),
                vec![Instr::I32Const(10)],
                vec![Instr::I32Const(20)],
            ),
            Instr::LocalSet(1),
            Instr::LocalGet(1),
        ]);
        // LG0(0), IfElse(1)->4, IC10(2), Goto(3)->5, IC20(4), LS1(5), LG1(6), FnEnd(7).
        assert_eq!(f.code.len(), 8, "no pair may fuse across the else/merge targets");
        assert!(matches!(f.code[4], Op::I32Const(20)));
        assert!(matches!(f.code[5], Op::LocalSet(1)));
        let Op::IfElse(t) = f.code[1] else { panic!("expected IfElse, got {:?}", f.code[1]) };
        assert_eq!(t, 4);
        let Op::Goto(g) = f.code[3] else { panic!("expected Goto, got {:?}", f.code[3]) };
        assert_eq!(g, 5);
    }

    #[test]
    fn fusion_remaps_jump_targets_to_the_shortened_stream() {
        // A 4-op fusion before the If shifts every later offset by 3;
        // the IfElse target must follow.
        let f = compile_locals(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::If(BlockType::Empty, vec![Instr::Nop], vec![]),
            Instr::LocalGet(0),
        ]);
        // LLSet(0), LG0(1), IfElse(2), Nop(3), LG0(4), FnEnd(5).
        assert_eq!(f.code.len(), 6);
        assert!(matches!(f.code[0], Op::I32BinLLSet { .. }));
        let Op::IfElse(t) = f.code[2] else { panic!("expected IfElse, got {:?}", f.code[2]) };
        assert_eq!(t, 4, "merge offset remapped from the unfused stream");
    }

    #[test]
    fn fusion_fuses_loop_compare_branches() {
        // The canonical counted loop: the exit test becomes one
        // compare-and-branch, the increment one LCSet, and the back-edge
        // still re-enters past the counted loop header.
        let f = compile_locals(vec![
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
                        Instr::I32Const(1),
                        Instr::I32Add,
                        Instr::LocalSet(1),
                        Instr::Br(0),
                    ],
                )],
            ),
            Instr::LocalGet(1),
        ]);
        // Enter(0), Enter(1), BrIfBinLL(2), LCSet(3), Br(4)->2, LG1(5), FnEnd(6).
        assert_eq!(f.code.len(), 7);
        let Op::BrIfBinLL(fused) = &f.code[2] else {
            panic!("expected BrIfBinLL, got {:?}", f.code[2])
        };
        assert_eq!(fused.op, I32Bin::GeU);
        assert_eq!((fused.a, fused.b), (1, 0));
        assert_eq!(fused.jump.target, 5, "block merge remapped past the fused body");
        assert!(matches!(
            f.code[3],
            Op::I32BinLCSet { op: I32Bin::Add, a: 1, c: 1, dst: 1 }
        ));
        let Op::Br(back) = &f.code[4] else { panic!("expected Br, got {:?}", f.code[4]) };
        assert_eq!(back.target, 2, "back-edge lands on the fused exit test, past Enter");
    }

    #[test]
    fn verify_names_each_broken_fact() {
        let module = ModuleBuilder::new()
            .func(FuncType::new([], []), [], vec![])
            .build()
            .expect("validates");
        let jump = |target, height, arity| Jump { target, height, arity };
        let cases: [(Vec<Op>, &str); 9] = [
            (vec![Op::Goto(2), Op::FnEnd], "target 2 outside"),
            (vec![Op::Br(jump(1, 2, 1)), Op::FnEnd], "exceeds operand depth"),
            (vec![Op::Call(1), Op::FnEnd], "undefined function"),
            (vec![Op::CallHost { func: 0, params: 0 }, Op::FnEnd], "unknown import"),
            (vec![Op::Nop], "not FnEnd"),
            (vec![Op::Drop, Op::FnEnd], "pops 1 from height 0"),
            (vec![Op::Br(jump(1, 0, 1)), Op::FnEnd], "branch from height 0 carries 1"),
            // The then arm leaves a value the else arm does not.
            (
                vec![Op::I32Const(1), Op::IfElse(3), Op::I32Const(2), Op::FnEnd],
                "op 3: reached at heights",
            ),
            // Three pushes against a claim of two.
            (
                vec![
                    Op::I32Const(1),
                    Op::I32BinLC { op: I32Bin::Add, a: 0, c: 1 },
                    Op::LocalGet(0),
                    Op::FnEnd,
                ],
                "raises the stack to 3, max_stack is 2",
            ),
        ];
        for (code, complaint) in cases {
            let err = verify(&code, &module, 2).unwrap_err();
            assert!(err.contains(complaint), "{err}");
        }
        let sound = [Op::I32Const(1), Op::I32Const(2), Op::Br(jump(3, 1, 1)), Op::FnEnd];
        assert_eq!(verify(&sound, &module, 2), Ok(()));
    }

    #[test]
    fn verify_names_an_understated_max_stack() {
        // `helper(i32, i32) -> i32` called on two pushed constants under
        // a fused push: the caller's operand stack reaches three slots.
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32; 2], [ValType::I32]),
                [],
                [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
            )
            .func(
                FuncType::new([], [ValType::I32]),
                [ValType::I32],
                [
                    Instr::LocalGet(0),
                    Instr::I32Const(1),
                    Instr::I32Const(2),
                    Instr::Call(0),
                    Instr::I32Add,
                ],
            )
            .build()
            .expect("validates");
        let compiled = compile(&module);
        let caller = &compiled.funcs[1];
        assert_eq!(caller.max_stack, 3);
        assert_eq!(verify(&caller.code, &module, 3), Ok(()));
        let err = verify(&caller.code, &module, 2).unwrap_err();
        assert!(err.contains("op 2") && err.contains("max_stack is 2"), "{err}");
        // The callee's own frame is not the caller's business: its two
        // params are the caller's top two operands.
        assert_eq!(compiled.funcs[0].max_stack, 2);
    }

    #[test]
    fn max_stack_is_pinned_for_three_shapes() {
        // Flat expression: (1 + 2 * 3) - 4 needs three slots at its
        // deepest, one at the end.
        let flat = compile_body(vec![
            Instr::I32Const(1),
            Instr::I32Const(2),
            Instr::I32Const(3),
            Instr::I32Mul,
            Instr::I32Add,
            Instr::I32Const(4),
            Instr::I32Sub,
        ]);
        assert_eq!(flat.max_stack, 3);

        // Nested blocks with arity: each block's result stays on the
        // stack while the next operand is computed inside another block.
        let nested = compile_body(vec![
            Instr::Block(
                BlockType::Value(ValType::I32),
                vec![
                    Instr::I32Const(1),
                    Instr::Block(
                        BlockType::Value(ValType::I32),
                        vec![Instr::I32Const(2), Instr::I32Const(3), Instr::I32Add],
                    ),
                    Instr::I32Add,
                ],
            ),
            Instr::Block(BlockType::Value(ValType::I32), vec![Instr::I32Const(4)]),
            Instr::I32Add,
        ]);
        assert_eq!(nested.max_stack, 3);

        // Dead code after `br`: the pushes that can never run still
        // count (an over-estimate is safe), the clamped pops do not
        // drag the height below the block's floor.
        let dead = compile_body(vec![Instr::Block(
            BlockType::Value(ValType::I32),
            vec![
                Instr::I32Const(5),
                Instr::Br(0),
                Instr::Drop,
                Instr::Drop,
                Instr::I32Const(6),
                Instr::I32Const(7),
                Instr::I32Const(8),
                Instr::I32Add,
                Instr::I32Add,
            ],
        )]);
        assert_eq!(dead.max_stack, 3);
    }

    #[test]
    fn module_with_start_and_globals_compiles_every_func(){
        let module = ModuleBuilder::new()
            .global(ValType::I32, true, Value::I32(0))
            .func(FuncType::new([], []), [], vec![Instr::Nop])
            .func(
                FuncType::new([ValType::I64], [ValType::I64]),
                [ValType::I64],
                vec![Instr::LocalGet(0), Instr::LocalTee(1)],
            )
            .build()
            .expect("validates");
        let compiled = compile(&module);
        assert_eq!(compiled.funcs.len(), 2);
        assert_eq!(compiled.funcs[1].params, 1);
        assert_eq!(compiled.funcs[1].frame_size, 2);
        assert_eq!(compiled.funcs[1].results[..], [ValType::I64]);
    }
}
