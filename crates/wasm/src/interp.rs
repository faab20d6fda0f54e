//! The interpreter: one program-counter dispatch loop over flat bytecode.
//!
//! [`Exec::run_flat`] runs the pre-compiled [`Op`] code from
//! [`crate::compile`] with one shared operand stack for every frame's
//! params/locals/operands and an explicit frame arena ([`Machine`],
//! reused across invocations) — no per-call `Vec` allocation and no Rust
//! recursion for wasm→wasm calls.
//!
//! # Slots, not `Value`s
//!
//! The stack holds untyped 64-bit slots. Validation has proven the type
//! of every operand at every instruction, so the loop never asks: an
//! `i32` lives zero-extended in its slot and is read back from the low
//! half, an `i64` fills it. Those are the only two types: the engine
//! computes in integers, and a float type or opcode never gets past the
//! decoder. [`Value`] exists only
//! where typed data crosses the engine's edge — `invoke` arguments and
//! results, globals, host-call arguments and results — and is converted
//! there by the signature. Each frame is
//! `[params + locals | operands ≤ max_stack]`: [`crate::compile`] records
//! how deep a function's operand stack can get, a call reserves the
//! whole frame once and zeroes only the declared locals, and pushes
//! inside the loop index a slice that is already long enough.
//!
//! # Accounting
//!
//! What an instruction *costs* — `instr_count` and fuel — is defined by
//! the structured AST, not by the flat code: every [`crate::Instr`] node
//! counts exactly once when it is reached (the test-only tree walker in
//! `reference.rs` is that definition, executable). The loop reproduces
//! those numbers exactly: synthetic ops are uncounted, fused
//! superinstructions charge the size of the group they replace, and the
//! differential suite compares the two on outcome, trap variant,
//! `instr_count`, remaining fuel, host-call log, globals and memory.
//!
//! All *dynamic* failure modes (memory bounds, `unreachable`, fuel, call
//! depth, host errors) surface as [`Trap`]s.

use std::any::Any;
use std::sync::Arc;

use crate::compile::{CompiledFunc, CompiledModule, I32Bin, Jump, Op};
use crate::host::{Caller, HostFunc};
use crate::memory::Memory;
use crate::module::Module;
use crate::trap::Trap;
use crate::types::{ValType, Value};

#[cfg(test)]
mod reference;

/// Reusable execution state for the dispatch loop, owned by an
/// [`crate::Instance`]. Buffers keep their size between invocations, so
/// steady-state calls allocate nothing: not even their results, which
/// are lent from `results` until the next call.
#[derive(Debug, Default)]
pub(crate) struct Machine {
    /// One shared stack of untyped slots: each frame's
    /// `[params+locals][operands]` live contiguously, callee frames above
    /// their caller's. Always at least as long as the running frame
    /// needs; whatever earlier calls left above the live slots is junk
    /// that is overwritten before it is read.
    stack: Vec<u64>,
    /// One entry per active call — the "frame arena" replacing Rust
    /// recursion. `frames.len()` is the live call depth.
    frames: Vec<Frame>,
    /// A host call's arguments, turned back into [`Value`]s.
    host_args: Vec<Value>,
    /// The last entry call's results, lent to the embedder; empty after
    /// a trap.
    results: Vec<Value>,
}

impl Machine {
    /// The results of the last call, empty if it trapped.
    pub(crate) fn results(&self) -> &[Value] {
        &self.results
    }
}

/// Bookkeeping for one active call.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Defined-function index (imports excluded) of the running function.
    func: u32,
    /// Program counter in the *caller* to resume on return.
    ret_pc: u32,
    /// Stack index where this frame's params+locals start; its operands
    /// start `frame_size` above.
    locals_base: u32,
}

/// Mutable execution context borrowing the instance's parts.
pub(crate) struct Exec<'a> {
    pub module: &'a Arc<Module>,
    pub memory: &'a mut Option<Memory>,
    pub globals: &'a mut [Value],
    pub host_funcs: &'a [HostFunc],
    pub host_data: &'a mut Box<dyn Any + Send>,
    pub fuel: &'a mut Option<u64>,
    pub instr_count: &'a mut u64,
    pub max_call_depth: usize,
}

/// `v` as an untyped slot.
#[inline]
fn slot_of(v: Value) -> u64 {
    match v {
        Value::I32(v) => v as u32 as u64,
        Value::I64(v) => v as u64,
    }
}

/// The `ty` value a slot holds.
#[inline]
fn value_of(ty: ValType, slot: u64) -> Value {
    match ty {
        ValType::I32 => Value::I32(slot as u32 as i32),
        ValType::I64 => Value::I64(slot as i64),
    }
}

/// Makes room for `f`'s whole frame at `lbase` — its params are already
/// there, the caller's topmost operands — and zeroes its declared locals.
#[inline]
fn open_frame(stack: &mut Vec<u64>, lbase: usize, f: &CompiledFunc) {
    let obase = lbase + f.frame_size as usize;
    let need = obase + f.max_stack as usize;
    if stack.len() < need {
        stack.resize(need, 0);
    }
    // Small frames are what call-heavy code is made of, and a `memset`
    // call costs more than the handful of stores it replaces — which is
    // what any loop here, however short, is compiled to.
    match &mut stack[lbase + f.params as usize..obase] {
        [] => {}
        [a] => *a = 0,
        [a, b] => (*a, *b) = (0, 0),
        [a, b, c] => (*a, *b, *c) = (0, 0, 0),
        [a, b, c, d] => (*a, *b, *c, *d) = (0, 0, 0, 0),
        locals => locals.fill(0),
    }
}

impl<'a> Exec<'a> {
    /// Calls the function at `func_idx` (imports first) with `args`,
    /// reusing `mach`'s stack and frame arena, and lends the results from
    /// `mach`.
    pub fn run_flat<'m>(
        &mut self,
        mach: &'m mut Machine,
        code: &CompiledModule,
        func_idx: u32,
        args: &[Value],
    ) -> Result<&'m [Value], Trap> {
        mach.results.clear();
        // The entry call is depth 0, so a zero budget admits nothing.
        if self.max_call_depth == 0 {
            return Err(Trap::StackOverflow);
        }
        let imports = self.module.imports.len();
        if (func_idx as usize) < imports {
            let caller = Caller::new(self.memory.as_mut(), self.host_data.as_mut());
            mach.results = (self.host_funcs[func_idx as usize])(caller, args)?;
            return Ok(&mach.results);
        }
        let entry = func_idx as usize - imports;
        let ef = &code.funcs[entry];
        // The entry frame sits at the bottom of the stack, its params
        // the (signature-checked) arguments.
        mach.frames.clear();
        open_frame(&mut mach.stack, 0, ef);
        for (slot, &arg) in mach.stack.iter_mut().zip(args) {
            *slot = slot_of(arg);
        }
        // Fuel and the instruction counter run in the loop's locals and
        // come back with the result; nothing can observe them mid-run.
        // The loop is monomorphized over metering so the unmetered hot
        // path carries no fuel bookkeeping at all.
        let (result, count, fuel_left) = match *self.fuel {
            Some(fuel) => self.dispatch::<true>(mach, code, entry, fuel),
            None => self.dispatch::<false>(mach, code, entry, 0),
        };
        *self.instr_count += count;
        if self.fuel.is_some() {
            *self.fuel = Some(fuel_left);
        }
        result?;
        // The entry frame's return left the results at the bottom.
        let values = ef.results.iter().zip(&mach.stack).map(|(&ty, &slot)| value_of(ty, slot));
        mach.results.extend(values);
        Ok(&mach.results)
    }

    /// The program-counter dispatch loop over flat [`Op`] code. Runs the
    /// entry frame [`Exec::run_flat`] opened to completion and returns
    /// the outcome with the instructions retired and the fuel left.
    fn dispatch<const METERED: bool>(
        &mut self,
        mach: &mut Machine,
        code: &CompiledModule,
        entry: usize,
        mut fuel: u64,
    ) -> (Result<(), Trap>, u64, u64) {
        let Machine { stack, frames, host_args, .. } = mach;
        let module: &Module = self.module;
        let host_funcs = self.host_funcs;
        let max_call_depth = self.max_call_depth;
        let mut memory = self.memory.as_mut();
        let mut count = 0u64;

        frames.push(Frame { func: entry as u32, ret_pc: 0, locals_base: 0 });
        let mut func = entry;
        let mut pc = 0usize;
        let mut lbase = 0usize;
        let mut sp = code.funcs[entry].frame_size as usize;

        let result = 'run: {
            /// Leaves the loop with a trap.
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(trap) => break 'run Err(trap),
                    }
                };
            }
            /// The linear memory (validation admits memory instructions
            /// only into modules that declare one).
            macro_rules! mem {
                () => {
                    match memory.as_deref_mut() {
                        Some(m) => m,
                        None => break 'run Err(Trap::host("module has no memory")),
                    }
                };
            }
            /// Charges `extra` further instructions of a fused group (the
            /// first was charged by the shared dispatch prelude). When
            /// metered fuel runs out mid-group, this reproduces the
            /// unfused sequence's trap state exactly: `fuel`
            /// sub-instructions would have executed (none of their
            /// effects are observable after the unwind — fused ops touch
            /// only the discarded operand stack and locals) and the next
            /// one is counted as the trapping instruction.
            macro_rules! charge {
                ($extra:expr) => {
                    if METERED {
                        if fuel < $extra {
                            count += fuel + 1;
                            fuel = 0;
                            break 'run Err(Trap::FuelExhausted);
                        }
                        fuel -= $extra;
                    }
                    count += $extra;
                };
            }

            'call: loop {
                let f = &code.funcs[func];
                let body: &[Op] = &f.code;
                let obase = lbase + f.frame_size as usize;
                // The one place the slice is derived: a frame was just
                // opened (or returned into), and until the next call
                // nothing can grow the `Vec` under it.
                let mut s = Operands { slots: &mut stack[..], sp };
                loop {
                    let op = &body[pc];
                    pc += 1;
                    // Synthetic ops first: they stand for no source
                    // instruction and must not count or burn fuel.
                    match op {
                        Op::Goto(target) => {
                            pc = *target as usize;
                            continue;
                        }
                        Op::FnEnd => {
                            // Fall-through (or jumped-to) function end:
                            // move the results down over the frame and
                            // resume the caller.
                            s.unwind(lbase, f.results.len());
                            let frame = frames.pop().expect("active frame");
                            let Some(top) = frames.last() else {
                                break 'run Ok(());
                            };
                            func = top.func as usize;
                            pc = frame.ret_pc as usize;
                            sp = s.sp;
                            lbase = top.locals_base as usize;
                            continue 'call;
                        }
                        _ => {}
                    }
                    count += 1;
                    if METERED {
                        if fuel == 0 {
                            break 'run Err(Trap::FuelExhausted);
                        }
                        fuel -= 1;
                    }
                    match op {
                        Op::Goto(_) | Op::FnEnd => unreachable!("handled uncounted above"),
                        Op::Unreachable => break 'run Err(Trap::Unreachable),
                        Op::Enter => {}
                        Op::IfElse(els) => {
                            if s.pop_i32() == 0 {
                                pc = *els as usize;
                            }
                        }
                        Op::Br(jump) => pc = s.take_branch(obase, jump),
                        Op::BrIf(jump) => {
                            if s.pop_i32() != 0 {
                                pc = s.take_branch(obase, jump);
                            }
                        }
                        Op::Call(callee) => {
                            if frames.len() >= max_call_depth {
                                break 'run Err(Trap::StackOverflow);
                            }
                            let cf = &code.funcs[*callee as usize];
                            // Its params are the top operands here.
                            lbase = s.sp - cf.params as usize;
                            frames.push(Frame {
                                func: *callee,
                                ret_pc: pc as u32,
                                locals_base: lbase as u32,
                            });
                            open_frame(stack, lbase, cf);
                            func = *callee as usize;
                            pc = 0;
                            sp = lbase + cf.frame_size as usize;
                            continue 'call;
                        }
                        Op::CallHost { func: host_idx, params } => {
                            if frames.len() >= max_call_depth {
                                break 'run Err(Trap::StackOverflow);
                            }
                            let ty = &module.types
                                [module.imports[*host_idx as usize].type_idx as usize];
                            s.sp -= *params as usize;
                            host_args.clear();
                            host_args.extend(
                                ty.params()
                                    .iter()
                                    .zip(&s.slots[s.sp..])
                                    .map(|(&ty, &slot)| value_of(ty, slot)),
                            );
                            let caller =
                                Caller::new(memory.as_deref_mut(), self.host_data.as_mut());
                            let results = tri!((host_funcs[*host_idx as usize])(caller, host_args));
                            // Slots carry no type to catch a host's
                            // mistake later, so it is caught here.
                            if !results.iter().map(Value::ty).eq(ty.results().iter().copied()) {
                                break 'run Err(Trap::host(format!(
                                    "host function {host_idx} returned values not of its signature {ty}"
                                )));
                            }
                            for &v in &results {
                                s.push(slot_of(v));
                            }
                        }
                        Op::Drop => s.sp -= 1,
                        Op::Select => {
                            let cond = s.pop_i32();
                            let b = s.pop();
                            if cond == 0 {
                                s.slots[s.sp - 1] = b;
                            }
                        }
                        Op::LocalGet(i) => {
                            let v = s.slots[lbase + *i as usize];
                            s.push(v);
                        }
                        Op::LocalSet(i) => {
                            let v = s.pop();
                            s.slots[lbase + *i as usize] = v;
                        }
                        Op::LocalTee(i) => s.slots[lbase + *i as usize] = s.slots[s.sp - 1],
                        Op::GlobalGet(i) => s.push(slot_of(self.globals[*i as usize])),
                        Op::GlobalSet(i) => {
                            let global = &mut self.globals[*i as usize];
                            *global = value_of(global.ty(), s.pop());
                        }

                        // ------------------------- fused superinstructions
                        // Each charges its remaining group size on top of
                        // the 1 the prelude already counted.
                        Op::I32BinLCSet { op, a, c, dst } => {
                            charge!(3);
                            let x = s.local_i32(lbase, *a);
                            s.set_local_i32(lbase, *dst, i32_bin_eval(*op, x, *c));
                        }
                        Op::I32BinLC { op, a, c } => {
                            charge!(2);
                            let x = s.local_i32(lbase, *a);
                            s.push_i32(i32_bin_eval(*op, x, *c));
                        }
                        Op::I32BinTL { op, a } => {
                            charge!(1);
                            let t = s.pop_i32();
                            let y = s.local_i32(lbase, *a);
                            s.push_i32(i32_bin_eval(*op, t, y));
                        }
                        Op::I32BinTC { op, c } => {
                            charge!(1);
                            let t = s.pop_i32();
                            s.push_i32(i32_bin_eval(*op, t, *c));
                        }
                        Op::BrIfBinLC(f) => {
                            charge!(3);
                            let x = s.local_i32(lbase, f.a);
                            if i32_bin_eval(f.op, x, f.c) != 0 {
                                pc = s.take_branch(obase, &f.jump);
                            }
                        }

                        // --------------------------------------------- memory
                        Op::I32Load(off) => {
                            let a = s.pop_addr();
                            let raw = tri!(mem!().load::<4>(a, *off));
                            s.push_i32(i32::from_le_bytes(raw));
                        }
                        Op::I64Load(off) => {
                            let a = s.pop_addr();
                            let raw = tri!(mem!().load::<8>(a, *off));
                            s.push_i64(i64::from_le_bytes(raw));
                        }
                        Op::I32Load8U(off) => {
                            let a = s.pop_addr();
                            let raw = tri!(mem!().load::<1>(a, *off));
                            s.push_i32(raw[0] as i32);
                        }
                        Op::I32Store(off) => {
                            let v = s.pop_i32();
                            let a = s.pop_addr();
                            tri!(mem!().store::<4>(a, *off, v.to_le_bytes()));
                        }
                        Op::I64Store(off) => {
                            let v = s.pop_i64();
                            let a = s.pop_addr();
                            tri!(mem!().store::<8>(a, *off, v.to_le_bytes()));
                        }
                        Op::I32Store8(off) => {
                            let v = s.pop_i32();
                            let a = s.pop_addr();
                            tri!(mem!().store::<1>(a, *off, [v as u8]));
                        }
                        Op::MemorySize => {
                            let pages = mem!().size_pages();
                            s.push_i32(pages as i32);
                        }
                        Op::MemoryGrow => {
                            let delta = s.pop_i32() as u32;
                            let result = match mem!().grow(delta) {
                                Some(prev) => prev as i32,
                                None => -1,
                            };
                            s.push_i32(result);
                        }

                        // --------------------------------------------- consts
                        Op::I32Const(v) => s.push_i32(*v),
                        Op::I64Const(v) => s.push_i64(*v),

                        // ------------------------------ i32 compare/arith
                        Op::I32Eqz => s.un_i32(|a| (a == 0) as i32),
                        Op::I32Eq => s.cmp_i32(|a, b| a == b),
                        Op::I32LtS => s.cmp_i32(|a, b| a < b),
                        Op::I32LtU => s.cmp_u32(|a, b| a < b),
                        Op::I32LeU => s.cmp_u32(|a, b| a <= b),
                        Op::I32GeU => s.cmp_u32(|a, b| a >= b),
                        Op::I32Add => s.bin_i32(i32::wrapping_add),
                        Op::I32Sub => s.bin_i32(i32::wrapping_sub),
                        Op::I32Mul => s.bin_i32(i32::wrapping_mul),
                        Op::I32And => s.bin_i32(|a, b| a & b),
                        Op::I32Xor => s.bin_i32(|a, b| a ^ b),
                        Op::I32Shl => s.bin_i32(|a, b| a.wrapping_shl(b as u32)),
                        Op::I32ShrU => {
                            s.bin_i32(|a, b| ((a as u32).wrapping_shr(b as u32)) as i32)
                        }

                        // ---------------------------------------- conversions
                        Op::I32WrapI64 => {
                            let a = s.pop_i64();
                            s.push_i32(a as i32);
                        }
                        Op::I64ExtendI32U => {
                            let a = s.pop_i32();
                            s.push_i64(a as u32 as i64);
                        }
                    }
                }
            }
        };
        (result, count, fuel)
    }
}

/// Moves `slots[src..src + n]` down to `floor` (out of line: see
/// [`Operands::unwind`]).
#[inline(never)]
fn move_down(slots: &mut [u64], src: usize, n: usize, floor: usize) {
    slots.copy_within(src..src + n, floor);
}

/// The live frame's view of the slot stack: the slice, long enough for
/// everything the frame can push, and the index one past its top operand.
struct Operands<'a> {
    slots: &'a mut [u64],
    sp: usize,
}

impl Operands<'_> {
    #[inline(always)]
    fn push(&mut self, slot: u64) {
        self.slots[self.sp] = slot;
        self.sp += 1;
    }

    #[inline(always)]
    fn pop(&mut self) -> u64 {
        self.sp -= 1;
        self.slots[self.sp]
    }

    /// Keeps the top `arity` values and drops everything beneath them
    /// down to `floor` — the unwind of a taken branch, and of a return.
    /// Blocks carry at most one value, so only a branch to (or a return
    /// from) a multi-value function ever pays for a `memmove`.
    #[inline(always)]
    fn unwind(&mut self, floor: usize, arity: usize) {
        let src = self.sp - arity;
        if src > floor {
            match arity {
                0 => {}
                1 => self.slots[floor] = self.slots[src],
                _ => move_down(self.slots, src, arity, floor),
            }
        }
        self.sp = floor + arity;
    }

    /// Takes a pre-resolved branch: unwinds to the label's height
    /// (relative to `obase`) and returns the new program counter.
    #[inline(always)]
    fn take_branch(&mut self, obase: usize, jump: &Jump) -> usize {
        self.unwind(obase + jump.height as usize, jump.arity as usize);
        jump.target as usize
    }

    /// Reads an i32 local.
    #[inline(always)]
    fn local_i32(&self, lbase: usize, i: u16) -> i32 {
        self.slots[lbase + i as usize] as u32 as i32
    }

    #[inline(always)]
    fn set_local_i32(&mut self, lbase: usize, i: u16, v: i32) {
        self.slots[lbase + i as usize] = v as u32 as u64;
    }

    #[inline(always)]
    fn push_i32(&mut self, v: i32) {
        self.push(v as u32 as u64);
    }

    #[inline(always)]
    fn push_i64(&mut self, v: i64) {
        self.push(v as u64);
    }

    #[inline(always)]
    fn pop_i32(&mut self) -> i32 {
        self.pop() as u32 as i32
    }

    #[inline(always)]
    fn pop_addr(&mut self) -> u32 {
        self.pop() as u32
    }

    #[inline(always)]
    fn pop_i64(&mut self) -> i64 {
        self.pop() as i64
    }

    #[inline(always)]
    fn un_i32(&mut self, f: impl FnOnce(i32) -> i32) {
        let a = self.pop_i32();
        self.push_i32(f(a));
    }

    #[inline(always)]
    fn bin_i32(&mut self, f: impl FnOnce(i32, i32) -> i32) {
        let b = self.pop_i32();
        let a = self.pop_i32();
        self.push_i32(f(a, b));
    }

    #[inline(always)]
    fn cmp_i32(&mut self, f: impl FnOnce(i32, i32) -> bool) {
        self.bin_i32(|a, b| f(a, b) as i32);
    }

    #[inline(always)]
    fn cmp_u32(&mut self, f: impl FnOnce(u32, u32) -> bool) {
        self.bin_i32(|a, b| f(a as u32, b as u32) as i32);
    }
}

/// Evaluates a fused i32 binary op. Each arm must mirror the plain
/// dispatch arm for the same operator exactly (wrapping arithmetic,
/// mod-32 shift counts, 0/1 comparisons).
#[inline]
fn i32_bin_eval(op: I32Bin, a: i32, b: i32) -> i32 {
    match op {
        I32Bin::Add => a.wrapping_add(b),
        I32Bin::Sub => a.wrapping_sub(b),
        I32Bin::Mul => a.wrapping_mul(b),
        I32Bin::And => a & b,
        I32Bin::Xor => a ^ b,
        I32Bin::Shl => a.wrapping_shl(b as u32),
        I32Bin::ShrU => ((a as u32).wrapping_shr(b as u32)) as i32,
        I32Bin::Eq => (a == b) as i32,
        I32Bin::LtS => (a < b) as i32,
        I32Bin::LtU => ((a as u32) < (b as u32)) as i32,
        I32Bin::LeU => ((a as u32) <= (b as u32)) as i32,
        I32Bin::GeU => ((a as u32) >= (b as u32)) as i32,
    }
}
