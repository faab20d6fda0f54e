//! The interpreter: one program-counter dispatch loop over flat bytecode.
//!
//! [`Exec::run_flat`] runs the pre-compiled [`Op`] code from
//! [`crate::compile`] with one shared operand stack for every frame's
//! params/locals/operands and an explicit frame arena ([`Machine`],
//! reused across invocations) — no per-call `Vec` allocation and no Rust
//! recursion for wasm→wasm calls.
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
//! Because validation has proven stack discipline, operand pops use
//! infallible accessors; all *dynamic* failure modes (memory bounds,
//! division, fuel, call depth, host errors) surface as [`Trap`]s.

use std::any::Any;
use std::sync::Arc;

use crate::compile::{CompiledModule, I32Bin, Jump, Op};
use crate::host::{Caller, HostFunc};
use crate::memory::Memory;
use crate::module::Module;
use crate::trap::Trap;
use crate::types::Value;

#[cfg(test)]
mod reference;

/// Reusable execution state for the dispatch loop, owned by an
/// [`crate::Instance`]. Buffers are cleared (not freed) between
/// invocations, so steady-state calls allocate nothing but their result
/// `Vec`.
#[derive(Debug, Default)]
pub(crate) struct Machine {
    /// One shared value stack: each frame's `[params+locals][operands]`
    /// live contiguously, callee frames above their caller's.
    stack: Vec<Value>,
    /// One entry per active call — the "frame arena" replacing Rust
    /// recursion. `frames.len()` is the live call depth.
    frames: Vec<Frame>,
}

/// Bookkeeping for one active call.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Defined-function index (imports excluded) of the running function.
    func: u32,
    /// Program counter in the *caller* to resume on return.
    ret_pc: u32,
    /// Stack index where this frame's params+locals start.
    locals_base: u32,
    /// Stack index where this frame's operands start
    /// (`locals_base + frame_size`); branch heights are relative to it.
    operand_base: u32,
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

impl<'a> Exec<'a> {
    /// Calls the function at `func_idx` (imports first) with `args`,
    /// reusing `mach`'s stack and frame arena.
    pub fn run_flat(
        &mut self,
        mach: &mut Machine,
        code: &CompiledModule,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        // The entry call is depth 0, so a zero budget admits nothing.
        if self.max_call_depth == 0 {
            return Err(Trap::StackOverflow);
        }
        let imports = self.module.imports.len();
        if (func_idx as usize) < imports {
            let f = Arc::clone(&self.host_funcs[func_idx as usize]);
            let caller = Caller::new(self.memory.as_mut(), self.host_data.as_mut());
            return f(caller, args);
        }
        mach.stack.clear();
        mach.frames.clear();
        // Fuel and the instruction counter run in locals and are flushed
        // on every exit path; nothing can observe them mid-run. The
        // dispatch loop is monomorphized over metering so the unmetered
        // hot path carries no fuel bookkeeping at all.
        let metered = self.fuel.is_some();
        let mut fuel_left = self.fuel.unwrap_or(0);
        let mut count = 0u64;
        let entry = func_idx as usize - imports;
        let result = if metered {
            self.dispatch::<true>(
                &mut mach.stack,
                &mut mach.frames,
                code,
                entry,
                args,
                &mut count,
                &mut fuel_left,
            )
        } else {
            self.dispatch::<false>(
                &mut mach.stack,
                &mut mach.frames,
                code,
                entry,
                args,
                &mut count,
                &mut fuel_left,
            )
        };
        *self.instr_count += count;
        if metered {
            *self.fuel = Some(fuel_left);
        }
        result
    }

    /// The program-counter dispatch loop over flat [`Op`] code.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<const METERED: bool>(
        &mut self,
        stack: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        code: &CompiledModule,
        entry: usize,
        args: &[Value],
        count: &mut u64,
        fuel_left: &mut u64,
    ) -> Result<Vec<Value>, Trap> {
        let ef = &code.funcs[entry];
        stack.extend_from_slice(args);
        for &t in ef.locals.iter() {
            stack.push(Value::zero(t));
        }
        frames.push(Frame {
            func: entry as u32,
            ret_pc: 0,
            locals_base: 0,
            operand_base: ef.frame_size,
        });
        let mut func = entry;
        let mut pc = 0usize;
        let mut lbase = 0usize;
        let mut obase = ef.frame_size as usize;

        'call: loop {
            let body: &[Op] = &code.funcs[func].code;
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
                        // Fall-through (or jumped-to) function end: move
                        // the results down over the frame and resume the
                        // caller.
                        let arity = code.funcs[func].ret_arity as usize;
                        let frame = frames.pop().expect("active frame");
                        let dst = frame.locals_base as usize;
                        let src = stack.len() - arity;
                        stack.copy_within(src.., dst);
                        stack.truncate(dst + arity);
                        if let Some(top) = frames.last() {
                            func = top.func as usize;
                            pc = frame.ret_pc as usize;
                            lbase = top.locals_base as usize;
                            obase = top.operand_base as usize;
                            continue 'call;
                        }
                        return Ok(stack.split_off(0));
                    }
                    _ => {}
                }
                *count += 1;
                if METERED {
                    if *fuel_left == 0 {
                        return Err(Trap::FuelExhausted);
                    }
                    *fuel_left -= 1;
                }
                match op {
                    Op::Goto(_) | Op::FnEnd => unreachable!("handled uncounted above"),
                    Op::Unreachable => return Err(Trap::Unreachable),
                    Op::Nop | Op::Enter => {}
                    Op::IfElse(els) => {
                        if pop_i32(stack) == 0 {
                            pc = *els as usize;
                        }
                    }
                    Op::Br(jump) => pc = take_branch(stack, obase, jump),
                    Op::BrIf(jump) => {
                        if pop_i32(stack) != 0 {
                            pc = take_branch(stack, obase, jump);
                        }
                    }
                    Op::BrTable(table) => {
                        let idx = pop_i32(stack) as u32 as usize;
                        let jump = table.targets.get(idx).unwrap_or(&table.default);
                        pc = take_branch(stack, obase, jump);
                    }
                    // Return jumps to the trailing FnEnd, which performs
                    // the actual frame pop (uncounted: only the
                    // `return` itself is a source instruction).
                    Op::Return => pc = body.len() - 1,
                    Op::Call(callee) => {
                        if frames.len() >= self.max_call_depth {
                            return Err(Trap::StackOverflow);
                        }
                        let cf = &code.funcs[*callee as usize];
                        let locals_base = stack.len() - cf.params as usize;
                        for &t in cf.locals.iter() {
                            stack.push(Value::zero(t));
                        }
                        frames.push(Frame {
                            func: *callee,
                            ret_pc: pc as u32,
                            locals_base: locals_base as u32,
                            operand_base: (locals_base + cf.frame_size as usize) as u32,
                        });
                        func = *callee as usize;
                        pc = 0;
                        lbase = locals_base;
                        obase = locals_base + cf.frame_size as usize;
                        continue 'call;
                    }
                    Op::CallHost { func: host_idx, params } => {
                        if frames.len() >= self.max_call_depth {
                            return Err(Trap::StackOverflow);
                        }
                        let split = stack.len() - *params as usize;
                        let f = Arc::clone(&self.host_funcs[*host_idx as usize]);
                        let caller = Caller::new(self.memory.as_mut(), self.host_data.as_mut());
                        let results = f(caller, &stack[split..])?;
                        stack.truncate(split);
                        stack.extend_from_slice(&results);
                    }
                    Op::Drop => {
                        stack.pop().expect("validated drop");
                    }
                    Op::Select => {
                        let cond = pop_i32(stack);
                        let b = stack.pop().expect("validated select");
                        let a = stack.pop().expect("validated select");
                        stack.push(if cond != 0 { a } else { b });
                    }
                    Op::LocalGet(i) => {
                        let v = stack[lbase + *i as usize];
                        stack.push(v);
                    }
                    Op::LocalSet(i) => {
                        stack[lbase + *i as usize] =
                            stack.pop().expect("validated local.set");
                    }
                    Op::LocalTee(i) => {
                        stack[lbase + *i as usize] =
                            *stack.last().expect("validated local.tee");
                    }
                    Op::GlobalGet(i) => stack.push(self.globals[*i as usize]),
                    Op::GlobalSet(i) => {
                        self.globals[*i as usize] =
                            stack.pop().expect("validated global.set")
                    }

                    // ------------------------- fused superinstructions
                    // Each charges its remaining group size on top of
                    // the 1 the prelude already counted.
                    Op::I32BinLLSet { op, a, b, dst } => {
                        charge::<METERED>(count, fuel_left, 3)?;
                        let x = loc_i32(stack, lbase, *a);
                        let y = loc_i32(stack, lbase, *b);
                        stack[lbase + *dst as usize] = Value::I32(i32_bin_eval(*op, x, y));
                    }
                    Op::I32BinLCSet { op, a, c, dst } => {
                        charge::<METERED>(count, fuel_left, 3)?;
                        let x = loc_i32(stack, lbase, *a);
                        stack[lbase + *dst as usize] = Value::I32(i32_bin_eval(*op, x, *c));
                    }
                    Op::I32BinTLSet { op, a, dst } => {
                        charge::<METERED>(count, fuel_left, 2)?;
                        let t = pop_i32(stack);
                        let y = loc_i32(stack, lbase, *a);
                        stack[lbase + *dst as usize] = Value::I32(i32_bin_eval(*op, t, y));
                    }
                    Op::I32BinTCSet { op, c, dst } => {
                        charge::<METERED>(count, fuel_left, 2)?;
                        let t = pop_i32(stack);
                        stack[lbase + *dst as usize] = Value::I32(i32_bin_eval(*op, t, *c));
                    }
                    Op::I32BinLL { op, a, b } => {
                        charge::<METERED>(count, fuel_left, 2)?;
                        let x = loc_i32(stack, lbase, *a);
                        let y = loc_i32(stack, lbase, *b);
                        stack.push(Value::I32(i32_bin_eval(*op, x, y)));
                    }
                    Op::I32BinLC { op, a, c } => {
                        charge::<METERED>(count, fuel_left, 2)?;
                        let x = loc_i32(stack, lbase, *a);
                        stack.push(Value::I32(i32_bin_eval(*op, x, *c)));
                    }
                    Op::I32BinTL { op, a } => {
                        charge::<METERED>(count, fuel_left, 1)?;
                        let t = pop_i32(stack);
                        let y = loc_i32(stack, lbase, *a);
                        stack.push(Value::I32(i32_bin_eval(*op, t, y)));
                    }
                    Op::I32BinTC { op, c } => {
                        charge::<METERED>(count, fuel_left, 1)?;
                        let t = pop_i32(stack);
                        stack.push(Value::I32(i32_bin_eval(*op, t, *c)));
                    }
                    Op::LocalCopy { src, dst } => {
                        charge::<METERED>(count, fuel_left, 1)?;
                        let v = stack[lbase + *src as usize];
                        stack[lbase + *dst as usize] = v;
                    }
                    Op::I32ConstSet { c, dst } => {
                        charge::<METERED>(count, fuel_left, 1)?;
                        stack[lbase + *dst as usize] = Value::I32(*c);
                    }
                    Op::BrIfBinLL(f) => {
                        charge::<METERED>(count, fuel_left, 3)?;
                        let x = loc_i32(stack, lbase, f.a);
                        let y = loc_i32(stack, lbase, f.b);
                        if i32_bin_eval(f.op, x, y) != 0 {
                            pc = take_branch(stack, obase, &f.jump);
                        }
                    }
                    Op::BrIfBinLC(f) => {
                        charge::<METERED>(count, fuel_left, 3)?;
                        let x = loc_i32(stack, lbase, f.a);
                        if i32_bin_eval(f.op, x, f.c) != 0 {
                            pc = take_branch(stack, obase, &f.jump);
                        }
                    }

                    // --------------------------------------------- memory
                    Op::I32Load(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<4>(a, *off)?;
                        stack.push(Value::I32(i32::from_le_bytes(raw)));
                    }
                    Op::I64Load(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<8>(a, *off)?;
                        stack.push(Value::I64(i64::from_le_bytes(raw)));
                    }
                    Op::F32Load(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<4>(a, *off)?;
                        stack.push(Value::F32(f32::from_le_bytes(raw)));
                    }
                    Op::F64Load(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<8>(a, *off)?;
                        stack.push(Value::F64(f64::from_le_bytes(raw)));
                    }
                    Op::I32Load8S(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<1>(a, *off)?;
                        stack.push(Value::I32(raw[0] as i8 as i32));
                    }
                    Op::I32Load8U(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<1>(a, *off)?;
                        stack.push(Value::I32(raw[0] as i32));
                    }
                    Op::I32Load16S(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<2>(a, *off)?;
                        stack.push(Value::I32(i16::from_le_bytes(raw) as i32));
                    }
                    Op::I32Load16U(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<2>(a, *off)?;
                        stack.push(Value::I32(u16::from_le_bytes(raw) as i32));
                    }
                    Op::I64Load8S(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<1>(a, *off)?;
                        stack.push(Value::I64(raw[0] as i8 as i64));
                    }
                    Op::I64Load8U(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<1>(a, *off)?;
                        stack.push(Value::I64(raw[0] as i64));
                    }
                    Op::I64Load16S(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<2>(a, *off)?;
                        stack.push(Value::I64(i16::from_le_bytes(raw) as i64));
                    }
                    Op::I64Load16U(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<2>(a, *off)?;
                        stack.push(Value::I64(u16::from_le_bytes(raw) as i64));
                    }
                    Op::I64Load32S(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<4>(a, *off)?;
                        stack.push(Value::I64(i32::from_le_bytes(raw) as i64));
                    }
                    Op::I64Load32U(off) => {
                        let a = pop_addr(stack);
                        let raw = self.mem()?.load::<4>(a, *off)?;
                        stack.push(Value::I64(u32::from_le_bytes(raw) as i64));
                    }
                    Op::I32Store(off) => {
                        let v = pop_i32(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<4>(a, *off, v.to_le_bytes())?;
                    }
                    Op::I64Store(off) => {
                        let v = pop_i64(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<8>(a, *off, v.to_le_bytes())?;
                    }
                    Op::F32Store(off) => {
                        let v = pop_f32(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<4>(a, *off, v.to_le_bytes())?;
                    }
                    Op::F64Store(off) => {
                        let v = pop_f64(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<8>(a, *off, v.to_le_bytes())?;
                    }
                    Op::I32Store8(off) => {
                        let v = pop_i32(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<1>(a, *off, [v as u8])?;
                    }
                    Op::I32Store16(off) => {
                        let v = pop_i32(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<2>(a, *off, (v as u16).to_le_bytes())?;
                    }
                    Op::I64Store8(off) => {
                        let v = pop_i64(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<1>(a, *off, [v as u8])?;
                    }
                    Op::I64Store16(off) => {
                        let v = pop_i64(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<2>(a, *off, (v as u16).to_le_bytes())?;
                    }
                    Op::I64Store32(off) => {
                        let v = pop_i64(stack);
                        let a = pop_addr(stack);
                        self.mem()?.store::<4>(a, *off, (v as u32).to_le_bytes())?;
                    }
                    Op::MemorySize => {
                        let pages = self.mem()?.size_pages();
                        stack.push(Value::I32(pages as i32));
                    }
                    Op::MemoryGrow => {
                        let delta = pop_i32(stack) as u32;
                        let result = match self.mem()?.grow(delta) {
                            Some(prev) => prev as i32,
                            None => -1,
                        };
                        stack.push(Value::I32(result));
                    }
                    Op::MemoryCopy => {
                        let len = pop_i32(stack) as u32;
                        let src = pop_addr(stack);
                        let dst = pop_addr(stack);
                        self.mem()?.copy_within(dst, src, len)?;
                    }
                    Op::MemoryFill => {
                        let len = pop_i32(stack) as u32;
                        let byte = pop_i32(stack) as u8;
                        let dst = pop_addr(stack);
                        self.mem()?.fill(dst, byte, len)?;
                    }

                    // --------------------------------------------- consts
                    Op::I32Const(v) => stack.push(Value::I32(*v)),
                    Op::I64Const(v) => stack.push(Value::I64(*v)),
                    Op::F32Const(v) => stack.push(Value::F32(*v)),
                    Op::F64Const(v) => stack.push(Value::F64(*v)),

                    // ----------------------------------- i32 test/compare
                    Op::I32Eqz => un_i32(stack, |a| (a == 0) as i32),
                    Op::I32Eq => cmp_i32(stack, |a, b| a == b),
                    Op::I32Ne => cmp_i32(stack, |a, b| a != b),
                    Op::I32LtS => cmp_i32(stack, |a, b| a < b),
                    Op::I32LtU => cmp_u32(stack, |a, b| a < b),
                    Op::I32GtS => cmp_i32(stack, |a, b| a > b),
                    Op::I32GtU => cmp_u32(stack, |a, b| a > b),
                    Op::I32LeS => cmp_i32(stack, |a, b| a <= b),
                    Op::I32LeU => cmp_u32(stack, |a, b| a <= b),
                    Op::I32GeS => cmp_i32(stack, |a, b| a >= b),
                    Op::I32GeU => cmp_u32(stack, |a, b| a >= b),

                    // ----------------------------------- i64 test/compare
                    Op::I64Eqz => {
                        let a = pop_i64(stack);
                        stack.push(Value::I32((a == 0) as i32));
                    }
                    Op::I64Eq => cmp_i64(stack, |a, b| a == b),
                    Op::I64Ne => cmp_i64(stack, |a, b| a != b),
                    Op::I64LtS => cmp_i64(stack, |a, b| a < b),
                    Op::I64LtU => cmp_u64(stack, |a, b| a < b),
                    Op::I64GtS => cmp_i64(stack, |a, b| a > b),
                    Op::I64GtU => cmp_u64(stack, |a, b| a > b),
                    Op::I64LeS => cmp_i64(stack, |a, b| a <= b),
                    Op::I64LeU => cmp_u64(stack, |a, b| a <= b),
                    Op::I64GeS => cmp_i64(stack, |a, b| a >= b),
                    Op::I64GeU => cmp_u64(stack, |a, b| a >= b),

                    // --------------------------------------- f32 compares
                    Op::F32Eq => cmp_f32(stack, |a, b| a == b),
                    Op::F32Ne => cmp_f32(stack, |a, b| a != b),
                    Op::F32Lt => cmp_f32(stack, |a, b| a < b),
                    Op::F32Gt => cmp_f32(stack, |a, b| a > b),
                    Op::F32Le => cmp_f32(stack, |a, b| a <= b),
                    Op::F32Ge => cmp_f32(stack, |a, b| a >= b),

                    // --------------------------------------- f64 compares
                    Op::F64Eq => cmp_f64(stack, |a, b| a == b),
                    Op::F64Ne => cmp_f64(stack, |a, b| a != b),
                    Op::F64Lt => cmp_f64(stack, |a, b| a < b),
                    Op::F64Gt => cmp_f64(stack, |a, b| a > b),
                    Op::F64Le => cmp_f64(stack, |a, b| a <= b),
                    Op::F64Ge => cmp_f64(stack, |a, b| a >= b),

                    // ----------------------------------------- i32 arith
                    Op::I32Clz => un_i32(stack, |a| a.leading_zeros() as i32),
                    Op::I32Ctz => un_i32(stack, |a| a.trailing_zeros() as i32),
                    Op::I32Popcnt => un_i32(stack, |a| a.count_ones() as i32),
                    Op::I32Add => bin_i32(stack, i32::wrapping_add),
                    Op::I32Sub => bin_i32(stack, i32::wrapping_sub),
                    Op::I32Mul => bin_i32(stack, i32::wrapping_mul),
                    Op::I32DivS => {
                        let b = pop_i32(stack);
                        let a = pop_i32(stack);
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        let (v, overflow) = a.overflowing_div(b);
                        if overflow {
                            return Err(Trap::IntegerOverflow);
                        }
                        stack.push(Value::I32(v));
                    }
                    Op::I32DivU => {
                        let b = pop_i32(stack) as u32;
                        let a = pop_i32(stack) as u32;
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I32((a / b) as i32));
                    }
                    Op::I32RemS => {
                        let b = pop_i32(stack);
                        let a = pop_i32(stack);
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I32(a.wrapping_rem(b)));
                    }
                    Op::I32RemU => {
                        let b = pop_i32(stack) as u32;
                        let a = pop_i32(stack) as u32;
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I32((a % b) as i32));
                    }
                    Op::I32And => bin_i32(stack, |a, b| a & b),
                    Op::I32Or => bin_i32(stack, |a, b| a | b),
                    Op::I32Xor => bin_i32(stack, |a, b| a ^ b),
                    Op::I32Shl => bin_i32(stack, |a, b| a.wrapping_shl(b as u32)),
                    Op::I32ShrS => bin_i32(stack, |a, b| a.wrapping_shr(b as u32)),
                    Op::I32ShrU => {
                        bin_i32(stack, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32)
                    }
                    Op::I32Rotl => bin_i32(stack, |a, b| a.rotate_left(b as u32 & 31)),
                    Op::I32Rotr => bin_i32(stack, |a, b| a.rotate_right(b as u32 & 31)),

                    // ----------------------------------------- i64 arith
                    Op::I64Clz => un_i64(stack, |a| a.leading_zeros() as i64),
                    Op::I64Ctz => un_i64(stack, |a| a.trailing_zeros() as i64),
                    Op::I64Popcnt => un_i64(stack, |a| a.count_ones() as i64),
                    Op::I64Add => bin_i64(stack, i64::wrapping_add),
                    Op::I64Sub => bin_i64(stack, i64::wrapping_sub),
                    Op::I64Mul => bin_i64(stack, i64::wrapping_mul),
                    Op::I64DivS => {
                        let b = pop_i64(stack);
                        let a = pop_i64(stack);
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        let (v, overflow) = a.overflowing_div(b);
                        if overflow {
                            return Err(Trap::IntegerOverflow);
                        }
                        stack.push(Value::I64(v));
                    }
                    Op::I64DivU => {
                        let b = pop_i64(stack) as u64;
                        let a = pop_i64(stack) as u64;
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I64((a / b) as i64));
                    }
                    Op::I64RemS => {
                        let b = pop_i64(stack);
                        let a = pop_i64(stack);
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I64(a.wrapping_rem(b)));
                    }
                    Op::I64RemU => {
                        let b = pop_i64(stack) as u64;
                        let a = pop_i64(stack) as u64;
                        if b == 0 {
                            return Err(Trap::DivisionByZero);
                        }
                        stack.push(Value::I64((a % b) as i64));
                    }
                    Op::I64And => bin_i64(stack, |a, b| a & b),
                    Op::I64Or => bin_i64(stack, |a, b| a | b),
                    Op::I64Xor => bin_i64(stack, |a, b| a ^ b),
                    Op::I64Shl => bin_i64(stack, |a, b| a.wrapping_shl(b as u32)),
                    Op::I64ShrS => bin_i64(stack, |a, b| a.wrapping_shr(b as u32)),
                    Op::I64ShrU => {
                        bin_i64(stack, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64)
                    }
                    Op::I64Rotl => bin_i64(stack, |a, b| a.rotate_left(b as u32 & 63)),
                    Op::I64Rotr => bin_i64(stack, |a, b| a.rotate_right(b as u32 & 63)),

                    // ----------------------------------------- f32 arith
                    Op::F32Abs => un_f32(stack, f32::abs),
                    Op::F32Neg => un_f32(stack, |a| -a),
                    Op::F32Ceil => un_f32(stack, f32::ceil),
                    Op::F32Floor => un_f32(stack, f32::floor),
                    Op::F32Trunc => un_f32(stack, f32::trunc),
                    Op::F32Nearest => un_f32(stack, nearest_f32),
                    Op::F32Sqrt => un_f32(stack, f32::sqrt),
                    Op::F32Add => bin_f32(stack, |a, b| a + b),
                    Op::F32Sub => bin_f32(stack, |a, b| a - b),
                    Op::F32Mul => bin_f32(stack, |a, b| a * b),
                    Op::F32Div => bin_f32(stack, |a, b| a / b),
                    Op::F32Min => bin_f32(stack, wasm_min_f32),
                    Op::F32Max => bin_f32(stack, wasm_max_f32),
                    Op::F32Copysign => bin_f32(stack, f32::copysign),

                    // ----------------------------------------- f64 arith
                    Op::F64Abs => un_f64(stack, f64::abs),
                    Op::F64Neg => un_f64(stack, |a| -a),
                    Op::F64Ceil => un_f64(stack, f64::ceil),
                    Op::F64Floor => un_f64(stack, f64::floor),
                    Op::F64Trunc => un_f64(stack, f64::trunc),
                    Op::F64Nearest => un_f64(stack, nearest_f64),
                    Op::F64Sqrt => un_f64(stack, f64::sqrt),
                    Op::F64Add => bin_f64(stack, |a, b| a + b),
                    Op::F64Sub => bin_f64(stack, |a, b| a - b),
                    Op::F64Mul => bin_f64(stack, |a, b| a * b),
                    Op::F64Div => bin_f64(stack, |a, b| a / b),
                    Op::F64Min => bin_f64(stack, wasm_min_f64),
                    Op::F64Max => bin_f64(stack, wasm_max_f64),
                    Op::F64Copysign => bin_f64(stack, f64::copysign),

                    // ---------------------------------------- conversions
                    Op::I32WrapI64 => {
                        let a = pop_i64(stack);
                        stack.push(Value::I32(a as i32));
                    }
                    Op::I32TruncF32S => {
                        let a = pop_f32(stack);
                        stack.push(Value::I32(trunc_to_i32(a as f64)?));
                    }
                    Op::I32TruncF32U => {
                        let a = pop_f32(stack);
                        stack.push(Value::I32(trunc_to_u32(a as f64)? as i32));
                    }
                    Op::I32TruncF64S => {
                        let a = pop_f64(stack);
                        stack.push(Value::I32(trunc_to_i32(a)?));
                    }
                    Op::I32TruncF64U => {
                        let a = pop_f64(stack);
                        stack.push(Value::I32(trunc_to_u32(a)? as i32));
                    }
                    Op::I64ExtendI32S => {
                        let a = pop_i32(stack);
                        stack.push(Value::I64(a as i64));
                    }
                    Op::I64ExtendI32U => {
                        let a = pop_i32(stack);
                        stack.push(Value::I64(a as u32 as i64));
                    }
                    Op::I64TruncF32S => {
                        let a = pop_f32(stack);
                        stack.push(Value::I64(trunc_to_i64(a as f64)?));
                    }
                    Op::I64TruncF32U => {
                        let a = pop_f32(stack);
                        stack.push(Value::I64(trunc_to_u64(a as f64)? as i64));
                    }
                    Op::I64TruncF64S => {
                        let a = pop_f64(stack);
                        stack.push(Value::I64(trunc_to_i64(a)?));
                    }
                    Op::I64TruncF64U => {
                        let a = pop_f64(stack);
                        stack.push(Value::I64(trunc_to_u64(a)? as i64));
                    }
                    Op::F32ConvertI32S => {
                        let a = pop_i32(stack);
                        stack.push(Value::F32(a as f32));
                    }
                    Op::F32ConvertI32U => {
                        let a = pop_i32(stack);
                        stack.push(Value::F32(a as u32 as f32));
                    }
                    Op::F32ConvertI64S => {
                        let a = pop_i64(stack);
                        stack.push(Value::F32(a as f32));
                    }
                    Op::F32ConvertI64U => {
                        let a = pop_i64(stack);
                        stack.push(Value::F32(a as u64 as f32));
                    }
                    Op::F32DemoteF64 => {
                        let a = pop_f64(stack);
                        stack.push(Value::F32(a as f32));
                    }
                    Op::F64ConvertI32S => {
                        let a = pop_i32(stack);
                        stack.push(Value::F64(a as f64));
                    }
                    Op::F64ConvertI32U => {
                        let a = pop_i32(stack);
                        stack.push(Value::F64(a as u32 as f64));
                    }
                    Op::F64ConvertI64S => {
                        let a = pop_i64(stack);
                        stack.push(Value::F64(a as f64));
                    }
                    Op::F64ConvertI64U => {
                        let a = pop_i64(stack);
                        stack.push(Value::F64(a as u64 as f64));
                    }
                    Op::F64PromoteF32 => {
                        let a = pop_f32(stack);
                        stack.push(Value::F64(a as f64));
                    }
                    Op::I32ReinterpretF32 => {
                        let a = pop_f32(stack);
                        stack.push(Value::I32(a.to_bits() as i32));
                    }
                    Op::I64ReinterpretF64 => {
                        let a = pop_f64(stack);
                        stack.push(Value::I64(a.to_bits() as i64));
                    }
                    Op::F32ReinterpretI32 => {
                        let a = pop_i32(stack);
                        stack.push(Value::F32(f32::from_bits(a as u32)));
                    }
                    Op::F64ReinterpretI64 => {
                        let a = pop_i64(stack);
                        stack.push(Value::F64(f64::from_bits(a as u64)));
                    }
                }
            }
        }
    }

    fn mem(&mut self) -> Result<&mut Memory, Trap> {
        self.memory.as_mut().ok_or_else(|| Trap::host("module has no memory"))
    }
}

/// Takes a pre-resolved branch: copies the `arity` label values down to
/// the unwind height (relative to `obase`), truncates the junk between,
/// and returns the new program counter.
#[inline]
fn take_branch(stack: &mut Vec<Value>, obase: usize, jump: &Jump) -> usize {
    let dst = obase + jump.height as usize;
    let arity = jump.arity as usize;
    let src = stack.len() - arity;
    if src > dst {
        stack.copy_within(src.., dst);
    }
    stack.truncate(dst + arity);
    jump.target as usize
}

/// Charges `extra` further instructions of a fused group (the first
/// was charged by the shared dispatch prelude). When metered fuel runs
/// out mid-group, this reproduces the unfused sequence's trap state
/// exactly: `fuel_left` sub-instructions would have executed (none of
/// their effects are observable after the unwind — fused ops touch
/// only the discarded operand stack and locals) and the next one is
/// counted as the trapping instruction.
#[inline]
fn charge<const METERED: bool>(
    count: &mut u64,
    fuel_left: &mut u64,
    extra: u64,
) -> Result<(), Trap> {
    if METERED {
        if *fuel_left < extra {
            *count += *fuel_left + 1;
            *fuel_left = 0;
            return Err(Trap::FuelExhausted);
        }
        *fuel_left -= extra;
    }
    *count += extra;
    Ok(())
}

/// Reads an i32 local of the current frame.
#[inline]
fn loc_i32(stack: &[Value], lbase: usize, i: u16) -> i32 {
    stack[lbase + i as usize].as_i32().expect("validated i32 local")
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
        I32Bin::Or => a | b,
        I32Bin::Xor => a ^ b,
        I32Bin::Shl => a.wrapping_shl(b as u32),
        I32Bin::ShrS => a.wrapping_shr(b as u32),
        I32Bin::ShrU => ((a as u32).wrapping_shr(b as u32)) as i32,
        I32Bin::Rotl => a.rotate_left(b as u32 & 31),
        I32Bin::Rotr => a.rotate_right(b as u32 & 31),
        I32Bin::Eq => (a == b) as i32,
        I32Bin::Ne => (a != b) as i32,
        I32Bin::LtS => (a < b) as i32,
        I32Bin::LtU => ((a as u32) < (b as u32)) as i32,
        I32Bin::GtS => (a > b) as i32,
        I32Bin::GtU => ((a as u32) > (b as u32)) as i32,
        I32Bin::LeS => (a <= b) as i32,
        I32Bin::LeU => ((a as u32) <= (b as u32)) as i32,
        I32Bin::GeS => (a >= b) as i32,
        I32Bin::GeU => ((a as u32) >= (b as u32)) as i32,
    }
}

// ------------------------------------------------------------ pop helpers

#[inline]
fn pop_i32(stack: &mut Vec<Value>) -> i32 {
    stack.pop().expect("validated stack").as_i32().expect("validated i32")
}

#[inline]
fn pop_addr(stack: &mut Vec<Value>) -> u32 {
    pop_i32(stack) as u32
}

#[inline]
fn pop_i64(stack: &mut Vec<Value>) -> i64 {
    stack.pop().expect("validated stack").as_i64().expect("validated i64")
}

#[inline]
fn pop_f32(stack: &mut Vec<Value>) -> f32 {
    stack.pop().expect("validated stack").as_f32().expect("validated f32")
}

#[inline]
fn pop_f64(stack: &mut Vec<Value>) -> f64 {
    stack.pop().expect("validated stack").as_f64().expect("validated f64")
}

#[inline]
fn un_i32(stack: &mut Vec<Value>, f: impl FnOnce(i32) -> i32) {
    let a = pop_i32(stack);
    stack.push(Value::I32(f(a)));
}

#[inline]
fn bin_i32(stack: &mut Vec<Value>, f: impl FnOnce(i32, i32) -> i32) {
    let b = pop_i32(stack);
    let a = pop_i32(stack);
    stack.push(Value::I32(f(a, b)));
}

#[inline]
fn cmp_i32(stack: &mut Vec<Value>, f: impl FnOnce(i32, i32) -> bool) {
    let b = pop_i32(stack);
    let a = pop_i32(stack);
    stack.push(Value::I32(f(a, b) as i32));
}

#[inline]
fn cmp_u32(stack: &mut Vec<Value>, f: impl FnOnce(u32, u32) -> bool) {
    let b = pop_i32(stack) as u32;
    let a = pop_i32(stack) as u32;
    stack.push(Value::I32(f(a, b) as i32));
}

#[inline]
fn un_i64(stack: &mut Vec<Value>, f: impl FnOnce(i64) -> i64) {
    let a = pop_i64(stack);
    stack.push(Value::I64(f(a)));
}

#[inline]
fn bin_i64(stack: &mut Vec<Value>, f: impl FnOnce(i64, i64) -> i64) {
    let b = pop_i64(stack);
    let a = pop_i64(stack);
    stack.push(Value::I64(f(a, b)));
}

#[inline]
fn cmp_i64(stack: &mut Vec<Value>, f: impl FnOnce(i64, i64) -> bool) {
    let b = pop_i64(stack);
    let a = pop_i64(stack);
    stack.push(Value::I32(f(a, b) as i32));
}

#[inline]
fn cmp_u64(stack: &mut Vec<Value>, f: impl FnOnce(u64, u64) -> bool) {
    let b = pop_i64(stack) as u64;
    let a = pop_i64(stack) as u64;
    stack.push(Value::I32(f(a, b) as i32));
}

#[inline]
fn un_f32(stack: &mut Vec<Value>, f: impl FnOnce(f32) -> f32) {
    let a = pop_f32(stack);
    stack.push(Value::F32(f(a)));
}

#[inline]
fn bin_f32(stack: &mut Vec<Value>, f: impl FnOnce(f32, f32) -> f32) {
    let b = pop_f32(stack);
    let a = pop_f32(stack);
    stack.push(Value::F32(f(a, b)));
}

#[inline]
fn cmp_f32(stack: &mut Vec<Value>, f: impl FnOnce(f32, f32) -> bool) {
    let b = pop_f32(stack);
    let a = pop_f32(stack);
    stack.push(Value::I32(f(a, b) as i32));
}

#[inline]
fn un_f64(stack: &mut Vec<Value>, f: impl FnOnce(f64) -> f64) {
    let a = pop_f64(stack);
    stack.push(Value::F64(f(a)));
}

#[inline]
fn bin_f64(stack: &mut Vec<Value>, f: impl FnOnce(f64, f64) -> f64) {
    let b = pop_f64(stack);
    let a = pop_f64(stack);
    stack.push(Value::F64(f(a, b)));
}

#[inline]
fn cmp_f64(stack: &mut Vec<Value>, f: impl FnOnce(f64, f64) -> bool) {
    let b = pop_f64(stack);
    let a = pop_f64(stack);
    stack.push(Value::I32(f(a, b) as i32));
}

// ------------------------------------------------ float semantics helpers

fn wasm_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        // min(-0, +0) = -0.
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

fn wasm_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}

fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}

fn nearest_f32(a: f32) -> f32 {
    a.round_ties_even()
}

fn nearest_f64(a: f64) -> f64 {
    a.round_ties_even()
}

fn trunc_to_i32(a: f64) -> Result<i32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = a.trunc();
    if !(-2147483648.0..2147483648.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i32)
}

fn trunc_to_u32(a: f64) -> Result<u32, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = a.trunc();
    if !(0.0..4294967296.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u32)
}

fn trunc_to_i64(a: f64) -> Result<i64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = a.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i64)
}

fn trunc_to_u64(a: f64) -> Result<u64, Trap> {
    if a.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = a.trunc();
    if !(0.0..18446744073709551616.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u64)
}
