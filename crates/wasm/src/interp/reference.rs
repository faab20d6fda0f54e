//! The reference interpreter: a tree walker over the structured
//! [`Instr`] AST, compiled only under `cfg(test)`.
//!
//! This is the oracle the differential suite ([`crate::differential`])
//! holds the shipping dispatch loop ([`Exec::run_flat`]) to, and the
//! definition of the engine's accounting contract: **every [`Instr`]
//! node counts exactly once, when `run_seq` reaches it** — a `Block`,
//! `Loop` or `If` header once on entry (not per loop iteration), a
//! trapping instruction included, and nothing else (no end markers, no
//! branch landings). Fuel is charged one unit per counted instruction,
//! before it executes. The flat code's synthetic ops and fused
//! superinstructions are correct exactly insofar as they reproduce these
//! numbers.
//!
//! It keeps its operands as typed [`Value`]s — the `pop_*`/`un_*`/
//! `bin_*`/`cmp_*` helpers at the bottom of this file check every tag —
//! where the dispatch loop runs on untyped slots, and it shares only the
//! float and truncation semantics (`wasm_min_*`, `nearest_*`,
//! `trunc_to_*`) with the loop. A divergence can therefore come from
//! control flow, frame handling, metering or the slot representation —
//! everything the two strategies do differently.

use super::*;
use crate::instr::Instr;

/// Control-flow signal produced by a block of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Fell through the end of the sequence.
    Normal,
    /// Branching to the n-th enclosing label.
    Branch(u32),
    /// Returning from the current function.
    Return,
}

impl Exec<'_> {
    /// Calls the function at `func_idx` (imports first) with `args` on
    /// the tree walker.
    pub(crate) fn call_function(
        &mut self,
        func_idx: u32,
        args: &[Value],
        depth: usize,
    ) -> Result<Vec<Value>, Trap> {
        let mut stack: Vec<Value> = Vec::with_capacity(args.len().max(16));
        stack.extend_from_slice(args);
        self.call_into(func_idx, &mut stack, depth)?;
        // call_into consumed the arguments and left exactly the results.
        Ok(stack)
    }

    /// Calls the function at `func_idx`, taking its arguments from the
    /// top of `stack` and leaving its results there — the no-allocation
    /// call path: host calls see a borrowed argument slice, wasm calls
    /// share the caller's operand stack instead of splitting off a fresh
    /// `Vec` per call.
    fn call_into(
        &mut self,
        func_idx: u32,
        stack: &mut Vec<Value>,
        depth: usize,
    ) -> Result<(), Trap> {
        if depth >= self.max_call_depth {
            return Err(Trap::StackOverflow);
        }
        let imports = self.module.imports.len();
        if (func_idx as usize) < imports {
            let params =
                self.module.types[self.module.imports[func_idx as usize].type_idx as usize]
                    .params()
                    .len();
            let split = stack.len() - params;
            let f = Arc::clone(&self.host_funcs[func_idx as usize]);
            let caller = Caller::new(self.memory.as_mut(), self.host_data.as_mut());
            let results = f(caller, &stack[split..])?;
            stack.truncate(split);
            stack.extend_from_slice(&results);
            return Ok(());
        }
        let module = Arc::clone(self.module);
        let def = &module.funcs[func_idx as usize - imports];
        let ty = &module.types[def.type_idx as usize];
        let params = ty.params().len();
        let height = stack.len() - params;
        let mut locals: Vec<Value> = Vec::with_capacity(params + def.locals.len());
        locals.extend_from_slice(&stack[height..]);
        locals.extend(def.locals.iter().map(|&t| Value::zero(t)));
        stack.truncate(height);
        self.run_seq(&def.body, stack, &mut locals, depth)?;
        // On fall-through or return, the top `arity` values are the
        // results (validation guarantees presence and types); anything
        // the body left beneath them is dropped.
        let arity = ty.results().len();
        stack.drain(height..stack.len() - arity);
        Ok(())
    }

    fn mem(&mut self) -> Result<&mut Memory, Trap> {
        self.memory.as_mut().ok_or_else(|| Trap::host("module has no memory"))
    }

    /// Keeps the top `arity` values and truncates the rest down to
    /// `height` — the stack unwinding a branch performs at its target.
    fn unwind(stack: &mut Vec<Value>, height: usize, arity: usize) {
        let keep_from = stack.len() - arity;
        stack.drain(height..keep_from);
    }

    fn run_seq(
        &mut self,
        body: &[Instr],
        stack: &mut Vec<Value>,
        locals: &mut [Value],
        depth: usize,
    ) -> Result<Flow, Trap> {
        use Instr::*;
        for instr in body {
            *self.instr_count += 1;
            if let Some(fuel) = self.fuel.as_mut() {
                if *fuel == 0 {
                    return Err(Trap::FuelExhausted);
                }
                *fuel -= 1;
            }
            match instr {
                Unreachable => return Err(Trap::Unreachable),
                Nop => {}
                Block(bt, inner) => {
                    let height = stack.len();
                    match self.run_seq(inner, stack, locals, depth)? {
                        Flow::Normal => {}
                        Flow::Branch(0) => Self::unwind(stack, height, bt.arity()),
                        Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
                Loop(_bt, inner) => {
                    let height = stack.len();
                    loop {
                        match self.run_seq(inner, stack, locals, depth)? {
                            Flow::Normal => break,
                            // A branch to a loop re-enters it with an empty
                            // label (MVP loops take no parameters).
                            Flow::Branch(0) => {
                                Self::unwind(stack, height, 0);
                                continue;
                            }
                            Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                            Flow::Return => return Ok(Flow::Return),
                        }
                    }
                }
                If(bt, then, els) => {
                    let cond = pop_i32(stack);
                    let arm = if cond != 0 { then } else { els };
                    let height = stack.len();
                    match self.run_seq(arm, stack, locals, depth)? {
                        Flow::Normal => {}
                        Flow::Branch(0) => Self::unwind(stack, height, bt.arity()),
                        Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
                Br(n) => return Ok(Flow::Branch(*n)),
                BrIf(n) => {
                    if pop_i32(stack) != 0 {
                        return Ok(Flow::Branch(*n));
                    }
                }
                BrTable(targets, default) => {
                    let idx = pop_i32(stack) as u32 as usize;
                    let n = targets.get(idx).copied().unwrap_or(*default);
                    return Ok(Flow::Branch(n));
                }
                Return => return Ok(Flow::Return),
                Call(idx) => self.call_into(*idx, stack, depth + 1)?,
                Drop => {
                    stack.pop().expect("validated drop");
                }
                Select => {
                    let cond = pop_i32(stack);
                    let b = stack.pop().expect("validated select");
                    let a = stack.pop().expect("validated select");
                    stack.push(if cond != 0 { a } else { b });
                }
                LocalGet(i) => stack.push(locals[*i as usize]),
                LocalSet(i) => locals[*i as usize] = stack.pop().expect("validated local.set"),
                LocalTee(i) => locals[*i as usize] = *stack.last().expect("validated local.tee"),
                GlobalGet(i) => stack.push(self.globals[*i as usize]),
                GlobalSet(i) => {
                    self.globals[*i as usize] = stack.pop().expect("validated global.set")
                }

                // ------------------------------------------------- memory
                I32Load(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<4>(a, m.offset)?;
                    stack.push(Value::I32(i32::from_le_bytes(raw)));
                }
                I64Load(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<8>(a, m.offset)?;
                    stack.push(Value::I64(i64::from_le_bytes(raw)));
                }
                F32Load(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<4>(a, m.offset)?;
                    stack.push(Value::F32(f32::from_le_bytes(raw)));
                }
                F64Load(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<8>(a, m.offset)?;
                    stack.push(Value::F64(f64::from_le_bytes(raw)));
                }
                I32Load8S(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<1>(a, m.offset)?;
                    stack.push(Value::I32(raw[0] as i8 as i32));
                }
                I32Load8U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<1>(a, m.offset)?;
                    stack.push(Value::I32(raw[0] as i32));
                }
                I32Load16S(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<2>(a, m.offset)?;
                    stack.push(Value::I32(i16::from_le_bytes(raw) as i32));
                }
                I32Load16U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<2>(a, m.offset)?;
                    stack.push(Value::I32(u16::from_le_bytes(raw) as i32));
                }
                I64Load8S(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<1>(a, m.offset)?;
                    stack.push(Value::I64(raw[0] as i8 as i64));
                }
                I64Load8U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<1>(a, m.offset)?;
                    stack.push(Value::I64(raw[0] as i64));
                }
                I64Load16S(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<2>(a, m.offset)?;
                    stack.push(Value::I64(i16::from_le_bytes(raw) as i64));
                }
                I64Load16U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<2>(a, m.offset)?;
                    stack.push(Value::I64(u16::from_le_bytes(raw) as i64));
                }
                I64Load32S(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<4>(a, m.offset)?;
                    stack.push(Value::I64(i32::from_le_bytes(raw) as i64));
                }
                I64Load32U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<4>(a, m.offset)?;
                    stack.push(Value::I64(u32::from_le_bytes(raw) as i64));
                }
                I32Store(m) => {
                    let v = pop_i32(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<4>(a, m.offset, v.to_le_bytes())?;
                }
                I64Store(m) => {
                    let v = pop_i64(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<8>(a, m.offset, v.to_le_bytes())?;
                }
                F32Store(m) => {
                    let v = pop_f32(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<4>(a, m.offset, v.to_le_bytes())?;
                }
                F64Store(m) => {
                    let v = pop_f64(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<8>(a, m.offset, v.to_le_bytes())?;
                }
                I32Store8(m) => {
                    let v = pop_i32(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<1>(a, m.offset, [v as u8])?;
                }
                I32Store16(m) => {
                    let v = pop_i32(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<2>(a, m.offset, (v as u16).to_le_bytes())?;
                }
                I64Store8(m) => {
                    let v = pop_i64(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<1>(a, m.offset, [v as u8])?;
                }
                I64Store16(m) => {
                    let v = pop_i64(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<2>(a, m.offset, (v as u16).to_le_bytes())?;
                }
                I64Store32(m) => {
                    let v = pop_i64(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<4>(a, m.offset, (v as u32).to_le_bytes())?;
                }
                MemorySize => {
                    let pages = self.mem()?.size_pages();
                    stack.push(Value::I32(pages as i32));
                }
                MemoryGrow => {
                    let delta = pop_i32(stack) as u32;
                    let result = match self.mem()?.grow(delta) {
                        Some(prev) => prev as i32,
                        None => -1,
                    };
                    stack.push(Value::I32(result));
                }
                MemoryCopy => {
                    let len = pop_i32(stack) as u32;
                    let src = pop_addr(stack);
                    let dst = pop_addr(stack);
                    self.mem()?.copy_within(dst, src, len)?;
                }
                MemoryFill => {
                    let len = pop_i32(stack) as u32;
                    let byte = pop_i32(stack) as u8;
                    let dst = pop_addr(stack);
                    self.mem()?.fill(dst, byte, len)?;
                }

                // -------------------------------------------------- consts
                I32Const(v) => stack.push(Value::I32(*v)),
                I64Const(v) => stack.push(Value::I64(*v)),
                F32Const(v) => stack.push(Value::F32(*v)),
                F64Const(v) => stack.push(Value::F64(*v)),

                // --------------------------------------- i32 test/compare
                I32Eqz => un_i32(stack, |a| (a == 0) as i32),
                I32Eq => cmp_i32(stack, |a, b| a == b),
                I32Ne => cmp_i32(stack, |a, b| a != b),
                I32LtS => cmp_i32(stack, |a, b| a < b),
                I32LtU => cmp_u32(stack, |a, b| a < b),
                I32GtS => cmp_i32(stack, |a, b| a > b),
                I32GtU => cmp_u32(stack, |a, b| a > b),
                I32LeS => cmp_i32(stack, |a, b| a <= b),
                I32LeU => cmp_u32(stack, |a, b| a <= b),
                I32GeS => cmp_i32(stack, |a, b| a >= b),
                I32GeU => cmp_u32(stack, |a, b| a >= b),

                // --------------------------------------- i64 test/compare
                I64Eqz => {
                    let a = pop_i64(stack);
                    stack.push(Value::I32((a == 0) as i32));
                }
                I64Eq => cmp_i64(stack, |a, b| a == b),
                I64Ne => cmp_i64(stack, |a, b| a != b),
                I64LtS => cmp_i64(stack, |a, b| a < b),
                I64LtU => cmp_u64(stack, |a, b| a < b),
                I64GtS => cmp_i64(stack, |a, b| a > b),
                I64GtU => cmp_u64(stack, |a, b| a > b),
                I64LeS => cmp_i64(stack, |a, b| a <= b),
                I64LeU => cmp_u64(stack, |a, b| a <= b),
                I64GeS => cmp_i64(stack, |a, b| a >= b),
                I64GeU => cmp_u64(stack, |a, b| a >= b),

                // ------------------------------------------- f32 compares
                F32Eq => cmp_f32(stack, |a, b| a == b),
                F32Ne => cmp_f32(stack, |a, b| a != b),
                F32Lt => cmp_f32(stack, |a, b| a < b),
                F32Gt => cmp_f32(stack, |a, b| a > b),
                F32Le => cmp_f32(stack, |a, b| a <= b),
                F32Ge => cmp_f32(stack, |a, b| a >= b),

                // ------------------------------------------- f64 compares
                F64Eq => cmp_f64(stack, |a, b| a == b),
                F64Ne => cmp_f64(stack, |a, b| a != b),
                F64Lt => cmp_f64(stack, |a, b| a < b),
                F64Gt => cmp_f64(stack, |a, b| a > b),
                F64Le => cmp_f64(stack, |a, b| a <= b),
                F64Ge => cmp_f64(stack, |a, b| a >= b),

                // --------------------------------------------- i32 arith
                I32Clz => un_i32(stack, |a| a.leading_zeros() as i32),
                I32Ctz => un_i32(stack, |a| a.trailing_zeros() as i32),
                I32Popcnt => un_i32(stack, |a| a.count_ones() as i32),
                I32Add => bin_i32(stack, i32::wrapping_add),
                I32Sub => bin_i32(stack, i32::wrapping_sub),
                I32Mul => bin_i32(stack, i32::wrapping_mul),
                I32DivS => {
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
                I32DivU => {
                    let b = pop_i32(stack) as u32;
                    let a = pop_i32(stack) as u32;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32((a / b) as i32));
                }
                I32RemS => {
                    let b = pop_i32(stack);
                    let a = pop_i32(stack);
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32(a.wrapping_rem(b)));
                }
                I32RemU => {
                    let b = pop_i32(stack) as u32;
                    let a = pop_i32(stack) as u32;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I32((a % b) as i32));
                }
                I32And => bin_i32(stack, |a, b| a & b),
                I32Or => bin_i32(stack, |a, b| a | b),
                I32Xor => bin_i32(stack, |a, b| a ^ b),
                I32Shl => bin_i32(stack, |a, b| a.wrapping_shl(b as u32)),
                I32ShrS => bin_i32(stack, |a, b| a.wrapping_shr(b as u32)),
                I32ShrU => bin_i32(stack, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32),
                I32Rotl => bin_i32(stack, |a, b| a.rotate_left(b as u32 & 31)),
                I32Rotr => bin_i32(stack, |a, b| a.rotate_right(b as u32 & 31)),

                // --------------------------------------------- i64 arith
                I64Clz => un_i64(stack, |a| a.leading_zeros() as i64),
                I64Ctz => un_i64(stack, |a| a.trailing_zeros() as i64),
                I64Popcnt => un_i64(stack, |a| a.count_ones() as i64),
                I64Add => bin_i64(stack, i64::wrapping_add),
                I64Sub => bin_i64(stack, i64::wrapping_sub),
                I64Mul => bin_i64(stack, i64::wrapping_mul),
                I64DivS => {
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
                I64DivU => {
                    let b = pop_i64(stack) as u64;
                    let a = pop_i64(stack) as u64;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64((a / b) as i64));
                }
                I64RemS => {
                    let b = pop_i64(stack);
                    let a = pop_i64(stack);
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64(a.wrapping_rem(b)));
                }
                I64RemU => {
                    let b = pop_i64(stack) as u64;
                    let a = pop_i64(stack) as u64;
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    stack.push(Value::I64((a % b) as i64));
                }
                I64And => bin_i64(stack, |a, b| a & b),
                I64Or => bin_i64(stack, |a, b| a | b),
                I64Xor => bin_i64(stack, |a, b| a ^ b),
                I64Shl => bin_i64(stack, |a, b| a.wrapping_shl(b as u32)),
                I64ShrS => bin_i64(stack, |a, b| a.wrapping_shr(b as u32)),
                I64ShrU => bin_i64(stack, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64),
                I64Rotl => bin_i64(stack, |a, b| a.rotate_left(b as u32 & 63)),
                I64Rotr => bin_i64(stack, |a, b| a.rotate_right(b as u32 & 63)),

                // --------------------------------------------- f32 arith
                F32Abs => un_f32(stack, f32::abs),
                F32Neg => un_f32(stack, |a| -a),
                F32Ceil => un_f32(stack, f32::ceil),
                F32Floor => un_f32(stack, f32::floor),
                F32Trunc => un_f32(stack, f32::trunc),
                F32Nearest => un_f32(stack, nearest_f32),
                F32Sqrt => un_f32(stack, f32::sqrt),
                F32Add => bin_f32(stack, |a, b| a + b),
                F32Sub => bin_f32(stack, |a, b| a - b),
                F32Mul => bin_f32(stack, |a, b| a * b),
                F32Div => bin_f32(stack, |a, b| a / b),
                F32Min => bin_f32(stack, wasm_min_f32),
                F32Max => bin_f32(stack, wasm_max_f32),
                F32Copysign => bin_f32(stack, f32::copysign),

                // --------------------------------------------- f64 arith
                F64Abs => un_f64(stack, f64::abs),
                F64Neg => un_f64(stack, |a| -a),
                F64Ceil => un_f64(stack, f64::ceil),
                F64Floor => un_f64(stack, f64::floor),
                F64Trunc => un_f64(stack, f64::trunc),
                F64Nearest => un_f64(stack, nearest_f64),
                F64Sqrt => un_f64(stack, f64::sqrt),
                F64Add => bin_f64(stack, |a, b| a + b),
                F64Sub => bin_f64(stack, |a, b| a - b),
                F64Mul => bin_f64(stack, |a, b| a * b),
                F64Div => bin_f64(stack, |a, b| a / b),
                F64Min => bin_f64(stack, wasm_min_f64),
                F64Max => bin_f64(stack, wasm_max_f64),
                F64Copysign => bin_f64(stack, f64::copysign),

                // -------------------------------------------- conversions
                I32WrapI64 => {
                    let a = pop_i64(stack);
                    stack.push(Value::I32(a as i32));
                }
                I32TruncF32S => {
                    let a = pop_f32(stack);
                    stack.push(Value::I32(trunc_to_i32(a as f64)?));
                }
                I32TruncF32U => {
                    let a = pop_f32(stack);
                    stack.push(Value::I32(trunc_to_u32(a as f64)? as i32));
                }
                I32TruncF64S => {
                    let a = pop_f64(stack);
                    stack.push(Value::I32(trunc_to_i32(a)?));
                }
                I32TruncF64U => {
                    let a = pop_f64(stack);
                    stack.push(Value::I32(trunc_to_u32(a)? as i32));
                }
                I64ExtendI32S => {
                    let a = pop_i32(stack);
                    stack.push(Value::I64(a as i64));
                }
                I64ExtendI32U => {
                    let a = pop_i32(stack);
                    stack.push(Value::I64(a as u32 as i64));
                }
                I64TruncF32S => {
                    let a = pop_f32(stack);
                    stack.push(Value::I64(trunc_to_i64(a as f64)?));
                }
                I64TruncF32U => {
                    let a = pop_f32(stack);
                    stack.push(Value::I64(trunc_to_u64(a as f64)? as i64));
                }
                I64TruncF64S => {
                    let a = pop_f64(stack);
                    stack.push(Value::I64(trunc_to_i64(a)?));
                }
                I64TruncF64U => {
                    let a = pop_f64(stack);
                    stack.push(Value::I64(trunc_to_u64(a)? as i64));
                }
                F32ConvertI32S => {
                    let a = pop_i32(stack);
                    stack.push(Value::F32(a as f32));
                }
                F32ConvertI32U => {
                    let a = pop_i32(stack);
                    stack.push(Value::F32(a as u32 as f32));
                }
                F32ConvertI64S => {
                    let a = pop_i64(stack);
                    stack.push(Value::F32(a as f32));
                }
                F32ConvertI64U => {
                    let a = pop_i64(stack);
                    stack.push(Value::F32(a as u64 as f32));
                }
                F32DemoteF64 => {
                    let a = pop_f64(stack);
                    stack.push(Value::F32(a as f32));
                }
                F64ConvertI32S => {
                    let a = pop_i32(stack);
                    stack.push(Value::F64(a as f64));
                }
                F64ConvertI32U => {
                    let a = pop_i32(stack);
                    stack.push(Value::F64(a as u32 as f64));
                }
                F64ConvertI64S => {
                    let a = pop_i64(stack);
                    stack.push(Value::F64(a as f64));
                }
                F64ConvertI64U => {
                    let a = pop_i64(stack);
                    stack.push(Value::F64(a as u64 as f64));
                }
                F64PromoteF32 => {
                    let a = pop_f32(stack);
                    stack.push(Value::F64(a as f64));
                }
                I32ReinterpretF32 => {
                    let a = pop_f32(stack);
                    stack.push(Value::I32(a.to_bits() as i32));
                }
                I64ReinterpretF64 => {
                    let a = pop_f64(stack);
                    stack.push(Value::I64(a.to_bits() as i64));
                }
                F32ReinterpretI32 => {
                    let a = pop_i32(stack);
                    stack.push(Value::F32(f32::from_bits(a as u32)));
                }
                F64ReinterpretI64 => {
                    let a = pop_i64(stack);
                    stack.push(Value::F64(f64::from_bits(a as u64)));
                }
            }
        }
        Ok(Flow::Normal)
    }
}

// ------------------------------------------------------- typed stack helpers
//
// The walker keeps its operands as [`Value`]s and checks every tag it
// pops: a type confusion the slot loop would silently reinterpret fails
// loudly here.

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
