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
//! where the dispatch loop runs on untyped slots, and it spells out
//! every operator itself rather than sharing the loop's. A divergence can
//! therefore come from control flow, frame handling, metering, the slot
//! representation or an operator — everything the two strategies do
//! differently.

use super::*;
use crate::instr::Instr;

/// Control-flow signal produced by a block of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Fell through the end of the sequence.
    Normal,
    /// Branching to the n-th enclosing label.
    Branch(u32),
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
        // On fall-through or a branch to the function label, the top
        // `arity` values are the results (validation guarantees presence and types); anything
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
                Block(bt, inner) => {
                    let height = stack.len();
                    match self.run_seq(inner, stack, locals, depth)? {
                        Flow::Normal => {}
                        Flow::Branch(0) => Self::unwind(stack, height, bt.arity()),
                        Flow::Branch(n) => return Ok(Flow::Branch(n - 1)),
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
                    }
                }
                Br(n) => return Ok(Flow::Branch(*n)),
                BrIf(n) => {
                    if pop_i32(stack) != 0 {
                        return Ok(Flow::Branch(*n));
                    }
                }
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
                I32Load8U(m) => {
                    let a = pop_addr(stack);
                    let raw = self.mem()?.load::<1>(a, m.offset)?;
                    stack.push(Value::I32(raw[0] as i32));
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
                I32Store8(m) => {
                    let v = pop_i32(stack);
                    let a = pop_addr(stack);
                    self.mem()?.store::<1>(a, m.offset, [v as u8])?;
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
                // -------------------------------------------------- consts
                I32Const(v) => stack.push(Value::I32(*v)),
                I64Const(v) => stack.push(Value::I64(*v)),

                // ---------------------------------- i32 compare/arith
                I32Eqz => un_i32(stack, |a| (a == 0) as i32),
                I32Eq => cmp_i32(stack, |a, b| a == b),
                I32LtS => cmp_i32(stack, |a, b| a < b),
                I32LtU => cmp_u32(stack, |a, b| a < b),
                I32LeU => cmp_u32(stack, |a, b| a <= b),
                I32GeU => cmp_u32(stack, |a, b| a >= b),
                I32Add => bin_i32(stack, i32::wrapping_add),
                I32Sub => bin_i32(stack, i32::wrapping_sub),
                I32Mul => bin_i32(stack, i32::wrapping_mul),
                I32And => bin_i32(stack, |a, b| a & b),
                I32Xor => bin_i32(stack, |a, b| a ^ b),
                I32Shl => bin_i32(stack, |a, b| a.wrapping_shl(b as u32)),
                I32ShrU => bin_i32(stack, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32),

                // -------------------------------------------- conversions
                I32WrapI64 => {
                    let a = pop_i64(stack);
                    stack.push(Value::I32(a as i32));
                }
                I64ExtendI32U => {
                    let a = pop_i32(stack);
                    stack.push(Value::I64(a as u32 as i64));
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
