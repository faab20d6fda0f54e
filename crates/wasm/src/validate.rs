//! Module validation: the stack-discipline type checker.
//!
//! Implements the standard validation algorithm (spec appendix
//! "Validation Algorithm") over the reproduced subset: every function body
//! is checked instruction-by-instruction against its declared signature,
//! with full support for unreachable-code polymorphism. A module that
//! passes validation cannot make the interpreter pop a wrong-typed or
//! missing operand — the sandbox guarantee the paper's isolation story
//! builds on.

use std::error::Error;
use std::fmt;

use crate::instr::{BlockType, Instr, MAX_NESTING};
use crate::memory::PAGE;
use crate::module::{ExportKind, Module};
use crate::types::ValType;

/// Error describing why a module failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    context: String,
    message: String,
}

impl ValidationError {
    fn new(context: impl Into<String>, message: impl Into<String>) -> Self {
        Self { context: context.into(), message: message.into() }
    }

    /// Where the problem was found (e.g. `func[3]`).
    pub fn context(&self) -> &str {
        &self.context
    }

    /// What the problem is.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validation error in {}: {}", self.context, self.message)
    }
}

impl Error for ValidationError {}

type VResult<T> = Result<T, ValidationError>;

/// Validates `module`.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found: out-of-range indices,
/// duplicate export names, ill-typed bodies, bad data segments, etc.
pub fn validate(module: &Module) -> VResult<()> {
    // Imports and functions reference real types.
    for (i, import) in module.imports.iter().enumerate() {
        if import.type_idx as usize >= module.types.len() {
            return Err(ValidationError::new(
                format!("import[{i}]"),
                format!("type index {} out of range", import.type_idx),
            ));
        }
    }
    for (i, func) in module.funcs.iter().enumerate() {
        if func.type_idx as usize >= module.types.len() {
            return Err(ValidationError::new(
                format!("func[{i}]"),
                format!("type index {} out of range", func.type_idx),
            ));
        }
    }

    // Memory limits are coherent.
    if let Some(limits) = module.memory {
        if let Some(max) = limits.max {
            if max < limits.min {
                return Err(ValidationError::new(
                    "memory",
                    format!("max {max} pages below min {} pages", limits.min),
                ));
            }
        }
    }

    // Globals initialize with their own type.
    for (i, global) in module.globals.iter().enumerate() {
        if global.init.ty() != global.ty {
            return Err(ValidationError::new(
                format!("global[{i}]"),
                format!("initializer is {}, expected {}", global.init.ty(), global.ty),
            ));
        }
    }

    // Exports: unique names, in-range indices.
    for (i, export) in module.exports.iter().enumerate() {
        if module.exports[..i].iter().any(|e| e.name == export.name) {
            return Err(ValidationError::new(
                format!("export[{i}]"),
                format!("duplicate export name `{}`", export.name),
            ));
        }
        match export.kind {
            ExportKind::Func(idx) => {
                if idx as usize >= module.func_count() {
                    return Err(ValidationError::new(
                        format!("export[{i}]"),
                        format!("function index {idx} out of range"),
                    ));
                }
            }
            ExportKind::Memory => {
                if module.memory.is_none() {
                    return Err(ValidationError::new(
                        format!("export[{i}]"),
                        "module has no memory to export",
                    ));
                }
            }
            ExportKind::Global(idx) => {
                if idx as usize >= module.globals.len() {
                    return Err(ValidationError::new(
                        format!("export[{i}]"),
                        format!("global index {idx} out of range"),
                    ));
                }
            }
        }
    }

    // Data segments fit the initial memory.
    for (i, seg) in module.data.iter().enumerate() {
        let Some(limits) = module.memory else {
            return Err(ValidationError::new(
                format!("data[{i}]"),
                "data segment requires a memory",
            ));
        };
        let end = seg.offset as u64 + seg.bytes.len() as u64;
        if end > limits.min as u64 * PAGE as u64 {
            return Err(ValidationError::new(
                format!("data[{i}]"),
                format!("segment [{}, {end}) exceeds initial memory", seg.offset),
            ));
        }
    }

    // Start function exists with signature () -> ().
    if let Some(start) = module.start {
        let Some(ty) = module.func_type(start) else {
            return Err(ValidationError::new(
                "start",
                format!("function index {start} out of range"),
            ));
        };
        if !ty.params().is_empty() || !ty.results().is_empty() {
            return Err(ValidationError::new("start", "start function must be () -> ()"));
        }
    }

    // Type-check every body.
    for (i, func) in module.funcs.iter().enumerate() {
        let ty = &module.types[func.type_idx as usize];
        let mut locals: Vec<ValType> = ty.params().to_vec();
        locals.extend_from_slice(&func.locals);
        let mut checker = FuncValidator {
            module,
            locals,
            stack: Vec::new(),
            ctrls: Vec::new(),
            context: format!("func[{i}]"),
        };
        checker.push_frame(FrameKind::Func, ty.results().to_vec())?;
        checker
            .check_instrs(&func.body)
            .and_then(|()| checker.pop_frame().map(|_| ()))?;
    }

    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Func,
    Block,
    Loop,
    If,
}

#[derive(Debug)]
struct CtrlFrame {
    kind: FrameKind,
    results: Vec<ValType>,
    height: usize,
    unreachable: bool,
}

struct FuncValidator<'m> {
    #[allow(dead_code)]
    module: &'m Module,
    locals: Vec<ValType>,
    stack: Vec<ValType>,
    ctrls: Vec<CtrlFrame>,
    context: String,
}

impl<'m> FuncValidator<'m> {
    fn fail<T>(&self, msg: impl Into<String>) -> VResult<T> {
        Err(ValidationError::new(self.context.clone(), msg))
    }

    /// Opens a control frame. The function frame sits at the bottom, so
    /// `ctrls.len() - 1` is the block nesting depth.
    fn push_frame(&mut self, kind: FrameKind, results: Vec<ValType>) -> VResult<()> {
        if self.ctrls.len() > MAX_NESTING {
            return self.fail(format!("blocks nested deeper than {MAX_NESTING}"));
        }
        self.ctrls.push(CtrlFrame { kind, results, height: self.stack.len(), unreachable: false });
        Ok(())
    }

    /// Closes the innermost frame: its results must be on the stack, then
    /// they are transferred to the parent.
    fn pop_frame(&mut self) -> VResult<Vec<ValType>> {
        let results = self.ctrls.last().expect("frame underflow").results.clone();
        for &ty in results.iter().rev() {
            self.pop_expect(ty)?;
        }
        let frame = self.ctrls.pop().expect("frame underflow");
        if self.stack.len() != frame.height {
            return self.fail(format!(
                "block leaves {} extra value(s) on the stack",
                self.stack.len() - frame.height
            ));
        }
        self.stack.extend_from_slice(&results);
        Ok(results)
    }

    fn push_val(&mut self, ty: ValType) {
        self.stack.push(ty);
    }

    /// Pops a value of any type; `None` means "unknown" (polymorphic
    /// stack below an unconditional branch).
    fn pop_any(&mut self) -> VResult<Option<ValType>> {
        let frame = self.ctrls.last().expect("no frame");
        if self.stack.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return self.fail("value stack underflow");
        }
        Ok(self.stack.pop())
    }

    fn pop_expect(&mut self, ty: ValType) -> VResult<()> {
        match self.pop_any()? {
            None => Ok(()),
            Some(actual) if actual == ty => Ok(()),
            Some(actual) => self.fail(format!("expected {ty} on stack, found {actual}")),
        }
    }

    fn set_unreachable(&mut self) {
        let frame = self.ctrls.last_mut().expect("no frame");
        self.stack.truncate(frame.height);
        frame.unreachable = true;
    }

    /// The types a branch to `depth` must supply.
    fn label_types(&self, depth: u32) -> VResult<Vec<ValType>> {
        let idx = self
            .ctrls
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| {
                ValidationError::new(self.context.clone(), format!("branch depth {depth} too deep"))
            })?;
        let frame = &self.ctrls[idx];
        // Branching to a loop re-enters its start, which (in the MVP) takes
        // no values; branching to a block/if/func supplies its results.
        Ok(if frame.kind == FrameKind::Loop { Vec::new() } else { frame.results.clone() })
    }

    /// Checks a sequence. Recursion runs once per nested block through
    /// this function alone; everything that contains no other
    /// instruction goes to [`FuncValidator::check_plain`], keeping that
    /// function's large frame out of the cycle.
    fn check_instrs(&mut self, instrs: &[Instr]) -> VResult<()> {
        for instr in instrs {
            match instr {
                Instr::Block(bt, body) => {
                    self.push_frame(FrameKind::Block, Self::block_results(*bt))?;
                    self.check_instrs(body)?;
                    self.pop_frame()?;
                }
                Instr::Loop(bt, body) => {
                    self.push_frame(FrameKind::Loop, Self::block_results(*bt))?;
                    self.check_instrs(body)?;
                    self.pop_frame()?;
                }
                Instr::If(bt, then, els) => {
                    self.pop_expect(ValType::I32)?;
                    let results = Self::block_results(*bt);
                    self.push_frame(FrameKind::If, results.clone())?;
                    self.check_instrs(then)?;
                    self.pop_frame()?;
                    // Re-check the else arm against the same result type;
                    // the then arm's results were pushed, pop them first.
                    for &ty in results.iter().rev() {
                        self.pop_expect(ty)?;
                    }
                    self.push_frame(FrameKind::If, results)?;
                    self.check_instrs(els)?;
                    self.pop_frame()?;
                }
                plain => self.check_plain(plain)?,
            }
        }
        Ok(())
    }

    fn block_results(bt: BlockType) -> Vec<ValType> {
        match bt {
            BlockType::Empty => Vec::new(),
            BlockType::Value(t) => vec![t],
        }
    }

    fn check_plain(&mut self, instr: &Instr) -> VResult<()> {
        use ValType::*;
        if let Some((params, results)) = numeric_sig(instr) {
            for &p in params.iter().rev() {
                self.pop_expect(p)?;
            }
            for &r in results {
                self.push_val(r);
            }
            return Ok(());
        }
        match instr {
            Instr::Unreachable => self.set_unreachable(),
            Instr::Br(depth) => {
                for &ty in self.label_types(*depth)?.iter().rev() {
                    self.pop_expect(ty)?;
                }
                self.set_unreachable();
            }
            Instr::BrIf(depth) => {
                self.pop_expect(I32)?;
                let types = self.label_types(*depth)?;
                for &ty in types.iter().rev() {
                    self.pop_expect(ty)?;
                }
                for &ty in &types {
                    self.push_val(ty);
                }
            }
            Instr::Call(idx) => {
                let Some(ty) = self.module.func_type(*idx) else {
                    return self.fail(format!("call to unknown function {idx}"));
                };
                let ty = ty.clone();
                for &p in ty.params().iter().rev() {
                    self.pop_expect(p)?;
                }
                for &r in ty.results() {
                    self.push_val(r);
                }
            }
            Instr::Drop => {
                self.pop_any()?;
            }
            Instr::Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return self.fail(format!("select arms differ: {x} vs {y}"))
                    }
                    (Some(x), _) | (_, Some(x)) => self.push_val(x),
                    (None, None) => {
                        // Fully polymorphic select in dead code: the result
                        // is unknown; approximate with i32 (dead anyway).
                        self.push_val(I32)
                    }
                }
            }
            Instr::LocalGet(i) => {
                let Some(&ty) = self.locals.get(*i as usize) else {
                    return self.fail(format!("unknown local {i}"));
                };
                self.push_val(ty);
            }
            Instr::LocalSet(i) => {
                let Some(&ty) = self.locals.get(*i as usize) else {
                    return self.fail(format!("unknown local {i}"));
                };
                self.pop_expect(ty)?;
            }
            Instr::LocalTee(i) => {
                let Some(&ty) = self.locals.get(*i as usize) else {
                    return self.fail(format!("unknown local {i}"));
                };
                self.pop_expect(ty)?;
                self.push_val(ty);
            }
            Instr::GlobalGet(i) => {
                let Some(global) = self.module.globals.get(*i as usize) else {
                    return self.fail(format!("unknown global {i}"));
                };
                self.push_val(global.ty);
            }
            Instr::GlobalSet(i) => {
                let Some(global) = self.module.globals.get(*i as usize) else {
                    return self.fail(format!("unknown global {i}"));
                };
                if !global.mutable {
                    return self.fail(format!("global {i} is immutable"));
                }
                self.pop_expect(global.ty)?;
            }
            Instr::I32Load(_) | Instr::I32Load8U(_) => self.mem_load(I32)?,
            Instr::I64Load(_) => self.mem_load(I64)?,
            Instr::I32Store(_) | Instr::I32Store8(_) => self.mem_store(I32)?,
            Instr::I64Store(_) => self.mem_store(I64)?,
            Instr::MemorySize => {
                self.require_memory()?;
                self.push_val(I32);
            }
            Instr::MemoryGrow => {
                self.require_memory()?;
                self.pop_expect(I32)?;
                self.push_val(I32);
            }
            Instr::I32Const(_) => self.push_val(I32),
            Instr::I64Const(_) => self.push_val(I64),
            other => {
                return self.fail(format!("instruction not covered by validator: {other:?}"))
            }
        }
        Ok(())
    }

    fn require_memory(&self) -> VResult<()> {
        if self.module.memory.is_none() {
            return self.fail("instruction requires a memory");
        }
        Ok(())
    }

    fn mem_load(&mut self, ty: ValType) -> VResult<()> {
        self.require_memory()?;
        self.pop_expect(ValType::I32)?;
        self.push_val(ty);
        Ok(())
    }

    fn mem_store(&mut self, ty: ValType) -> VResult<()> {
        self.require_memory()?;
        self.pop_expect(ty)?;
        self.pop_expect(ValType::I32)?;
        Ok(())
    }
}

const I32_: ValType = ValType::I32;
const I64_: ValType = ValType::I64;

/// Signature of pure numeric instructions (no immediates, no memory).
/// Shared with [`crate::compile`], whose static height tracking must agree
/// with the checker's.
pub(crate) fn numeric_sig(i: &Instr) -> Option<(&'static [ValType], &'static [ValType])> {
    use Instr::*;
    Some(match i {
        I32Eqz => (&[I32_], &[I32_]),
        I32Add | I32Sub | I32Mul | I32And | I32Xor | I32Shl | I32ShrU | I32Eq | I32LtS
        | I32LtU | I32LeU | I32GeU => (&[I32_, I32_], &[I32_]),
        I32WrapI64 => (&[I64_], &[I32_]),
        I64ExtendI32U => (&[I32_], &[I64_]),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::{FuncType, Value};

    fn check(b: ModuleBuilder) -> VResult<()> {
        validate(&b.build_unchecked())
    }

    #[test]
    fn well_typed_arithmetic_passes() {
        check(ModuleBuilder::new().func(
            FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
            [],
            [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
        ))
        .unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([ValType::I32, ValType::I64], [ValType::I32]),
            [],
            [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
        ))
        .unwrap_err();
        assert!(err.message().contains("expected i32"));
    }

    #[test]
    fn stack_underflow_rejected() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I32]),
            [],
            [Instr::I32Add],
        ))
        .unwrap_err();
        assert!(err.message().contains("underflow"));
    }

    #[test]
    fn leftover_values_rejected() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], []),
            [],
            [Instr::I32Const(1)],
        ))
        .unwrap_err();
        assert!(err.message().contains("extra value"));
    }

    #[test]
    fn unreachable_code_is_polymorphic() {
        // After `unreachable`, any instruction sequence type-checks.
        check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I64]),
            [],
            [Instr::Unreachable, Instr::I32Add, Instr::Drop],
        ))
        .unwrap();
    }

    #[test]
    fn branch_carries_block_result() {
        check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I32]),
            [],
            [Instr::Block(
                BlockType::Value(ValType::I32),
                vec![Instr::I32Const(7), Instr::Br(0)],
            )],
        ))
        .unwrap();
    }

    #[test]
    fn branch_to_loop_carries_nothing() {
        check(ModuleBuilder::new().func(
            FuncType::new([], []),
            [ValType::I32],
            [Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I32Const(1),
                    Instr::I32Sub,
                    Instr::LocalTee(0),
                    Instr::BrIf(0),
                ],
            )],
        ))
        .unwrap();
    }

    #[test]
    fn if_without_else_must_be_empty_typed() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I32]),
            [],
            [
                Instr::I32Const(1),
                Instr::If(BlockType::Value(ValType::I32), vec![Instr::I32Const(2)], vec![]),
            ],
        ))
        .unwrap_err();
        assert!(err.message().contains("underflow"));
    }

    #[test]
    fn if_arms_must_agree() {
        check(ModuleBuilder::new().func(
            FuncType::new([ValType::I32], [ValType::I32]),
            [],
            [
                Instr::LocalGet(0),
                Instr::If(
                    BlockType::Value(ValType::I32),
                    vec![Instr::I32Const(1)],
                    vec![Instr::I32Const(2)],
                ),
            ],
        ))
        .unwrap();
    }

    #[test]
    fn call_checks_signature() {
        let b = ModuleBuilder::new()
            .import_func("env", "h", FuncType::new([ValType::I64], [ValType::I32]))
            .func(
                FuncType::new([], [ValType::I32]),
                [],
                [Instr::I64Const(1), Instr::Call(0)],
            );
        check(b).unwrap();

        let bad = ModuleBuilder::new()
            .import_func("env", "h", FuncType::new([ValType::I64], [ValType::I32]))
            .func(
                FuncType::new([], [ValType::I32]),
                [],
                [Instr::I32Const(1), Instr::Call(0)],
            );
        assert!(check(bad).is_err());
    }

    #[test]
    fn call_to_unknown_function_rejected() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], []),
            [],
            [Instr::Call(9)],
        ))
        .unwrap_err();
        assert!(err.message().contains("unknown function"));
    }

    #[test]
    fn memory_ops_require_memory() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I32]),
            [],
            [Instr::I32Const(0), Instr::I32Load(Default::default())],
        ))
        .unwrap_err();
        assert!(err.message().contains("requires a memory"));
    }

    #[test]
    fn immutable_global_set_rejected() {
        let err = check(
            ModuleBuilder::new()
                .global(ValType::I32, false, Value::I32(1))
                .func(
                    FuncType::new([], []),
                    [],
                    [Instr::I32Const(2), Instr::GlobalSet(0)],
                ),
        )
        .unwrap_err();
        assert!(err.message().contains("immutable"));
    }

    #[test]
    fn select_arms_must_match() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], [ValType::I32]),
            [],
            [
                Instr::I32Const(1),
                Instr::I64Const(2),
                Instr::I32Const(0),
                Instr::Select,
            ],
        ))
        .unwrap_err();
        assert!(err.message().contains("select"));
    }

    #[test]
    fn data_segment_must_fit_initial_memory() {
        let err = check(
            ModuleBuilder::new().memory(1, None).data(PAGE as u32 - 2, vec![0; 4]),
        )
        .unwrap_err();
        assert!(err.message().contains("exceeds initial memory"));
    }

    #[test]
    fn duplicate_export_names_rejected() {
        let err = check(
            ModuleBuilder::new()
                .func(FuncType::new([], []), [], [])
                .export_func("f", 0)
                .export_func("f", 0),
        )
        .unwrap_err();
        assert!(err.message().contains("duplicate"));
    }

    #[test]
    fn start_must_be_nullary() {
        let err = check(
            ModuleBuilder::new()
                .func(FuncType::new([ValType::I32], []), [], [Instr::LocalGet(0), Instr::Drop])
                .start(0),
        )
        .unwrap_err();
        assert!(err.message().contains("start"));
    }

    #[test]
    fn bad_branch_depth_rejected() {
        let err = check(ModuleBuilder::new().func(
            FuncType::new([], []),
            [],
            [Instr::Br(5)],
        ))
        .unwrap_err();
        assert!(err.message().contains("depth"));
    }

    #[test]
    fn nesting_limit_applies_to_built_modules_too() {
        // `ModuleBuilder` bypasses the decoder, so the validator holds the
        // same line before the lowering recurses over the body.
        let nested = |depth: usize| {
            let body = (0..depth).fold(vec![], |inner, level| match level % 3 {
                0 => vec![Instr::Block(BlockType::Empty, inner)],
                1 => vec![Instr::Loop(BlockType::Empty, inner)],
                _ => vec![Instr::I32Const(0), Instr::If(BlockType::Empty, vec![], inner)],
            });
            ModuleBuilder::new().func(FuncType::new([], []), [], body)
        };
        check(nested(MAX_NESTING)).unwrap();
        let err = check(nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message().contains("nested deeper"), "{err}");
    }
}
