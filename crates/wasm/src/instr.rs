//! The instruction set: a structured AST over the MVP numeric subset plus
//! the bulk-memory operations (`memory.copy`, `memory.fill`) that guests
//! use for efficient data movement.
//!
//! Bodies are kept as trees (blocks contain their instructions) rather
//! than a flat stream with jump targets; the binary codec flattens and
//! re-builds this structure, validation type-checks it, and the engine
//! lowers it once per module to the flat code its interpreter runs.

use crate::types::ValType;

/// Deepest `block`/`loop`/`if` nesting a function body may have (a body
/// with no blocks has depth 0). Every pass over the tree — decode,
/// validate, lower, drop — recurses once per level, so the decoder and
/// the validator both refuse deeper bodies; compilers emit tens.
pub(crate) const MAX_NESTING: usize = 200;

/// The result type of a block/loop/if (MVP: at most one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockType {
    /// No result.
    Empty,
    /// One result of the given type.
    Value(ValType),
}

impl BlockType {
    /// Result arity (0 or 1).
    pub fn arity(&self) -> usize {
        match self {
            BlockType::Empty => 0,
            BlockType::Value(_) => 1,
        }
    }
}

/// Static offset/alignment immediate of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// Alignment exponent (2^align bytes); a hint, not enforced.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// Zero offset, natural alignment for `width` bytes.
    pub fn natural(width: u32) -> Self {
        Self { align: width.trailing_zeros(), offset: 0 }
    }

    /// Given offset, alignment 0.
    pub fn offset(offset: u32) -> Self {
        Self { align: 0, offset }
    }
}

/// One WebAssembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ------------------------------------------------------------ control
    /// Trap unconditionally.
    Unreachable,
    /// Do nothing.
    Nop,
    /// A block: branches to it jump *forward* to its end.
    Block(BlockType, Vec<Instr>),
    /// A loop: branches to it jump *back* to its start.
    Loop(BlockType, Vec<Instr>),
    /// Two-armed conditional; the condition is popped as `i32`.
    If(BlockType, Vec<Instr>, Vec<Instr>),
    /// Unconditional branch to the `n`-th enclosing block.
    Br(u32),
    /// Conditional branch.
    BrIf(u32),
    /// Indexed branch: `(targets, default)`.
    BrTable(Vec<u32>, u32),
    /// Return from the current function.
    Return,
    /// Direct call by function index (imports precede module functions).
    Call(u32),

    // --------------------------------------------------------- parametric
    /// Pop and discard one value.
    Drop,
    /// Pop condition and two values, push one of them.
    Select,

    // ---------------------------------------------------------- variables
    /// Push a local.
    LocalGet(u32),
    /// Pop into a local.
    LocalSet(u32),
    /// Copy the top of stack into a local.
    LocalTee(u32),
    /// Push a global.
    GlobalGet(u32),
    /// Pop into a (mutable) global.
    GlobalSet(u32),

    // ------------------------------------------------------------- memory
    /// Load 4 bytes as `i32`.
    I32Load(MemArg),
    /// Load 8 bytes as `i64`.
    I64Load(MemArg),
    /// Load 4 bytes as `f32`.
    F32Load(MemArg),
    /// Load 8 bytes as `f64`.
    F64Load(MemArg),
    /// Load 1 byte, sign-extend to `i32`.
    I32Load8S(MemArg),
    /// Load 1 byte, zero-extend to `i32`.
    I32Load8U(MemArg),
    /// Load 2 bytes, sign-extend to `i32`.
    I32Load16S(MemArg),
    /// Load 2 bytes, zero-extend to `i32`.
    I32Load16U(MemArg),
    /// Load 1 byte, sign-extend to `i64`.
    I64Load8S(MemArg),
    /// Load 1 byte, zero-extend to `i64`.
    I64Load8U(MemArg),
    /// Load 2 bytes, sign-extend to `i64`.
    I64Load16S(MemArg),
    /// Load 2 bytes, zero-extend to `i64`.
    I64Load16U(MemArg),
    /// Load 4 bytes, sign-extend to `i64`.
    I64Load32S(MemArg),
    /// Load 4 bytes, zero-extend to `i64`.
    I64Load32U(MemArg),
    /// Store 4 bytes from `i32`.
    I32Store(MemArg),
    /// Store 8 bytes from `i64`.
    I64Store(MemArg),
    /// Store 4 bytes from `f32`.
    F32Store(MemArg),
    /// Store 8 bytes from `f64`.
    F64Store(MemArg),
    /// Store the low byte of `i32`.
    I32Store8(MemArg),
    /// Store the low 2 bytes of `i32`.
    I32Store16(MemArg),
    /// Store the low byte of `i64`.
    I64Store8(MemArg),
    /// Store the low 2 bytes of `i64`.
    I64Store16(MemArg),
    /// Store the low 4 bytes of `i64`.
    I64Store32(MemArg),
    /// Push the current memory size in pages.
    MemorySize,
    /// Grow memory by N pages; push previous size or -1.
    MemoryGrow,
    /// Bulk copy within linear memory (dst, src, len).
    MemoryCopy,
    /// Bulk fill of linear memory (dst, byte, len).
    MemoryFill,

    // ------------------------------------------------------------- consts
    /// Push a constant `i32`.
    I32Const(i32),
    /// Push a constant `i64`.
    I64Const(i64),
    /// Push a constant `f32`.
    F32Const(f32),
    /// Push a constant `f64`.
    F64Const(f64),

    // -------------------------------------------------- i32 comparisons
    /// `i32` equals zero.
    I32Eqz,
    /// `i32` equality.
    I32Eq,
    /// `i32` inequality.
    I32Ne,
    /// `i32` signed less-than.
    I32LtS,
    /// `i32` unsigned less-than.
    I32LtU,
    /// `i32` signed greater-than.
    I32GtS,
    /// `i32` unsigned greater-than.
    I32GtU,
    /// `i32` signed ≤.
    I32LeS,
    /// `i32` unsigned ≤.
    I32LeU,
    /// `i32` signed ≥.
    I32GeS,
    /// `i32` unsigned ≥.
    I32GeU,

    // -------------------------------------------------- i64 comparisons
    /// `i64` equals zero.
    I64Eqz,
    /// `i64` equality.
    I64Eq,
    /// `i64` inequality.
    I64Ne,
    /// `i64` signed less-than.
    I64LtS,
    /// `i64` unsigned less-than.
    I64LtU,
    /// `i64` signed greater-than.
    I64GtS,
    /// `i64` unsigned greater-than.
    I64GtU,
    /// `i64` signed ≤.
    I64LeS,
    /// `i64` unsigned ≤.
    I64LeU,
    /// `i64` signed ≥.
    I64GeS,
    /// `i64` unsigned ≥.
    I64GeU,

    // -------------------------------------------------- f32 comparisons
    /// `f32` equality.
    F32Eq,
    /// `f32` inequality.
    F32Ne,
    /// `f32` less-than.
    F32Lt,
    /// `f32` greater-than.
    F32Gt,
    /// `f32` ≤.
    F32Le,
    /// `f32` ≥.
    F32Ge,

    // -------------------------------------------------- f64 comparisons
    /// `f64` equality.
    F64Eq,
    /// `f64` inequality.
    F64Ne,
    /// `f64` less-than.
    F64Lt,
    /// `f64` greater-than.
    F64Gt,
    /// `f64` ≤.
    F64Le,
    /// `f64` ≥.
    F64Ge,

    // ---------------------------------------------------- i32 arithmetic
    /// Count leading zeros.
    I32Clz,
    /// Count trailing zeros.
    I32Ctz,
    /// Population count.
    I32Popcnt,
    /// Wrapping addition.
    I32Add,
    /// Wrapping subtraction.
    I32Sub,
    /// Wrapping multiplication.
    I32Mul,
    /// Signed division (traps on /0 and overflow).
    I32DivS,
    /// Unsigned division (traps on /0).
    I32DivU,
    /// Signed remainder (traps on /0).
    I32RemS,
    /// Unsigned remainder (traps on /0).
    I32RemU,
    /// Bitwise and.
    I32And,
    /// Bitwise or.
    I32Or,
    /// Bitwise xor.
    I32Xor,
    /// Shift left.
    I32Shl,
    /// Arithmetic shift right.
    I32ShrS,
    /// Logical shift right.
    I32ShrU,
    /// Rotate left.
    I32Rotl,
    /// Rotate right.
    I32Rotr,

    // ---------------------------------------------------- i64 arithmetic
    /// Count leading zeros.
    I64Clz,
    /// Count trailing zeros.
    I64Ctz,
    /// Population count.
    I64Popcnt,
    /// Wrapping addition.
    I64Add,
    /// Wrapping subtraction.
    I64Sub,
    /// Wrapping multiplication.
    I64Mul,
    /// Signed division (traps on /0 and overflow).
    I64DivS,
    /// Unsigned division (traps on /0).
    I64DivU,
    /// Signed remainder (traps on /0).
    I64RemS,
    /// Unsigned remainder (traps on /0).
    I64RemU,
    /// Bitwise and.
    I64And,
    /// Bitwise or.
    I64Or,
    /// Bitwise xor.
    I64Xor,
    /// Shift left.
    I64Shl,
    /// Arithmetic shift right.
    I64ShrS,
    /// Logical shift right.
    I64ShrU,
    /// Rotate left.
    I64Rotl,
    /// Rotate right.
    I64Rotr,

    // ---------------------------------------------------- f32 arithmetic
    /// Absolute value.
    F32Abs,
    /// Negation.
    F32Neg,
    /// Round up.
    F32Ceil,
    /// Round down.
    F32Floor,
    /// Round toward zero.
    F32Trunc,
    /// Round to nearest even.
    F32Nearest,
    /// Square root.
    F32Sqrt,
    /// Addition.
    F32Add,
    /// Subtraction.
    F32Sub,
    /// Multiplication.
    F32Mul,
    /// Division.
    F32Div,
    /// Minimum (NaN-propagating).
    F32Min,
    /// Maximum (NaN-propagating).
    F32Max,
    /// Copy sign.
    F32Copysign,

    // ---------------------------------------------------- f64 arithmetic
    /// Absolute value.
    F64Abs,
    /// Negation.
    F64Neg,
    /// Round up.
    F64Ceil,
    /// Round down.
    F64Floor,
    /// Round toward zero.
    F64Trunc,
    /// Round to nearest even.
    F64Nearest,
    /// Square root.
    F64Sqrt,
    /// Addition.
    F64Add,
    /// Subtraction.
    F64Sub,
    /// Multiplication.
    F64Mul,
    /// Division.
    F64Div,
    /// Minimum (NaN-propagating).
    F64Min,
    /// Maximum (NaN-propagating).
    F64Max,
    /// Copy sign.
    F64Copysign,

    // --------------------------------------------------------- conversions
    /// Truncate `i64` to `i32`.
    I32WrapI64,
    /// `f32` → `i32` signed (traps on NaN/overflow).
    I32TruncF32S,
    /// `f32` → `i32` unsigned (traps on NaN/overflow).
    I32TruncF32U,
    /// `f64` → `i32` signed (traps on NaN/overflow).
    I32TruncF64S,
    /// `f64` → `i32` unsigned (traps on NaN/overflow).
    I32TruncF64U,
    /// Sign-extend `i32` to `i64`.
    I64ExtendI32S,
    /// Zero-extend `i32` to `i64`.
    I64ExtendI32U,
    /// `f32` → `i64` signed (traps on NaN/overflow).
    I64TruncF32S,
    /// `f32` → `i64` unsigned (traps on NaN/overflow).
    I64TruncF32U,
    /// `f64` → `i64` signed (traps on NaN/overflow).
    I64TruncF64S,
    /// `f64` → `i64` unsigned (traps on NaN/overflow).
    I64TruncF64U,
    /// `i32` signed → `f32`.
    F32ConvertI32S,
    /// `i32` unsigned → `f32`.
    F32ConvertI32U,
    /// `i64` signed → `f32`.
    F32ConvertI64S,
    /// `i64` unsigned → `f32`.
    F32ConvertI64U,
    /// `f64` → `f32`.
    F32DemoteF64,
    /// `i32` signed → `f64`.
    F64ConvertI32S,
    /// `i32` unsigned → `f64`.
    F64ConvertI32U,
    /// `i64` signed → `f64`.
    F64ConvertI64S,
    /// `i64` unsigned → `f64`.
    F64ConvertI64U,
    /// `f32` → `f64`.
    F64PromoteF32,
    /// Bit-cast `f32` → `i32`.
    I32ReinterpretF32,
    /// Bit-cast `f64` → `i64`.
    I64ReinterpretF64,
    /// Bit-cast `i32` → `f32`.
    F32ReinterpretI32,
    /// Bit-cast `i64` → `f64`.
    F64ReinterpretI64,
}

impl Instr {
    /// Counts this instruction plus all instructions nested inside it —
    /// used by module statistics and fuel estimation.
    pub fn size(&self) -> usize {
        match self {
            Instr::Block(_, body) | Instr::Loop(_, body) => {
                1 + body.iter().map(Instr::size).sum::<usize>()
            }
            Instr::If(_, then, els) => {
                1 + then.iter().map(Instr::size).sum::<usize>()
                    + els.iter().map(Instr::size).sum::<usize>()
            }
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_counts_nested_instructions() {
        let i = Instr::Block(
            BlockType::Empty,
            vec![
                Instr::I32Const(1),
                Instr::If(
                    BlockType::Empty,
                    vec![Instr::Nop, Instr::Nop],
                    vec![Instr::Unreachable],
                ),
            ],
        );
        assert_eq!(i.size(), 6);
        assert_eq!(Instr::Nop.size(), 1);
    }

    #[test]
    fn block_type_arity() {
        assert_eq!(BlockType::Empty.arity(), 0);
        assert_eq!(BlockType::Value(ValType::I64).arity(), 1);
    }

    #[test]
    fn memarg_constructors() {
        assert_eq!(MemArg::natural(4).align, 2);
        assert_eq!(MemArg::natural(8).align, 3);
        assert_eq!(MemArg::offset(16).offset, 16);
        assert_eq!(MemArg::default().offset, 0);
    }
}
