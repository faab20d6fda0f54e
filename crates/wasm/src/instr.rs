//! The instruction set: a structured AST over the MVP integer subset plus
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

    // --------------------------------------------------------- conversions
    /// Truncate `i64` to `i32`.
    I32WrapI64,
    /// Sign-extend `i32` to `i64`.
    I64ExtendI32S,
    /// Zero-extend `i32` to `i64`.
    I64ExtendI32U,
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
