//! The instruction set: a structured AST over the 39 integer
//! instructions the tree's modules emit. `i64` values are loaded,
//! stored, made by `const` and converted to and from `i32`; every
//! computation runs in `i32`.
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

/// One WebAssembly instruction: the 39 that the tree's modules emit (the
/// guests of `roadrunner-core`, `bench_wasm`'s kernels and the WASI
/// host's tests), and no others — a module using any other opcode is
/// refused by the decoder at that byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ------------------------------------------------------------ control
    /// Trap unconditionally.
    Unreachable,
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
    /// Load 1 byte, zero-extend to `i32`.
    I32Load8U(MemArg),
    /// Store 4 bytes from `i32`.
    I32Store(MemArg),
    /// Store 8 bytes from `i64`.
    I64Store(MemArg),
    /// Store the low byte of `i32`.
    I32Store8(MemArg),
    /// Push the current memory size in pages.
    MemorySize,
    /// Grow memory by N pages; push previous size or -1.
    MemoryGrow,

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
    /// `i32` signed less-than.
    I32LtS,
    /// `i32` unsigned less-than.
    I32LtU,
    /// `i32` unsigned ≤.
    I32LeU,
    /// `i32` unsigned ≥.
    I32GeU,

    // ---------------------------------------------------- i32 arithmetic
    /// Wrapping addition.
    I32Add,
    /// Wrapping subtraction.
    I32Sub,
    /// Wrapping multiplication.
    I32Mul,
    /// Bitwise and.
    I32And,
    /// Bitwise xor.
    I32Xor,
    /// Shift left.
    I32Shl,
    /// Logical shift right.
    I32ShrU,

    // --------------------------------------------------------- conversions
    /// Truncate `i64` to `i32`.
    I32WrapI64,
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
                    vec![Instr::Drop, Instr::Drop],
                    vec![Instr::Unreachable],
                ),
            ],
        );
        assert_eq!(i.size(), 6);
        assert_eq!(Instr::Drop.size(), 1);
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
