//! Opcode table shared by the encoder and decoder.
//!
//! Parameterless instructions and loads/stores are generated from two
//! tables so the two directions can never drift apart; the other
//! instructions with immediates are handled explicitly in
//! `encode`/`decode`. Only the opcodes of the 39 instructions the
//! tree's modules emit appear: any other opcode (a float one, an `i64`
//! computation, division, `br_table`, the `0xFC` prefix) is in neither
//! table nor among the explicit ones, so the decoder refuses it at its
//! byte.

use crate::instr::{Instr, MemArg};

macro_rules! simple_ops {
    ($($variant:ident => $opcode:expr),* $(,)?) => {
        /// Returns the opcode of a parameterless instruction.
        pub(crate) fn simple_opcode(i: &Instr) -> Option<u8> {
            match i {
                $(Instr::$variant => Some($opcode),)*
                _ => None,
            }
        }

        /// Builds the parameterless instruction for `opcode`.
        pub(crate) fn simple_from_opcode(b: u8) -> Option<Instr> {
            match b {
                $($opcode => Some(Instr::$variant),)*
                _ => None,
            }
        }
    };
}

simple_ops! {
    Unreachable => 0x00,
    Drop => 0x1A,
    Select => 0x1B,
    I32Eqz => 0x45,
    I32Eq => 0x46,
    I32LtS => 0x48,
    I32LtU => 0x49,
    I32LeU => 0x4D,
    I32GeU => 0x4F,
    I32Add => 0x6A,
    I32Sub => 0x6B,
    I32Mul => 0x6C,
    I32And => 0x71,
    I32Xor => 0x73,
    I32Shl => 0x74,
    I32ShrU => 0x76,
    I32WrapI64 => 0xA7,
    I64ExtendI32U => 0xAD,
}

pub(crate) const OP_BLOCK: u8 = 0x02;
pub(crate) const OP_LOOP: u8 = 0x03;
pub(crate) const OP_IF: u8 = 0x04;
pub(crate) const OP_ELSE: u8 = 0x05;
pub(crate) const OP_END: u8 = 0x0B;
pub(crate) const OP_BR: u8 = 0x0C;
pub(crate) const OP_BR_IF: u8 = 0x0D;
pub(crate) const OP_CALL: u8 = 0x10;
pub(crate) const OP_LOCAL_GET: u8 = 0x20;
pub(crate) const OP_LOCAL_SET: u8 = 0x21;
pub(crate) const OP_LOCAL_TEE: u8 = 0x22;
pub(crate) const OP_GLOBAL_GET: u8 = 0x23;
pub(crate) const OP_GLOBAL_SET: u8 = 0x24;
pub(crate) const OP_MEMORY_SIZE: u8 = 0x3F;
pub(crate) const OP_MEMORY_GROW: u8 = 0x40;
pub(crate) const OP_I32_CONST: u8 = 0x41;
pub(crate) const OP_I64_CONST: u8 = 0x42;

macro_rules! mem_ops {
    ($($variant:ident => $opcode:expr),* $(,)?) => {
        /// Returns `(opcode, memarg)` for a load/store instruction.
        pub(crate) fn memop_opcode(i: &Instr) -> Option<(u8, MemArg)> {
            match i {
                $(Instr::$variant(m) => Some(($opcode, *m)),)*
                _ => None,
            }
        }

        /// The load/store instruction `opcode` builds from its memarg.
        pub(crate) fn memop_from_opcode(b: u8) -> Option<fn(MemArg) -> Instr> {
            match b {
                $($opcode => Some(Instr::$variant),)*
                _ => None,
            }
        }
    };
}

mem_ops! {
    I32Load => 0x28,
    I64Load => 0x29,
    I32Load8U => 0x2D,
    I32Store => 0x36,
    I64Store => 0x37,
    I32Store8 => 0x3A,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Whether the decoder reads `op` as the first byte of an instruction
    /// (or as `else` / `end`): a table holds it, or `decode` matches it
    /// by name.
    pub(crate) fn is_tabled(op: u8) -> bool {
        let explicit = [
            OP_BLOCK, OP_LOOP, OP_IF, OP_ELSE, OP_END, OP_BR, OP_BR_IF, OP_CALL, OP_LOCAL_GET,
            OP_LOCAL_SET, OP_LOCAL_TEE, OP_GLOBAL_GET, OP_GLOBAL_SET, OP_MEMORY_SIZE,
            OP_MEMORY_GROW, OP_I32_CONST, OP_I64_CONST,
        ];
        simple_from_opcode(op).is_some()
            || memop_from_opcode(op).is_some()
            || explicit.contains(&op)
    }

    #[test]
    fn simple_table_round_trips() {
        for op in 0x00u8..=0xFF {
            if let Some(instr) = simple_from_opcode(op) {
                assert_eq!(simple_opcode(&instr), Some(op));
            }
        }
    }

    #[test]
    fn memop_table_round_trips() {
        let m = MemArg { align: 2, offset: 8 };
        let mut ops = 0;
        for op in 0x00u8..=0xFF {
            if let Some(make) = memop_from_opcode(op) {
                assert_eq!(memop_opcode(&make(m)), Some((op, m)));
                ops += 1;
            }
        }
        // `i32` and `i64` whole-width loads and stores, and the byte
        // the guests' pixel loops move.
        assert_eq!(ops, 6);
    }

    #[test]
    fn control_opcodes_not_in_simple_table() {
        assert!(simple_from_opcode(OP_BLOCK).is_none());
        assert!(simple_from_opcode(OP_CALL).is_none());
        assert!(simple_from_opcode(OP_I32_CONST).is_none());
    }
}
