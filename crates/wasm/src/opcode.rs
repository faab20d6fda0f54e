//! Opcode table shared by the encoder and decoder.
//!
//! Parameterless instructions and loads/stores are generated from two
//! tables so the two directions can never drift apart; the other
//! instructions with immediates are handled explicitly in
//! `encode`/`decode`. Only integer opcodes appear: a float opcode is in
//! neither table, so the decoder refuses it as unsupported.

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
    Nop => 0x01,
    Return => 0x0F,
    Drop => 0x1A,
    Select => 0x1B,
    I32Eqz => 0x45,
    I32Eq => 0x46,
    I32Ne => 0x47,
    I32LtS => 0x48,
    I32LtU => 0x49,
    I32GtS => 0x4A,
    I32GtU => 0x4B,
    I32LeS => 0x4C,
    I32LeU => 0x4D,
    I32GeS => 0x4E,
    I32GeU => 0x4F,
    I64Eqz => 0x50,
    I64Eq => 0x51,
    I64Ne => 0x52,
    I64LtS => 0x53,
    I64LtU => 0x54,
    I64GtS => 0x55,
    I64GtU => 0x56,
    I64LeS => 0x57,
    I64LeU => 0x58,
    I64GeS => 0x59,
    I64GeU => 0x5A,
    I32Clz => 0x67,
    I32Ctz => 0x68,
    I32Popcnt => 0x69,
    I32Add => 0x6A,
    I32Sub => 0x6B,
    I32Mul => 0x6C,
    I32DivS => 0x6D,
    I32DivU => 0x6E,
    I32RemS => 0x6F,
    I32RemU => 0x70,
    I32And => 0x71,
    I32Or => 0x72,
    I32Xor => 0x73,
    I32Shl => 0x74,
    I32ShrS => 0x75,
    I32ShrU => 0x76,
    I32Rotl => 0x77,
    I32Rotr => 0x78,
    I64Clz => 0x79,
    I64Ctz => 0x7A,
    I64Popcnt => 0x7B,
    I64Add => 0x7C,
    I64Sub => 0x7D,
    I64Mul => 0x7E,
    I64DivS => 0x7F,
    I64DivU => 0x80,
    I64RemS => 0x81,
    I64RemU => 0x82,
    I64And => 0x83,
    I64Or => 0x84,
    I64Xor => 0x85,
    I64Shl => 0x86,
    I64ShrS => 0x87,
    I64ShrU => 0x88,
    I64Rotl => 0x89,
    I64Rotr => 0x8A,
    I32WrapI64 => 0xA7,
    I64ExtendI32S => 0xAC,
    I64ExtendI32U => 0xAD,
}

pub(crate) const OP_BLOCK: u8 = 0x02;
pub(crate) const OP_LOOP: u8 = 0x03;
pub(crate) const OP_IF: u8 = 0x04;
pub(crate) const OP_ELSE: u8 = 0x05;
pub(crate) const OP_END: u8 = 0x0B;
pub(crate) const OP_BR: u8 = 0x0C;
pub(crate) const OP_BR_IF: u8 = 0x0D;
pub(crate) const OP_BR_TABLE: u8 = 0x0E;
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
pub(crate) const OP_PREFIX_FC: u8 = 0xFC;
pub(crate) const FC_MEMORY_COPY: u32 = 10;
pub(crate) const FC_MEMORY_FILL: u32 = 11;

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
    I32Load8S => 0x2C,
    I32Load8U => 0x2D,
    I32Load16S => 0x2E,
    I32Load16U => 0x2F,
    I64Load8S => 0x30,
    I64Load8U => 0x31,
    I64Load16S => 0x32,
    I64Load16U => 0x33,
    I64Load32S => 0x34,
    I64Load32U => 0x35,
    I32Store => 0x36,
    I64Store => 0x37,
    I32Store8 => 0x3A,
    I32Store16 => 0x3B,
    I64Store8 => 0x3C,
    I64Store16 => 0x3D,
    I64Store32 => 0x3E,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // The MVP's 23 loads and stores less the four float ones.
        assert_eq!(ops, 19);
    }

    #[test]
    fn control_opcodes_not_in_simple_table() {
        assert!(simple_from_opcode(OP_BLOCK).is_none());
        assert!(simple_from_opcode(OP_CALL).is_none());
        assert!(simple_from_opcode(OP_I32_CONST).is_none());
    }
}
