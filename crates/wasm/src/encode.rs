//! Binary encoder: [`Module`] → WebAssembly binary format.
//!
//! Emits the standard section layout (magic, version, sections 1–11) for
//! the reproduced subset. Artifacts produced here are what the platform
//! stores in function bundles and what cold-start measurements load.

use crate::instr::{BlockType, Instr};
use crate::leb;
use crate::module::{ExportKind, Module};
use crate::opcode::*;
use crate::types::{FuncType, Limits, Value};

/// The 8-byte preamble: `\0asm` + version 1.
pub const PREAMBLE: [u8; 8] = [0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00];

/// Encodes `module` into the binary format.
///
/// ```
/// # use roadrunner_wasm::{ModuleBuilder, encode};
/// let module = ModuleBuilder::new().build().unwrap();
/// let bytes = encode::encode(&module);
/// assert_eq!(&bytes[0..4], b"\0asm");
/// ```
pub fn encode(module: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&PREAMBLE);

    // Section 1: types.
    if !module.types.is_empty() {
        section(&mut out, 1, |buf| {
            leb::write_u32(buf, module.types.len() as u32);
            for ty in &module.types {
                encode_functype(buf, ty);
            }
        });
    }

    // Section 2: imports (host functions only in this subset).
    if !module.imports.is_empty() {
        section(&mut out, 2, |buf| {
            leb::write_u32(buf, module.imports.len() as u32);
            for import in &module.imports {
                name(buf, &import.module);
                name(buf, &import.name);
                buf.push(0x00); // func import
                leb::write_u32(buf, import.type_idx);
            }
        });
    }

    // Section 3: function type indices.
    if !module.funcs.is_empty() {
        section(&mut out, 3, |buf| {
            leb::write_u32(buf, module.funcs.len() as u32);
            for f in &module.funcs {
                leb::write_u32(buf, f.type_idx);
            }
        });
    }

    // Section 5: memory.
    if let Some(limits) = module.memory {
        section(&mut out, 5, |buf| {
            leb::write_u32(buf, 1);
            encode_limits(buf, limits);
        });
    }

    // Section 6: globals.
    if !module.globals.is_empty() {
        section(&mut out, 6, |buf| {
            leb::write_u32(buf, module.globals.len() as u32);
            for g in &module.globals {
                buf.push(g.ty.to_byte());
                buf.push(if g.mutable { 0x01 } else { 0x00 });
                encode_const_expr(buf, g.init);
            }
        });
    }

    // Section 7: exports.
    if !module.exports.is_empty() {
        section(&mut out, 7, |buf| {
            leb::write_u32(buf, module.exports.len() as u32);
            for e in &module.exports {
                name(buf, &e.name);
                match e.kind {
                    ExportKind::Func(idx) => {
                        buf.push(0x00);
                        leb::write_u32(buf, idx);
                    }
                    ExportKind::Memory => {
                        buf.push(0x02);
                        leb::write_u32(buf, 0);
                    }
                    ExportKind::Global(idx) => {
                        buf.push(0x03);
                        leb::write_u32(buf, idx);
                    }
                }
            }
        });
    }

    // Section 8: start.
    if let Some(start) = module.start {
        section(&mut out, 8, |buf| {
            leb::write_u32(buf, start);
        });
    }

    // Section 10: code.
    if !module.funcs.is_empty() {
        section(&mut out, 10, |buf| {
            leb::write_u32(buf, module.funcs.len() as u32);
            for f in &module.funcs {
                let mut body = Vec::new();
                encode_locals(&mut body, &f.locals);
                for instr in &f.body {
                    encode_instr(&mut body, instr);
                }
                body.push(OP_END);
                leb::write_u32(buf, body.len() as u32);
                buf.extend_from_slice(&body);
            }
        });
    }

    // Section 11: data.
    if !module.data.is_empty() {
        section(&mut out, 11, |buf| {
            leb::write_u32(buf, module.data.len() as u32);
            for seg in &module.data {
                leb::write_u32(buf, 0); // memory index
                encode_const_expr(buf, Value::I32(seg.offset as i32));
                leb::write_u32(buf, seg.bytes.len() as u32);
                buf.extend_from_slice(&seg.bytes);
            }
        });
    }

    out
}

fn section(out: &mut Vec<u8>, id: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let mut buf = Vec::new();
    fill(&mut buf);
    out.push(id);
    leb::write_u32(out, buf.len() as u32);
    out.extend_from_slice(&buf);
}

fn name(out: &mut Vec<u8>, s: &str) {
    leb::write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn encode_functype(out: &mut Vec<u8>, ty: &FuncType) {
    out.push(0x60);
    leb::write_u32(out, ty.params().len() as u32);
    for p in ty.params() {
        out.push(p.to_byte());
    }
    leb::write_u32(out, ty.results().len() as u32);
    for r in ty.results() {
        out.push(r.to_byte());
    }
}

fn encode_limits(out: &mut Vec<u8>, limits: Limits) {
    match limits.max {
        None => {
            out.push(0x00);
            leb::write_u32(out, limits.min);
        }
        Some(max) => {
            out.push(0x01);
            leb::write_u32(out, limits.min);
            leb::write_u32(out, max);
        }
    }
}

fn encode_const_expr(out: &mut Vec<u8>, value: Value) {
    match value {
        Value::I32(v) => {
            out.push(OP_I32_CONST);
            leb::write_i32(out, v);
        }
        Value::I64(v) => {
            out.push(OP_I64_CONST);
            leb::write_i64(out, v);
        }
    }
    out.push(OP_END);
}

fn encode_locals(out: &mut Vec<u8>, locals: &[crate::types::ValType]) {
    // Run-length compress consecutive identical local types, as the
    // binary format requires.
    let mut runs: Vec<(u32, crate::types::ValType)> = Vec::new();
    for &ty in locals {
        match runs.last_mut() {
            Some((count, last)) if *last == ty => *count += 1,
            _ => runs.push((1, ty)),
        }
    }
    leb::write_u32(out, runs.len() as u32);
    for (count, ty) in runs {
        leb::write_u32(out, count);
        out.push(ty.to_byte());
    }
}

fn encode_blocktype(out: &mut Vec<u8>, bt: BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(ty) => out.push(ty.to_byte()),
    }
}

/// Encodes one instruction (recursing into nested blocks).
pub(crate) fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
    if let Some(op) = simple_opcode(instr) {
        out.push(op);
        return;
    }
    if let Some((op, m)) = memop_opcode(instr) {
        out.push(op);
        leb::write_u32(out, m.align);
        leb::write_u32(out, m.offset);
        return;
    }
    match instr {
        Instr::Block(bt, body) => {
            out.push(OP_BLOCK);
            encode_blocktype(out, *bt);
            for i in body {
                encode_instr(out, i);
            }
            out.push(OP_END);
        }
        Instr::Loop(bt, body) => {
            out.push(OP_LOOP);
            encode_blocktype(out, *bt);
            for i in body {
                encode_instr(out, i);
            }
            out.push(OP_END);
        }
        Instr::If(bt, then, els) => {
            out.push(OP_IF);
            encode_blocktype(out, *bt);
            for i in then {
                encode_instr(out, i);
            }
            if !els.is_empty() {
                out.push(OP_ELSE);
                for i in els {
                    encode_instr(out, i);
                }
            }
            out.push(OP_END);
        }
        Instr::Br(depth) => {
            out.push(OP_BR);
            leb::write_u32(out, *depth);
        }
        Instr::BrIf(depth) => {
            out.push(OP_BR_IF);
            leb::write_u32(out, *depth);
        }
        Instr::Call(idx) => {
            out.push(OP_CALL);
            leb::write_u32(out, *idx);
        }
        Instr::LocalGet(i) => {
            out.push(OP_LOCAL_GET);
            leb::write_u32(out, *i);
        }
        Instr::LocalSet(i) => {
            out.push(OP_LOCAL_SET);
            leb::write_u32(out, *i);
        }
        Instr::LocalTee(i) => {
            out.push(OP_LOCAL_TEE);
            leb::write_u32(out, *i);
        }
        Instr::GlobalGet(i) => {
            out.push(OP_GLOBAL_GET);
            leb::write_u32(out, *i);
        }
        Instr::GlobalSet(i) => {
            out.push(OP_GLOBAL_SET);
            leb::write_u32(out, *i);
        }
        Instr::MemorySize => {
            out.push(OP_MEMORY_SIZE);
            out.push(0x00);
        }
        Instr::MemoryGrow => {
            out.push(OP_MEMORY_GROW);
            out.push(0x00);
        }
        Instr::I32Const(v) => {
            out.push(OP_I32_CONST);
            leb::write_i32(out, *v);
        }
        Instr::I64Const(v) => {
            out.push(OP_I64_CONST);
            leb::write_i64(out, *v);
        }
        other => unreachable!("instruction {other:?} not covered by opcode tables"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    #[test]
    fn empty_module_is_just_preamble() {
        let m = ModuleBuilder::new().build().unwrap();
        assert_eq!(encode(&m), PREAMBLE.to_vec());
    }

    #[test]
    fn preamble_is_standard() {
        assert_eq!(&PREAMBLE[0..4], b"\0asm");
        assert_eq!(&PREAMBLE[4..8], &[1, 0, 0, 0]);
    }

    #[test]
    fn locals_are_run_length_encoded() {
        let mut out = Vec::new();
        encode_locals(
            &mut out,
            &[ValType::I32, ValType::I32, ValType::I64, ValType::I32],
        );
        // 3 runs: (2 × i32), (1 × i64), (1 × i32).
        assert_eq!(out, vec![3, 2, 0x7F, 1, 0x7E, 1, 0x7F]);
    }

    #[test]
    fn if_without_else_omits_else_opcode() {
        let mut out = Vec::new();
        encode_instr(
            &mut out,
            &Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![]),
        );
        assert!(!out.contains(&OP_ELSE));
        let mut out2 = Vec::new();
        encode_instr(
            &mut out2,
            &Instr::If(BlockType::Empty, vec![Instr::Unreachable], vec![Instr::Unreachable]),
        );
        assert!(out2.contains(&OP_ELSE));
    }
}
