//! Binary decoder: WebAssembly binary format → [`Module`].
//!
//! Accepts artifacts produced by [`crate::encode`] (and any standard
//! binary that stays within the reproduced subset). Structured control
//! flow is rebuilt from the flat opcode stream. The subset is the 39
//! instructions the tree's modules emit ([`Instr`]); anything outside
//! it — float types and opcodes, `i64` arithmetic and compares,
//! division, the narrow loads and stores other than `i32.load8_u` and
//! `i32.store8`, `br_table`, `return`, `nop`, the `0xFC` prefix (bulk
//! memory), tables, element segments, SIMD, reference types — is
//! rejected with an error at the offending byte.

use std::error::Error;
use std::fmt;

use crate::instr::{BlockType, Instr, MemArg, MAX_NESTING};
use crate::leb;
use crate::module::{DataSegment, Export, ExportKind, FuncDef, GlobalDef, Import, Module};
use crate::opcode::*;
use crate::types::{FuncType, Limits, ValType, Value};

/// Error produced when decoding a Wasm binary fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WasmDecodeError {
    offset: usize,
    reason: String,
}

impl WasmDecodeError {
    fn new(offset: usize, reason: impl Into<String>) -> Self {
        Self { offset, reason: reason.into() }
    }

    /// Byte offset at which decoding failed.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Human-readable failure description.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for WasmDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wasm decode error at byte {}: {}", self.offset, self.reason)
    }
}

impl Error for WasmDecodeError {}

/// Decodes a binary into an (unvalidated) [`Module`].
///
/// # Errors
///
/// Returns [`WasmDecodeError`] on malformed input or constructs outside
/// the reproduced subset. Run [`crate::validate::validate`] on the result
/// before instantiating.
pub fn decode(bytes: &[u8]) -> Result<Module, WasmDecodeError> {
    Parser { input: bytes, pos: 0, nesting: 0 }.module()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open `block`/`loop`/`if` constructs around the current position.
    nesting: usize,
}

type PResult<T> = Result<T, WasmDecodeError>;

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> PResult<T> {
        Err(WasmDecodeError::new(self.pos, reason))
    }

    fn byte(&mut self) -> PResult<u8> {
        let b = *self
            .input
            .get(self.pos)
            .ok_or_else(|| WasmDecodeError::new(self.pos, "unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn take(&mut self, len: usize) -> PResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.input.len())
            .ok_or_else(|| WasmDecodeError::new(self.pos, "unexpected end of input"))?;
        let out = &self.input[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> PResult<u32> {
        leb::read_u32(self.input, &mut self.pos)
            .ok_or_else(|| WasmDecodeError::new(self.pos, "bad unsigned LEB128"))
    }

    /// Reads the length of a vector whose elements each occupy at least
    /// one byte, refusing any count the remaining input cannot hold — so
    /// nothing is ever reserved or looped over on the word of a count
    /// alone.
    fn count(&mut self) -> PResult<usize> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > self.input.len() - self.pos {
            return Err(WasmDecodeError::new(at, format!("count {n} exceeds remaining input")));
        }
        Ok(n)
    }

    fn i32(&mut self) -> PResult<i32> {
        leb::read_i32(self.input, &mut self.pos)
            .ok_or_else(|| WasmDecodeError::new(self.pos, "bad signed LEB128"))
    }

    fn i64(&mut self) -> PResult<i64> {
        leb::read_i64(self.input, &mut self.pos)
            .ok_or_else(|| WasmDecodeError::new(self.pos, "bad signed LEB128"))
    }

    fn name(&mut self) -> PResult<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WasmDecodeError::new(self.pos, "name is not UTF-8"))
    }

    fn valtype(&mut self) -> PResult<ValType> {
        let b = self.byte()?;
        ValType::from_byte(b)
            .ok_or_else(|| WasmDecodeError::new(self.pos - 1, format!("bad value type 0x{b:02x}")))
    }

    fn module(mut self) -> PResult<Module> {
        let magic = self.take(8)?;
        if magic != crate::encode::PREAMBLE {
            return Err(WasmDecodeError::new(0, "bad magic or version"));
        }
        let mut module = Module::default();
        let mut last_section = 0u8;
        let mut saw_code = false;
        while self.peek().is_some() {
            let id = self.byte()?;
            let size = self.u32()? as usize;
            let section_end = self
                .pos
                .checked_add(size)
                .filter(|&e| e <= self.input.len())
                .ok_or_else(|| WasmDecodeError::new(self.pos, "section size out of range"))?;
            if id != 0 {
                if id <= last_section {
                    return self.err(format!("section {id} out of order"));
                }
                last_section = id;
            }
            match id {
                0 => {
                    // Custom section: skip (name + payload).
                    self.pos = section_end;
                }
                1 => self.type_section(&mut module)?,
                2 => self.import_section(&mut module)?,
                3 => self.function_section(&mut module)?,
                5 => self.memory_section(&mut module)?,
                6 => self.global_section(&mut module)?,
                7 => self.export_section(&mut module)?,
                8 => module.start = Some(self.u32()?),
                10 => {
                    saw_code = true;
                    self.code_section(&mut module)?;
                }
                11 => self.data_section(&mut module)?,
                4 | 9 => {
                    return self.err("table/element sections are outside the supported subset")
                }
                other => return self.err(format!("unknown section id {other}")),
            }
            if self.pos != section_end {
                return self.err(format!("section {id} size mismatch"));
            }
        }
        if !module.funcs.is_empty() && !saw_code {
            return self.err("function section present without code section");
        }
        Ok(module)
    }

    fn type_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let tag = self.byte()?;
            if tag != 0x60 {
                return self.err(format!("expected functype 0x60, got 0x{tag:02x}"));
            }
            let params = self.valtypes()?;
            let results = self.valtypes()?;
            module.types.push(FuncType::new(params, results));
        }
        Ok(())
    }

    fn valtypes(&mut self) -> PResult<Vec<ValType>> {
        let n = self.count()?;
        let mut types = Vec::with_capacity(n);
        for _ in 0..n {
            types.push(self.valtype()?);
        }
        Ok(types)
    }

    fn import_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let mod_name = self.name()?;
            let field = self.name()?;
            let kind = self.byte()?;
            if kind != 0x00 {
                return self.err("only function imports are supported");
            }
            let type_idx = self.u32()?;
            module.imports.push(Import { module: mod_name, name: field, type_idx });
        }
        Ok(())
    }

    fn function_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let type_idx = self.u32()?;
            module.funcs.push(FuncDef { type_idx, locals: Vec::new(), body: Vec::new() });
        }
        Ok(())
    }

    fn memory_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.u32()?;
        if count > 1 {
            return self.err("at most one memory is supported");
        }
        if count == 1 {
            module.memory = Some(self.limits()?);
        }
        Ok(())
    }

    fn limits(&mut self) -> PResult<Limits> {
        match self.byte()? {
            0x00 => Ok(Limits::new(self.u32()?, None)),
            0x01 => {
                let min = self.u32()?;
                let max = self.u32()?;
                Ok(Limits::new(min, Some(max)))
            }
            other => self.err(format!("bad limits flag 0x{other:02x}")),
        }
    }

    fn global_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let ty = self.valtype()?;
            let mutable = match self.byte()? {
                0x00 => false,
                0x01 => true,
                other => return self.err(format!("bad mutability flag 0x{other:02x}")),
            };
            let init = self.const_expr()?;
            if init.ty() != ty {
                return self.err("global initializer type mismatch");
            }
            module.globals.push(GlobalDef { ty, mutable, init });
        }
        Ok(())
    }

    fn const_expr(&mut self) -> PResult<Value> {
        let value = match self.byte()? {
            OP_I32_CONST => Value::I32(self.i32()?),
            OP_I64_CONST => Value::I64(self.i64()?),
            other => {
                return Err(WasmDecodeError::new(
                    self.pos - 1,
                    format!("unsupported const expr opcode 0x{other:02x}"),
                ))
            }
        };
        if self.byte()? != OP_END {
            return self.err("const expr must end with `end`");
        }
        Ok(value)
    }

    fn export_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let name = self.name()?;
            let kind_byte = self.byte()?;
            let idx = self.u32()?;
            let kind = match kind_byte {
                0x00 => ExportKind::Func(idx),
                0x02 => ExportKind::Memory,
                0x03 => ExportKind::Global(idx),
                other => return self.err(format!("unsupported export kind 0x{other:02x}")),
            };
            module.exports.push(Export { name, kind });
        }
        Ok(())
    }

    fn code_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        if count != module.funcs.len() {
            return self.err(format!(
                "code section has {count} bodies for {} functions",
                module.funcs.len()
            ));
        }
        for i in 0..count {
            let size = self.u32()? as usize;
            let body_end = self
                .pos
                .checked_add(size)
                .filter(|&e| e <= self.input.len())
                .ok_or_else(|| WasmDecodeError::new(self.pos, "code body out of range"))?;
            let n_runs = self.count()?;
            let mut locals = Vec::new();
            for _ in 0..n_runs {
                let run = self.u32()?;
                let ty = self.valtype()?;
                if locals.len() as u64 + run as u64 > 50_000 {
                    return self.err("too many locals");
                }
                locals.extend(std::iter::repeat_n(ty, run as usize));
            }
            let (body, terminator) = self.instrs()?;
            if terminator != OP_END {
                return self.err("function body must end with `end`");
            }
            if self.pos != body_end {
                return self.err("code body size mismatch");
            }
            module.funcs[i].locals = locals;
            module.funcs[i].body = body;
        }
        Ok(())
    }

    fn data_section(&mut self, module: &mut Module) -> PResult<()> {
        let count = self.count()?;
        for _ in 0..count {
            let mem_idx = self.u32()?;
            if mem_idx != 0 {
                return self.err("data segment must target memory 0");
            }
            let offset = match self.const_expr()? {
                Value::I32(v) => v as u32,
                _ => return self.err("data offset must be an i32 const"),
            };
            let len = self.u32()? as usize;
            let bytes = self.take(len)?.to_vec();
            module.data.push(DataSegment { offset, bytes });
        }
        Ok(())
    }

    fn blocktype(&mut self) -> PResult<BlockType> {
        let b = self.byte()?;
        if b == 0x40 {
            return Ok(BlockType::Empty);
        }
        ValType::from_byte(b)
            .map(BlockType::Value)
            .ok_or_else(|| WasmDecodeError::new(self.pos - 1, "bad block type"))
    }

    /// Parses instructions until `end` (0x0B) or `else` (0x05), returning
    /// the terminator consumed.
    ///
    /// Parsing recurses once per nested `block`/`loop`/`if` — `instrs` →
    /// [`Parser::structured`] → `instrs` — as do validation, lowering and
    /// dropping the tree behind it, so the depth is capped here, where
    /// hostile input first arrives. The cycle deliberately excludes
    /// [`Parser::plain`], whose frame is an order of magnitude larger.
    fn instrs(&mut self) -> PResult<(Vec<Instr>, u8)> {
        let mut out = Vec::new();
        loop {
            let op = self.byte()?;
            out.push(match op {
                OP_END | OP_ELSE => return Ok((out, op)),
                OP_BLOCK | OP_LOOP | OP_IF => self.structured(op)?,
                _ => self.plain(op)?,
            });
        }
    }

    /// Parses the rest of a `block`, `loop` or `if` after its opcode.
    fn structured(&mut self, op: u8) -> PResult<Instr> {
        if self.nesting == MAX_NESTING {
            return self.err(format!("blocks nested deeper than {MAX_NESTING}"));
        }
        self.nesting += 1;
        let bt = self.blocktype()?;
        let (body, mut term) = self.instrs()?;
        let instr = match op {
            OP_BLOCK => Instr::Block(bt, body),
            OP_LOOP => Instr::Loop(bt, body),
            _ => {
                let els = if term == OP_ELSE {
                    let (els, end) = self.instrs()?;
                    term = end;
                    els
                } else {
                    Vec::new()
                };
                Instr::If(bt, body, els)
            }
        };
        if term != OP_END {
            return self.err("block, loop and if must end with `end`");
        }
        self.nesting -= 1;
        Ok(instr)
    }

    /// Parses one instruction that contains no others; `op` is the byte
    /// just read.
    fn plain(&mut self, op: u8) -> PResult<Instr> {
        if let Some(i) = simple_from_opcode(op) {
            return Ok(i);
        }
        if let Some(make) = memop_from_opcode(op) {
            let align = self.u32()?;
            let offset = self.u32()?;
            return Ok(make(MemArg { align, offset }));
        }
        match op {
            OP_BR => Ok(Instr::Br(self.u32()?)),
            OP_BR_IF => Ok(Instr::BrIf(self.u32()?)),
            OP_CALL => Ok(Instr::Call(self.u32()?)),
            OP_LOCAL_GET => Ok(Instr::LocalGet(self.u32()?)),
            OP_LOCAL_SET => Ok(Instr::LocalSet(self.u32()?)),
            OP_LOCAL_TEE => Ok(Instr::LocalTee(self.u32()?)),
            OP_GLOBAL_GET => Ok(Instr::GlobalGet(self.u32()?)),
            OP_GLOBAL_SET => Ok(Instr::GlobalSet(self.u32()?)),
            OP_MEMORY_SIZE => {
                self.expect_zero_byte()?;
                Ok(Instr::MemorySize)
            }
            OP_MEMORY_GROW => {
                self.expect_zero_byte()?;
                Ok(Instr::MemoryGrow)
            }
            OP_I32_CONST => Ok(Instr::I32Const(self.i32()?)),
            OP_I64_CONST => Ok(Instr::I64Const(self.i64()?)),
            other => Err(WasmDecodeError::new(
                self.pos - 1,
                format!("unsupported opcode 0x{other:02x}"),
            )),
        }
    }

    fn expect_zero_byte(&mut self) -> PResult<()> {
        if self.byte()? != 0x00 {
            return self.err("expected reserved zero byte");
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::encode::encode;
    use crate::types::ValType;

    #[test]
    fn rejects_bad_magic() {
        let err = decode(b"\0asx\x01\0\0\0").unwrap_err();
        assert!(err.reason().contains("magic"));
    }

    #[test]
    fn rejects_truncation_everywhere_except_section_boundaries() {
        let m = ModuleBuilder::new()
            .memory(1, Some(2))
            .func(
                FuncType::new([ValType::I32], [ValType::I32]),
                [ValType::I64],
                [Instr::LocalGet(0)],
            )
            .export_func("f", 0)
            .data(8, b"hello".to_vec())
            .build_unchecked();
        let bytes = encode(&m);
        // A cut exactly at a section boundary is a well-formed (shorter)
        // module unless it separates the function section from its code.
        let mut boundaries = vec![8usize];
        let mut pos = 8usize;
        let mut has_funcs_without_code = false;
        while pos < bytes.len() {
            let id = bytes[pos];
            let mut p = pos + 1;
            let size = crate::leb::read_u32(&bytes, &mut p).unwrap() as usize;
            pos = p + size;
            if id == 3 {
                has_funcs_without_code = true;
            }
            if id == 10 {
                has_funcs_without_code = false;
            }
            if !has_funcs_without_code {
                boundaries.push(pos);
            }
        }
        for cut in 0..bytes.len() {
            if boundaries.contains(&cut) {
                assert!(decode(&bytes[..cut]).is_ok(), "boundary cut at {cut}");
            } else {
                assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} of {}", bytes.len());
            }
        }
    }

    #[test]
    fn decodes_what_encode_produces() {
        let m = ModuleBuilder::new()
            .memory(1, None)
            .global(ValType::I64, true, Value::I64(-7))
            .func(
                FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
                [],
                [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
            )
            .export_func("add", 0)
            .export_memory("memory")
            .data(0, vec![1, 2, 3])
            .build_unchecked();
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn rejects_table_section() {
        // Hand-built binary with a table section (id 4).
        let mut bytes = crate::encode::PREAMBLE.to_vec();
        bytes.extend_from_slice(&[4, 1, 0]);
        assert!(decode(&bytes).unwrap_err().reason().contains("subset"));
    }

    #[test]
    fn rejects_out_of_order_sections() {
        let mut bytes = crate::encode::PREAMBLE.to_vec();
        // memory section (5) then type section (1): out of order.
        bytes.extend_from_slice(&[5, 3, 1, 0x00, 1]);
        bytes.extend_from_slice(&[1, 1, 0]);
        assert!(decode(&bytes).unwrap_err().reason().contains("order"));
    }

    #[test]
    fn skips_custom_sections() {
        let m = ModuleBuilder::new().memory(1, None).build_unchecked();
        let mut bytes = crate::encode::PREAMBLE.to_vec();
        // Custom section before the memory section.
        bytes.extend_from_slice(&[0, 5, 4]);
        bytes.extend_from_slice(b"name");
        bytes.extend_from_slice(&encode(&m)[8..]);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.memory, m.memory);
    }

    /// The preamble followed by one section.
    fn one_section(id: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = crate::encode::PREAMBLE.to_vec();
        bytes.push(id);
        leb::write_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A module exporting `f: [] -> []` whose code entry is `locals`
    /// (the run vector) then `body` (which brings its own final `end`).
    pub(crate) fn module_with_func(locals: &[u8], body: &[u8]) -> Vec<u8> {
        let mut bytes = crate::encode::PREAMBLE.to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type [] -> []
        bytes.extend_from_slice(&[3, 2, 1, 0]); // one function of it
        bytes.extend_from_slice(&[7, 5, 1, 1, b'f', 0, 0]); // exported as `f`
        let mut code = vec![1];
        leb::write_u32(&mut code, (locals.len() + body.len()) as u32);
        code.extend_from_slice(locals);
        code.extend_from_slice(body);
        bytes.extend_from_slice(&one_section(10, &code)[8..]);
        bytes
    }

    /// `depth` constructs nested inside each other: `open` × depth, then
    /// `close` × depth, then the body's `end`.
    fn nested(open: &[u8], close: &[u8], depth: usize) -> Vec<u8> {
        let mut body = open.repeat(depth);
        body.extend(close.repeat(depth));
        body.push(OP_END);
        module_with_func(&[0], &body)
    }

    /// The four ways to nest: block, loop, then-arm, else-arm.
    const NESTINGS: [(&[u8], &[u8]); 4] = [
        (&[OP_BLOCK, 0x40], &[OP_END]),
        (&[OP_LOOP, 0x40], &[OP_END]),
        (&[OP_I32_CONST, 0, OP_IF, 0x40], &[OP_END]),
        (&[OP_I32_CONST, 0, OP_IF, 0x40, OP_ELSE], &[OP_END]),
    ];

    #[test]
    fn nesting_at_the_limit_runs_end_to_end() {
        // Every recursive pass — parse, validate, lower (on first
        // invoke), drop — on this thread's default stack, debug frames
        // included.
        for (open, close) in NESTINGS {
            let module = decode(&nested(open, close, MAX_NESTING)).expect("decodes");
            let mut inst = crate::Instance::new(
                module,
                &crate::Linker::new(),
                crate::EngineLimits::default(),
                Box::new(()),
            )
            .expect("validates and instantiates");
            assert_eq!(inst.invoke("f", &[]), Ok(vec![]));
        }
    }

    #[test]
    fn nesting_past_the_limit_is_refused_not_recursed_into() {
        // 50 000 levels is a ~150 KB module that used to overflow the
        // stack inside `instr` ↔ `instrs`.
        for depth in [MAX_NESTING + 1, 50_000] {
            for (open, close) in NESTINGS {
                let err = decode(&nested(open, close, depth)).unwrap_err();
                assert!(err.reason().contains("nested deeper"), "{depth}: {err}");
            }
        }
    }

    #[test]
    fn counts_are_checked_against_the_input_before_anything_is_reserved() {
        // LEB128 for u32::MAX.
        const MAX: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let cases = [
            ("types", one_section(1, &MAX)),
            ("params", one_section(1, &[&[1, 0x60][..], &MAX].concat())),
            ("results", one_section(1, &[&[1, 0x60, 0][..], &MAX].concat())),
            ("local runs", module_with_func(&MAX, &[OP_END])),
        ];
        for (what, bytes) in cases {
            // Refused at the count itself — `Vec::with_capacity(n_params)`
            // used to reserve 4 GiB for these five bytes first.
            let err = decode(&bytes).unwrap_err();
            assert!(err.reason().contains("exceeds remaining input"), "{what}: {err}");
        }
        // A run's *length* counts locals, not input: it is capped, before
        // any are materialized.
        let one_huge_run = [&[1][..], &MAX, &[0x7F]].concat();
        let err = decode(&module_with_func(&one_huge_run, &[OP_END])).unwrap_err();
        assert!(err.reason().contains("too many locals"), "{err}");
    }

    #[test]
    fn float_types_and_opcodes_are_refused_at_their_byte() {
        // Each module's offending byte sits `back` bytes from its end.
        let mut cases = vec![
            ("f32 param", one_section(1, &[1, 0x60, 1, 0x7D, 0]), 2),
            ("f64 result", one_section(1, &[1, 0x60, 0, 1, 0x7C]), 1),
            ("f32 local", module_with_func(&[1, 1, 0x7D], &[OP_END]), 2),
            ("f64 global", one_section(6, &[1, 0x7C, 0, OP_I64_CONST, 0, OP_END]), 5),
            ("f32.const global init", one_section(6, &[1, 0x7F, 0, 0x43, 0, 0, 0, 0, OP_END]), 6),
        ];
        // Every first byte no opcode table holds — floats, `i64`
        // arithmetic, division, `br_table`, `return`, `nop`, … — with
        // a zero immediate behind it, in case one is read.
        for op in (0x00..=0xFF).filter(|&op| !crate::opcode::tests::is_tabled(op)) {
            cases.push(("opcode", module_with_func(&[0], &[op, 0, OP_END]), 3));
        }
        // The `0xFC` prefix (bulk memory and the saturating truncations)
        // is untabled whole: each sub-opcode is refused at the prefix.
        for sub in (0x00..=0x7F).map(|sub| vec![sub]).chain([vec![0x80, 0x01]]) {
            let code = [&[0xFC][..], &sub, &[0, 0, OP_END]].concat();
            cases.push(("0xFC sub-opcode", module_with_func(&[0], &code), code.len()));
        }
        // 0x00..=0xFF less 17 explicit and 24 tabled opcodes.
        assert_eq!(cases.len(), 5 + 215 + 129);
        for (what, bytes, back) in cases {
            let at = bytes.len() - back;
            let err = decode(&bytes).unwrap_err();
            assert_eq!(err.offset(), at, "{what} 0x{:02x}: {err}", bytes[at]);
            assert!(err.reason().contains(&format!("0x{:02x}", bytes[at])), "{what}: {err}");
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        // A fixed xorshift so the test is deterministic.
        let mut state = 0x12345678u64;
        for len in 0..300 {
            let mut buf = crate::encode::PREAMBLE.to_vec();
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                buf.push((state & 0xFF) as u8);
            }
            let _ = decode(&buf);
        }
    }
}
