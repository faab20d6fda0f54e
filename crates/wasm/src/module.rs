//! Module definitions: the validated, executable form of a Wasm binary.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::compile::{compile, CompiledModule};
use crate::instr::Instr;
use crate::types::{FuncType, Limits, ValType, Value};

/// An imported host function (the only import kind in the reproduced
/// subset — Wasm's deny-by-default model means every host capability is an
/// explicit import).
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Import module namespace (e.g. `wasi_snapshot_preview1`, `roadrunner`).
    pub module: String,
    /// Import field name (e.g. `fd_write`, `send_to_host`).
    pub name: String,
    /// Index into the module's type section.
    pub type_idx: u32,
}

/// A function defined inside the module.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Index into the module's type section.
    pub type_idx: u32,
    /// Declared locals (parameters come from the signature).
    pub locals: Vec<ValType>,
    /// Structured body.
    pub body: Vec<Instr>,
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Value type of the global.
    pub ty: ValType,
    /// Whether `global.set` is allowed.
    pub mutable: bool,
    /// Constant initializer.
    pub init: Value,
}

/// What an export refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportKind {
    /// A function, by function index (imports first).
    Func(u32),
    /// The module's linear memory.
    Memory,
    /// A global, by global index.
    Global(u32),
}

/// A named export.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Export name.
    pub name: String,
    /// Exported item.
    pub kind: ExportKind,
}

/// An active data segment copied into linear memory at instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Destination offset in linear memory.
    pub offset: u32,
    /// Bytes to place.
    pub bytes: Vec<u8>,
}

/// Lazily-compiled flat bytecode, shared across clones of a module.
///
/// Cloning a `Module` (e.g. handing one to [`crate::Instance::new`])
/// shares the cell, so the first instantiation compiles once and every
/// later clone — including the embedder's retained copy — reuses the
/// result; instantiation pays zero extra cost after the first compile.
///
/// The cache is keyed on identity, not content: mutating a module's
/// function bodies after it has executed is unsupported (all supported
/// construction paths — [`crate::ModuleBuilder`] and
/// [`crate::decode::decode`] — produce their final bodies up front).
#[derive(Default)]
pub(crate) struct CodeCache(Arc<OnceLock<Arc<CompiledModule>>>);

impl Clone for CodeCache {
    fn clone(&self) -> Self {
        CodeCache(Arc::clone(&self.0))
    }
}

impl fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeCache").field("compiled", &self.0.get().is_some()).finish()
    }
}

impl PartialEq for CodeCache {
    /// The cache is derived state; two modules with equal fields are
    /// equal regardless of which has compiled.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A complete WebAssembly module (the decoded/validated form).
///
/// Construct one with [`crate::ModuleBuilder`] or by decoding a binary
/// with [`crate::decode::decode`]; both run [`crate::validate`] before the
/// module can be instantiated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Function signatures referenced by functions and imports.
    pub types: Vec<FuncType>,
    /// Imported host functions (these occupy the first function indices).
    pub imports: Vec<Import>,
    /// Module-defined functions.
    pub funcs: Vec<FuncDef>,
    /// Linear memory limits, if the module declares a memory.
    pub memory: Option<Limits>,
    /// Module globals.
    pub globals: Vec<GlobalDef>,
    /// Named exports.
    pub exports: Vec<Export>,
    /// Active data segments.
    pub data: Vec<DataSegment>,
    /// Optional start function, run at instantiation.
    pub start: Option<u32>,
    /// Flat-bytecode cache (compiled on first execution).
    pub(crate) compiled: CodeCache,
}

impl Module {
    /// The module's flat bytecode, compiling (once) on first use.
    pub(crate) fn code(&self) -> &Arc<CompiledModule> {
        self.compiled.0.get_or_init(|| Arc::new(compile(self)))
    }

    /// Total number of functions in the index space (imports + defined).
    pub fn func_count(&self) -> usize {
        self.imports.len() + self.funcs.len()
    }

    /// Signature of the function at `func_idx` in the combined index
    /// space, or `None` if the index or its type index is out of range.
    pub fn func_type(&self, func_idx: u32) -> Option<&FuncType> {
        let idx = func_idx as usize;
        let type_idx = if idx < self.imports.len() {
            self.imports[idx].type_idx
        } else {
            self.funcs.get(idx - self.imports.len())?.type_idx
        };
        self.types.get(type_idx as usize)
    }

    /// Looks up an export by name.
    pub fn export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }

    /// Total instruction count across all function bodies (module
    /// statistics; used in cold-start sizing).
    pub fn instr_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.body.iter().map(Instr::size).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValType;

    fn tiny_module() -> Module {
        Module {
            types: vec![
                FuncType::new([ValType::I32], [ValType::I32]),
                FuncType::new([], []),
            ],
            imports: vec![Import {
                module: "env".into(),
                name: "host0".into(),
                type_idx: 1,
            }],
            funcs: vec![FuncDef {
                type_idx: 0,
                locals: vec![ValType::I64],
                body: vec![Instr::LocalGet(0), Instr::Br(0)],
            }],
            memory: Some(Limits::new(1, Some(4))),
            globals: vec![],
            exports: vec![Export { name: "f".into(), kind: ExportKind::Func(1) }],
            data: vec![],
            start: None,
            compiled: CodeCache::default(),
        }
    }

    #[test]
    fn code_cache_is_shared_across_clones() {
        let m = tiny_module();
        let clone = m.clone();
        // Compiling through the clone fills the original's cell too.
        let _ = clone.code();
        assert!(m.compiled.0.get().is_some(), "clones share the compile cache");
        assert!(Arc::ptr_eq(m.code(), clone.code()));
        // Equality ignores the cache: a fresh, uncompiled copy still
        // compares equal (preserves encode/decode round-trip equality).
        let fresh = tiny_module();
        assert_eq!(fresh, m);
    }

    #[test]
    fn func_index_space_covers_imports_then_funcs() {
        let m = tiny_module();
        assert_eq!(m.func_count(), 2);
        assert_eq!(m.func_type(0).unwrap().params().len(), 0); // the import
        assert_eq!(m.func_type(1).unwrap().params().len(), 1); // defined fn
        assert!(m.func_type(2).is_none());
    }

    #[test]
    fn export_lookup() {
        let m = tiny_module();
        assert_eq!(m.export("f").unwrap().kind, ExportKind::Func(1));
        assert!(m.export("missing").is_none());
    }

    #[test]
    fn instr_count_sums_bodies() {
        assert_eq!(tiny_module().instr_count(), 2);
    }
}
