// Instantiation errors keep full import/export context for diagnostics;
// they only occur on the cold setup path, so their size stays acceptable.
#![allow(clippy::result_large_err)]

//! A miniature WebAssembly engine.
//!
//! The Roadrunner paper runs its functions on WasmEdge; this crate is the
//! reproduction's stand-in runtime, built from scratch with the properties
//! the paper relies on:
//!
//! * **Linear memory** ([`memory::Memory`]) — a contiguous, bounds-checked
//!   byte array the host can address by `(offset, len)`, the foundation of
//!   Roadrunner's data access model (paper §3.1).
//! * **Deny-by-default host access** ([`host::Linker`]) — guests only
//!   reach capabilities the embedder links in; WASI and Roadrunner's
//!   Table-1 APIs are both host-function families.
//! * **Sandbox isolation** ([`instance::Instance`]) — instances own their
//!   memory; boundary violations trap ([`Trap`]) without corrupting
//!   anything else.
//! * **Real binary format** ([`encode`]/[`decode`]) — modules round-trip
//!   through the standard `\0asm` encoding (MVP subset + bulk memory), so
//!   bundles, cold-start measurements and module sizes are genuine.
//! * **Validation** ([`validate`]) — the standard stack-discipline type
//!   checker runs before any instantiation.
//! * **Metering** — executed-instruction counts and optional fuel, which
//!   the simulation converts into CPU time.
//! * **One interpreter** — function bodies are lowered once per module to
//!   flat bytecode (cached, shared across clones) and run by a single
//!   program-counter dispatch loop over a reusable frame arena and a
//!   stack of untyped 64-bit slots (validation has settled every type;
//!   [`Value`] exists only at the engine's edge). What an
//!   instruction *counts* is defined by the structured AST: a test-only
//!   tree walker is the oracle, and a differential suite holds the loop
//!   to it on outcome, trap, instruction count, fuel, host calls, globals
//!   and memory.
//!
//! # Example
//!
//! ```
//! use roadrunner_wasm::types::{FuncType, ValType, Value};
//! use roadrunner_wasm::{EngineLimits, Instance, Instr, Linker, ModuleBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = ModuleBuilder::new()
//!     .func(
//!         FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
//!         [],
//!         [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Mul],
//!     )
//!     .export_func("mul", 0)
//!     .build()?;
//!
//! // Round-trip through the real binary format.
//! let bytes = roadrunner_wasm::encode::encode(&module);
//! let module = roadrunner_wasm::decode::decode(&bytes)?;
//!
//! let mut instance = Instance::new(module, &Linker::new(), EngineLimits::default(), Box::new(()))?;
//! let out = instance.invoke("mul", &[Value::I32(6), Value::I32(7)])?;
//! assert_eq!(out, vec![Value::I32(42)]);
//! # Ok(())
//! # }
//! ```

pub mod builder;
mod compile;
pub mod decode;
#[cfg(test)]
mod differential;
pub mod encode;
pub mod host;
pub mod instance;
pub mod instr;
mod interp;
mod leb;
pub mod limits;
pub mod memory;
pub mod module;
mod opcode;
pub mod trap;
pub mod types;
pub mod validate;

pub use builder::ModuleBuilder;
pub use host::{Caller, Linker};
pub use instance::{Instance, InstanceError};
pub use instr::{BlockType, Instr, MemArg};
pub use limits::EngineLimits;
pub use memory::{Memory, PAGE};
pub use module::Module;
pub use trap::Trap;
pub use types::{FuncType, ValType, Value};
