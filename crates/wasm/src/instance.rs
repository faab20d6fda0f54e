//! Instances: a module brought to life inside its own sandbox.
//!
//! An [`Instance`] bundles a validated module with its linear memory,
//! globals, resolved host imports, fuel and host state — the "Wasm VM"
//! of the paper. Instances never share memory: every byte that crosses an
//! instance boundary does so through host functions or the embedder APIs,
//! which is exactly the property Roadrunner's shim mediates.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::host::{HostFunc, Linker};
use crate::compile::CompiledModule;
use crate::interp::{Exec, Machine};
use crate::limits::EngineLimits;
use crate::memory::Memory;
use crate::module::{ExportKind, Module};
use crate::trap::Trap;
use crate::types::{FuncType, Value};
use crate::validate::{validate, ValidationError};

/// Error raised while instantiating a module.
#[derive(Debug)]
pub enum InstanceError {
    /// The module failed validation.
    Validation(ValidationError),
    /// An import had no definition in the linker.
    MissingImport {
        /// Import module namespace.
        module: String,
        /// Import field name.
        name: String,
    },
    /// An import's linker definition has a different signature.
    ImportTypeMismatch {
        /// Import module namespace.
        module: String,
        /// Import field name.
        name: String,
        /// Signature the module expects.
        expected: FuncType,
        /// Signature the linker provides.
        found: FuncType,
    },
    /// The module's initial memory exceeds the engine limit.
    MemoryTooLarge {
        /// Pages requested by the module.
        requested: u32,
        /// Engine cap in pages.
        cap: u32,
    },
    /// A data segment fell outside the initial memory.
    DataSegmentOutOfRange,
    /// The start function trapped.
    StartTrapped(Trap),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Validation(e) => write!(f, "{e}"),
            InstanceError::MissingImport { module, name } => {
                write!(f, "unresolved import `{module}::{name}`")
            }
            InstanceError::ImportTypeMismatch { module, name, expected, found } => write!(
                f,
                "import `{module}::{name}` signature mismatch: module expects {expected}, linker provides {found}"
            ),
            InstanceError::MemoryTooLarge { requested, cap } => {
                write!(f, "initial memory of {requested} pages exceeds engine cap of {cap}")
            }
            InstanceError::DataSegmentOutOfRange => {
                write!(f, "data segment outside initial memory")
            }
            InstanceError::StartTrapped(t) => write!(f, "start function trapped: {t}"),
        }
    }
}

impl Error for InstanceError {}

impl From<ValidationError> for InstanceError {
    fn from(e: ValidationError) -> Self {
        InstanceError::Validation(e)
    }
}

/// An instantiated module: the unit of execution and isolation.
pub struct Instance {
    module: Arc<Module>,
    memory: Option<Memory>,
    globals: Vec<Value>,
    host_funcs: Vec<HostFunc>,
    host_data: Box<dyn Any + Send>,
    limits: EngineLimits,
    fuel: Option<u64>,
    instr_count: u64,
    /// Reusable value stack + frame arena for the dispatch loop.
    machine: Machine,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("funcs", &self.module.func_count())
            .field("memory_pages", &self.memory.as_ref().map(Memory::size_pages))
            .field("instr_count", &self.instr_count)
            .finish_non_exhaustive()
    }
}

impl Instance {
    /// Validates `module`, resolves its imports against `linker`,
    /// initializes memory/globals/data and runs the start function.
    ///
    /// `host_data` is embedder state host functions can reach through
    /// [`crate::host::Caller::data`]; pass `()` when unused.
    ///
    /// # Errors
    ///
    /// See [`InstanceError`] for every failure mode.
    pub fn new(
        module: Module,
        linker: &Linker,
        limits: EngineLimits,
        host_data: Box<dyn Any + Send>,
    ) -> Result<Self, InstanceError> {
        validate(&module)?;

        let mut host_funcs = Vec::with_capacity(module.imports.len());
        for import in &module.imports {
            let Some((ty, f)) = linker.resolve(&import.module, &import.name) else {
                return Err(InstanceError::MissingImport {
                    module: import.module.clone(),
                    name: import.name.clone(),
                });
            };
            let expected = &module.types[import.type_idx as usize];
            if ty != expected {
                return Err(InstanceError::ImportTypeMismatch {
                    module: import.module.clone(),
                    name: import.name.clone(),
                    expected: expected.clone(),
                    found: ty.clone(),
                });
            }
            host_funcs.push(Arc::clone(f));
        }

        let mut memory = match module.memory {
            Some(mem_limits) => {
                if mem_limits.min > limits.max_memory_pages {
                    return Err(InstanceError::MemoryTooLarge {
                        requested: mem_limits.min,
                        cap: limits.max_memory_pages,
                    });
                }
                Some(Memory::new(mem_limits, limits.max_memory_pages))
            }
            None => None,
        };

        for seg in &module.data {
            let mem = memory.as_mut().ok_or(InstanceError::DataSegmentOutOfRange)?;
            mem.write(seg.offset, &seg.bytes)
                .map_err(|_| InstanceError::DataSegmentOutOfRange)?;
        }

        let globals = module.globals.iter().map(|g| g.init).collect();

        let mut instance = Self {
            module: Arc::new(module),
            memory,
            globals,
            host_funcs,
            host_data,
            limits,
            fuel: limits.initial_fuel,
            instr_count: 0,
            machine: Machine::default(),
        };

        if let Some(start) = instance.module.start {
            instance
                .call_index(start, &[])
                .map_err(InstanceError::StartTrapped)?;
        }

        Ok(instance)
    }

    /// Invokes the exported function `name` with `args`:
    /// [`exported_func`](Self::exported_func), then
    /// [`call_index`](Self::call_index).
    ///
    /// # Errors
    ///
    /// [`Trap::BadExport`] if `name` is missing or not a function, a
    /// host-error trap if argument types mismatch, plus any runtime trap.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let idx = self.exported_func(name)?;
        self.call_index(idx, args)
    }

    /// [`Instance::invoke`] on the reference tree walker — the oracle the
    /// differential suite compares the dispatch loop against.
    #[cfg(test)]
    pub(crate) fn invoke_reference(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let idx = self.exported_func(name)?;
        self.check_args(idx, args)?;
        self.parts().0.call_function(idx, args, 0)
    }

    /// Resolves the exported function `name` to its function index, so an
    /// embedder that calls one export many times scans the export table
    /// once and calls by [`call_index`](Self::call_index) afterwards.
    ///
    /// # Errors
    ///
    /// [`Trap::BadExport`] if `name` is missing or not a function.
    pub fn exported_func(&self, name: &str) -> Result<u32, Trap> {
        match self.module.export(name).map(|export| export.kind) {
            Some(ExportKind::Func(idx)) => Ok(idx),
            _ => Err(Trap::BadExport(name.to_owned())),
        }
    }

    /// `func_idx` must name a function of this module and `args` match
    /// its signature.
    fn check_args(&self, func_idx: u32, args: &[Value]) -> Result<(), Trap> {
        let Some(ty) = self.module.func_type(func_idx) else {
            return Err(Trap::BadExport(format!("function index {func_idx}")));
        };
        if args.len() != ty.params().len()
            || args.iter().zip(ty.params()).any(|(a, &p)| a.ty() != p)
        {
            // Off the hot path, name the export the caller most likely used.
            let kind = ExportKind::Func(func_idx);
            let name = self.module.exports.iter().find(|e| e.kind == kind);
            let name = name.map_or_else(|| format!("#{func_idx}"), |e| e.name.clone());
            return Err(Trap::host(format!(
                "invoke `{name}`: arguments do not match signature {ty}"
            )));
        }
        Ok(())
    }

    /// Calls the function at `func_idx` (as resolved by
    /// [`exported_func`](Self::exported_func)) with `args`. The index and
    /// the argument types are checked on every call.
    ///
    /// # Errors
    ///
    /// [`Trap::BadExport`] if the module has no such function, a
    /// host-error trap if argument types mismatch, plus any runtime trap.
    pub fn call_index(&mut self, func_idx: u32, args: &[Value]) -> Result<Vec<Value>, Trap> {
        self.check_args(func_idx, args)?;
        let (mut exec, machine, code) = self.parts();
        exec.run_flat(machine, code, func_idx, args)
    }

    /// The execution context over this instance's state, plus the
    /// dispatch loop's reusable machine and the module's flat code
    /// (borrowed from the module: an invocation takes no reference
    /// count).
    fn parts(&mut self) -> (Exec<'_>, &mut Machine, &CompiledModule) {
        let code = self.module.code();
        let exec = Exec {
            module: &self.module,
            memory: &mut self.memory,
            globals: &mut self.globals,
            host_funcs: &self.host_funcs,
            host_data: &mut self.host_data,
            fuel: &mut self.fuel,
            instr_count: &mut self.instr_count,
            max_call_depth: self.limits.max_call_depth,
        };
        (exec, &mut self.machine, code)
    }

    /// The instance's module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Shared linear memory view (if the module declares one).
    pub fn memory(&self) -> Option<&Memory> {
        self.memory.as_ref()
    }

    /// Mutable linear memory view.
    pub fn memory_mut(&mut self) -> Option<&mut Memory> {
        self.memory.as_mut()
    }

    /// Reads an exported global by name.
    pub fn global(&self, name: &str) -> Option<Value> {
        match self.module.export(name)?.kind {
            ExportKind::Global(idx) => self.globals.get(idx as usize).copied(),
            _ => None,
        }
    }

    /// The embedder state, downcast to `T`.
    pub fn data<T: 'static>(&self) -> Option<&T> {
        self.host_data.downcast_ref::<T>()
    }

    /// Mutable embedder state, downcast to `T`.
    pub fn data_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.host_data.downcast_mut::<T>()
    }

    /// Remaining fuel (`None` when metering is disabled).
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Replenishes fuel (enables metering if it was off).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = Some(fuel);
    }

    /// Instructions executed so far — the basis for the embedder's CPU
    /// accounting (interpreted instructions × per-instruction cost).
    pub fn instr_count(&self) -> u64 {
        self.instr_count
    }

    /// Resets the executed-instruction counter (between invocations).
    pub fn reset_instr_count(&mut self) {
        self.instr_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{BlockType, Instr, MemArg};
    use crate::memory::PAGE;
    use crate::types::ValType;

    fn instantiate(module: Module) -> Instance {
        Instance::new(module, &Linker::new(), EngineLimits::default(), Box::new(()))
            .expect("instantiates")
    }

    #[test]
    fn add_function_works() {
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
                [],
                [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
            )
            .export_func("add", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        let out = inst.invoke("add", &[Value::I32(2), Value::I32(40)]).unwrap();
        assert_eq!(out, vec![Value::I32(42)]);
        assert!(inst.instr_count() > 0);
    }

    #[test]
    fn factorial_via_loop() {
        // fact(n): local acc=1; loop { if n<=1 break; acc*=n; n-=1 }
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32], [ValType::I32]),
                [ValType::I32],
                [
                    Instr::I32Const(1),
                    Instr::LocalSet(1),
                    Instr::Block(
                        BlockType::Empty,
                        vec![Instr::Loop(
                            BlockType::Empty,
                            vec![
                                Instr::LocalGet(0),
                                Instr::I32Const(1),
                                Instr::I32LeU,
                                Instr::BrIf(1),
                                Instr::LocalGet(1),
                                Instr::LocalGet(0),
                                Instr::I32Mul,
                                Instr::LocalSet(1),
                                Instr::LocalGet(0),
                                Instr::I32Const(1),
                                Instr::I32Sub,
                                Instr::LocalSet(0),
                                Instr::Br(0),
                            ],
                        )],
                    ),
                    Instr::LocalGet(1),
                ],
            )
            .export_func("fact", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        let out = inst.invoke("fact", &[Value::I32(10)]).unwrap();
        assert_eq!(out, vec![Value::I32(3_628_800)]);
    }

    #[test]
    fn recursion_and_stack_overflow() {
        // f(n) = n == 0 ? 0 : f(n-1) + 1, recursive.
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32], [ValType::I32]),
                [],
                [
                    Instr::LocalGet(0),
                    Instr::I32Eqz,
                    Instr::If(
                        BlockType::Value(ValType::I32),
                        vec![Instr::I32Const(0)],
                        vec![
                            Instr::LocalGet(0),
                            Instr::I32Const(1),
                            Instr::I32Sub,
                            Instr::Call(0),
                            Instr::I32Const(1),
                            Instr::I32Add,
                        ],
                    ),
                ],
            )
            .export_func("depth", 0)
            .build()
            .unwrap();
        let mut inst = Instance::new(
            module,
            &Linker::new(),
            EngineLimits::default().with_max_call_depth(64),
            Box::new(()),
        )
        .unwrap();
        assert_eq!(inst.invoke("depth", &[Value::I32(10)]).unwrap(), vec![Value::I32(10)]);
        assert_eq!(
            inst.invoke("depth", &[Value::I32(100)]).unwrap_err(),
            Trap::StackOverflow
        );
    }

    #[test]
    fn host_function_call_and_state() {
        let mut linker = Linker::new();
        linker.define(
            "env",
            "accumulate",
            FuncType::new([ValType::I32], []),
            |mut caller, args| {
                *caller.data::<i32>()? += args[0].as_i32().expect("typed arg");
                Ok(vec![])
            },
        );
        let module = ModuleBuilder::new()
            .import_func("env", "accumulate", FuncType::new([ValType::I32], []))
            .func(
                FuncType::new([], []),
                [],
                [
                    Instr::I32Const(5),
                    Instr::Call(0),
                    Instr::I32Const(7),
                    Instr::Call(0),
                ],
            )
            .export_func("run", 1)
            .build()
            .unwrap();
        let mut inst =
            Instance::new(module, &linker, EngineLimits::default(), Box::new(0i32)).unwrap();
        inst.invoke("run", &[]).unwrap();
        assert_eq!(*inst.data::<i32>().unwrap(), 12);
    }

    #[test]
    fn memory_data_segments_and_byte_ops() {
        // Copy the data segment elsewhere byte by byte, as the guests
        // move pixels, and store one word.
        let module = ModuleBuilder::new()
            .memory(1, Some(4))
            .data(16, b"roadrunner".to_vec())
            .func(
                FuncType::new([], []),
                [ValType::I32],
                [
                    Instr::Block(
                        BlockType::Empty,
                        vec![Instr::Loop(
                            BlockType::Empty,
                            vec![
                                Instr::LocalGet(0),
                                Instr::I32Const(10),
                                Instr::I32GeU,
                                Instr::BrIf(1),
                                Instr::LocalGet(0),
                                Instr::LocalGet(0),
                                Instr::I32Load8U(MemArg::offset(16)),
                                Instr::I32Store8(MemArg::offset(100)),
                                Instr::LocalGet(0),
                                Instr::I32Const(1),
                                Instr::I32Add,
                                Instr::LocalSet(0),
                                Instr::Br(0),
                            ],
                        )],
                    ),
                    Instr::I32Const(200),
                    Instr::I32Const(0x2A2A_2A2A),
                    Instr::I32Store(MemArg::natural(4)),
                ],
            )
            .export_func("run", 0)
            .export_memory("memory")
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        inst.invoke("run", &[]).unwrap();
        let mem = inst.memory().unwrap();
        assert_eq!(mem.read(100, 10).unwrap(), b"roadrunner");
        assert_eq!(mem.read(200, 4).unwrap(), &[0x2A; 4]);
    }

    #[test]
    fn traps_propagate() {
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32], [ValType::I32]),
                [],
                [Instr::LocalGet(0), Instr::I32Load(MemArg::natural(4))],
            )
            .memory(1, Some(1))
            .data(0, vec![1, 0, 0, 0])
            .export_func("peek", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        assert_eq!(
            inst.invoke("peek", &[Value::I32(PAGE as i32 - 2)]).unwrap_err(),
            Trap::MemoryOutOfBounds { addr: PAGE as u64 - 2, len: 4, memory_size: PAGE as u64 }
        );
        // The instance stays usable after a trap — fail-stop, not corrupt.
        assert_eq!(inst.invoke("peek", &[Value::I32(0)]).unwrap(), vec![Value::I32(1)]);
    }

    #[test]
    fn fuel_exhaustion() {
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([], []),
                [],
                [Instr::Loop(BlockType::Empty, vec![Instr::Br(0)])],
            )
            .export_func("spin", 0)
            .build()
            .unwrap();
        let mut inst = Instance::new(
            module,
            &Linker::new(),
            EngineLimits::default().with_fuel(10_000),
            Box::new(()),
        )
        .unwrap();
        assert_eq!(inst.invoke("spin", &[]).unwrap_err(), Trap::FuelExhausted);
        // Refuelling makes it runnable again.
        inst.set_fuel(100);
        assert_eq!(inst.invoke("spin", &[]).unwrap_err(), Trap::FuelExhausted);
    }

    #[test]
    fn missing_import_rejected() {
        let module = ModuleBuilder::new()
            .import_func("env", "nope", FuncType::new([], []))
            .build()
            .unwrap();
        match Instance::new(module, &Linker::new(), EngineLimits::default(), Box::new(())) {
            Err(InstanceError::MissingImport { module, name }) => {
                assert_eq!(module, "env");
                assert_eq!(name, "nope");
            }
            other => panic!("expected MissingImport, got {other:?}"),
        }
    }

    #[test]
    fn import_signature_mismatch_rejected() {
        let mut linker = Linker::new();
        linker.define("env", "f", FuncType::new([ValType::I64], []), |_, _| Ok(vec![]));
        let module = ModuleBuilder::new()
            .import_func("env", "f", FuncType::new([ValType::I32], []))
            .build()
            .unwrap();
        assert!(matches!(
            Instance::new(module, &linker, EngineLimits::default(), Box::new(())),
            Err(InstanceError::ImportTypeMismatch { .. })
        ));
    }

    #[test]
    fn memory_cap_enforced_at_instantiation() {
        let module = ModuleBuilder::new().memory(100, None).build().unwrap();
        assert!(matches!(
            Instance::new(
                module,
                &Linker::new(),
                EngineLimits::default().with_max_memory_pages(10),
                Box::new(())
            ),
            Err(InstanceError::MemoryTooLarge { requested: 100, cap: 10 })
        ));
    }

    #[test]
    fn start_function_runs() {
        let module = ModuleBuilder::new()
            .memory(1, None)
            .func(
                FuncType::new([], []),
                [],
                [Instr::I32Const(0), Instr::I32Const(0xAB), Instr::I32Store8(MemArg::default())],
            )
            .start(0)
            .build()
            .unwrap();
        let inst = instantiate(module);
        assert_eq!(inst.memory().unwrap().read(0, 1).unwrap(), &[0xAB]);
    }

    #[test]
    fn invoke_checks_arguments() {
        let module = ModuleBuilder::new()
            .func(FuncType::new([ValType::I32], []), [], [Instr::LocalGet(0), Instr::Drop])
            .export_func("f", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        assert!(matches!(inst.invoke("f", &[]).unwrap_err(), Trap::Host(_)));
        assert!(matches!(
            inst.invoke("f", &[Value::I64(1)]).unwrap_err(),
            Trap::Host(_)
        ));
        assert!(matches!(
            inst.invoke("missing", &[]).unwrap_err(),
            Trap::BadExport(_)
        ));
    }

    #[test]
    fn nested_branch_dispatch() {
        // Returns 10 for input 0 and 20 for anything else, by a `br_if`
        // out of two nested blocks.
        let module = ModuleBuilder::new()
            .func(
                FuncType::new([ValType::I32], [ValType::I32]),
                [],
                [Instr::Block(
                    BlockType::Value(ValType::I32),
                    vec![Instr::Block(
                        BlockType::Empty,
                        vec![Instr::Block(
                            BlockType::Empty,
                            vec![
                                Instr::LocalGet(0),
                                Instr::BrIf(1),
                            ],
                        ),
                        Instr::I32Const(10),
                        Instr::Br(1),
                        ],
                    ),
                    Instr::I32Const(20),
                    ],
                )],
            )
            .export_func("dispatch", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(0)]).unwrap(), vec![Value::I32(10)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(1)]).unwrap(), vec![Value::I32(20)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(9)]).unwrap(), vec![Value::I32(20)]);
    }

    #[test]
    fn a_resolved_export_is_checked_on_every_call() {
        let module = ModuleBuilder::new()
            .memory(1, None)
            .func(
                FuncType::new([ValType::I32, ValType::I32], [ValType::I32]),
                [],
                [Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
            )
            .export_func("add", 0)
            .export_memory("memory")
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        let add = inst.exported_func("add").unwrap();
        let sum = inst.call_index(add, &[Value::I32(2), Value::I32(40)]).unwrap();
        assert_eq!(sum, vec![Value::I32(42)]);
        // Resolution only finds function exports…
        for name in ["sub", "memory"] {
            assert_eq!(inst.exported_func(name), Err(Trap::BadExport(name.to_owned())));
        }
        // …and a held index buys no unchecked call: arity, types and the
        // index itself are verified each time, exactly as `invoke` does.
        let by_index = inst.call_index(add, &[Value::I32(2)]).unwrap_err();
        assert_eq!(by_index, inst.invoke("add", &[Value::I32(2)]).unwrap_err());
        assert!(matches!(by_index, Trap::Host(ref msg) if msg.contains("`add`")), "{by_index}");
        assert!(matches!(inst.call_index(add, &[Value::I32(2), Value::I64(40)]), Err(Trap::Host(_))));
        assert!(matches!(inst.call_index(add + 1, &[]), Err(Trap::BadExport(_))));
        assert!(matches!(inst.call_index(u32::MAX, &[]), Err(Trap::BadExport(_))));
    }

    #[test]
    fn globals_read_write() {
        let module = ModuleBuilder::new()
            .global(ValType::I64, true, Value::I64(5))
            .func(
                FuncType::new([], [ValType::I64]),
                [],
                [
                    Instr::GlobalGet(0),
                    Instr::I32WrapI64,
                    Instr::I32Const(10),
                    Instr::I32Mul,
                    Instr::I64ExtendI32U,
                    Instr::GlobalSet(0),
                    Instr::GlobalGet(0),
                ],
            )
            .export_func("bump", 0)
            .export_global("g", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        assert_eq!(inst.invoke("bump", &[]).unwrap(), vec![Value::I64(50)]);
        assert_eq!(inst.global("g"), Some(Value::I64(50)));
    }

    #[test]
    fn memory_grow_from_guest() {
        let module = ModuleBuilder::new()
            .memory(1, Some(3))
            .func(
                FuncType::new([], [ValType::I32, ValType::I32]),
                [],
                [
                    Instr::I32Const(1),
                    Instr::MemoryGrow,
                    Instr::I32Const(100),
                    Instr::MemoryGrow,
                ],
            )
            .export_func("grow", 0)
            .build()
            .unwrap();
        let mut inst = instantiate(module);
        let out = inst.invoke("grow", &[]).unwrap();
        assert_eq!(out, vec![Value::I32(1), Value::I32(-1)]);
        assert_eq!(inst.memory().unwrap().size_pages(), 2);
    }
}
