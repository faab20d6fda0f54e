//! Host functions and the linker.
//!
//! Wasm's deny-by-default model means a guest can only reach capabilities
//! the embedder explicitly links in. The WASI layer and Roadrunner's
//! Table-1 APIs are both defined as host functions through this interface.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::memory::Memory;
use crate::trap::Trap;
use crate::types::{FuncType, Value};

/// The view a host function gets of the calling instance: its linear
/// memory (if any) plus the embedder-supplied host state.
pub struct Caller<'a> {
    memory: Option<&'a mut Memory>,
    data: &'a mut dyn Any,
}

impl<'a> Caller<'a> {
    pub(crate) fn new(memory: Option<&'a mut Memory>, data: &'a mut dyn Any) -> Self {
        Self { memory, data }
    }

    /// The calling instance's linear memory.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the module declared no memory.
    pub fn memory(&mut self) -> Result<&mut Memory, Trap> {
        self.memory.as_deref_mut().ok_or_else(no_memory)
    }

    /// Downcasts the host state to `T`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the instance was created with a different
    /// host-state type.
    pub fn data<T: 'static>(&mut self) -> Result<&mut T, Trap> {
        downcast(self.data)
    }

    /// The linear memory and the host state downcast to `T`, lent
    /// together, so a host call can move bytes straight between the two.
    ///
    /// # Errors
    ///
    /// As [`memory`](Self::memory) and [`data`](Self::data).
    pub fn memory_and_data<T: 'static>(&mut self) -> Result<(&mut Memory, &mut T), Trap> {
        let memory = self.memory.as_deref_mut().ok_or_else(no_memory)?;
        Ok((memory, downcast(self.data)?))
    }

    /// Reads a guest string given `(ptr, len)` — the common ABI for
    /// passing strings out of linear memory.
    pub fn read_string(&mut self, ptr: u32, len: u32) -> Result<String, Trap> {
        let bytes = self.memory()?.read(ptr, len)?.to_vec();
        String::from_utf8(bytes).map_err(|_| Trap::host("guest string is not UTF-8"))
    }
}

fn no_memory() -> Trap {
    Trap::host("module has no memory")
}

fn downcast<T: 'static>(data: &mut dyn Any) -> Result<&mut T, Trap> {
    data.downcast_mut::<T>().ok_or_else(|| Trap::host("host state has unexpected type"))
}

impl fmt::Debug for Caller<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Caller")
            .field("has_memory", &self.memory.is_some())
            .finish_non_exhaustive()
    }
}

/// A host function: called with the caller view and the (type-checked)
/// arguments, returns result values or a trap.
pub type HostFunc =
    Arc<dyn Fn(Caller<'_>, &[Value]) -> Result<Vec<Value>, Trap> + Send + Sync>;

/// Registry of host functions for import resolution, keyed by
/// `(module, name)` like the binary format's two-level namespace.
#[derive(Clone, Default)]
pub struct Linker {
    funcs: HashMap<(String, String), (FuncType, HostFunc)>,
}

impl Linker {
    /// Creates an empty linker (no capabilities — deny by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a host function under `module::name` with signature `ty`.
    /// Re-defining a name replaces the previous definition.
    pub fn define<F>(&mut self, module: &str, name: &str, ty: FuncType, f: F) -> &mut Self
    where
        F: Fn(Caller<'_>, &[Value]) -> Result<Vec<Value>, Trap> + Send + Sync + 'static,
    {
        self.funcs
            .insert((module.to_owned(), name.to_owned()), (ty, Arc::new(f)));
        self
    }

    /// Looks up a definition.
    pub fn resolve(&self, module: &str, name: &str) -> Option<&(FuncType, HostFunc)> {
        self.funcs.get(&(module.to_owned(), name.to_owned()))
    }

    /// Number of defined host functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether no functions are defined.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

impl fmt::Debug for Linker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<String> =
            self.funcs.keys().map(|(m, n)| format!("{m}::{n}")).collect();
        names.sort();
        f.debug_struct("Linker").field("funcs", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValType;

    #[test]
    fn define_and_resolve() {
        let mut linker = Linker::new();
        assert!(linker.is_empty());
        linker.define("env", "double", FuncType::new([ValType::I32], [ValType::I32]), |_, args| {
            Ok(vec![Value::I32(args[0].as_i32().unwrap() * 2)])
        });
        assert_eq!(linker.len(), 1);
        assert!(linker.resolve("env", "double").is_some());
        assert!(linker.resolve("env", "missing").is_none());
        assert!(linker.resolve("other", "double").is_none());
    }

    #[test]
    fn redefinition_replaces() {
        let mut linker = Linker::new();
        let ty = FuncType::new([], [ValType::I32]);
        linker.define("env", "f", ty.clone(), |_, _| Ok(vec![Value::I32(1)]));
        linker.define("env", "f", ty, |_, _| Ok(vec![Value::I32(2)]));
        assert_eq!(linker.len(), 1);
        let (_, f) = linker.resolve("env", "f").unwrap();
        let mut data = ();
        let out = f(Caller::new(None, &mut data), &[]).unwrap();
        assert_eq!(out, vec![Value::I32(2)]);
    }

    #[test]
    fn caller_without_memory_traps() {
        let mut data = ();
        let mut caller = Caller::new(None, &mut data);
        assert!(caller.memory().is_err());
    }

    #[test]
    fn caller_data_downcast() {
        let mut data = 42i64;
        let mut caller = Caller::new(None, &mut data);
        assert_eq!(*caller.data::<i64>().unwrap(), 42);
        assert!(caller.data::<String>().is_err());
    }

    #[test]
    fn caller_lends_memory_and_data_together() {
        let mut memory = Memory::new(crate::types::Limits { min: 1, max: None }, 1);
        let mut data = vec![7u8; 4];
        let mut caller = Caller::new(Some(&mut memory), &mut data);
        let (memory, data) = caller.memory_and_data::<Vec<u8>>().unwrap();
        memory.write(0, data).unwrap();
        data.clear();
        assert_eq!(memory.read(0, 4).unwrap(), [7; 4]);
        assert!(caller.memory_and_data::<String>().is_err());
        assert!(Caller::new(None, &mut 0i64).memory_and_data::<i64>().is_err());
    }

    #[test]
    fn debug_lists_function_names() {
        let mut linker = Linker::new();
        linker.define("env", "f", FuncType::new([], []), |_, _| Ok(vec![]));
        assert!(format!("{linker:?}").contains("env::f"));
    }
}
