//! Traps — the fail-stop error mechanism of the Wasm sandbox.
//!
//! The paper's security argument (§7, "Security Concerns") rests on this
//! behaviour: "In the event of a boundary violation, the function execution
//! simply fails without affecting other parts of the system." A [`Trap`]
//! is that failure: it aborts the running function and surfaces to the
//! embedder, never corrupting host or sibling-module state.

use std::error::Error;
use std::fmt;

/// Reason a WebAssembly execution aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The `unreachable` instruction executed.
    Unreachable,
    /// A load, a store or a host access fell outside linear memory.
    MemoryOutOfBounds {
        /// First byte of the attempted access.
        addr: u64,
        /// Length of the attempted access.
        len: u64,
        /// Current memory size in bytes.
        memory_size: u64,
    },
    /// Call stack exceeded the engine limit.
    StackOverflow,
    /// The instance ran out of execution fuel (used for CPU metering).
    FuelExhausted,
    /// A host function reported an error.
    Host(String),
    /// An exported item was missing or had the wrong kind/signature.
    BadExport(String),
}

impl Trap {
    /// Convenience constructor for host-side failures.
    pub fn host(msg: impl Into<String>) -> Self {
        Trap::Host(msg.into())
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::MemoryOutOfBounds { addr, len, memory_size } => write!(
                f,
                "out-of-bounds memory access: [{addr}, {addr}+{len}) beyond {memory_size} bytes"
            ),
            Trap::StackOverflow => write!(f, "call stack exhausted"),
            Trap::FuelExhausted => write!(f, "execution fuel exhausted"),
            Trap::Host(msg) => write!(f, "host error: {msg}"),
            Trap::BadExport(name) => write!(f, "unknown or mismatched export `{name}`"),
        }
    }
}

impl Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let t = Trap::MemoryOutOfBounds { addr: 100, len: 4, memory_size: 64 };
        let s = t.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("64"));
        assert!(Trap::host("boom").to_string().contains("boom"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<Trap>();
    }
}
