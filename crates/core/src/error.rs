//! Roadrunner's error type.

use std::error::Error;
use std::fmt;

use roadrunner_platform::PlatformError;
use roadrunner_vkernel::VkError;
use roadrunner_wasm::{InstanceError, Trap};

/// Errors surfaced by the Roadrunner shim and its transfer modes.
#[derive(Debug)]
pub enum RoadrunnerError {
    /// Guest execution trapped.
    Trap(Trap),
    /// Module instantiation failed.
    Instance(InstanceError),
    /// A virtual-kernel object failed.
    Kernel(VkError),
    /// The shim refused a memory access (unregistered region or
    /// out-of-bounds) — the §3.1 enforcement path.
    AccessViolation(String),
    /// Trust validation failed (different workflow/tenant) — user-space
    /// mode requires explicit trust.
    TrustViolation(String),
    /// A named module is not loaded in this shim's VM.
    UnknownModule(String),
    /// The guest is missing a required export (e.g. `allocate_memory`).
    MissingGuestApi(String),
    /// Configuration problem.
    Config(String),
}

impl fmt::Display for RoadrunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadrunnerError::Trap(t) => write!(f, "guest trapped: {t}"),
            RoadrunnerError::Instance(e) => write!(f, "instantiation failed: {e}"),
            RoadrunnerError::Kernel(e) => write!(f, "kernel object failed: {e}"),
            RoadrunnerError::AccessViolation(msg) => write!(f, "access violation: {msg}"),
            RoadrunnerError::TrustViolation(msg) => write!(f, "trust violation: {msg}"),
            RoadrunnerError::UnknownModule(name) => write!(f, "unknown module `{name}`"),
            RoadrunnerError::MissingGuestApi(name) => {
                write!(f, "guest does not export required API `{name}`")
            }
            RoadrunnerError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl Error for RoadrunnerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RoadrunnerError::Trap(t) => Some(t),
            RoadrunnerError::Instance(e) => Some(e),
            RoadrunnerError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Trap> for RoadrunnerError {
    fn from(t: Trap) -> Self {
        RoadrunnerError::Trap(t)
    }
}

impl From<InstanceError> for RoadrunnerError {
    fn from(e: InstanceError) -> Self {
        RoadrunnerError::Instance(e)
    }
}

impl From<VkError> for RoadrunnerError {
    fn from(e: VkError) -> Self {
        RoadrunnerError::Kernel(e)
    }
}

impl From<RoadrunnerError> for PlatformError {
    fn from(e: RoadrunnerError) -> Self {
        match e {
            RoadrunnerError::TrustViolation(msg) | RoadrunnerError::AccessViolation(msg) => {
                PlatformError::AccessDenied(msg)
            }
            other => PlatformError::Transfer(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_detail() {
        let e: RoadrunnerError = Trap::FuelExhausted.into();
        assert!(e.to_string().contains("fuel"));
        assert!(e.source().is_some());
        let e: RoadrunnerError = VkError::Closed.into();
        assert!(e.to_string().contains("closed"));
    }

    #[test]
    fn trust_violations_map_to_access_denied() {
        let p: PlatformError = RoadrunnerError::TrustViolation("wf mismatch".into()).into();
        assert!(matches!(p, PlatformError::AccessDenied(_)));
        let p: PlatformError = RoadrunnerError::UnknownModule("m".into()).into();
        assert!(matches!(p, PlatformError::Transfer(_)));
    }
}
