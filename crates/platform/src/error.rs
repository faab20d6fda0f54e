//! Platform-level error type.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the platform layer and the data planes beneath it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// Function referenced by a workflow is not deployed.
    NotDeployed(String),
    /// A transfer between functions failed (transport/trap details in the
    /// message).
    Transfer(String),
    /// A workflow specification is structurally invalid.
    InvalidWorkflow(String),
    /// Access denied by Roadrunner's trust validation.
    AccessDenied(String),
    /// A load description that can never admit anything by construction.
    InvalidLoad(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NotDeployed(n) => write!(f, "function `{n}` is not deployed"),
            PlatformError::Transfer(msg) => write!(f, "transfer failed: {msg}"),
            PlatformError::InvalidWorkflow(msg) => write!(f, "invalid workflow: {msg}"),
            PlatformError::AccessDenied(msg) => write!(f, "access denied: {msg}"),
            PlatformError::InvalidLoad(msg) => write!(f, "invalid load: {msg}"),
        }
    }
}

impl Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PlatformError::NotDeployed("f".into()).to_string().contains("`f`"));
        assert!(PlatformError::Transfer("boom".into()).to_string().contains("boom"));
        assert!(PlatformError::AccessDenied("x".into()).to_string().contains("denied"));
    }
}
