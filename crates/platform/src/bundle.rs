//! OCI-style function bundles.
//!
//! The shim "packages the Wasm VM as an OCI-compliant bundle … executed
//! as a container by high-level container managers such as containerd"
//! (paper §3.2.5). A [`FunctionBundle`] is that artifact: a real encoded
//! Wasm binary plus the workflow and tenant Roadrunner's trust
//! validation checks before enabling user-space mode. The container
//! baselines deploy no bundle: their image sizes are
//! `baselines::coldstart` constants.

/// A deployable function artifact: a named Wasm binary and the workflow
/// and tenant it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionBundle {
    name: String,
    /// Encoded `\0asm` bytes.
    binary: Vec<u8>,
    workflow: Option<String>,
    tenant: Option<String>,
}

impl FunctionBundle {
    /// Creates a Wasm bundle from real module bytes.
    pub fn wasm(name: impl Into<String>, binary: Vec<u8>) -> Self {
        Self { name: name.into(), binary, workflow: None, tenant: None }
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded Wasm module.
    pub fn binary(&self) -> &[u8] {
        &self.binary
    }

    /// Sets the workflow (chainable).
    pub fn with_workflow(mut self, workflow: impl Into<String>) -> Self {
        self.workflow = Some(workflow.into());
        self
    }

    /// Sets the tenant (chainable).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The workflow, if set.
    pub fn workflow(&self) -> Option<&str> {
        self.workflow.as_deref()
    }

    /// The tenant, if set.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Whether two bundles may share a Wasm VM under Roadrunner's trust
    /// rule: same workflow *and* same tenant (paper §3.1, "Only functions
    /// of the same workflow and tenant are instantiated in the same Wasm
    /// VM").
    pub fn trusts(&self, other: &FunctionBundle) -> bool {
        match (self.workflow(), other.workflow(), self.tenant(), other.tenant()) {
            (Some(w1), Some(w2), Some(t1), Some(t2)) => w1 == w2 && t1 == t2,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasm_bundle_size_is_binary_length() {
        let b = FunctionBundle::wasm("f", vec![0; 3_190_000]);
        assert_eq!(b.binary().len(), 3_190_000);
        assert_eq!(b.name(), "f");
    }

    #[test]
    fn trust_requires_same_workflow_and_tenant() {
        let mk = |wf: &str, tenant: &str| {
            FunctionBundle::wasm("f", vec![]).with_workflow(wf).with_tenant(tenant)
        };
        assert!(mk("wf1", "acme").trusts(&mk("wf1", "acme")));
        assert!(!mk("wf1", "acme").trusts(&mk("wf2", "acme")));
        assert!(!mk("wf1", "acme").trusts(&mk("wf1", "other")));
    }

    #[test]
    fn unannotated_bundles_are_never_trusted() {
        let plain = FunctionBundle::wasm("f", vec![]);
        let annotated = FunctionBundle::wasm("g", vec![]).with_workflow("wf").with_tenant("t");
        assert!(!plain.trusts(&annotated));
        assert!(!annotated.trusts(&plain));
        assert!(!plain.trusts(&plain));
    }
}
