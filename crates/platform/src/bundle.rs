//! OCI-style function bundles.
//!
//! The shim "packages the Wasm VM as an OCI-compliant bundle … executed
//! as a container by high-level container managers such as containerd"
//! (paper §3.2.5). A [`FunctionBundle`] is that artifact: the runnable
//! payload (a real encoded Wasm binary, or a container image descriptor)
//! plus the manifest metadata orchestrators read — including the
//! workflow/tenant annotations Roadrunner's trust validation checks
//! before enabling user-space mode.

use std::collections::BTreeMap;

/// Annotation key naming the workflow a function belongs to.
pub const ANNOTATION_WORKFLOW: &str = "dev.roadrunner.workflow";
/// Annotation key naming the tenant that owns a function.
pub const ANNOTATION_TENANT: &str = "dev.roadrunner.tenant";

/// What a bundle actually contains.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleKind {
    /// A WebAssembly module in (real) binary encoding.
    WasmModule {
        /// Encoded `\0asm` bytes.
        binary: Vec<u8>,
    },
    /// A container image (the baseline path); only its size matters for
    /// cold-start modelling.
    ContainerImage {
        /// Compressed image size in bytes (the paper measured ~76.9 MB).
        image_size: u64,
    },
}

/// Manifest metadata carried alongside the payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Free-form annotations (workflow, tenant, …), sorted for
    /// deterministic encoding.
    pub annotations: BTreeMap<String, String>,
}

/// A deployable function artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionBundle {
    name: String,
    kind: BundleKind,
    manifest: Manifest,
}

impl FunctionBundle {
    /// Creates a Wasm bundle from real module bytes.
    pub fn wasm(name: impl Into<String>, binary: Vec<u8>) -> Self {
        Self {
            name: name.into(),
            kind: BundleKind::WasmModule { binary },
            manifest: Manifest::default(),
        }
    }

    /// Creates a container-image bundle of the given size.
    pub fn container(name: impl Into<String>, image_size: u64) -> Self {
        Self {
            name: name.into(),
            kind: BundleKind::ContainerImage { image_size },
            manifest: Manifest::default(),
        }
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bundle payload.
    pub fn kind(&self) -> &BundleKind {
        &self.kind
    }

    /// Manifest metadata.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Sets the workflow annotation (chainable).
    pub fn with_workflow(mut self, workflow: impl Into<String>) -> Self {
        self.manifest
            .annotations
            .insert(ANNOTATION_WORKFLOW.to_owned(), workflow.into());
        self
    }

    /// Sets the tenant annotation (chainable).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.manifest.annotations.insert(ANNOTATION_TENANT.to_owned(), tenant.into());
        self
    }

    /// Workflow annotation, if present.
    pub fn workflow(&self) -> Option<&str> {
        self.manifest.annotations.get(ANNOTATION_WORKFLOW).map(String::as_str)
    }

    /// Tenant annotation, if present.
    pub fn tenant(&self) -> Option<&str> {
        self.manifest.annotations.get(ANNOTATION_TENANT).map(String::as_str)
    }

    /// Artifact size in bytes (Wasm binary length or image size) — the
    /// quantity Fig. 2a compares (3.19 MB Wasm vs 76.9 MB image).
    pub fn size_bytes(&self) -> u64 {
        match &self.kind {
            BundleKind::WasmModule { binary } => binary.len() as u64,
            BundleKind::ContainerImage { image_size } => *image_size,
        }
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
        assert_eq!(b.size_bytes(), 3_190_000);
        assert_eq!(b.name(), "f");
    }

    #[test]
    fn container_bundle_size_is_image_size() {
        let b = FunctionBundle::container("f", 76_900_000);
        assert_eq!(b.size_bytes(), 76_900_000);
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
