// `RoadrunnerError` deliberately carries rich diagnostic context (region
// descriptors, trust details); errors are cold paths here, so the enum's
// size is not worth boxing away.
#![allow(clippy::result_large_err)]

//! **Roadrunner** — near-zero-copy, serialization-free data transfer for
//! WebAssembly-based serverless functions.
//!
//! Reproduction of Marcelino, Pusztai & Nastic, *"Roadrunner:
//! Accelerating Data Delivery to WebAssembly-Based Serverless
//! Functions"*, MIDDLEWARE 2025. See `DESIGN.md` at the repository root
//! for the system inventory and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! # What it does
//!
//! Serverless functions normally exchange data over HTTP: serialize →
//! copy across the user/kernel boundary → network → copy back →
//! deserialize. For Wasm functions, every one of those steps also crosses
//! the VM boundary through WASI. Roadrunner is a sidecar *shim* that
//! skips the expensive parts:
//!
//! * the guest hands the shim a **region descriptor** (`send_to_host`),
//!   not the payload — locating data costs O(1);
//! * payloads move as **raw linear-memory bytes**, never serialized;
//! * between hosts, the **virtual data hose** (`vmsplice` + `splice`)
//!   moves page references instead of copying bytes.
//!
//! # Crate map
//!
//! | Module | Paper section | Content |
//! |--------|--------------|---------|
//! | [`shim`] | §3.2 | VM lifecycle, Table-1 host APIs, region checks |
//! | [`api`] | Table 1 | Guest-visible `roadrunner::*` imports |
//! | [`guest`] | §6.1 | Guest-module SDK (producer/consumer/relay/…) |
//! | [`userspace`] | §4.1 | Same-VM transfers |
//! | [`kernelspace`] | §4.2 | Unix-socket transfers |
//! | [`hose`] | §4.3 | The virtual data hose (Algorithm 1) |
//! | [`plane`] | §3.2.3 | Mode selection + workflow integration |
//! | [`region`] | §3.1 | Pre-registered regions, bounds checks |
//!
//! # Quickstart
//!
//! ```
//! use bytes::Bytes;
//! use roadrunner::{guest, Mode, RoadrunnerPlane, ShimConfig};
//! use roadrunner_platform::FunctionBundle;
//! use roadrunner_vkernel::Testbed;
//! use roadrunner_wasm::encode;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), roadrunner::RoadrunnerError> {
//! let bed = Arc::new(Testbed::paper());
//! let mut plane = RoadrunnerPlane::new(bed, ShimConfig::default());
//!
//! let wrap = |name: &str, m| {
//!     Arc::new(
//!         FunctionBundle::wasm(name, encode::encode(&m))
//!             .with_workflow("demo")
//!             .with_tenant("acme"),
//!     )
//! };
//! plane.deploy(0, "a", wrap("a", guest::producer()), "produce", false)?;
//! plane.deploy(1, "b", wrap("b", guest::consumer()), "consume", true)?;
//! assert_eq!(plane.mode_of("a", "b")?, Mode::Network);
//!
//! let received = plane.transfer_edge("a", "b", &Bytes::from_static(b"hello, hose"))?;
//! assert_eq!(&received[..], b"hello, hose");
//! # Ok(())
//! # }
//! ```

pub mod api;
pub mod config;
pub mod error;
pub mod guest;
pub mod hose;
pub mod kernelspace;
mod module;
pub mod plane;
pub mod region;
pub mod shim;
pub mod userspace;

pub use api::ShimState;
pub use config::ShimConfig;
pub use error::RoadrunnerError;
pub use plane::{EdgeBreakdown, Mode, RoadrunnerPlane};
pub use region::{MemoryRegion, RegionRegistry};
pub use shim::Shim;
