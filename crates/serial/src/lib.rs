//! Serialization framework for the Roadrunner reproduction.
//!
//! Serverless baselines in the Roadrunner paper (RunC containers and
//! WasmEdge functions) exchange data over HTTP, which requires converting
//! structured in-memory data into a linear byte stream (serialization) at
//! the source and reconstructing it (deserialization) at the target.
//! Roadrunner's core claim is that this step can be skipped entirely by
//! transferring raw linear-memory regions.
//!
//! This crate provides the machinery both sides need:
//!
//! * [`Value`] — a structured, self-describing data model (the "potentially
//!   complex data structures" of the paper's §1).
//! * [`text`] — a JSON-like text codec, the serialization format the
//!   HTTP-based baselines pay for.
//! * [`binary`] — a compact tag-length-value binary codec, used where the
//!   baselines opt into binary framing.
//! * [`payload`] — synthetic workload payload generators used by the
//!   evaluation harness (structured records of a requested size, mirroring
//!   the "serialized strings" exchanged by functions `a` and `b` in §6.1).
//!
//! # Example
//!
//! ```
//! use roadrunner_serial::{text, Value};
//!
//! # fn main() -> Result<(), roadrunner_serial::DecodeError> {
//! let v = Value::map([
//!     ("sensor", Value::from("cam-7")),
//!     ("frames", Value::list([Value::from(1i64), Value::from(2i64)])),
//! ]);
//! let encoded = text::to_text(&v);
//! let decoded = text::from_text(&encoded)?;
//! assert_eq!(v, decoded);
//! # Ok(())
//! # }
//! ```

mod error;
mod keys;
mod value;

pub mod binary;
pub mod payload;
pub mod text;
pub mod varint;

/// Maximum nesting depth [`text::from_text`] and [`binary::from_binary`]
/// accept, guarding both recursive decoders against stack exhaustion
/// from hostile inputs. A document's root is at depth 0; a value inside
/// more than `MAX_DEPTH` containers is refused.
pub const MAX_DEPTH: usize = 128;

pub use error::DecodeError;
pub use payload::Payload;
pub use value::{Record, Value};
