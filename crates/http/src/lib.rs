//! Minimal HTTP/1.1 over virtual-kernel streams.
//!
//! "Serverless functions typically exchange data via network protocols
//! such as HTTP" (paper §1) — this crate is that protocol layer for the
//! reproduction's baselines: messages that carry a start line and a body
//! framed by `content-length` (the one shape the baselines send), an
//! incremental parser that refuses any other framing, and client/server
//! exchange helpers over the virtual kernel's stream socket, TCP or Unix.
//!
//! Costs modelled: building/parsing a message head
//! ([`roadrunner_vkernel::CostModel::http_head_ns`]) and the copy that
//! assembles head + body into one send buffer. The per-chunk socket
//! costs come from the underlying stream. A receive makes the one copy
//! the stream charges: each segment lands straight in the reader, whose
//! buffer the body is then handed out of.
//!
//! ```
//! use bytes::Bytes;
//! use roadrunner_http::{Request, MessageReader};
//!
//! let raw = Request::post("/invoke", Bytes::from_static(b"payload")).to_bytes();
//! let mut reader = MessageReader::new();
//! reader.feed(&raw);
//! let parsed = reader.try_request().unwrap().unwrap();
//! assert_eq!(parsed.path, "/invoke");
//! ```

pub mod exchange;
pub mod message;
pub mod parse;

pub use exchange::{read_request, read_response, send_request, send_response};
pub use message::{Request, Response};
pub use parse::{HttpError, MessageReader};
