//! A WASI-like host interface for the `roadrunner-wasm` engine.
//!
//! WebAssembly follows deny-by-default: a module reaches the outside
//! world only through imported host functions. The standard set of those
//! is WASI, and the paper's baselines route *all* their I/O through it —
//! paying a boundary crossing plus a copy in or out of linear memory on
//! every call. This crate reproduces the five calls the in-tree guests
//! make — `fd_read`, `fd_write`, `path_open`, `sock_send`, `sock_recv`
//! (preview-1 ABI: iovec arrays, errno returns) — and charges those
//! costs to the calling sandbox's account, making the "WASI overhead" of
//! the paper's Fig. 2a a measurable quantity. Any other preview-1 import
//! is left undefined, so a module that needs one fails to instantiate.
//!
//! * [`WasiCtx`] — per-instance state: captured stdout, read-only files
//!   the host seeds, sockets.
//! * [`mod@register`] — installs the five calls into a
//!   [`roadrunner_wasm::Linker`].
//! * [`sock`] — the WASI socket over the virtual kernel's stream socket
//!   (TCP or Unix).
//!
//! Each data call copies guest bytes once, straight between linear
//! memory and where they rest: a received segment's kernel buffer, a
//! seeded file, stdout, or (for a single-iovec send) the socket's send
//! path.
//!
//! The host-state type is generic via [`HasWasi`], so the Roadrunner shim
//! can embed a `WasiCtx` inside its own state: unmodified modules keep
//! using plain WASI while opted-in modules use the fast path — the
//! backward-compatibility property of the paper's §7.

pub mod ctx;
pub mod register;
pub mod sock;

pub use ctx::{errno, WasiCtx};
pub use register::{register, HasWasi, MODULE};
