//! A WASI-like host interface for the `roadrunner-wasm` engine.
//!
//! WebAssembly follows deny-by-default: a module reaches the outside
//! world only through imported host functions. The standard set of those
//! is WASI, and the paper's baselines route *all* their I/O through it —
//! paying a boundary crossing plus a copy in or out of linear memory on
//! every call. This crate reproduces that interface (preview-1 ABI:
//! iovec arrays, errno returns) and charges those costs to the calling
//! sandbox's account, making the "WASI overhead" of the paper's Fig. 2a
//! a measurable quantity.
//!
//! * [`WasiCtx`] — per-instance state: stdio, an in-memory filesystem,
//!   sockets, args/env, deterministic randomness, exit code.
//! * [`mod@register`] — installs `fd_read`/`fd_write`/`sock_send`/… into a
//!   [`roadrunner_wasm::Linker`].
//! * [`sock`] — the socket adapter over the virtual kernel's stream
//!   socket (TCP or Unix), and an in-process loopback for tests.
//!
//! The host-state type is generic via [`HasWasi`], so the Roadrunner shim
//! can embed a `WasiCtx` inside its own state: unmodified modules keep
//! using plain WASI while opted-in modules use the fast path — the
//! backward-compatibility property of the paper's §7.

pub mod ctx;
pub mod register;
pub mod sock;

pub use ctx::{errno, WasiCtx, WasiSocket};
pub use register::{register, HasWasi, MODULE, PROC_EXIT};
