//! The Roadrunner benchmark: one ruler for both clocks.
//!
//! Five workloads, each measured end to end (host wall-clock *and* the
//! model's virtual clock) and, in a separate traced pass, layer by
//! layer. It claims no gain; every later performance or simplicity
//! change is judged with it. See `README.md` beside this crate.

pub mod host;
pub mod json;
pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
