//! End-to-end and per-layer benchmark of the DeepUM reproduction.
//!
//! `main.rs` is the command; the modules are a library so the tests
//! under `tests/` can drive the timing adapter directly.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod hist;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod workloads;
