//! The repo benchmark: five workloads, end-to-end metrics measured
//! untraced, and a per-layer ladder traced from outside the program.
//!
//! Nothing here is part of the `photofourier` workspace: the crate has its
//! own `[workspace]` table and reaches the program only through its public
//! functions. See `README.md` for the workloads, the metrics and how to
//! compare two commits.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod host;
pub mod inputs;
pub mod ladder;
pub mod offline;
pub mod probes;
pub mod report;
pub mod route;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced_engine;
