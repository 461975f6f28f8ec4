//! Experiment implementations for the PhotoFourier benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a function here that
//! computes its rows/series; `--bin repro` prints them (`repro` all twelve,
//! `repro fig13 tab1` the named ones) and times nothing — the models behind
//! the tables are ladder rows of the repo benchmark under `benchmark/`.
//!
//! The crate also ships `--bin sweep`, the declarative design-space sweep
//! runner documented in `docs/SCENARIOS.md`. [`exitcode`] holds the exit
//! statuses of `repro`.
//!
//! # Examples
//!
//! Experiment results render through the fixed-width [`Table`] `repro`
//! prints:
//!
//! ```
//! use pf_bench::Table;
//!
//! let mut table = Table::new(vec!["# PFCU", "FPS/W"]);
//! table.row(vec!["8", "354.6"]).row(vec!["16", "418.7"]);
//! assert_eq!(table.len(), 2);
//! assert!(table.render().lines().count() >= 4); // header, rule, 2 rows
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod exitcode;
pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::Table;
