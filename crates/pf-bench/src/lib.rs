//! Experiment implementations for the PhotoFourier benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a function here that
//! computes its rows/series; `--bin repro` prints them (`repro` all twelve,
//! `repro fig13 tab1` the named ones) and times nothing — the models behind
//! the tables are ladder rows of the repo benchmark under `benchmark/`.
//!
//! The crate also ships three standalone drivers: `--bin perf` (the
//! thread-sweep report and the telemetry-overhead gate, the two host-side
//! measurements the repo benchmark under `benchmark/` does not take, see
//! [`perf`]), `--bin sweep` (the declarative design-space sweep runner
//! documented in `docs/SCENARIOS.md`) and `--bin loadgen` (the serving load
//! generator driving the `pf-serve` micro-batching server, see [`serving`]
//! and `docs/SERVING.md`; its `--route` mode drives the `pf-router`
//! multi-replica tier with trace-driven arrivals instead, see [`routing`],
//! and its `--chaos` mode drives the fault-injected tier and gates on
//! self-healing, see [`chaos`] and [`exitcode`] for the exit taxonomy).
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

pub mod chaos;
pub mod exitcode;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod routing;
pub mod serving;

pub use experiments::*;
pub use report::Table;

use photofourier::prelude::{Scenario, Tensor};

/// The seeded uniform `[0, 1)` image of the scenario's functional input
/// shape. Every load generator and `perf` workload draws its traffic here,
/// so one seed names one image across gates and offline verification.
pub(crate) fn scenario_image(scenario: &Scenario, seed: u64) -> Tensor {
    let f = &scenario.functional;
    Tensor::random(
        vec![f.input_channels, f.input_size, f.input_size],
        0.0,
        1.0,
        seed,
    )
}

/// Whether two tensors agree in shape and in every sample's bit pattern.
pub(crate) fn tensors_bit_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
