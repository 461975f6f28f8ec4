//! Architecture simulator for PhotoFourier (Sections IV–VI of the paper).
//!
//! This crate is the Rust counterpart of the paper's "custom Python-based
//! simulator": it schedules CNN convolution layers onto a multi-PFCU
//! accelerator, counts cycles and electro-optic conversions, and produces
//! latency / power / area / FPS / FPS-per-watt / EDP numbers for the
//! PhotoFourier-CG and PhotoFourier-NG design points as well as for the
//! un-optimised baseline and the intermediate optimisation steps.
//!
//! Module map:
//!
//! * [`config`] — accelerator configurations (design points + the
//!   optimisation ladder of Figure 10);
//! * [`parallel`] — the parallelisation-scheme analysis of Section V-D
//!   (input broadcasting vs channel parallelisation, Figure 8);
//! * [`dataflow`] — output-stationary scheduling of one convolution layer
//!   onto the PFCUs via row tiling, producing cycle and conversion counts;
//! * [`power`] — the component power/energy model (Table IV constants) and
//!   per-layer energy breakdowns (Figures 6 and 12);
//! * [`area`] — the component area model (Table V constants), chip-area
//!   breakdowns (Figure 11) and the waveguides-vs-PFCU-count trade-off
//!   (Table III);
//! * [`memory`] — SRAM capacity checks and DRAM traffic accounting;
//! * [`simulator`] — the top-level [`simulator::Simulator`] producing
//!   [`simulator::NetworkPerformance`] for a [`pf_nn::models::NetworkSpec`];
//! * [`design_space`] — the Table III design-space sweep;
//! * [`optimizations`] — the cumulative-optimisation study of Figure 10;
//! * [`baselines`] — the prior accelerators of the Figure 13 and CrossLight
//!   comparisons (Section VI-E): a systolic-array model of UNPU and the
//!   prior photonic designs, anchored to simulated PhotoFourier-CG results.
//!
//! # Examples
//!
//! ```
//! use pf_arch::config::ArchConfig;
//! use pf_arch::simulator::Simulator;
//! use pf_nn::models::imagenet::resnet18;
//!
//! let sim = Simulator::new(ArchConfig::photofourier_cg())?;
//! let perf = sim.evaluate_network(&resnet18())?;
//! assert!(perf.fps > 0.0);
//! assert!(perf.fps_per_watt > 0.0);
//! # Ok::<(), pf_arch::ArchError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod area;
pub mod baselines;
pub mod config;
pub mod dataflow;
pub mod design_space;
pub mod error;
pub mod memory;
pub mod optimizations;
pub mod parallel;
pub mod power;
pub mod simulator;
pub mod whatif;

pub use config::ArchConfig;
pub use error::ArchError;
pub use simulator::{NetworkPerformance, Simulator};
