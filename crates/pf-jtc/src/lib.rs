//! Functional simulation of the on-chip Joint Transform Correlator (JTC), the
//! optics of a PhotoFourier Compute Unit (PFCU).
//!
//! A JTC computes the cross-correlation of two signals placed side by side on
//! its input plane using nothing but two Fourier lenses and a square-law
//! non-linearity between them (Section II of the paper):
//!
//! 1. the first 1D on-chip lens Fourier-transforms the *joint* input
//!    `s(x + x_s) + k(x - x_k)`;
//! 2. photodetector/EOM pairs (or, in PhotoFourier-NG, a passive non-linear
//!    material) square the field in the Fourier plane;
//! 3. the second lens transforms back, producing the three output terms of
//!    Equation 1 — two correlation terms spatially shifted by `±(x_s + x_k)`
//!    and one non-convolution term `O(x)` in the centre.
//!
//! This crate provides:
//!
//! * [`correlator::JtcSimulator`] — the numerical optics chain, including the
//!   full output plane needed to reproduce Figure 2;
//! * [`engine::JtcEngine`] — a [`pf_tiling::Conv1dEngine`] backend so row
//!   tiling can run on the simulated optics, with optional DAC quantisation
//!   of inputs/weights, ADC quantisation of outputs and photodetector
//!   sensing noise;
//! * [`prepared::PreparedKernel`] / [`prepared::PreparedSpectrum`] — the
//!   throughput fast path: a kernel's padded spectrum computed once per
//!   `(kernel, tile length)` pair and reused across every row tile (and,
//!   through the row-tiling cache, every image of a batch), plus
//!   [`prepared::SignalSpectrum`] — a signal tile's first-lens transform
//!   computed once and replayed against many prepared kernels;
//! * [`temporal::accumulate_quantized_per_cycle`] — the per-cycle ADC
//!   baseline of Figure 7. Temporal accumulation itself (Section V-C: analog
//!   partial sums on the output-plane capacitor, one ADC read-out per 16
//!   cycles) is [`pf_photonics::temporal::TemporalAccumulator`] and
//!   [`pf_photonics::temporal::accumulate_with_depth`], the loop the CNN
//!   executor runs.
//!
//! # Examples
//!
//! ```
//! use pf_jtc::correlator::JtcSimulator;
//!
//! // Correlate a small signal with a kernel optically.
//! let jtc = JtcSimulator::new(64)?;
//! let signal = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 0.0];
//! let kernel = vec![1.0, 1.0, 1.0];
//! let corr = jtc.correlate(&signal, &kernel)?;
//! // Sliding sum of three consecutive samples, peak at the signal's centre.
//! assert_eq!(corr.len(), signal.len() - kernel.len() + 1);
//! assert!((corr[2] - 7.0).abs() < 1e-6);
//! # Ok::<(), pf_jtc::JtcError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod correlator;
pub mod engine;
pub mod error;
pub mod prepared;
pub mod temporal;

pub use correlator::{JtcOutput, JtcSimulator};
pub use engine::{JtcEngine, JtcEngineConfig};
pub use error::JtcError;
pub use prepared::{PreparedKernel, PreparedSpectrum, SignalSpectrum};
