//! Signal-processing substrate for the PhotoFourier reproduction.
//!
//! The PhotoFourier accelerator computes convolutions optically through a
//! Joint Transform Correlator (JTC): a Fourier lens, a square-law
//! non-linearity and a second Fourier lens. Simulating that chain — and
//! validating the row-tiling algorithm against digital references — requires
//! a small, dependency-free DSP toolbox:
//!
//! * [`Complex`] — complex arithmetic used by the Fourier transforms, and
//!   [`ComplexLanes`], [`LANES`] of them side by side: the element of the
//!   lane transform.
//! * [`fft`] — FFT/IFFT for any 5-smooth length (`2^a·3^b·5^c`) plus a
//!   direct DFT reference for any length.
//! * [`plan`] — precomputed FFT plans (one mixed-radix kernel, powers of
//!   two as radix-2 passes, plus a real-input half-spectrum transform with
//!   selected-bin, row-batch and lane forms) shared through a process-wide
//!   registry; the hot path of the JTC simulation.
//! * [`conv`] — reference 1D/2D convolution and cross-correlation kernels in
//!   `full`/`same`/`valid` modes, and FFT-accelerated 1D convolution.
//! * [`scratch`] — per-thread reusable working buffers for spectrum
//!   pipelines, so steady-state transforms allocate nothing.
//! * [`util`] — numeric helpers (padding, error metrics, power-of-two math).
//!
//! # Examples
//!
//! ```
//! use pf_dsp::conv::{conv1d, PaddingMode};
//!
//! let signal = [1.0, 2.0, 3.0];
//! let kernel = [1.0, 1.0];
//! let full = conv1d(&signal, &kernel, PaddingMode::Full);
//! assert_eq!(full, vec![1.0, 3.0, 5.0, 3.0]);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod butterfly;
pub mod complex;
pub mod conv;
pub mod error;
pub mod fft;
pub mod plan;
pub mod scratch;
pub mod util;

pub use complex::{Complex, ComplexLanes, LANES};
pub use error::DspError;
pub use plan::{FftPlan, RealFftPlan};
