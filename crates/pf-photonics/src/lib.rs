//! Mixed-signal component models and published design constants for the
//! PhotoFourier reproduction.
//!
//! The PhotoFourier accelerator (HPCA 2023) is built from a small set of
//! devices. Their cost is charged from the paper's tables; their behaviour
//! on a signal is modelled where the accuracy results depend on it:
//!
//! * DACs ([`dac::Dac`]) and ADCs ([`adc::Adc`]) quantise the E-O / O-E
//!   conversions the architecture tries to minimise,
//! * the output-plane photodetectors add sensing noise at a set SNR
//!   ([`detector::SensingNoise`]), and the capacitor bank behind them
//!   ([`temporal::TemporalAccumulator`]) integrates partial sums for
//!   *temporal accumulation*,
//! * micro-ring modulators, lasers, on-chip lenses, splitters and
//!   waveguides enter only through their Table IV power and Table V
//!   footprint, which the architecture model charges.
//!
//! [`params`] carries the exact constants of Table IV (component power) and
//! Table V (component dimensions), for both the conservative
//! **PhotoFourier-CG** (14 nm, 2 chiplets) and the forward-looking
//! **PhotoFourier-NG** (7 nm, monolithic) design points.
//!
//! # Examples
//!
//! ```
//! use pf_photonics::params::TechConfig;
//!
//! let cg = TechConfig::photofourier_cg();
//! let ng = TechConfig::photofourier_ng();
//! assert!(cg.dac_power_mw > ng.dac_power_mw);
//! assert_eq!(cg.num_pfcus, 8);
//! assert_eq!(ng.num_pfcus, 16);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adc;
pub mod dac;
pub mod detector;
pub mod error;
pub mod params;
pub mod temporal;
pub mod units;

pub use error::PhotonicsError;
pub use params::{ComponentDims, TechConfig, TechNode};
