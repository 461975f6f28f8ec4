//! Photonic and mixed-signal component models for the PhotoFourier
//! reproduction.
//!
//! The PhotoFourier accelerator (HPCA 2023) is built from a small set of
//! devices whose power, area and noise behaviour drive every architectural
//! result in the paper:
//!
//! * micro-ring resonator modulators ([`mrr::Mrr`]) that imprint activation /
//!   weight values on the optical carriers,
//! * photodetectors ([`detector::Photodetector`]) that square-law detect the
//!   field and add dark-current noise, and the capacitor bank behind them
//!   ([`temporal::TemporalAccumulator`]) that integrates partial sums for
//!   *temporal accumulation*,
//! * DACs ([`dac::Dac`]) and ADCs ([`adc::Adc`]) performing the costly
//!   E-O / O-E conversions the architecture tries to minimise,
//! * lasers, on-chip lenses, splitters and waveguides that set the optical
//!   power budget and chip area.
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
pub mod laser;
pub mod mrr;
pub mod params;
pub mod temporal;
pub mod units;

pub use error::PhotonicsError;
pub use params::{ComponentDims, TechConfig, TechNode};
