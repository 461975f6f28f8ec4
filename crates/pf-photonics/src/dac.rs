//! Digital-to-analog converter model.
//!
//! DACs generate the analog drive levels for the input-activation and weight
//! MRRs. They run at the full 10 GHz photonic clock and are the single
//! largest power consumer of the baseline system (Figure 6); the small-filter
//! optimisation (Section IV-B) and input broadcasting (Section V-D) exist to
//! reduce how many of them are needed.

use serde::{Deserialize, Serialize};

use crate::adc::round_half_away;
use crate::error::PhotonicsError;
use crate::units::Milliwatts;

/// An idealised current-steering / switched-capacitor DAC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dac {
    bits: u32,
    frequency_ghz: f64,
    power_mw: f64,
}

impl Dac {
    /// Creates a DAC model with the given resolution, conversion frequency
    /// and power at that frequency.
    ///
    /// # Errors
    ///
    /// Returns an error if `bits` is 0 or greater than 16, or if frequency or
    /// power is not positive.
    pub fn new(bits: u32, frequency_ghz: f64, power_mw: f64) -> Result<Self, PhotonicsError> {
        if bits == 0 || bits > 16 {
            return Err(PhotonicsError::UnsupportedResolution { bits });
        }
        if frequency_ghz <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "frequency_ghz",
                value: frequency_ghz,
                requirement: "must be positive",
            });
        }
        if power_mw <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "power_mw",
                value: power_mw,
                requirement: "must be positive",
            });
        }
        Ok(Self {
            bits,
            frequency_ghz,
            power_mw,
        })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Conversion frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.frequency_ghz
    }

    /// Power at the configured frequency.
    pub fn power(&self) -> Milliwatts {
        Milliwatts(self.power_mw)
    }

    /// Number of representable levels.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Converts a real value in `[0, 1]` to the nearest representable
    /// analog output level (unsigned unipolar DAC driving an MRR).
    ///
    /// Out-of-range inputs are clipped to `[0, 1]`.
    pub fn generate(&self, value: f64) -> f64 {
        let levels = (self.levels() - 1) as f64;
        let clipped = value.clamp(0.0, 1.0);
        round_half_away(clipped * levels) / levels
    }

    /// Converts a slice of values through [`Dac::generate`].
    pub fn generate_slice(&self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.generate(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Dac::new(0, 1.0, 1.0).is_err());
        assert!(Dac::new(17, 1.0, 1.0).is_err());
        assert!(Dac::new(8, 0.0, 1.0).is_err());
        assert!(Dac::new(8, 1.0, -5.0).is_err());
        assert!(Dac::new(8, 10.0, 35.71).is_ok());
    }

    #[test]
    fn paper_dac_parameters() {
        // PhotoFourier-CG's DAC: 8 bits at 10 GHz, 35.71 mW (Table IV).
        let dac = Dac::new(8, 10.0, 35.71).unwrap();
        assert_eq!(dac.bits(), 8);
        assert_eq!(dac.frequency_ghz(), 10.0);
        assert_eq!(dac.power(), Milliwatts(35.71));
        assert_eq!(dac.levels(), 256);
    }

    #[test]
    fn generate_quantizes_and_clips() {
        let dac = Dac::new(8, 10.0, 35.71).unwrap();
        assert_eq!(dac.generate(0.0), 0.0);
        assert_eq!(dac.generate(1.0), 1.0);
        assert_eq!(dac.generate(2.0), 1.0);
        assert_eq!(dac.generate(-1.0), 0.0);
        let v = dac.generate(0.5);
        assert!((v - 0.5).abs() < 1.0 / 255.0);
        // idempotent
        assert_eq!(dac.generate(v), v);
    }

    #[test]
    fn generate_slice_matches_scalar() {
        let dac = Dac::new(6, 10.0, 1.0).unwrap();
        let vals = [0.1, 0.33, 0.99];
        let out = dac.generate_slice(&vals);
        for (v, o) in vals.iter().zip(&out) {
            assert_eq!(*o, dac.generate(*v));
        }
    }

    #[test]
    fn resolution_controls_step_size() {
        let coarse = Dac::new(2, 1.0, 1.0).unwrap();
        // 2-bit: levels at 0, 1/3, 2/3, 1
        assert!((coarse.generate(0.3) - 1.0 / 3.0).abs() < 1e-12);
        let fine = Dac::new(10, 1.0, 1.0).unwrap();
        assert!((fine.generate(0.3) - 0.3).abs() < 1e-3);
    }
}
