//! Laser source model.
//!
//! PhotoFourier budgets 0.5 mW of laser power per waveguide (Table IV), set
//! so that the signal at the photodetectors stays above roughly 20 dB SNR
//! against the detector dark current after the system's optical losses
//! (Section VI-A).

use serde::{Deserialize, Serialize};

use crate::detector::Photodetector;
use crate::error::PhotonicsError;
use crate::units::Milliwatts;

/// A multi-wavelength laser source feeding a bank of waveguides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Laser {
    power_per_waveguide_mw: f64,
    num_waveguides: usize,
    wall_plug_efficiency: f64,
}

impl Laser {
    /// Creates a laser delivering `power_per_waveguide_mw` of optical power to
    /// each of `num_waveguides` waveguides at the given wall-plug efficiency.
    ///
    /// # Errors
    ///
    /// Returns an error if the power is not positive, the waveguide count is
    /// zero, or the efficiency is outside `(0, 1]`.
    pub fn new(
        power_per_waveguide_mw: f64,
        num_waveguides: usize,
        wall_plug_efficiency: f64,
    ) -> Result<Self, PhotonicsError> {
        if power_per_waveguide_mw <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "power_per_waveguide_mw",
                value: power_per_waveguide_mw,
                requirement: "must be positive",
            });
        }
        if num_waveguides == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "num_waveguides",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        if wall_plug_efficiency <= 0.0 || wall_plug_efficiency > 1.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "wall_plug_efficiency",
                value: wall_plug_efficiency,
                requirement: "must be in (0, 1]",
            });
        }
        Ok(Self {
            power_per_waveguide_mw,
            num_waveguides,
            wall_plug_efficiency,
        })
    }

    /// PhotoFourier's default budget: 0.5 mW optical per waveguide, counted
    /// directly as system power (the paper's Table IV lists the per-waveguide
    /// number as the laser contribution, i.e. wall-plug efficiency folded in).
    ///
    /// # Errors
    ///
    /// Returns an error if `num_waveguides` is zero.
    pub fn photofourier_default(num_waveguides: usize) -> Result<Self, PhotonicsError> {
        Self::new(0.5, num_waveguides, 1.0)
    }

    /// Optical power delivered to one waveguide.
    pub fn optical_power_per_waveguide(&self) -> Milliwatts {
        Milliwatts(self.power_per_waveguide_mw)
    }

    /// Total optical power across all waveguides.
    pub fn total_optical_power(&self) -> Milliwatts {
        Milliwatts(self.power_per_waveguide_mw * self.num_waveguides as f64)
    }

    /// Electrical (wall-plug) power drawn by the laser.
    pub fn electrical_power(&self) -> Milliwatts {
        Milliwatts(
            self.power_per_waveguide_mw * self.num_waveguides as f64 / self.wall_plug_efficiency,
        )
    }

    /// Number of waveguides fed.
    pub fn num_waveguides(&self) -> usize {
        self.num_waveguides
    }

    /// Checks whether the per-waveguide power keeps the detector SNR above
    /// `target_snr_db` given an end-to-end optical loss of `system_loss_db`
    /// and the detector's responsivity / dark current.
    pub fn meets_snr_target(
        &self,
        detector: &Photodetector,
        system_loss_db: f64,
        target_snr_db: f64,
    ) -> bool {
        let delivered_mw = self.power_per_waveguide_mw * 10f64.powf(-system_loss_db / 10.0);
        // photocurrent in nA: responsivity [A/W] * power [mW] = mA -> 1e6 nA
        let signal_na = detector.config().responsivity_a_per_w * delivered_mw * 1e6;
        detector.snr_db(signal_na) >= target_snr_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;

    #[test]
    fn construction_validation() {
        assert!(Laser::new(0.0, 1, 1.0).is_err());
        assert!(Laser::new(1.0, 0, 1.0).is_err());
        assert!(Laser::new(1.0, 1, 0.0).is_err());
        assert!(Laser::new(1.0, 1, 1.5).is_err());
        assert!(Laser::new(0.5, 256, 0.2).is_ok());
    }

    #[test]
    fn default_matches_table_iv() {
        let laser = Laser::photofourier_default(256).unwrap();
        assert_eq!(laser.optical_power_per_waveguide(), Milliwatts(0.5));
        assert_eq!(laser.total_optical_power(), Milliwatts(128.0));
        assert_eq!(laser.num_waveguides(), 256);
    }

    #[test]
    fn electrical_power_includes_efficiency() {
        let laser = Laser::new(0.5, 100, 0.25).unwrap();
        assert_eq!(laser.total_optical_power(), Milliwatts(50.0));
        assert_eq!(laser.electrical_power(), Milliwatts(200.0));
    }

    #[test]
    fn snr_target_check() {
        let detector = Photodetector::new(DetectorConfig {
            responsivity_a_per_w: 1.0,
            dark_current_na: 10.0,
        })
        .unwrap();
        let laser = Laser::photofourier_default(256).unwrap();
        // 0.5 mW with modest loss -> photocurrent ~ hundreds of uA >> 10 nA: easily > 20 dB.
        assert!(laser.meets_snr_target(&detector, 10.0, 20.0));
        // With absurd 70 dB loss the target fails for a 90 dB requirement.
        assert!(!laser.meets_snr_target(&detector, 70.0, 90.0));
    }
}
