//! The PhotoFourier Compute Unit (PFCU) — the hardware building block of the
//! accelerator (Section IV).
//!
//! A PFCU is a pipelined JTC with a fixed number of input waveguides (256 in
//! both design points) and a reduced set of *active* weight waveguides (25,
//! enough for a 5×5 filter) after the small-filter optimisation of Section
//! IV-B: weight positions without a DAC can only carry zeros, and their MRRs
//! are power-gated.
//!
//! The two-stage pipeline of Section IV-A (sample-and-hold at the Fourier
//! plane) doubles throughput: the baseline un-pipelined JTC only reaches 50%
//! utilisation because its two halves cannot work on different convolutions
//! at the same time.

use pf_tiling::Conv1dEngine;
use serde::{Deserialize, Serialize};

use crate::engine::{JtcEngine, JtcEngineConfig};
use crate::error::JtcError;

/// Static configuration of a PFCU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PfcuConfig {
    /// Number of input waveguides (the 1D convolution capacity).
    pub input_waveguides: usize,
    /// Number of active weight waveguides, i.e. weight positions that have a
    /// DAC and may carry a non-zero value.
    pub weight_waveguides: usize,
    /// Whether the Fourier-plane sample-and-hold pipeline stage is present.
    pub pipelined: bool,
    /// Signal-chain configuration (quantisation, noise).
    pub engine: JtcEngineConfig,
}

impl PfcuConfig {
    /// The PFCU used by both PhotoFourier design points: 256 input
    /// waveguides, 25 active weight waveguides, pipelined, ideal numerics
    /// (quantisation is applied by the architecture layer when needed).
    pub fn photofourier_default() -> Self {
        Self {
            input_waveguides: 256,
            weight_waveguides: pf_photonics::params::ACTIVE_WEIGHT_WAVEGUIDES,
            pipelined: true,
            engine: JtcEngineConfig::ideal(256),
        }
    }

    /// The un-optimised baseline JTC of Section II-B: as many weight
    /// waveguides as input waveguides and no pipelining.
    pub fn baseline() -> Self {
        Self {
            input_waveguides: 256,
            weight_waveguides: 256,
            pipelined: false,
            engine: JtcEngineConfig::ideal(256),
        }
    }
}

/// A functional PFCU instance.
#[derive(Debug)]
pub struct Pfcu {
    config: PfcuConfig,
    engine: JtcEngine,
}

impl Pfcu {
    /// Builds a PFCU from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if the waveguide counts are zero,
    /// if more weight waveguides than input waveguides are requested, or if
    /// the engine capacity does not match the input waveguide count.
    pub fn new(config: PfcuConfig) -> Result<Self, JtcError> {
        if config.input_waveguides == 0 {
            return Err(JtcError::InvalidConfig {
                name: "input_waveguides",
                requirement: "must be at least 1".to_string(),
            });
        }
        if config.weight_waveguides == 0 || config.weight_waveguides > config.input_waveguides {
            return Err(JtcError::InvalidConfig {
                name: "weight_waveguides",
                requirement: format!(
                    "must be between 1 and the number of input waveguides ({})",
                    config.input_waveguides
                ),
            });
        }
        if config.engine.capacity != config.input_waveguides {
            return Err(JtcError::InvalidConfig {
                name: "engine.capacity",
                requirement: format!("must equal input_waveguides ({})", config.input_waveguides),
            });
        }
        let engine = JtcEngine::new(config.engine.clone())?;
        Ok(Self { config, engine })
    }

    /// Builds the default PhotoFourier PFCU.
    ///
    /// Never fails because the default configuration is valid.
    pub fn photofourier_default() -> Self {
        Self::new(PfcuConfig::photofourier_default()).expect("default PFCU config is valid")
    }

    /// The PFCU configuration.
    pub fn config(&self) -> &PfcuConfig {
        &self.config
    }

    /// Number of input waveguides (1D convolution capacity).
    pub fn capacity(&self) -> usize {
        self.config.input_waveguides
    }

    /// Executes one tiled 1D convolution on the PFCU.
    ///
    /// # Errors
    ///
    /// * [`JtcError::InputTooLarge`] if the signal or the kernel is longer
    ///   than the input waveguide count.
    /// * [`JtcError::InvalidConfig`] if the kernel carries more non-zero
    ///   values than there are active weight waveguides (those positions have
    ///   no DAC, Section IV-B).
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Result<Vec<f64>, JtcError> {
        if signal.len().max(kernel.len()) > self.config.input_waveguides {
            return Err(JtcError::InputTooLarge {
                signal_len: signal.len(),
                kernel_len: kernel.len(),
                capacity: self.config.input_waveguides,
            });
        }
        let nonzero = kernel.iter().filter(|&&v| v != 0.0).count();
        if nonzero > self.config.weight_waveguides {
            return Err(JtcError::InvalidConfig {
                name: "kernel",
                requirement: format!(
                    "kernel has {nonzero} non-zero weights but only {} weight waveguides have DACs",
                    self.config.weight_waveguides
                ),
            });
        }
        self.engine.correlate(signal, kernel)
    }

    /// Number of PFCU cycles needed to execute `n_convolutions` back-to-back
    /// 1D convolutions.
    ///
    /// The un-pipelined baseline occupies both halves of the JTC for each
    /// convolution (50% utilisation → 2 cycles each); the pipelined PFCU
    /// issues one convolution per cycle plus one cycle of pipeline fill.
    pub fn cycles_for(&self, n_convolutions: usize) -> usize {
        if n_convolutions == 0 {
            return 0;
        }
        if self.config.pipelined {
            n_convolutions + 1
        } else {
            2 * n_convolutions
        }
    }

    /// Steady-state throughput in convolutions per cycle.
    pub fn throughput(&self) -> f64 {
        if self.config.pipelined {
            1.0
        } else {
            0.5
        }
    }
}

impl Conv1dEngine for Pfcu {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        self.correlate(signal, kernel).unwrap_or_default()
    }

    fn max_signal_len(&self) -> Option<usize> {
        Some(self.config.input_waveguides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::max_abs_diff;

    #[test]
    fn config_validation() {
        let mut bad = PfcuConfig::photofourier_default();
        bad.input_waveguides = 0;
        assert!(Pfcu::new(bad).is_err());

        let mut bad = PfcuConfig::photofourier_default();
        bad.weight_waveguides = 0;
        assert!(Pfcu::new(bad).is_err());

        let mut bad = PfcuConfig::photofourier_default();
        bad.weight_waveguides = 1000;
        assert!(Pfcu::new(bad).is_err());

        let mut bad = PfcuConfig::photofourier_default();
        bad.engine.capacity = 64;
        assert!(Pfcu::new(bad).is_err());

        assert!(Pfcu::new(PfcuConfig::photofourier_default()).is_ok());
        assert!(Pfcu::new(PfcuConfig::baseline()).is_ok());
    }

    #[test]
    fn default_matches_paper_parameters() {
        let pfcu = Pfcu::photofourier_default();
        assert_eq!(pfcu.capacity(), 256);
        assert_eq!(pfcu.config().weight_waveguides, 25);
        assert!(pfcu.config().pipelined);
    }

    #[test]
    fn correlation_matches_reference() {
        let pfcu = Pfcu::photofourier_default();
        let signal: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.05).sin().abs()).collect();
        // 3x3 kernel tiled for a 32-wide input: 3 groups of 3 non-zeros.
        let mut kernel = vec![0.0; 2 * 32 + 3];
        for r in 0..3 {
            for c in 0..3 {
                kernel[r * 32 + c] = (r * 3 + c) as f64 / 9.0;
            }
        }
        let out = pfcu.correlate(&signal, &kernel).unwrap();
        let reference = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&out, &reference) < 1e-8);
    }

    #[test]
    fn weight_waveguide_limit_enforced() {
        let pfcu = Pfcu::photofourier_default();
        let signal = vec![1.0; 100];
        // 26 non-zero weights exceeds the 25 active waveguides.
        let kernel = vec![1.0; 26];
        assert!(matches!(
            pfcu.correlate(&signal, &kernel),
            Err(JtcError::InvalidConfig { .. })
        ));
        // 25 non-zeros is fine.
        let kernel = vec![1.0; 25];
        assert!(pfcu.correlate(&signal, &kernel).is_ok());
        // Zeros do not count: a long tiled kernel with few non-zeros passes.
        let mut kernel = vec![0.0; 70];
        for i in 0..25 {
            kernel[i * 2] = 0.5;
        }
        assert!(pfcu.correlate(&signal, &kernel).is_ok());
    }

    #[test]
    fn signal_and_kernel_capacity_enforced() {
        let pfcu = Pfcu::photofourier_default();
        let too_large = |signal_len, kernel_len| JtcError::InputTooLarge {
            signal_len,
            kernel_len,
            capacity: 256,
        };
        // An over-long signal.
        assert_eq!(
            pfcu.correlate(&vec![1.0; 257], &[1.0]),
            Err(too_large(257, 1))
        );
        // An over-long kernel (one non-zero weight, so the DAC limit is not
        // what rejects it) reports the same error.
        let mut kernel = vec![0.0; 257];
        kernel[0] = 1.0;
        assert_eq!(pfcu.correlate(&[1.0; 4], &kernel), Err(too_large(4, 257)));
        assert!(pfcu.correlate(&vec![1.0; 256], &[1.0]).is_ok());
    }

    #[test]
    fn pipelining_doubles_throughput() {
        let pipelined = Pfcu::photofourier_default();
        let baseline = Pfcu::new(PfcuConfig::baseline()).unwrap();
        assert_eq!(pipelined.throughput(), 1.0);
        assert_eq!(baseline.throughput(), 0.5);
        assert_eq!(pipelined.cycles_for(100), 101);
        assert_eq!(baseline.cycles_for(100), 200);
        assert_eq!(pipelined.cycles_for(0), 0);
        assert_eq!(baseline.cycles_for(0), 0);
    }

    #[test]
    fn pfcu_is_a_conv_engine() {
        let pfcu = Pfcu::photofourier_default();
        assert_eq!(pfcu.max_signal_len(), Some(256));
        let out = pfcu.correlate_valid(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0]);
        assert!(max_abs_diff(&out, &[3.0, 5.0, 7.0]) < 1e-9);
        // Violations degrade to empty output through the trait.
        assert!(pfcu.correlate_valid(&vec![1.0; 300], &[1.0]).is_empty());
    }
}
