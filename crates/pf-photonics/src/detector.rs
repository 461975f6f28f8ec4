//! Photodetector model with square-law detection, charge accumulation and
//! dark-current noise.
//!
//! Photodetectors appear twice in a PFCU: in the Fourier plane, where their
//! square-law response implements the non-linearity the JTC needs, and at the
//! output plane, where they read the convolution result. The output-plane
//! detectors additionally implement **temporal accumulation** (Section V-C):
//! charge from up to 16 consecutive cycles is integrated on a capacitor
//! before a single ADC read-out, which keeps partial-sum accumulation at full
//! precision and cuts ADC power 16×.
//!
//! [`SensingNoise`] is the read-out noise of those detectors as the
//! accuracy experiments model it: additive zero-mean Gaussian noise at a
//! configured SNR, from one seeded stream. It draws a block at a time, in
//! pairs (Marsaglia polar method — one `ln`, one `sqrt` and one divide per
//! *two* samples, no trigonometry, no table), `ceil(len / 2)` pairs per
//! block with no spare carried between blocks.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::PhotonicsError;

/// Configuration of a photodetector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Responsivity in amperes per watt of incident optical power.
    pub responsivity_a_per_w: f64,
    /// Dark current in nanoamperes — sets the noise floor and hence the SNR
    /// the laser power budget must maintain (the paper targets > 20 dB).
    pub dark_current_na: f64,
    /// Maximum number of cycles the integration capacitor can accumulate
    /// before it must be read out (the temporal accumulation depth limit).
    pub max_accumulation_depth: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            responsivity_a_per_w: 1.0,
            dark_current_na: 10.0,
            max_accumulation_depth: 16,
        }
    }
}

/// A square-law photodetector with an integration capacitor.
#[derive(Debug, Clone)]
pub struct Photodetector {
    config: DetectorConfig,
    accumulated: f64,
    cycles_accumulated: usize,
}

impl Photodetector {
    /// Creates a detector from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the responsivity is not positive, the dark current
    /// is negative, or the accumulation depth is zero.
    pub fn new(config: DetectorConfig) -> Result<Self, PhotonicsError> {
        if config.responsivity_a_per_w <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "responsivity_a_per_w",
                value: config.responsivity_a_per_w,
                requirement: "must be positive",
            });
        }
        if config.dark_current_na < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "dark_current_na",
                value: config.dark_current_na,
                requirement: "must be non-negative",
            });
        }
        if config.max_accumulation_depth == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "max_accumulation_depth",
                value: 0.0,
                requirement: "must be at least 1",
            });
        }
        Ok(Self {
            config,
            accumulated: 0.0,
            cycles_accumulated: 0,
        })
    }

    /// Creates a detector with the default configuration.
    ///
    /// Never fails because the default configuration is valid.
    pub fn with_defaults() -> Self {
        Self::new(DetectorConfig::default()).expect("default detector config is valid")
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Square-law response: converts a (real) optical field amplitude to a
    /// photocurrent proportional to its intensity `|E|^2`.
    pub fn detect_amplitude(&self, field_amplitude: f64) -> f64 {
        self.config.responsivity_a_per_w * field_amplitude * field_amplitude
    }

    /// Converts an optical *intensity* directly to photocurrent.
    pub fn detect_intensity(&self, intensity: f64) -> f64 {
        self.config.responsivity_a_per_w * intensity
    }

    /// Accumulates one cycle worth of photocurrent on the integration
    /// capacitor (temporal accumulation).
    ///
    /// Returns the number of cycles accumulated so far.
    ///
    /// # Errors
    ///
    /// Returns an error if the capacitor already holds
    /// `max_accumulation_depth` cycles; the caller must [`Photodetector::read_out`]
    /// first.
    pub fn accumulate(&mut self, photocurrent: f64) -> Result<usize, PhotonicsError> {
        if self.cycles_accumulated >= self.config.max_accumulation_depth {
            return Err(PhotonicsError::InvalidParameter {
                name: "cycles_accumulated",
                value: self.cycles_accumulated as f64,
                requirement: "accumulation capacitor is full; read_out() before accumulating more",
            });
        }
        self.accumulated += photocurrent;
        self.cycles_accumulated += 1;
        Ok(self.cycles_accumulated)
    }

    /// Reads the accumulated charge and resets the capacitor.
    pub fn read_out(&mut self) -> f64 {
        let v = self.accumulated;
        self.accumulated = 0.0;
        self.cycles_accumulated = 0;
        v
    }

    /// Number of cycles currently integrated on the capacitor.
    pub fn cycles_accumulated(&self) -> usize {
        self.cycles_accumulated
    }

    /// Signal-to-noise ratio in dB of a signal level against the dark
    /// current noise floor.
    ///
    /// Returns `f64::INFINITY` when the dark current is zero.
    pub fn snr_db(&self, signal_current_na: f64) -> f64 {
        if self.config.dark_current_na == 0.0 {
            return f64::INFINITY;
        }
        20.0 * (signal_current_na.abs() / self.config.dark_current_na).log10()
    }

    /// Minimum signal current (nA) needed to reach `target_snr_db`.
    pub fn required_signal_for_snr(&self, target_snr_db: f64) -> f64 {
        self.config.dark_current_na * 10f64.powf(target_snr_db / 20.0)
    }
}

/// Additive Gaussian sensing-noise model used by the accuracy experiments
/// (Figure 7 simulates "applying square function to partial sums and adding
/// sensing noise"): zero-mean, standard deviation `sigma`, independent per
/// sample, one seeded stream consumed in call order.
///
/// Every entry point is a caller of [`SensingNoise::add_scaled`], which
/// draws in pairs (Marsaglia polar method) and consumes
/// `ceil(len / 2)` pairs per block — so the *law* is independent of how
/// samples are grouped into blocks, but the *values* a seed produces are
/// not: replaying a seeded run means replaying its block lengths in order.
#[derive(Debug, Clone)]
pub struct SensingNoise {
    rng: StdRng,
    sigma: f64,
}

impl SensingNoise {
    /// Creates a noise source with standard deviation `sigma` (relative to
    /// the signal units it will be added to) and a deterministic seed.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is negative.
    pub fn new(sigma: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if sigma < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                requirement: "must be non-negative",
            });
        }
        Ok(Self {
            rng: StdRng::seed_from_u64(seed),
            sigma,
        })
    }

    /// Creates a noise source whose standard deviation corresponds to the
    /// given SNR (in dB) for signals with RMS value `signal_rms`.
    ///
    /// # Errors
    ///
    /// Returns an error if `signal_rms` is negative.
    pub fn from_snr_db(snr_db: f64, signal_rms: f64, seed: u64) -> Result<Self, PhotonicsError> {
        if signal_rms < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "signal_rms",
                value: signal_rms,
                requirement: "must be non-negative",
            });
        }
        let sigma = signal_rms / 10f64.powf(snr_db / 20.0);
        Self::new(sigma, seed)
    }

    /// Noise standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Adds Gaussian noise to a single value: a one-sample
    /// [`SensingNoise::add_scaled`] block.
    pub fn perturb(&mut self, value: f64) -> f64 {
        let mut sample = [value];
        self.add_scaled(&mut sample, 1.0);
        sample[0]
    }

    /// Adds independent Gaussian noise to every element of a slice: one
    /// [`SensingNoise::add_scaled`] block over a copy.
    pub fn perturb_slice(&mut self, values: &[f64]) -> Vec<f64> {
        let mut out = values.to_vec();
        self.add_scaled(&mut out, 1.0);
        out
    }

    /// Adds one block of independent Gaussian noise, `sigma * scale` per
    /// sample, to `out` in place and returns the block's peak magnitude
    /// after the add (the full scale an ADC behind the detector converts
    /// against, so the caller needs no second scan).
    ///
    /// The one draw body. Gaussians come in pairs from the Marsaglia polar
    /// method: a point uniform in the unit disc (two uniforms in `(-1, 1)`,
    /// redrawn until `0 < s < 1`, 4/π tries on average) costs one `ln`, one
    /// `sqrt` and one divide and yields two independent standard normals.
    /// A block consumes `ceil(out.len() / 2)` pairs; an odd block drops the
    /// second member of its last pair, and no spare is carried to the next
    /// call, so what a block draws depends only on the stream position and
    /// the block length. `sigma == 0` consumes nothing.
    pub fn add_scaled(&mut self, out: &mut [f64], scale: f64) -> f64 {
        let mut peak = 0.0f64;
        if self.sigma == 0.0 {
            return out.iter().fold(peak, |m, v| m.max(v.abs()));
        }
        let uniform = Uniform::new(-1.0, 1.0);
        for pair in out.chunks_mut(2) {
            let (x, y, s) = loop {
                let x = uniform.sample(&mut self.rng);
                let y = uniform.sample(&mut self.rng);
                let s = x * x + y * y;
                if s > 0.0 && s < 1.0 {
                    break (x, y, s);
                }
            };
            let radius = (-2.0 * s.ln() / s).sqrt();
            for (v, g) in pair.iter_mut().zip([x * radius, y * radius]) {
                *v += g * self.sigma * scale;
                // `peak.max(|v|)` as a compare-select: the same value for
                // every input (a NaN sample is skipped either way) without
                // `f64::max`'s NaN fix-up in the loop-carried chain.
                let magnitude = v.abs();
                if magnitude > peak {
                    peak = magnitude;
                }
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let bad = DetectorConfig {
            responsivity_a_per_w: 0.0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        let bad = DetectorConfig {
            dark_current_na: -1.0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        let bad = DetectorConfig {
            max_accumulation_depth: 0,
            ..Default::default()
        };
        assert!(Photodetector::new(bad).is_err());
        assert!(Photodetector::new(DetectorConfig::default()).is_ok());
    }

    #[test]
    fn square_law_response() {
        let pd = Photodetector::with_defaults();
        assert_eq!(pd.detect_amplitude(0.0), 0.0);
        assert_eq!(pd.detect_amplitude(2.0), 4.0);
        assert_eq!(pd.detect_amplitude(-2.0), 4.0);
        assert_eq!(pd.detect_intensity(3.0), 3.0);
    }

    #[test]
    fn responsivity_scales_output() {
        let pd = Photodetector::new(DetectorConfig {
            responsivity_a_per_w: 0.5,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(pd.detect_amplitude(2.0), 2.0);
    }

    #[test]
    fn accumulation_sums_then_resets() {
        let mut pd = Photodetector::with_defaults();
        for i in 1..=5 {
            assert_eq!(pd.accumulate(1.0).unwrap(), i);
        }
        assert_eq!(pd.cycles_accumulated(), 5);
        assert_eq!(pd.read_out(), 5.0);
        assert_eq!(pd.cycles_accumulated(), 0);
        assert_eq!(pd.read_out(), 0.0);
    }

    #[test]
    fn accumulation_depth_is_enforced() {
        let mut pd = Photodetector::new(DetectorConfig {
            max_accumulation_depth: 2,
            ..Default::default()
        })
        .unwrap();
        pd.accumulate(1.0).unwrap();
        pd.accumulate(1.0).unwrap();
        assert!(pd.accumulate(1.0).is_err());
        pd.read_out();
        assert!(pd.accumulate(1.0).is_ok());
    }

    #[test]
    fn accumulation_is_full_precision() {
        // The whole point of temporal accumulation: the analog sum equals the
        // exact sum with no intermediate quantization.
        let mut pd = Photodetector::with_defaults();
        let values = [0.001, 0.5, 1.7, 0.03, 0.9];
        for &v in &values {
            pd.accumulate(v).unwrap();
        }
        let expected: f64 = values.iter().sum();
        assert!((pd.read_out() - expected).abs() < 1e-15);
    }

    #[test]
    fn snr_computation() {
        let pd = Photodetector::with_defaults(); // dark current 10 nA
        assert!((pd.snr_db(1000.0) - 40.0).abs() < 1e-9);
        assert!((pd.snr_db(100.0) - 20.0).abs() < 1e-9);
        let needed = pd.required_signal_for_snr(20.0);
        assert!((needed - 100.0).abs() < 1e-9);
        let quiet = Photodetector::new(DetectorConfig {
            dark_current_na: 0.0,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(quiet.snr_db(1.0), f64::INFINITY);
    }

    #[test]
    fn sensing_noise_statistics() {
        let mut noise = SensingNoise::new(0.1, 42).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| noise.perturb(0.0)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn sensing_noise_is_deterministic_per_seed() {
        let mut a = SensingNoise::new(0.5, 7).unwrap();
        let mut b = SensingNoise::new(0.5, 7).unwrap();
        let va: Vec<f64> = (0..10).map(|_| a.perturb(1.0)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.perturb(1.0)).collect();
        assert_eq!(va, vb);
        let mut c = SensingNoise::new(0.5, 8).unwrap();
        let vc: Vec<f64> = (0..10).map(|_| c.perturb(1.0)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let mut noise = SensingNoise::new(0.0, 1).unwrap();
        assert_eq!(noise.perturb(3.5), 3.5);
        assert_eq!(noise.perturb_slice(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn noise_from_snr() {
        let noise = SensingNoise::from_snr_db(20.0, 1.0, 3).unwrap();
        assert!((noise.sigma() - 0.1).abs() < 1e-12);
        assert!(SensingNoise::from_snr_db(20.0, -1.0, 3).is_err());
        assert!(SensingNoise::new(-0.1, 0).is_err());
    }
}
