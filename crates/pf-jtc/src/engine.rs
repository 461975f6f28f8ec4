//! The photonic 1D convolution backend used by row tiling.
//!
//! [`JtcEngine`] implements [`pf_tiling::Conv1dEngine`] on the prepared
//! optics chain of [`crate::prepared`] and adds the mixed-signal
//! non-idealities the accuracy experiments of the paper study:
//!
//! * DAC quantisation of input activations and filter weights (8-bit by
//!   default),
//! * photodetector sensing noise (Gaussian, parameterised by SNR),
//! * optional ADC quantisation of the outputs — disabled when temporal
//!   accumulation defers the read-out, which is exactly the mechanism that
//!   restores accuracy in Figure 7.
//!
//! The engine has **one** chain. A one-off [`JtcEngine::correlate`] is
//! "prepare, then run" on the same tight grid and the same half-spectrum
//! transforms row tiling's cached path uses, so every entry point — the
//! inherent call, [`Conv1dEngine::correlate_valid`] and a kept
//! [`PreparedKernel`] — returns the same bits and consumes the noise stream
//! identically. The joint-plane simulation in [`crate::correlator`] is not
//! an execution path of the engine: it is the Figure 2 visualiser and the
//! independent slow oracle the prepared chain is tested against.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;
use pf_photonics::adc::Adc;
use pf_photonics::dac::Dac;
use pf_photonics::detector::SensingNoise;
use pf_tiling::{Conv1dEngine, PreparedConv1d};
use serde::{Deserialize, Serialize};

use crate::error::JtcError;
use crate::prepared::PreparedKernel;

/// Configuration of the non-idealities applied by a [`JtcEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JtcEngineConfig {
    /// Number of input-plane samples (waveguides) available to the signal.
    pub capacity: usize,
    /// Resolution of the input/weight DACs; `None` disables quantisation
    /// (ideal analog inputs).
    pub dac_bits: Option<u32>,
    /// Resolution of the output ADC; `None` disables output quantisation
    /// (for example because a temporal accumulator reads the detector
    /// instead).
    pub adc_bits: Option<u32>,
    /// Photodetector sensing SNR in dB; `None` disables noise injection.
    pub sensing_snr_db: Option<f64>,
    /// Seed for the noise generator (ignored when noise is disabled).
    pub noise_seed: u64,
}

impl JtcEngineConfig {
    /// An ideal engine: pure optics, no quantisation, no noise.
    pub fn ideal(capacity: usize) -> Self {
        Self {
            capacity,
            dac_bits: None,
            adc_bits: None,
            sensing_snr_db: None,
            noise_seed: 0,
        }
    }

    /// The PhotoFourier-CG signal chain: 8-bit DACs, 8-bit ADC, 20 dB
    /// photodetector SNR.
    pub fn photofourier_cg(capacity: usize) -> Self {
        Self {
            capacity,
            dac_bits: Some(8),
            adc_bits: Some(8),
            sensing_snr_db: Some(pf_photonics::params::TARGET_SNR_DB),
            noise_seed: 0,
        }
    }
}

/// A [`Conv1dEngine`] that routes every 1D convolution through the simulated
/// JTC optics with configurable quantisation and noise.
#[derive(Debug)]
pub struct JtcEngine {
    config: JtcEngineConfig,
    input_dac: Option<Dac>,
    output_adc: Option<Adc>,
    /// The seeded sensing-noise stream — a key and the next free position,
    /// a sample's noise a pure function of the two — behind an `Arc` so
    /// prepared kernels handed out by this engine reserve positions from
    /// the *same* counter in call order (which is what makes a cached
    /// prepared kernel replay bit-identically to preparing afresh per call
    /// under a fixed seed). A lane block reserves its kernels' positions
    /// under one lock, in kernel order.
    noise: Option<Arc<Mutex<SensingNoise>>>,
}

impl JtcEngine {
    /// Builds an engine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if the capacity is zero, or
    /// propagates converter construction errors for unsupported resolutions.
    pub fn new(config: JtcEngineConfig) -> Result<Self, JtcError> {
        if config.capacity == 0 {
            return Err(JtcError::InvalidConfig {
                name: "capacity",
                requirement: "must be at least 1".to_string(),
            });
        }
        let input_dac = match config.dac_bits {
            Some(bits) => Some(Dac::new(bits, 10.0, 35.71)?),
            None => None,
        };
        let output_adc = match config.adc_bits {
            Some(bits) => Some(Adc::new(bits, 0.625, 0.93)?),
            None => None,
        };
        let noise = match config.sensing_snr_db {
            Some(snr) => Some(Arc::new(Mutex::new(SensingNoise::from_snr_db(
                snr,
                1.0,
                config.noise_seed,
            )?))),
            None => None,
        };
        Ok(Self {
            config,
            input_dac,
            output_adc,
            noise,
        })
    }

    /// Builds an ideal (noise-free, full-precision) engine.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `capacity` is zero.
    pub fn ideal(capacity: usize) -> Result<Self, JtcError> {
        Self::new(JtcEngineConfig::ideal(capacity))
    }

    /// Runs one JTC correlation with the configured non-idealities and
    /// returns the valid cross-correlation: [`JtcEngine::prepare`] for this
    /// one call, then [`PreparedKernel::correlate`] — bit-identical to
    /// keeping the prepared kernel, noise draws included.
    ///
    /// # Errors
    ///
    /// * [`JtcError::EmptyOperand`] if the signal or kernel is empty.
    /// * [`JtcError::InputTooLarge`] if either operand exceeds the capacity.
    ///
    /// A kernel longer than the signal is not an error: the valid
    /// correlation is empty.
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Result<Vec<f64>, JtcError> {
        self.prepare(kernel, signal.len())?.correlate(signal)
    }

    /// Prepares `kernel` (DAC-quantised once, spectrum computed once) for
    /// repeated correlation against signals of exactly `signal_len` samples.
    ///
    /// Noisy engines hand the prepared kernel a reference to their own
    /// sensing-noise stream, so every correlation draws from the engine's
    /// one stream in call order. Preparation itself draws no noise (DAC
    /// quantisation and the kernel spectrum are pure), which is what lets
    /// [`Conv1dEngine::bind_prepared`] re-bind another engine's prepared
    /// kernel to this engine's stream.
    ///
    /// [`PreparedKernel::correlate`] then runs the engine's full signal
    /// chain (DAC quantisation, optics, sensing noise, ADC quantisation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSpectrum::new`](crate::prepared::PreparedSpectrum::new).
    pub fn prepare(&self, kernel: &[f64], signal_len: usize) -> Result<PreparedKernel, JtcError> {
        let mut batch = self.prepare_batch(&[kernel], signal_len)?;
        Ok(batch.pop().expect("one kernel in, one preparation out"))
    }

    /// [`JtcEngine::prepare`] for a whole stack of kernels of **one
    /// length**, in kernel order: each kernel is DAC-quantised on its own,
    /// and their spectra go through the first lens together, four to a pass
    /// ([`PreparedSpectrum::new_batch`](crate::prepared::PreparedSpectrum::new_batch)).
    /// Each preparation is, bit for bit, what `prepare` returns for that
    /// kernel alone.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`PreparedSpectrum::new_batch`](crate::prepared::PreparedSpectrum::new_batch);
    /// one kernel that cannot be prepared fails the batch.
    fn prepare_batch(
        &self,
        kernels: &[&[f64]],
        signal_len: usize,
    ) -> Result<Vec<PreparedKernel>, JtcError> {
        PreparedKernel::new_batch(
            kernels,
            signal_len,
            self.config.capacity,
            self.input_dac.as_ref(),
            self.output_adc.as_ref(),
            self.noise.as_ref(),
        )
    }
}

impl Conv1dEngine for JtcEngine {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        // The Conv1dEngine contract is shape-only; an oversized or empty
        // call degenerates to an empty result, matching the digital
        // reference behaviour.
        self.correlate(signal, kernel).unwrap_or_default()
    }

    fn max_signal_len(&self) -> Option<usize> {
        Some(self.config.capacity)
    }

    fn is_deterministic(&self) -> bool {
        self.noise.is_none()
    }

    fn prefers_parallel_tiles(&self) -> bool {
        // Each tile runs two FFTs over a grid of about a thousand samples
        // at full capacity — far above the cost of a thread spawn, unlike
        // a digital dot product.
        true
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        // Noisy engines prepare too: the prepared kernel shares this
        // engine's seeded noise stream and draws from it in call order, so
        // a cached kernel replays what preparing afresh per call would.
        // Call order stays serial because `is_deterministic()` reports
        // false.
        self.prepare(kernel, signal_len)
            .ok()
            .map(|p| Arc::new(p) as Arc<dyn PreparedConv1d>)
    }

    fn prepare_kernels(
        &self,
        kernels: &[&[f64]],
        signal_len: usize,
    ) -> Vec<Option<Arc<dyn PreparedConv1d>>> {
        match self.prepare_batch(kernels, signal_len) {
            Ok(batch) => batch
                .into_iter()
                .map(|p| Some(Arc::new(p) as Arc<dyn PreparedConv1d>))
                .collect(),
            // Kernels of mixed length, or one the engine declines: every
            // kernel on its own terms.
            Err(_) => kernels
                .iter()
                .map(|kernel| self.prepare_kernel(kernel, signal_len))
                .collect(),
        }
    }

    fn bind_prepared(&self, cached: Arc<dyn PreparedConv1d>) -> Arc<dyn PreparedConv1d> {
        // Preparation draws no noise, so a kernel another engine of this
        // configuration prepared differs from ours only in the stream it
        // is bound to. The executor binds one kernel per stack run, the
        // stack's lead: the set call made on it draws every member's noise
        // from this stream. Deterministic engines bind nothing.
        let Some(noise) = &self.noise else {
            return cached;
        };
        match (&*cached as &dyn Any).downcast_ref::<PreparedKernel>() {
            Some(kernel) => Arc::new(kernel.bound_to(Some(Arc::clone(noise)))),
            // Not ours (a wrapping engine's handle): nothing to re-bind.
            None => cached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::{max_abs_diff, relative_l2_error};
    use pf_tiling::{DigitalEngine, TiledConvolver};

    #[test]
    fn ideal_engine_matches_digital_reference() {
        let engine = JtcEngine::ideal(64).unwrap();
        let signal: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.17).cos() + 0.2).collect();
        let kernel = vec![0.5, 1.0, 0.5];
        let optical = engine.correlate_valid(&signal, &kernel);
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&optical, &digital) < 1e-8);
    }

    #[test]
    fn engine_respects_capacity() {
        let engine = JtcEngine::ideal(16).unwrap();
        assert_eq!(engine.max_signal_len(), Some(16));
        // Oversized input degrades to an empty result through the trait.
        assert!(engine.correlate_valid(&vec![1.0; 32], &[1.0]).is_empty());
        // And returns a structured error through the inherent API.
        assert!(engine.correlate(&vec![1.0; 32], &[1.0]).is_err());
    }

    #[test]
    fn quantized_engine_is_close_but_not_exact() {
        let config = JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: Some(8),
            sensing_snr_db: None,
            noise_seed: 0,
        };
        let engine = JtcEngine::new(config).unwrap();
        let signal: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.23).sin()).collect();
        let kernel = vec![0.3, -0.2, 0.7, 0.1];
        let optical = engine.correlate_valid(&signal, &kernel);
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        let err = relative_l2_error(&optical, &digital);
        assert!(err > 0.0, "quantisation should introduce some error");
        assert!(
            err < 0.05,
            "8-bit quantisation error should stay small: {err}"
        );
    }

    #[test]
    fn noisy_engine_error_scales_with_snr() {
        let signal: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.31).sin() + 1.0).collect();
        let kernel = vec![0.2, 0.4, 0.2];
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);

        let mut errors = Vec::new();
        for snr in [10.0, 30.0, 50.0] {
            let engine = JtcEngine::new(JtcEngineConfig {
                capacity: 64,
                dac_bits: None,
                adc_bits: None,
                sensing_snr_db: Some(snr),
                noise_seed: 7,
            })
            .unwrap();
            let optical = engine.correlate_valid(&signal, &kernel);
            errors.push(relative_l2_error(&optical, &digital));
        }
        assert!(errors[0] > errors[1] && errors[1] > errors[2]);
    }

    #[test]
    fn engine_plugs_into_row_tiling() {
        use pf_dsp::conv::{correlate2d, Matrix};

        let input = Matrix::new(
            8,
            8,
            (0..64).map(|i| ((i as f64) * 0.11).sin() + 0.5).collect(),
        )
        .unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).unwrap();

        let photonic = TiledConvolver::new(JtcEngine::ideal(64).unwrap(), 64).unwrap();
        let digital = TiledConvolver::new(DigitalEngine, 64).unwrap();

        let optical_out = photonic.correlate2d_valid(&input, &kernel).unwrap();
        let digital_out = digital.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);

        assert!(max_abs_diff(optical_out.data(), reference.data()) < 1e-7);
        assert!(max_abs_diff(digital_out.data(), reference.data()) < 1e-10);
    }

    #[test]
    fn config_constructors() {
        let ideal = JtcEngineConfig::ideal(256);
        assert_eq!(ideal.capacity, 256);
        assert!(ideal.dac_bits.is_none());
        let cg = JtcEngineConfig::photofourier_cg(256);
        assert_eq!(cg.dac_bits, Some(8));
        assert_eq!(cg.adc_bits, Some(8));
        assert_eq!(cg.sensing_snr_db, Some(20.0));
    }

    #[test]
    fn prepared_trait_path_matches_inherent_path() {
        let engine = JtcEngine::ideal(32).unwrap();
        let kernel = vec![0.5, 1.0, 0.5];
        let signal: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).cos()).collect();
        let via_trait = Conv1dEngine::prepare_kernel(&engine, &kernel, 24).unwrap();
        assert_eq!(via_trait.signal_len(), 24);
        let a = via_trait.correlate_valid(&signal);
        let b = engine
            .prepare(&kernel, 24)
            .unwrap()
            .correlate(&signal)
            .unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn quantized_prepared_path_stays_close() {
        let config = JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: Some(8),
            sensing_snr_db: None,
            noise_seed: 0,
        };
        let engine = JtcEngine::new(config).unwrap();
        assert!(engine.is_deterministic());
        let kernel = vec![0.3, -0.2, 0.7, 0.1];
        let prepared = engine.prepare(&kernel, 48).unwrap();
        let signal: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.23).sin()).collect();
        let fast = prepared.correlate(&signal).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        let err = relative_l2_error(&fast, &digital);
        assert!(err < 0.05, "8-bit prepared path error too large: {err}");
    }

    #[test]
    fn noisy_engine_prepares_and_replays_the_seeded_stream() {
        let config = JtcEngineConfig {
            capacity: 32,
            dac_bits: None,
            adc_bits: None,
            sensing_snr_db: Some(20.0),
            noise_seed: 1,
        };
        let cached = JtcEngine::new(config.clone()).unwrap();
        let fresh = JtcEngine::new(config).unwrap();
        assert!(!cached.is_deterministic());
        assert!(cached.prepares_kernels());

        // One engine reuses a single trait-prepared kernel (the cached
        // deterministic spectrum stage); the other re-prepares per call.
        // Under the same seed the noise stream advances identically, so the
        // outputs are bit-identical call for call.
        let prep = Conv1dEngine::prepare_kernel(&cached, &[1.0, 2.0], 16).expect("noisy prepares");
        for round in 0..4u64 {
            let signal: Vec<f64> = (0..16)
                .map(|i| ((i as f64 + round as f64) * 0.4).sin() + 0.3)
                .collect();
            let a = prep.correlate_valid(&signal);
            let b = fresh
                .prepare(&[1.0, 2.0], 16)
                .unwrap()
                .correlate(&signal)
                .unwrap();
            assert_eq!(a.len(), 15);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn a_silent_tile_draws_no_noise() {
        // A zero-RMS tile (an all-zero tile under an all-zero kernel, e.g.
        // the empty half of a pseudo-negative split over padding) consumes
        // nothing, on either path: the tile after it sees the stream
        // exactly where the tile before it left it.
        let config = JtcEngineConfig {
            noise_seed: 3,
            ..JtcEngineConfig::photofourier_cg(32)
        };
        let kernel = [0.5, 1.0, 0.5];
        let tile = |phase: f64| -> Vec<f64> { (0..16).map(|i| (i as f64 * phase).sin()).collect() };
        let (with_gap, without) = (
            JtcEngine::new(config.clone()).unwrap(),
            JtcEngine::new(config).unwrap(),
        );
        let prepared_gap = with_gap.prepare(&kernel, 16).unwrap();
        let prepared = without.prepare(&kernel, 16).unwrap();

        assert_eq!(
            prepared_gap.correlate(&tile(0.3)).unwrap(),
            prepared.correlate(&tile(0.3)).unwrap()
        );
        let silent = with_gap.prepare(&[0.0; 3], 16).unwrap();
        assert_eq!(silent.correlate(&[0.0; 16]).unwrap(), [0.0; 14]);
        assert_eq!(
            with_gap.correlate(&[0.0; 16], &[0.0; 3]).unwrap(),
            [0.0; 14]
        );
        assert_eq!(
            prepared_gap.correlate(&tile(0.7)).unwrap(),
            prepared.correlate(&tile(0.7)).unwrap()
        );
    }

    #[test]
    fn zero_signal_handled() {
        let engine = JtcEngine::new(JtcEngineConfig::photofourier_cg(32)).unwrap();
        let out = engine.correlate_valid(&[0.0; 16], &[0.0, 0.0]);
        assert_eq!(out.len(), 15);
        assert!(out.iter().all(|&v| v.abs() < 1e-9));
    }
}
