//! Per-layer numerical fidelity of the row-tiled / photonic pipeline.
//!
//! The paper's Table I reports the ImageNet accuracy drop of row tiling on
//! AlexNet, VGG-16 and ResNet-18. Without ImageNet weights the reproduction
//! measures the quantity that *causes* that drop: the numerical error each
//! convolution layer accumulates when executed through row tiling (plus
//! quantisation / noise / temporal accumulation) instead of exact 2D
//! convolution. The per-layer relative error and SNR reported here, combined
//! with the end-to-end accuracy proxy of `pf-bench`'s `repro tab1`, stand in
//! for Table I.

use pf_tiling::Conv1dEngine;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::executor::{Conv2dExecutor, PipelineConfig, ReferenceExecutor, TiledExecutor};
use crate::layers::{Conv2d, ConvLayerSpec};
use crate::models::NetworkSpec;
use crate::tensor::Tensor;

/// Fidelity metrics of one convolution layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerFidelity {
    /// Layer name.
    pub layer: String,
    /// Relative L2 error of the tiled output against the reference.
    pub relative_error: f64,
    /// Output SNR in dB.
    pub snr_db: f64,
    /// Maximum absolute error.
    pub max_abs_error: f64,
    /// Input resolution actually evaluated (may be capped for speed).
    pub evaluated_input_size: usize,
    /// Input channels actually evaluated.
    pub evaluated_in_channels: usize,
}

/// Aggregated fidelity of a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Network name.
    pub network: String,
    /// Per-layer metrics.
    pub layers: Vec<LayerFidelity>,
}

impl FidelityReport {
    /// Mean relative error across layers.
    pub fn mean_relative_error(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers.iter().map(|l| l.relative_error).sum::<f64>() / self.layers.len() as f64
    }

    /// Worst (minimum) per-layer SNR in dB.
    pub fn min_snr_db(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.snr_db)
            .fold(f64::INFINITY, f64::min)
    }

    /// Worst (maximum) per-layer relative error.
    pub fn max_relative_error(&self) -> f64 {
        self.layers
            .iter()
            .map(|l| l.relative_error)
            .fold(0.0, f64::max)
    }
}

/// How layers are down-sampled for fidelity evaluation (full ImageNet layer
/// shapes would take minutes in a pure-Rust f64 reference convolution; the
/// error statistics converge with a handful of channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FidelityConfig {
    /// Cap on the evaluated input resolution.
    pub max_input_size: usize,
    /// Cap on the evaluated input channels.
    pub max_in_channels: usize,
    /// Cap on the evaluated output channels.
    pub max_out_channels: usize,
    /// Random seed for weights and activations.
    pub seed: u64,
}

impl Default for FidelityConfig {
    fn default() -> Self {
        Self {
            max_input_size: 32,
            max_in_channels: 16,
            max_out_channels: 4,
            seed: 0,
        }
    }
}

/// Evaluates the fidelity of one layer shape under the given pipeline,
/// running the tiled executor against the exact reference on random data.
///
/// # Errors
///
/// Propagates tiling/shape errors from the executors.
pub fn evaluate_layer<E: Conv1dEngine>(
    spec: &ConvLayerSpec,
    engine: E,
    n_conv: usize,
    pipeline: PipelineConfig,
    config: &FidelityConfig,
) -> Result<LayerFidelity, NnError> {
    // Cap the resolution for speed, but never shrink below three kernel
    // spans: otherwise the border region (where the wraparound edge effect
    // lives) would dominate the sampled layer far more than it does at the
    // real resolution.
    let input_size = spec
        .input_size
        .min(config.max_input_size)
        .max(spec.kernel * 3)
        .min(spec.input_size);
    let in_channels = spec.in_channels.min(config.max_in_channels).max(1);
    let out_channels = spec.out_channels.min(config.max_out_channels).max(1);

    let layer = Conv2d::random(
        in_channels,
        out_channels,
        spec.kernel,
        spec.stride,
        spec.padded,
        0.5,
        config.seed ^ hash_name(&spec.name),
    )?;
    let input = Tensor::random(
        vec![in_channels, input_size, input_size],
        0.0,
        1.0,
        config.seed.wrapping_add(1) ^ hash_name(&spec.name),
    );

    let reference = ReferenceExecutor.forward(&input, &layer)?;
    let tiled = TiledExecutor::new(engine, n_conv, pipeline)?.forward(&input, &layer)?;

    let relative_error = pf_dsp::util::relative_l2_error(tiled.data(), reference.data());
    let snr_db = pf_dsp::util::snr_db(tiled.data(), reference.data());
    let max_abs_error = pf_dsp::util::max_abs_diff(tiled.data(), reference.data());

    Ok(LayerFidelity {
        layer: spec.name.clone(),
        relative_error,
        snr_db,
        max_abs_error,
        evaluated_input_size: input_size,
        evaluated_in_channels: in_channels,
    })
}

/// Evaluates every convolution layer of a network with a fresh engine per
/// layer produced by `make_engine` (engines may be stateful, e.g. noise
/// RNGs).
///
/// # Errors
///
/// Propagates errors from [`evaluate_layer`].
pub fn evaluate_network<E, F>(
    network: &NetworkSpec,
    mut make_engine: F,
    n_conv: usize,
    pipeline: PipelineConfig,
    config: &FidelityConfig,
) -> Result<FidelityReport, NnError>
where
    E: Conv1dEngine,
    F: FnMut() -> E,
{
    let mut layers = Vec::with_capacity(network.conv_layers.len());
    for spec in &network.conv_layers {
        layers.push(evaluate_layer(
            spec,
            make_engine(),
            n_conv,
            pipeline,
            config,
        )?);
    }
    Ok(FidelityReport {
        network: network.name.clone(),
        layers,
    })
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::cifar::resnet_s;
    use pf_tiling::{DigitalEngine, EdgeHandling};

    #[test]
    fn ideal_pipeline_on_valid_layers_is_exact() {
        let spec = ConvLayerSpec::new("t", 8, 4, 3, 1, 16, false).unwrap();
        let mut pipeline = PipelineConfig::ideal();
        pipeline.edge_handling = EdgeHandling::ZeroPad;
        let fidelity = evaluate_layer(
            &spec,
            DigitalEngine,
            256,
            pipeline,
            &FidelityConfig::default(),
        )
        .unwrap();
        assert!(fidelity.relative_error < 1e-10);
        assert!(fidelity.snr_db > 100.0);
    }

    #[test]
    fn quantized_pipeline_reports_finite_error() {
        // Unpadded layer: quantisation is the only error source.
        let spec = ConvLayerSpec::new("t", 16, 4, 3, 1, 16, false).unwrap();
        let fidelity = evaluate_layer(
            &spec,
            DigitalEngine,
            256,
            PipelineConfig::photofourier_default(),
            &FidelityConfig::default(),
        )
        .unwrap();
        assert!(fidelity.relative_error > 0.0);
        assert!(fidelity.relative_error < 0.1);
        assert!(fidelity.snr_db > 15.0);

        // Padded layer adds the (small) wraparound edge effect.
        let spec = ConvLayerSpec::new("t", 16, 4, 3, 1, 32, true).unwrap();
        let padded = evaluate_layer(
            &spec,
            DigitalEngine,
            256,
            PipelineConfig::photofourier_default(),
            &FidelityConfig::default(),
        )
        .unwrap();
        assert!(padded.relative_error > 0.0);
        assert!(padded.relative_error < 0.3);
    }

    #[test]
    fn evaluation_respects_caps() {
        let spec = ConvLayerSpec::new("big", 512, 512, 3, 1, 224, true).unwrap();
        let config = FidelityConfig {
            max_input_size: 16,
            max_in_channels: 4,
            max_out_channels: 2,
            seed: 1,
        };
        let fidelity =
            evaluate_layer(&spec, DigitalEngine, 256, PipelineConfig::ideal(), &config).unwrap();
        assert_eq!(fidelity.evaluated_input_size, 16);
        assert_eq!(fidelity.evaluated_in_channels, 4);
    }

    #[test]
    fn network_report_aggregates() {
        let net = resnet_s();
        let config = FidelityConfig {
            max_input_size: 16,
            max_in_channels: 4,
            max_out_channels: 2,
            seed: 3,
        };
        let report = evaluate_network(
            &net,
            || DigitalEngine,
            256,
            PipelineConfig::photofourier_default(),
            &config,
        )
        .unwrap();
        assert_eq!(report.layers.len(), net.num_conv_layers());
        assert!(report.mean_relative_error() > 0.0);
        // At the capped 16x16 evaluation resolution the wraparound edge
        // effect covers a larger share of each plane than at the real
        // 32x32, so the bound is looser than the sub-0.2 full-size regime.
        assert!(report.mean_relative_error() < 0.25);
        assert!(report.min_snr_db() > 5.0);
        assert!(report.max_relative_error() >= report.mean_relative_error());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = ConvLayerSpec::new("d", 8, 2, 3, 1, 16, true).unwrap();
        let cfg = FidelityConfig::default();
        let a = evaluate_layer(
            &spec,
            DigitalEngine,
            128,
            PipelineConfig::photofourier_default(),
            &cfg,
        )
        .unwrap();
        let b = evaluate_layer(
            &spec,
            DigitalEngine,
            128,
            PipelineConfig::photofourier_default(),
            &cfg,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
