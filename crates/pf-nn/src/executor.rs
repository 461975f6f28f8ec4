//! Convolution-layer executors.
//!
//! [`ReferenceExecutor`] is the exact digital reference (what a GPU would
//! compute). [`TiledExecutor`] runs every convolution through the row-tiling
//! algorithm on a pluggable 1D backend and reproduces the full PhotoFourier
//! numeric pipeline:
//!
//! * optional 8-bit quantisation of weights and activations,
//! * pseudo-negative weight splitting (negative weights become a second
//!   all-positive filter whose result is subtracted digitally, Section VI-A),
//! * channel-wise accumulation with a configurable temporal-accumulation
//!   depth and partial-sum ADC (Section V-C), which is the knob Figure 7
//!   sweeps.

use std::sync::{Arc, Mutex};

use pf_dsp::conv::{correlate2d, Matrix, PaddingMode};
use pf_photonics::adc::{peak_magnitude, Adc};
use pf_photonics::temporal::{accumulate_with_depth_into, TemporalAccumulator};
use pf_tiling::{Conv1dEngine, EdgeHandling, KernelSet, TiledConvolver};
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::layers::Conv2d;
use crate::quant::{quantize_planes, quantize_tensor, QuantConfig};
use crate::tensor::Tensor;

/// Anything that can execute a convolution layer on a `(C, H, W)` activation
/// tensor.
pub trait Conv2dExecutor: std::fmt::Debug {
    /// Runs the layer and returns the `(out_channels, H', W')` activations.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape does not match the layer.
    fn forward(&self, input: &Tensor, layer: &Conv2d) -> Result<Tensor, NnError>;
}

/// Exact digital reference executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferenceExecutor;

impl Conv2dExecutor for ReferenceExecutor {
    fn forward(&self, input: &Tensor, layer: &Conv2d) -> Result<Tensor, NnError> {
        check_input(input, layer)?;
        let mode = if layer.padded {
            PaddingMode::Same
        } else {
            PaddingMode::Valid
        };
        let mut channels = Vec::with_capacity(layer.out_channels());
        for o in 0..layer.out_channels() {
            let mut acc: Option<Matrix> = None;
            for i in 0..layer.in_channels() {
                let partial =
                    correlate2d(&input.channel(i), &layer.weights.filter_plane(o, i), mode);
                acc = Some(match acc {
                    None => partial,
                    Some(mut a) => {
                        for r in 0..a.rows() {
                            for c in 0..a.cols() {
                                a.set(r, c, a.get(r, c) + partial.get(r, c));
                            }
                        }
                        a
                    }
                });
            }
            let mut plane = acc.expect("layer has at least one input channel");
            if layer.bias[o] != 0.0 {
                for r in 0..plane.rows() {
                    for c in 0..plane.cols() {
                        plane.set(r, c, plane.get(r, c) + layer.bias[o]);
                    }
                }
            }
            channels.push(subsample(&plane, layer.stride));
        }
        Tensor::from_channels(&channels)
    }
}

/// Configuration of the PhotoFourier numeric pipeline applied by
/// [`TiledExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Quantisation applied to weights before execution.
    pub weight_quant: QuantConfig,
    /// Quantisation applied to input activations before execution.
    pub activation_quant: QuantConfig,
    /// Temporal accumulation depth: number of input channels whose partial
    /// sums are accumulated in the analog domain before one ADC read-out.
    /// `1` models the no-temporal-accumulation baseline.
    pub temporal_depth: usize,
    /// Partial-sum ADC resolution; `None` disables partial-sum quantisation
    /// entirely (the `fp psum` reference of Figure 7).
    pub psum_adc_bits: Option<u32>,
    /// Whether negative weights are split into positive/negative filter pairs
    /// executed separately (pseudo-negative method).
    pub pseudo_negative: bool,
    /// How `same`-mode horizontal edges are handled by row tiling.
    pub edge_handling: EdgeHandling,
}

impl PipelineConfig {
    /// Full-precision pipeline: no quantisation, no pseudo-negative overhead.
    pub fn ideal() -> Self {
        Self {
            weight_quant: QuantConfig::disabled(),
            activation_quant: QuantConfig::disabled(),
            temporal_depth: 1,
            psum_adc_bits: None,
            pseudo_negative: false,
            edge_handling: EdgeHandling::Wraparound,
        }
    }

    /// The PhotoFourier default: 8-bit weights/activations, 8-bit partial-sum
    /// ADC, temporal accumulation depth 16, pseudo-negative weights.
    pub fn photofourier_default() -> Self {
        Self {
            weight_quant: QuantConfig::int8(),
            activation_quant: QuantConfig::int8(),
            temporal_depth: pf_photonics::params::TEMPORAL_ACCUMULATION_DEPTH,
            psum_adc_bits: Some(8),
            pseudo_negative: true,
            edge_handling: EdgeHandling::Wraparound,
        }
    }

    /// Same as [`PipelineConfig::photofourier_default`] but with the given
    /// temporal accumulation depth (Figure 7 sweep).
    pub fn with_temporal_depth(depth: usize) -> Self {
        Self {
            temporal_depth: depth.max(1),
            ..Self::photofourier_default()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::photofourier_default()
    }
}

/// Row-tiled executor running on a 1D convolution backend.
#[derive(Debug)]
pub struct TiledExecutor<E> {
    convolver: TiledConvolver<E>,
    config: PipelineConfig,
    /// Every layer this executor (or an [`TiledExecutor::on`] view of it)
    /// has met, lowered: see [`Lowered`].
    lowered: Arc<Mutex<Vec<Arc<Lowered>>>>,
}

/// A convolution layer as it sits in the PFCU while activations stream past
/// it: everything `forward` does that depends on the weights and the plane
/// shape alone — weight quantisation, pseudo-negative splitting, one
/// prepared [`KernelSet`] per (output-channel chunk, input channel). Built
/// the first time a layer is seen and found again by **exact bit equality**
/// of the raw weights (plus plane shape and padding): mutated weights are a
/// different layer, and a lookup is a scan that leaves each candidate at
/// its first differing sample — nothing is hashed, no key is built. Bias
/// and stride stay with the layer; they are applied after accumulation.
#[derive(Debug)]
struct Lowered {
    /// The layer's raw weights and their shape, as it was handed in.
    weights: Tensor,
    /// `(height, width)` of the activation planes.
    plane: (usize, usize),
    padded: bool,
    /// `sets[chunk * in_channels + i]`: input channel `i` against the
    /// kernels of output-channel chunk `chunk` (both halves of every filter
    /// under pseudo-negative weights, positive first).
    sets: Vec<KernelSet>,
}

impl Lowered {
    fn is(&self, layer: &Conv2d, plane: (usize, usize)) -> bool {
        self.padded == layer.padded
            && self.plane == plane
            && self.weights.shape() == layer.weights.shape()
            && self
                .weights
                .data()
                .iter()
                .zip(layer.weights.data())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl<E: Conv1dEngine> TiledExecutor<E> {
    /// How many output channels are convolved per kernel set. Caps the
    /// buffered partial planes at `OUT_CHANNEL_CHUNK × in_channels` while
    /// still amortising each input tile's signal transform over up to
    /// `2 × OUT_CHANNEL_CHUNK` kernels.
    const OUT_CHANNEL_CHUNK: usize = 16;

    /// Bound on the lowered layers kept — the one cache of prepared kernels
    /// — and its one eviction rule: at the cap the list resets wholesale
    /// before the newcomer goes in. A network's layers are a few dozen; a
    /// caller streaming never-repeated weights lowers every one cold and
    /// holds at most this many. An LRU was measured against the wholesale
    /// reset and declined (`docs/PERFORMANCE.md`).
    const LOWERED_CAP: usize = 1024;

    /// Creates an executor around a 1D backend with capacity `n_conv`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tiling`] if the capacity is invalid for the
    /// backend, or [`NnError::InvalidParameter`] if the temporal depth is 0.
    pub fn new(engine: E, n_conv: usize, config: PipelineConfig) -> Result<Self, NnError> {
        if config.temporal_depth == 0 {
            return Err(NnError::InvalidParameter {
                name: "temporal_depth",
                requirement: "must be at least 1".to_string(),
            });
        }
        // The convolver keeps its default grain: a caller that fans images
        // out across the pool (`Session::run_batch`) runs each image on a
        // worker, where the pool width is 1 and every layer's tiles stay
        // serial; a caller that drives images one at a time owns the pool,
        // and each layer's tile batch may fan out under the engine's cost
        // hint.
        Ok(Self {
            convolver: TiledConvolver::new(engine, n_conv)?,
            config,
            lowered: Arc::default(),
        })
    }

    /// A view of this executor driving **another engine** of the same
    /// configuration (for a stochastic backend: another noise seed), with
    /// this executor's pipeline, grain, lowered layers and telemetry handle
    /// ([`TiledConvolver::on`]). A per-request seeded engine run through
    /// such a view lowers nothing this executor has already lowered — it
    /// runs the kept kernel sets, bound to its own stream — and adds what it
    /// is first to meet; its results are bit-identical to running it on a
    /// fresh executor of its own.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tiling`] if `engine` cannot hold this executor's
    /// 1D capacity.
    pub fn on<F: Conv1dEngine>(&self, engine: F) -> Result<TiledExecutor<F>, NnError> {
        Ok(TiledExecutor {
            convolver: self.convolver.on(engine)?,
            config: self.config,
            lowered: Arc::clone(&self.lowered),
        })
    }

    /// The row-tiling convolver every layer of this executor runs on, for
    /// callers that also drive bare 2D convolutions (the facade's `conv2d*`
    /// paths): one engine and one telemetry handle then serve both. A bare
    /// call prepares its kernels afresh; only lowered layers are kept.
    pub fn convolver(&self) -> &TiledConvolver<E> {
        &self.convolver
    }

    /// Attaches a telemetry handle to the inner convolver, so every
    /// convolution this executor drives records stage timings and tiling
    /// counters into that registry. A disabled handle (the default) keeps
    /// the untraced hot path.
    pub fn with_telemetry(mut self, telemetry: pf_telemetry::Telemetry) -> Self {
        self.convolver = self.convolver.with_telemetry(telemetry);
        self
    }

    fn chunks(out_channels: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        (0..out_channels)
            .step_by(Self::OUT_CHANNEL_CHUNK)
            .map(move |start| start..out_channels.min(start + Self::OUT_CHANNEL_CHUNK))
    }

    /// The lowered form of `layer` over `plane`-shaped activations: the
    /// one this executor (or a view sharing its list) built before, else
    /// built now and kept.
    fn lowered(&self, layer: &Conv2d, plane: (usize, usize)) -> Result<Arc<Lowered>, NnError> {
        let find = |list: &[Arc<Lowered>]| list.iter().find(|l| l.is(layer, plane)).cloned();
        let lock = || {
            self.lowered
                .lock()
                .expect("no panic while the lowered list is locked")
        };
        if let Some(hit) = find(&lock()) {
            return Ok(hit);
        }
        // Lower outside the lock: preparation may run FFTs.
        let fresh = Arc::new(self.lower(layer, plane)?);
        let mut list = lock();
        // Two images racing to lower one layer: the first entry stays, the
        // sets are interchangeable.
        if let Some(raced) = find(&list) {
            return Ok(raced);
        }
        if list.len() >= Self::LOWERED_CAP {
            list.clear();
        }
        list.push(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Grouped by *input channel*: every output channel's kernel for one
    /// input channel (two per channel with pseudo-negative splitting) goes
    /// into one kernel set, so each input tile is built — and, on the JTC
    /// backends, Fourier-transformed — once for the whole kernel stack
    /// instead of once per output channel.
    ///
    /// Output channels are grouped in chunks so the partial planes one
    /// chunk buffers stay O(chunk × in_channels) instead of O(out × in):
    /// the partial-sum ADC full scale needs every partial of an output
    /// channel before accumulation can start, so the per-(o, i) planes of
    /// one chunk must be materialised together. A chunk still amortises
    /// each tile's signal transform over up to `2 × OUT_CHANNEL_CHUNK`
    /// kernels, which captures almost all of the sharing win with bounded
    /// memory on wide layers.
    fn lower(&self, layer: &Conv2d, plane: (usize, usize)) -> Result<Lowered, NnError> {
        let weights = quantize_tensor(&layer.weights, self.config.weight_quant);
        let edges = layer.padded.then_some(self.config.edge_handling);
        let (oc, ic) = (layer.out_channels(), layer.in_channels());
        let mut sets = Vec::with_capacity(oc.div_ceil(Self::OUT_CHANNEL_CHUNK) * ic);
        for chunk in Self::chunks(oc) {
            for i in 0..ic {
                let mut kernels = Vec::with_capacity(2 * chunk.len());
                for o in chunk.clone() {
                    let kernel = weights.filter_plane(o, i);
                    if self.config.pseudo_negative {
                        let (pos, neg) = split_pseudo_negative(&kernel);
                        kernels.push(pos);
                        kernels.push(neg);
                    } else {
                        kernels.push(kernel);
                    }
                }
                sets.push(
                    self.convolver
                        .prepare_set(&kernels, plane.0, plane.1, edges)?,
                );
            }
        }
        Ok(Lowered {
            weights: layer.weights.clone(),
            plane,
            padded: layer.padded,
            sets,
        })
    }
}

impl<E: Conv1dEngine> Conv2dExecutor for TiledExecutor<E> {
    /// Prepare-then-run, one level up: the layer is lowered on first sight
    /// (`Lowered`) and every later forward does signal-side work only —
    /// quantise the activations straight into the planes the set calls
    /// read, stream each input channel past its kernel sets, then close
    /// each output channel in one pass.
    ///
    /// That pass is the layer's epilogue: it reads the channel's partial
    /// planes where the chunk's sets wrote them, takes their peak for the
    /// partial-sum ADC's full scale, runs the temporal groups and their
    /// read-outs through one capacitor bank and one digital sum that serve
    /// every output channel of the forward, and writes the finished plane —
    /// bias added, every `stride`-th row and column kept — into the output
    /// tensor. At unit stride the digital sum is the output plane itself.
    fn forward(&self, input: &Tensor, layer: &Conv2d) -> Result<Tensor, NnError> {
        check_input(input, layer)?;
        let (ic, plane) = (input.shape()[0], (input.shape()[1], input.shape()[2]));
        let lowered = self.lowered(layer, plane)?;
        let channels = quantize_planes(input, self.config.activation_quant);

        let psum_adc = self
            .config
            .psum_adc_bits
            .map(|bits| Adc::new(bits, 0.625, 0.93).expect("valid ADC resolution"));

        let Some(first) = lowered.sets.first() else {
            return Err(NnError::InvalidParameter {
                name: "conv layer channels",
                requirement: "must be non-zero".to_string(),
            });
        };
        // Unit-stride planes of `h × w`; the output keeps every `stride`-th
        // row and column (compute at stride 1, discard, Section VI-E).
        let (h, w) = first.output_shape();
        let hw = h * w;
        let stride = layer.stride.max(1);
        let (out_h, out_w) = (h.div_ceil(stride), w.div_ceil(stride));
        let out_hw = out_h * out_w;
        let mut out = vec![0.0; layer.out_channels() * out_hw];

        // One flat buffer holds a chunk's partial planes, input channel
        // major: plane `(i, o_rel)` at `(i * chunk + o_rel) * hw`, so the
        // kernel set of input channel `i` writes one contiguous block. A
        // pseudo-negative pair lands in one plane: the positive half is
        // copied in, the negative half — emitted after it, sample for
        // sample — is subtracted in place.
        let pairs = self.config.pseudo_negative;
        let mut partials = vec![0.0; ic * Self::OUT_CHANNEL_CHUNK.min(layer.out_channels()) * hw];
        let mut bank = TemporalAccumulator::new(hw, self.config.temporal_depth)
            .expect("a non-empty output plane and a depth validated at construction");
        let mut strided_sum = vec![0.0; if stride > 1 { hw } else { 0 }];
        for (chunk, sets) in Self::chunks(layer.out_channels()).zip(lowered.sets.chunks(ic)) {
            for ((set, channel), block) in sets
                .iter()
                .zip(&channels)
                .zip(partials.chunks_mut(chunk.len() * hw))
            {
                self.convolver
                    .correlate2d_set(set, channel, |k, r, c, samples| {
                        let (o_rel, negative) = if pairs {
                            (k / 2, k % 2 == 1)
                        } else {
                            (k, false)
                        };
                        let at = o_rel * hw + r * w + c;
                        let dst = &mut block[at..at + samples.len()];
                        if negative {
                            for (d, s) in dst.iter_mut().zip(samples) {
                                *d -= s;
                            }
                        } else {
                            dst.copy_from_slice(samples);
                        }
                    })?;
            }

            for (o_rel, o) in chunk.clone().enumerate() {
                let partial = |i: usize| &partials[(i * chunk.len() + o_rel) * hw..][..hw];
                // The ADC full scale is a hardware design constant sized
                // for the deepest supported group (16 channels, the
                // capacitor capacity of the PhotoFourier photodetectors),
                // independent of the depth actually used — shallow depths
                // therefore waste dynamic range on every read-out, which is
                // precisely why Figure 7 shows accuracy improving with
                // depth.
                let peak = (0..ic)
                    .map(|i| peak_magnitude(partial(i)))
                    .fold(0.0, f64::max);
                let full_scale = (peak * pf_photonics::params::TEMPORAL_ACCUMULATION_DEPTH as f64)
                    .max(f64::EPSILON);
                let plane = &mut out[o * out_hw..][..out_hw];
                // Within a group of `temporal_depth` input channels the sum
                // stays analog (full precision); at the group boundary the
                // ADC quantises once; groups are summed digitally (the
                // two-level accumulation of Section V-F).
                let sum = if stride > 1 {
                    &mut strided_sum
                } else {
                    &mut *plane
                };
                accumulate_with_depth_into(
                    &mut bank,
                    (0..ic).map(partial),
                    sum,
                    psum_adc.as_ref(),
                    Some(full_scale),
                )
                .expect("equal-shaped partial planes and a bank read out by its last call");
                let bias = layer.bias[o];
                if stride > 1 {
                    let rows = strided_sum.chunks(w).step_by(stride);
                    for (dst, row) in plane.chunks_mut(out_w).zip(rows) {
                        for (d, &v) in dst.iter_mut().zip(row.iter().step_by(stride)) {
                            *d = if bias != 0.0 { v + bias } else { v };
                        }
                    }
                } else if bias != 0.0 {
                    for v in plane {
                        *v += bias;
                    }
                }
            }
        }
        Tensor::new(vec![layer.out_channels(), out_h, out_w], out)
    }
}

fn check_input(input: &Tensor, layer: &Conv2d) -> Result<(), NnError> {
    if input.shape().len() != 3 {
        return Err(NnError::ShapeMismatch {
            expected: "(channels, height, width)".to_string(),
            found: format!("{:?}", input.shape()),
        });
    }
    if input.shape()[0] != layer.in_channels() {
        return Err(NnError::ShapeMismatch {
            expected: format!("{} input channels", layer.in_channels()),
            found: format!("{} input channels", input.shape()[0]),
        });
    }
    Ok(())
}

/// Splits a filter into its positive part and the magnitude of its negative
/// part so that `filter = positive - negative` (the pseudo-negative method).
pub fn split_pseudo_negative(kernel: &Matrix) -> (Matrix, Matrix) {
    let pos: Vec<f64> = kernel.data().iter().map(|&v| v.max(0.0)).collect();
    let neg: Vec<f64> = kernel.data().iter().map(|&v| (-v).max(0.0)).collect();
    (
        Matrix::new(kernel.rows(), kernel.cols(), pos).expect("same shape"),
        Matrix::new(kernel.rows(), kernel.cols(), neg).expect("same shape"),
    )
}

/// Subsamples a unit-stride output plane to the requested stride, which is
/// how PhotoFourier executes strided convolutions (compute at stride 1,
/// discard, Section VI-E).
fn subsample(plane: &Matrix, stride: usize) -> Matrix {
    if stride <= 1 {
        return plane.clone();
    }
    let rows = plane.rows().div_ceil(stride);
    let cols = plane.cols().div_ceil(stride);
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            out.set(r, c, plane.get(r * stride, c * stride));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::util::{max_abs_diff, relative_l2_error};
    use pf_tiling::DigitalEngine;

    fn small_layer(padded: bool, stride: usize, seed: u64) -> Conv2d {
        Conv2d::random(3, 4, 3, stride, padded, 0.5, seed).unwrap()
    }

    fn small_input(seed: u64) -> Tensor {
        Tensor::random(vec![3, 12, 12], -1.0, 1.0, seed)
    }

    #[test]
    fn reference_executor_shapes() {
        let layer = small_layer(true, 1, 1);
        let out = ReferenceExecutor.forward(&small_input(2), &layer).unwrap();
        assert_eq!(out.shape(), &[4, 12, 12]);
        let layer = small_layer(false, 1, 3);
        let out = ReferenceExecutor.forward(&small_input(4), &layer).unwrap();
        assert_eq!(out.shape(), &[4, 10, 10]);
        let layer = small_layer(true, 2, 5);
        let out = ReferenceExecutor.forward(&small_input(6), &layer).unwrap();
        assert_eq!(out.shape(), &[4, 6, 6]);
    }

    #[test]
    fn reference_rejects_bad_input() {
        let layer = small_layer(true, 1, 7);
        let bad = Tensor::random(vec![2, 12, 12], -1.0, 1.0, 8);
        assert!(ReferenceExecutor.forward(&bad, &layer).is_err());
        let bad = Tensor::random(vec![3, 12], -1.0, 1.0, 8);
        assert!(ReferenceExecutor.forward(&bad, &layer).is_err());
    }

    #[test]
    fn tiled_ideal_matches_reference_valid() {
        let layer = small_layer(false, 1, 11);
        let input = small_input(12);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let tiled = TiledExecutor::new(DigitalEngine, 256, PipelineConfig::ideal())
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert_eq!(tiled.shape(), reference.shape());
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn tiled_ideal_matches_reference_same_interior() {
        let layer = small_layer(true, 1, 21);
        let input = small_input(22);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let mut cfg = PipelineConfig::ideal();
        cfg.edge_handling = EdgeHandling::ZeroPad;
        let tiled = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn wide_layers_straddle_the_output_channel_chunk() {
        // More output channels than OUT_CHANNEL_CHUNK: the chunked
        // multi-kernel grouping must keep every channel in its place.
        let layer = Conv2d::random(3, 20, 3, 1, true, 0.4, 71).unwrap();
        let input = small_input(72);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let mut cfg = PipelineConfig::ideal();
        cfg.edge_handling = EdgeHandling::ZeroPad;
        let tiled = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert_eq!(tiled.shape(), reference.shape());
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
        // Pseudo-negative splitting doubles the kernels per chunk; the
        // pairing must survive chunking too.
        cfg.pseudo_negative = true;
        let tiled_pn = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert!(max_abs_diff(tiled_pn.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn pseudo_negative_is_numerically_identical_when_ideal() {
        let layer = small_layer(false, 1, 31);
        let input = small_input(32);
        let mut cfg = PipelineConfig::ideal();
        cfg.pseudo_negative = true;
        let with_pn = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        let without = TiledExecutor::new(DigitalEngine, 256, PipelineConfig::ideal())
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert!(max_abs_diff(with_pn.data(), without.data()) < 1e-9);
    }

    #[test]
    fn split_pseudo_negative_reconstructs_filter() {
        let kernel = Matrix::new(2, 2, vec![1.0, -2.0, 0.0, 3.0]).unwrap();
        let (p, n) = split_pseudo_negative(&kernel);
        assert!(p.data().iter().all(|&v| v >= 0.0));
        assert!(n.data().iter().all(|&v| v >= 0.0));
        for i in 0..4 {
            assert_eq!(p.data()[i] - n.data()[i], kernel.data()[i]);
        }
    }

    #[test]
    fn quantized_pipeline_is_close_to_reference() {
        let layer = Conv2d::random(8, 2, 3, 1, false, 0.3, 41).unwrap();
        let input = Tensor::random(vec![8, 10, 10], -1.0, 1.0, 42);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let tiled = TiledExecutor::new(DigitalEngine, 128, PipelineConfig::photofourier_default())
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        let err = relative_l2_error(tiled.data(), reference.data());
        assert!(err > 0.0);
        assert!(err < 0.1, "8-bit pipeline error too large: {err}");
    }

    #[test]
    fn deeper_temporal_accumulation_reduces_error() {
        // Many input channels so partial-sum quantisation matters.
        let layer = Conv2d::random(32, 1, 3, 1, false, 0.3, 51).unwrap();
        let input = Tensor::random(vec![32, 8, 8], -1.0, 1.0, 52);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();

        let mut errors = Vec::new();
        for depth in [1usize, 4, 16] {
            let tiled = TiledExecutor::new(
                DigitalEngine,
                128,
                PipelineConfig::with_temporal_depth(depth),
            )
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
            errors.push(relative_l2_error(tiled.data(), reference.data()));
        }
        assert!(
            errors[0] > errors[2],
            "depth-16 error {} should be below depth-1 error {}",
            errors[2],
            errors[0]
        );
    }

    #[test]
    fn forward_is_pool_width_invariant_and_a_second_forward_prepares_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Digital maths that opts into tile parallelism and counts kernel
        /// preparations, so both the fan-out and the lowered layer are
        /// observable.
        #[derive(Debug, Default)]
        struct CountingEngine(AtomicUsize);
        impl Conv1dEngine for CountingEngine {
            fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
                DigitalEngine.correlate_valid(signal, kernel)
            }
            fn prefers_parallel_tiles(&self) -> bool {
                true
            }
            fn prepares_kernels(&self) -> bool {
                true
            }
            fn prepare_kernel(
                &self,
                kernel: &[f64],
                signal_len: usize,
            ) -> Option<Arc<dyn pf_tiling::PreparedConv1d>> {
                self.0.fetch_add(1, Ordering::Relaxed);
                DigitalEngine.prepare_kernel(kernel, signal_len)
            }
        }

        let layer = small_layer(true, 1, 81);
        let input = small_input(82);
        // Capacity 48 over 12-column planes: several tiles per image.
        let executor =
            TiledExecutor::new(CountingEngine::default(), 48, PipelineConfig::ideal()).unwrap();
        let convolver = executor.convolver();
        let count = || convolver.engine().0.load(Ordering::Relaxed);
        let pool = |width| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap()
        };

        // Serial tiles on a 1-wide pool, fanned-out tiles on a 4-wide one.
        let serial = pool(1)
            .install(|| executor.forward(&input, &layer))
            .unwrap();
        let prepared = count();
        assert!(prepared > 0);
        let fanned = pool(4)
            .install(|| executor.forward(&input, &layer))
            .unwrap();
        for (a, b) in serial.data().iter().zip(fanned.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            count(),
            prepared,
            "the second forward must find the layer the first lowered"
        );
    }

    #[test]
    fn executor_rejects_zero_depth() {
        let mut cfg = PipelineConfig::ideal();
        cfg.temporal_depth = 0;
        assert!(TiledExecutor::new(DigitalEngine, 64, cfg).is_err());
    }

    #[test]
    fn strided_subsampling_matches_reference() {
        let layer = small_layer(true, 2, 61);
        let input = small_input(62);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let mut cfg = PipelineConfig::ideal();
        cfg.edge_handling = EdgeHandling::ZeroPad;
        let tiled = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        assert_eq!(tiled.shape(), reference.shape());
        assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }
}
