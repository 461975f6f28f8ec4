//! Property-based tests for the neural-network substrate: executor
//! equivalence, the lowered-layer list (a hit is the cold result),
//! quantisation error bounds and model-zoo consistency.

use std::sync::Arc;

use pf_dsp::util::{max_abs_diff, relative_l2_error};
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_nn::executor::{Conv2dExecutor, PipelineConfig, ReferenceExecutor, TiledExecutor};
use pf_nn::layers::Conv2d;
use pf_nn::models::paper_benchmark_suite;
use pf_nn::quant::{quantization_step, quantize_tensor, QuantConfig};
use pf_nn::tensor::Tensor;
use pf_tiling::{Conv1dEngine, DigitalEngine, EdgeHandling, PreparedConv1d};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn bits(tensor: &Tensor) -> Vec<u64> {
    tensor.data().iter().map(|v| v.to_bits()).collect()
}

/// The lowered-layer list is invisible in the output: on one shared
/// executor, driven through [`TiledExecutor::on`] views over fresh engines
/// from `engine` (so a seeded noise stream restarts per forward), a layer's
/// first forward (lowers), its second (hit), its forwards interleaved with a
/// same-shape layer of other weights, and the forward after one weight
/// sample changed all return the bits of a fresh executor that lowers cold.
fn hit_equals_cold<E: Conv1dEngine>(
    name: &str,
    engine: impl Fn() -> E,
    capacity: usize,
    config: PipelineConfig,
    input: &Tensor,
    [a, b]: [&Conv2d; 2],
) -> Result<(), TestCaseError> {
    let cold = |layer: &Conv2d| {
        let fresh = TiledExecutor::new(engine(), capacity, config).unwrap();
        bits(&fresh.forward(input, layer).unwrap())
    };
    let shared = TiledExecutor::new(engine(), capacity, config).unwrap();
    let warm = |layer: &Conv2d| {
        let view = shared.on(engine()).unwrap();
        bits(&view.forward(input, layer).unwrap())
    };
    let (cold_a, cold_b) = (cold(a), cold(b));
    prop_assert!(warm(a) == cold_a, "{name}: first forward (lowers)");
    prop_assert!(warm(a) == cold_a, "{name}: second forward (hit)");
    for round in 0..2 {
        prop_assert!(warm(b) == cold_b, "{name}: interleaved B, round {round}");
        prop_assert!(warm(a) == cold_a, "{name}: interleaved A, round {round}");
    }
    let mut mutated = a.clone();
    mutated.weights.data_mut()[0] += 0.25;
    prop_assert!(
        warm(&mutated) == cold(&mutated),
        "{name}: mutated weights must miss"
    );
    prop_assert!(
        warm(a) == cold_a,
        "{name}: the unmutated layer still hits its own"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_executor_matches_reference_for_any_shape(
        in_channels in 1usize..6,
        // 15 / 16 / 17 / 20 straddle the executor's output-channel chunk.
        out_channels in prop::sample::select(vec![1usize, 2, 3, 15, 16, 17, 20]),
        size in 6usize..14,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        padded in prop::sample::select(vec![true, false]),
        pseudo_negative in prop::sample::select(vec![false, true]),
        seed in 0u64..1000,
    ) {
        // The direct executor is the oracle: no tiling, no lowering, no
        // prepared kernels.
        let layer =
            Conv2d::random(in_channels, out_channels, kernel, stride, padded, 0.5, seed).unwrap();
        let input = Tensor::random(vec![in_channels, size, size], -1.0, 1.0, seed + 1);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let mut cfg = PipelineConfig::ideal();
        cfg.edge_handling = EdgeHandling::ZeroPad;
        cfg.pseudo_negative = pseudo_negative;
        let tiled = TiledExecutor::new(DigitalEngine, 256, cfg)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        prop_assert_eq!(tiled.shape(), reference.shape());
        prop_assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn a_lowered_hit_is_the_cold_result_bit_for_bit(
        in_channels in 1usize..4,
        out_channels in prop::sample::select(vec![1usize, 15, 16, 17, 20]),
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        padded in prop::sample::select(vec![true, false]),
        edges in prop::sample::select(vec![EdgeHandling::Wraparound, EdgeHandling::ZeroPad]),
        pseudo_negative in prop::sample::select(vec![false, true]),
        quantised in prop::sample::select(vec![false, true]),
        // Row tiling, and partial row tiling of the same 8-column planes.
        capacity in prop::sample::select(vec![64usize, 16]),
        seed in 0u64..1000,
    ) {
        let mut config = if quantised {
            PipelineConfig::photofourier_default()
        } else {
            PipelineConfig::ideal()
        };
        config.edge_handling = edges;
        config.pseudo_negative = pseudo_negative;
        let layer = |seed| {
            Conv2d::random(in_channels, out_channels, kernel, stride, padded, 0.5, seed).unwrap()
        };
        let (a, b) = (layer(seed), layer(seed + 1));
        let input = Tensor::random(vec![in_channels, 8, 8], -1.0, 1.0, seed + 2);
        let layers = [&a, &b];
        hit_equals_cold("digital", || DigitalEngine, capacity, config, &input, layers)?;
        let ideal = || JtcEngine::ideal(capacity).unwrap();
        hit_equals_cold("jtc_ideal", ideal, capacity, config, &input, layers)?;
        let cg = || {
            JtcEngine::new(JtcEngineConfig {
                noise_seed: seed,
                ..JtcEngineConfig::photofourier_cg(capacity)
            })
            .unwrap()
        };
        hit_equals_cold("cg_seeded", cg, capacity, config, &input, layers)?;
    }

    #[test]
    fn pseudo_negative_never_changes_ideal_results(
        in_channels in 1usize..4,
        size in 6usize..12,
        seed in 0u64..1000,
    ) {
        let layer = Conv2d::random(in_channels, 2, 3, 1, false, 0.5, seed).unwrap();
        let input = Tensor::random(vec![in_channels, size, size], -1.0, 1.0, seed + 7);
        let mut with_pn = PipelineConfig::ideal();
        with_pn.pseudo_negative = true;
        let a = TiledExecutor::new(DigitalEngine, 256, with_pn)
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        let b = TiledExecutor::new(DigitalEngine, 256, PipelineConfig::ideal())
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        prop_assert!(max_abs_diff(a.data(), b.data()) < 1e-9);
    }

    #[test]
    fn quantization_error_is_within_one_step(
        values in prop::collection::vec(-10.0f64..10.0, 1..256),
        bits in 2u32..12,
    ) {
        let tensor = Tensor::new(vec![values.len()], values.clone()).unwrap();
        let quantised = quantize_tensor(&tensor, QuantConfig { bits, enabled: true });
        let max_abs = tensor.max_abs();
        let step = max_abs * quantization_step(bits);
        for (a, b) in tensor.data().iter().zip(quantised.data()) {
            prop_assert!((a - b).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn quantized_pipeline_error_stays_bounded(
        seed in 0u64..200,
    ) {
        let layer = Conv2d::random(8, 2, 3, 1, false, 0.4, seed).unwrap();
        let input = Tensor::random(vec![8, 10, 10], 0.0, 1.0, seed + 3);
        let reference = ReferenceExecutor.forward(&input, &layer).unwrap();
        let tiled = TiledExecutor::new(DigitalEngine, 128, PipelineConfig::photofourier_default())
            .unwrap()
            .forward(&input, &layer)
            .unwrap();
        prop_assert!(relative_l2_error(tiled.data(), reference.data()) < 0.15);
    }
}

#[test]
fn model_zoo_activation_shapes_chain() {
    // Each network's layer list must be internally consistent: output size
    // of a layer can never exceed its input size, and channel counts are
    // positive.
    for network in paper_benchmark_suite() {
        for layer in &network.conv_layers {
            assert!(layer.output_size() <= layer.input_size, "{}", layer.name);
            assert!(layer.macs() > 0);
        }
    }
}

/// A prepared digital kernel holding a token, so the test below can count
/// the preparations alive anywhere in an executor.
#[derive(Debug)]
struct Tracked {
    inner: Arc<dyn PreparedConv1d>,
    _alive: Arc<()>,
}

impl PreparedConv1d for Tracked {
    fn signal_len(&self) -> usize {
        self.inner.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.inner.correlate_valid(signal)
    }
}

#[derive(Debug)]
struct TrackingEngine(Arc<()>);

impl Conv1dEngine for TrackingEngine {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        DigitalEngine.correlate_valid(signal, kernel)
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        let inner = DigitalEngine.prepare_kernel(kernel, signal_len)?;
        Some(Arc::new(Tracked {
            inner,
            _alive: Arc::clone(&self.0),
        }))
    }
}

#[test]
fn two_thousand_distinct_layers_leave_a_bounded_list() {
    // Never-repeated one-kernel layers: every forward lowers cold. What an
    // executor keeps alive — the preparations its lowered list holds — must
    // stop growing at the cap (1 024 layers, then reset) instead of
    // following the stream.
    let alive = Arc::new(());
    let executor = TiledExecutor::new(
        TrackingEngine(Arc::clone(&alive)),
        64,
        PipelineConfig::ideal(),
    )
    .unwrap();
    let input = Tensor::random(vec![1, 4, 4], -1.0, 1.0, 5);
    let mut layer = Conv2d::random(1, 1, 1, 1, true, 0.5, 6).unwrap();
    for distinct in 0..2_000 {
        layer.weights.data_mut()[0] = distinct as f64 + 0.5;
        let out = executor.forward(&input, &layer).unwrap();
        assert_eq!(out.data()[0], input.data()[0] * (distinct as f64 + 0.5));
        let kept = Arc::strong_count(&alive) - 2;
        assert!(
            kept <= 1_024,
            "{kept} preparations alive after {distinct} layers"
        );
    }
}
