//! Property-based tests for the JTC optics simulation: the optical
//! correlation must agree with the digital reference for arbitrary signals,
//! and the temporal accumulator must never lose precision before read-out.

use pf_dsp::conv::{correlate1d, PaddingMode};
use pf_dsp::util::max_abs_diff;
use pf_jtc::correlator::JtcSimulator;
use pf_jtc::engine::{JtcEngine, JtcEngineConfig};
use pf_jtc::prepared::PreparedSpectrum;
use pf_photonics::adc::Adc;
use pf_photonics::temporal::{accumulate_with_depth, TemporalAccumulator};
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, 4..=max_len)
}

fn kernel_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0f64..2.0, 1..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optical_correlation_equals_digital(
        signal in signal_strategy(64),
        kernel in kernel_strategy(9),
    ) {
        prop_assume!(kernel.len() <= signal.len());
        let jtc = JtcSimulator::new(64).unwrap();
        let optical = jtc.correlate(&signal, &kernel).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        prop_assert_eq!(optical.len(), digital.len());
        let scale = digital.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(max_abs_diff(&optical, &digital) < 1e-7 * scale.max(1.0));
    }

    #[test]
    fn output_plane_terms_always_separate(
        signal in signal_strategy(48),
        kernel in kernel_strategy(5),
    ) {
        prop_assume!(kernel.len() <= signal.len());
        prop_assume!(signal.iter().any(|&v| v != 0.0));
        let jtc = JtcSimulator::new(48).unwrap();
        let output = jtc.output_plane(&signal, &kernel).unwrap();
        prop_assert!(output.terms_are_separated(1e-6));
    }

    #[test]
    fn quantized_engine_error_is_bounded(
        signal in prop::collection::vec(0.0f64..1.0, 8..48),
        kernel in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        prop_assume!(kernel.len() <= signal.len());
        prop_assume!(signal.iter().any(|&v| v > 1e-3));
        prop_assume!(kernel.iter().any(|&v| v > 1e-3));
        let engine = JtcEngine::new(JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: Some(8),
            sensing_snr_db: None,
            noise_seed: 0,
        }).unwrap();
        let optical = engine.correlate(&signal, &kernel).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        let scale = digital.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // 8-bit quantisation of inputs, weights and outputs stays within a
        // few percent of full scale.
        prop_assert!(max_abs_diff(&optical, &digital) <= 0.05 * scale.max(1e-6));
    }

    #[test]
    fn temporal_accumulator_is_exact_before_readout(
        cycles in prop::collection::vec(
            prop::collection::vec(-1.0f64..1.0, 4usize..=4),
            1..16,
        ),
    ) {
        let mut acc = TemporalAccumulator::new(4, 16).unwrap();
        for cycle in &cycles {
            acc.accumulate(cycle).unwrap();
        }
        let exact: Vec<f64> = (0..4)
            .map(|lane| cycles.iter().map(|c| c[lane]).sum())
            .collect();
        let read = acc.read_out(None, None);
        prop_assert!(max_abs_diff(&read, &exact) < 1e-12);
    }

    #[test]
    fn shared_signal_spectrum_is_bit_identical_to_per_call_prepared(
        seed in 0u64..1000,
        signal_len in 8usize..64,
        n_kernels in 1usize..6,
        kernel_len in 1usize..6,
    ) {
        // One SignalSpectrum replayed against N prepared kernels must be
        // bit-for-bit what the fused per-call prepared path computes, for
        // the raw optics and for the full engine chain (DAC/ADC).
        use rand::{Rng, SeedableRng};
        prop_assume!(kernel_len <= signal_len);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signal: Vec<f64> = (0..signal_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let kernels: Vec<Vec<f64>> = (0..n_kernels)
            .map(|_| (0..kernel_len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();

        let preps: Vec<_> = kernels
            .iter()
            .map(|k| PreparedSpectrum::new(k, signal_len, 64).unwrap())
            .collect();
        let spectrum = preps[0].signal_spectrum(&signal).unwrap();
        for prep in &preps {
            let shared = prep.correlate_spectrum(&spectrum).unwrap();
            let fused = prep.correlate(&signal).unwrap();
            prop_assert_eq!(shared.len(), fused.len());
            for (a, b) in shared.iter().zip(&fused) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn multi_kernel_tiling_matches_single_kernel_bitwise(
        seed in 0u64..1000,
        rows in 4usize..12,
        n_kernels in 1usize..5,
        // Capacity regimes: row tiling, partial row tiling, partitioned rows.
        n_conv_sel in 0usize..3,
    ) {
        // The convolver's tile-grouped multi-kernel path (shared signal
        // spectra, one transform per distinct signal) must reproduce
        // per-kernel execution bit for bit on the real optics engine, in
        // every tiling variant.
        use pf_dsp::conv::Matrix;
        use pf_tiling::TiledConvolver;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cols = rows;
        let input = Matrix::new(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let kernels: Vec<Matrix> = (0..n_kernels)
            .map(|_| {
                Matrix::new(3, 3, (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect()).unwrap()
            })
            .collect();
        prop_assume!(rows >= 3);
        let n_conv = match n_conv_sel {
            0 => 4 * cols,     // row tiling
            1 => cols + 1,     // partial row tiling (for 3-row kernels)
            _ => cols - 1,     // row partitioning
        };
        prop_assume!(n_conv >= 3);
        let engine = JtcEngine::ideal(n_conv.max(16)).unwrap();
        let convolver = TiledConvolver::new(engine, n_conv).unwrap();
        let multi = convolver.correlate2d_valid_multi(&input, &kernels).unwrap();
        for (kernel, plane) in kernels.iter().zip(&multi) {
            let single = convolver.correlate2d_valid(&input, kernel).unwrap();
            for (a, b) in single.data().iter().zip(plane.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batched_signal_preparation_is_bit_identical_to_serial(
        seed in 0u64..1000,
        count in 1usize..7, // even and odd batch sizes
        signal_len in 8usize..48,
        kernel_len in 1usize..6,
        quantised in 0u8..2, // 1 = DAC in the chain, 0 = ideal
    ) {
        // `prepare_signal_batch` takes all rows in one planar call; the
        // trait contract demands each row be bit-identical
        // to its one-at-a-time `prepare_signal` counterpart — with and
        // without a DAC in the chain.
        use pf_tiling::Conv1dEngine;
        use rand::{Rng, SeedableRng};
        let quantised = quantised == 1;
        prop_assume!(kernel_len <= signal_len);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kernel: Vec<f64> = (0..kernel_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let engine = JtcEngine::new(JtcEngineConfig {
            capacity: 64,
            dac_bits: if quantised { Some(8) } else { None },
            adc_bits: None,
            sensing_snr_db: None,
            noise_seed: 0,
        }).unwrap();
        let prep = Conv1dEngine::prepare_kernel(&engine, &kernel, signal_len).unwrap();
        let signals: Vec<f64> = (0..signal_len * count)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let batch = prep
            .prepare_signal_batch(&signals, count)
            .expect("equal-length rows batch cleanly");
        prop_assert_eq!(batch.len(), count);
        for (row, shared) in batch.iter().enumerate() {
            let tile = &signals[row * signal_len..(row + 1) * signal_len];
            let serial = prep.prepare_signal(tile).expect("serial preparation");
            let a = prep.correlate_with_signal(shared.as_ref(), tile);
            let b = prep.correlate_with_signal(serial.as_ref(), tile);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn seeded_noisy_cached_kernel_replays_preparing_per_call(
        seed in 0u64..1000,
        signal_len in 8usize..40,
        kernel_len in 1usize..5,
        calls in 1usize..5,
    ) {
        // Two engines with the same noise seed: one reuses a cached
        // trait-prepared kernel, the other re-prepares on every call. The
        // seeded noise stream advances identically, so outputs are
        // bit-identical call for call.
        use pf_tiling::Conv1dEngine;
        use rand::{Rng, SeedableRng};
        prop_assume!(kernel_len <= signal_len);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kernel: Vec<f64> = (0..kernel_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let config = JtcEngineConfig {
            capacity: 64,
            dac_bits: Some(8),
            adc_bits: Some(8),
            sensing_snr_db: Some(20.0),
            noise_seed: seed,
        };
        let cached_engine = JtcEngine::new(config.clone()).unwrap();
        let fresh_engine = JtcEngine::new(config).unwrap();
        let cached = Conv1dEngine::prepare_kernel(&cached_engine, &kernel, signal_len).unwrap();
        for _ in 0..calls {
            let signal: Vec<f64> =
                (0..signal_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a = cached.correlate_valid(&signal);
            let fresh = fresh_engine.prepare(&kernel, signal_len).unwrap();
            let b = fresh.correlate(&signal).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn deeper_accumulation_never_hurts(
        seed in 0u64..500,
        channels in 8usize..48,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lanes = 16;
        let cycles: Vec<Vec<f64>> = (0..channels)
            .map(|_| (0..lanes).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let exact: Vec<f64> = (0..lanes)
            .map(|l| cycles.iter().map(|c| c[l]).sum())
            .collect();
        let adc = Adc::new(8, 0.625, 0.93).unwrap();
        let fs = Some(16.0);
        let shallow = accumulate_with_depth(&cycles, 1, Some(&adc), fs).unwrap();
        let deep = accumulate_with_depth(&cycles, 16, Some(&adc), fs).unwrap();
        let err_shallow = pf_dsp::util::relative_l2_error(&shallow, &exact);
        let err_deep = pf_dsp::util::relative_l2_error(&deep, &exact);
        prop_assert!(err_deep <= err_shallow + 1e-9);
    }
}
