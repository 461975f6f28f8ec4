//! Property-based tests for the row tiling algorithms: the central identity
//! of the paper (tiled 1D convolution == 2D convolution) must hold for every
//! shape and capacity combination.

use std::sync::Arc;

use pf_dsp::conv::{correlate1d, correlate2d, Matrix, PaddingMode};
use pf_dsp::util::max_abs_diff;
use pf_telemetry::Telemetry;
use pf_tiling::{
    Conv1dEngine, DigitalEngine, EdgeHandling, ParallelGrain, PreparedConv1d, PreparedSignal,
    TiledConvolver, TilingPlan,
};
use proptest::prelude::*;

/// A digital engine that also exposes the prepared fast path, so the
/// determinism properties exercise preparation + caching + parallel
/// dispatch together (the digital engine alone declines preparation).
#[derive(Debug)]
struct PreparingDigital;

#[derive(Debug)]
struct PreparedDigital {
    kernel: Vec<f64>,
    signal_len: usize,
}

impl PreparedConv1d for PreparedDigital {
    fn signal_len(&self) -> usize {
        self.signal_len
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        correlate1d(signal, &self.kernel, PaddingMode::Valid)
    }
}

impl Conv1dEngine for PreparingDigital {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        correlate1d(signal, kernel, PaddingMode::Valid)
    }

    fn prefers_parallel_tiles(&self) -> bool {
        // Opt in so the determinism properties actually exercise the
        // parallel dispatch branch.
        true
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        Some(Arc::new(PreparedDigital {
            kernel: kernel.to_vec(),
            signal_len,
        }))
    }
}

/// A digital engine whose prepared kernels opt into signal sharing *and*
/// the batched transform: `prepare_signal_batch` walks the whole planar
/// batch in one pass. The "transform" is a copy, so the executor's signal
/// stage is exercised without changing any numerics — exactly the
/// bit-identity contract the trait documents.
#[derive(Debug)]
struct BatchSharingDigital;

#[derive(Debug)]
struct BatchSharedSignal {
    signal: Vec<f64>,
}

impl PreparedSignal for BatchSharedSignal {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Debug)]
struct BatchSharingPrepared {
    kernel: Vec<f64>,
    signal_len: usize,
}

impl PreparedConv1d for BatchSharingPrepared {
    fn signal_len(&self) -> usize {
        self.signal_len
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        correlate1d(signal, &self.kernel, PaddingMode::Valid)
    }

    fn signal_key(&self) -> Option<u64> {
        Some(self.signal_len as u64)
    }

    fn prepare_signal(&self, signal: &[f64]) -> Option<Arc<dyn PreparedSignal>> {
        Some(Arc::new(BatchSharedSignal {
            signal: signal.to_vec(),
        }))
    }

    fn prepare_signal_batch(
        &self,
        signals: &[f64],
        count: usize,
    ) -> Option<Vec<Arc<dyn PreparedSignal>>> {
        if count == 0 || !signals.len().is_multiple_of(count) {
            return None;
        }
        let row = signals.len() / count;
        // One pass over the planar batch, then per-row splits — the batched
        // shape real transform engines use.
        let packed: Vec<f64> = signals.to_vec();
        Some(
            packed
                .chunks_exact(row)
                .map(|chunk| {
                    Arc::new(BatchSharedSignal {
                        signal: chunk.to_vec(),
                    }) as Arc<dyn PreparedSignal>
                })
                .collect(),
        )
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        match prepared.as_any().downcast_ref::<BatchSharedSignal>() {
            Some(shared) => correlate1d(&shared.signal, &self.kernel, PaddingMode::Valid),
            None => self.correlate_valid(signal),
        }
    }
}

impl Conv1dEngine for BatchSharingDigital {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        correlate1d(signal, kernel, PaddingMode::Valid)
    }

    fn prefers_parallel_tiles(&self) -> bool {
        // Opt in so the default grain deals signals out in one chunk per
        // thread on a wide pool.
        true
    }

    fn prepares_kernels(&self) -> bool {
        true
    }

    fn prepare_kernel(&self, kernel: &[f64], signal_len: usize) -> Option<Arc<dyn PreparedConv1d>> {
        Some(Arc::new(BatchSharingPrepared {
            kernel: kernel.to_vec(),
            signal_len,
        }))
    }
}

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut data = Vec::new();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for _ in 0..rows * cols {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        data.push(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
    }
    Matrix::new(rows, cols, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_mode_identity_holds_for_all_variants(
        rows in 3usize..14,
        cols in 3usize..14,
        k in 1usize..4,
        n_conv in 3usize..200,
        seed in 0u64..1000,
    ) {
        let ksize = 2 * k + 1; // 3, 5, 7
        prop_assume!(ksize <= rows && ksize <= cols);
        prop_assume!(n_conv >= ksize);
        let mut rng_data = Vec::new();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_data.push(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
        let input = Matrix::new(rows, cols, rng_data).unwrap();
        let mut kdata = Vec::new();
        for i in 0..ksize * ksize {
            kdata.push(((i * 7 + seed as usize) % 11) as f64 / 11.0 - 0.5);
        }
        let kernel = Matrix::new(ksize, ksize, kdata).unwrap();

        let convolver = TiledConvolver::new(DigitalEngine, n_conv).unwrap();
        let tiled = convolver.correlate2d_valid(&input, &kernel).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        prop_assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn same_mode_zero_pad_identity(
        rows in 4usize..12,
        cols in 4usize..12,
        n_conv in 40usize..300,
        seed in 0u64..1000,
    ) {
        let mut data = Vec::new();
        let mut state = seed.wrapping_add(17);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            data.push(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
        let input = Matrix::new(rows, cols, data).unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 4.0).collect()).unwrap();
        let convolver = TiledConvolver::new(DigitalEngine, n_conv).unwrap();
        let tiled = convolver.correlate2d_same(&input, &kernel, EdgeHandling::ZeroPad).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        prop_assert!(max_abs_diff(tiled.data(), reference.data()) < 1e-9);
    }

    #[test]
    fn plan_cycle_counts_are_consistent(
        rows in 3usize..64,
        cols in 3usize..64,
        k in 1usize..3,
        n_conv in 8usize..600,
    ) {
        let ksize = 2 * k + 1;
        prop_assume!(ksize <= rows && ksize <= cols && n_conv >= ksize);
        let plan = TilingPlan::new(rows, cols, ksize, ksize, n_conv).unwrap();
        // Cycle count is at least 1 and at most what row partitioning would need.
        prop_assert!(plan.convs_per_output_plane >= 1);
        prop_assert!(plan.convs_per_output_plane <= rows * ksize * cols.div_ceil(n_conv).max(1));
        // The tiled kernel always fits the capacity for the tiling variants.
        if plan.variant != pf_tiling::TilingVariant::RowPartitioning {
            prop_assert!(plan.rows_per_tile * cols <= n_conv || plan.variant == pf_tiling::TilingVariant::PartialRowTiling);
        }
        // Efficiency is a fraction.
        prop_assert!(plan.efficiency() > 0.0 && plan.efficiency() <= 1.0);
    }

    #[test]
    fn parallel_dispatch_equals_serial_bit_for_bit(
        rows in 3usize..16,
        cols in 3usize..16,
        k in 1usize..4,
        n_conv in 3usize..220,
        seed in 0u64..1000,
    ) {
        // The determinism contract: rayon-parallel tile dispatch must be
        // indistinguishable from the serial path — exact equality, not
        // tolerance — across all three tiling variants, both with an engine
        // that declines preparation and with one that prepares kernels.
        let ksize = 2 * k + 1;
        prop_assume!(ksize <= rows && ksize <= cols && n_conv >= ksize);
        let input = lcg_matrix(rows, cols, seed);
        let kernel = lcg_matrix(ksize, ksize, seed.wrapping_add(7));

        let par = TiledConvolver::new(DigitalEngine, n_conv).unwrap()
            .correlate2d_valid(&input, &kernel).unwrap();
        let ser = TiledConvolver::new(DigitalEngine, n_conv).unwrap()
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel).unwrap();
        for (a, b) in par.data().iter().zip(ser.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let par_prep = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
            .correlate2d_valid(&input, &kernel).unwrap();
        let ser_prep = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel).unwrap();
        for (a, b) in par_prep.data().iter().zip(ser_prep.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // The prepared engine computes the same maths as the plain one.
        for (a, b) in par_prep.data().iter().zip(par.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multi_kernel_equals_per_kernel_bit_for_bit(
        rows in 3usize..14,
        cols in 3usize..14,
        k in 1usize..3,
        n_kernels in 1usize..6,
        n_conv in 3usize..200,
        seed in 0u64..1000,
    ) {
        // The tile-grouped multi-kernel path (including the shared signal
        // transforms) must reproduce the per-kernel path exactly, for
        // every tiling variant, with and without kernel preparation, in
        // both padding modes.
        let ksize = 2 * k + 1;
        prop_assume!(ksize <= rows && ksize <= cols && n_conv >= ksize);
        let input = lcg_matrix(rows, cols, seed);
        let kernels: Vec<Matrix> = (0..n_kernels)
            .map(|i| lcg_matrix(ksize, ksize, seed.wrapping_add(23 + i as u64)))
            .collect();

        let plain = TiledConvolver::new(DigitalEngine, n_conv).unwrap();
        let preparing = TiledConvolver::new(PreparingDigital, n_conv).unwrap();
        let multi_plain = plain.correlate2d_valid_multi(&input, &kernels).unwrap();
        let multi_prep = preparing.correlate2d_valid_multi(&input, &kernels).unwrap();
        prop_assert_eq!(multi_plain.len(), kernels.len());
        for ((kernel, a), b) in kernels.iter().zip(&multi_plain).zip(&multi_prep) {
            let single = plain.correlate2d_valid(&input, kernel).unwrap();
            for (x, y) in single.data().iter().zip(a.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in single.data().iter().zip(b.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for edges in [EdgeHandling::Wraparound, EdgeHandling::ZeroPad] {
            let multi = preparing.correlate2d_same_multi(&input, &kernels, edges).unwrap();
            for (kernel, plane) in kernels.iter().zip(&multi) {
                let single = preparing.correlate2d_same(&input, kernel, edges).unwrap();
                for (x, y) in single.data().iter().zip(plane.data()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn every_grain_is_bit_identical_at_every_pool_width(
        rows in 3usize..12,
        cols in 3usize..12,
        k in 1usize..3,
        n_conv in 3usize..200,
        seed in 0u64..1000,
    ) {
        // The grain steers *whether* tiles fan out, never *what* is
        // computed: both grains, under scoped pools of width 1, 2 and 4,
        // must reproduce the serial image-grain result bit for bit — with
        // both a preparation-declining engine (serial by its cost hint) and
        // a kernel-preparing one that asks for parallel tiles.
        let ksize = 2 * k + 1;
        prop_assume!(ksize <= rows && ksize <= cols && n_conv >= ksize);
        let input = lcg_matrix(rows, cols, seed);
        let kernel = lcg_matrix(ksize, ksize, seed.wrapping_add(31));

        let reference = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel).unwrap();
        let plain_reference = TiledConvolver::new(DigitalEngine, n_conv).unwrap()
            .with_grain(ParallelGrain::Image)
            .correlate2d_valid(&input, &kernel).unwrap();
        for width in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            for grain in [ParallelGrain::Auto, ParallelGrain::Image] {
                let prep = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
                    .with_grain(grain);
                let out = pool.install(|| prep.correlate2d_valid(&input, &kernel)).unwrap();
                for (a, b) in out.data().iter().zip(reference.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                let plain = TiledConvolver::new(DigitalEngine, n_conv).unwrap()
                    .with_grain(grain);
                let out = pool.install(|| plain.correlate2d_valid(&input, &kernel)).unwrap();
                for (a, b) in out.data().iter().zip(plain_reference.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn same_mode_parallel_equals_serial_bit_for_bit(
        rows in 4usize..12,
        cols in 4usize..12,
        n_conv in 9usize..300,
        seed in 0u64..500,
    ) {
        let input = lcg_matrix(rows, cols, seed);
        let kernel = lcg_matrix(3, 3, seed.wrapping_add(13));
        for edges in [EdgeHandling::Wraparound, EdgeHandling::ZeroPad] {
            let par = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
                .correlate2d_same(&input, &kernel, edges).unwrap();
            let ser = TiledConvolver::new(PreparingDigital, n_conv).unwrap()
                .with_grain(ParallelGrain::Image)
                .correlate2d_same(&input, &kernel, edges).unwrap();
            for (a, b) in par.data().iter().zip(ser.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batched_signal_seeding_matches_one_tile_at_a_time(
        rows in 3usize..14,  // tile batches of both parities, variant-dependent
        cols in 3usize..14,
        n_kernels in 2usize..5,  // even and odd kernel counts; > 1 enables sharing
        n_conv in 15usize..200,
        seed in 0u64..1000,
    ) {
        // A multi-kernel run takes every distinct signal's transform with
        // one batched `prepare_signal_batch` call per chunk. Whatever the
        // batch parity, grain or pool width, the result must equal running
        // each kernel's single-kernel path bit for bit (under row tiling a
        // stack of one shares nothing and takes no transform).
        prop_assume!(rows >= 3 && cols >= 3);
        let input = lcg_matrix(rows, cols, seed);
        let kernels: Vec<Matrix> = (0..n_kernels)
            .map(|i| lcg_matrix(3, 3, seed.wrapping_add(41 + i as u64)))
            .collect();

        let single = TiledConvolver::new(BatchSharingDigital, n_conv).unwrap();
        let references: Vec<Matrix> = kernels
            .iter()
            .map(|k| single.correlate2d_valid(&input, k).unwrap())
            .collect();

        // Serial execution deals the signals out as one chunk.
        let tel = Telemetry::enabled();
        let serial = TiledConvolver::new(BatchSharingDigital, n_conv).unwrap()
            .with_grain(ParallelGrain::Image)
            .with_telemetry(tel.clone());
        let outs = serial.correlate2d_valid_multi(&input, &kernels).unwrap();
        let stats = tel.snapshot();
        prop_assert_eq!(outs.len(), references.len());
        for (a, b) in outs.iter().zip(&references) {
            for (x, y) in a.data().iter().zip(b.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // When sharing engaged, every correlation read a transform taken
        // once per distinct signal.
        if stats.counter("tiling.spectrum_misses") > 0 {
            prop_assert_eq!(
                stats.counter("tiling.spectrum_hits"),
                stats.counter("tiling.convs_1d")
            );
        }

        // And so does every grain at every pool width: one chunk or one
        // chunk per thread, the same signal stage.
        for width in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            for grain in [ParallelGrain::Auto, ParallelGrain::Image] {
                let c = TiledConvolver::new(BatchSharingDigital, n_conv).unwrap()
                    .with_grain(grain);
                let outs = pool
                    .install(|| c.correlate2d_valid_multi(&input, &kernels))
                    .unwrap();
                for (a, b) in outs.iter().zip(&references) {
                    for (x, y) in a.data().iter().zip(b.data()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn same_mode_wraparound_interior_matches_reference(
        rows in 6usize..12,
        cols in 6usize..12,
        seed in 0u64..500,
    ) {
        let mut data = Vec::new();
        let mut state = seed.wrapping_add(99);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            data.push((state >> 33) as f64 / (1u64 << 31) as f64);
        }
        let input = Matrix::new(rows, cols, data).unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| ((i * 3 + 1) % 7) as f64 / 7.0).collect()).unwrap();
        let convolver = TiledConvolver::new(DigitalEngine, 256).unwrap();
        let tiled = convolver.correlate2d_same(&input, &kernel, EdgeHandling::Wraparound).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Same);
        for r in 1..rows - 1 {
            for c in 1..cols - 1 {
                prop_assert!((tiled.get(r, c) - reference.get(r, c)).abs() < 1e-9,
                    "interior mismatch at ({}, {})", r, c);
            }
        }
    }
}
