//! The lane path against the per-kernel path.
//!
//! [`PreparedConv1d::correlate_set_into`] on a JTC prepared kernel carries
//! the kernels of a set through the second lens four to a lane block and
//! reads every lobe out straight into its slice of the caller's buffer. The
//! contract it is held to here: output for output **bit for bit** what
//! calling `correlate_with_signal` on each member in turn produces, every
//! sample of the buffer written, with a noisy engine's stream left in the
//! same state — for every block shape (full blocks, a short last block, a
//! set shorter than one block, a lone kernel, which takes the scalar
//! chain), on small planes and on the benchmark's two grids (n = 240 and
//! n = 1000, where the intensity and read-out passes run the lengths users
//! run), on operands at the edges of `f64` (1e150-scale kernels and tiles,
//! silent lanes, subnormal spectra), with and without stage marks, and on
//! the sets it must hand back to the per-kernel loop (a transform taken on
//! another grid, no transform at all, a foreign member).
//!
//! And, since the engine has one chain: the one-off entries
//! (`JtcEngine::correlate`, `Conv1dEngine::correlate_valid`) against a kept
//! prepared kernel, held to the same standard.

use std::sync::Arc;

use pf_dsp::scratch::with_spectrum_scratch;
use pf_dsp::LANES;
use pf_jtc::engine::{JtcEngine, JtcEngineConfig};
use pf_jtc::PreparedSpectrum;
use pf_telemetry::{Stage, StageAcc};
use pf_tiling::{Conv1dEngine, PreparedConv1d, PreparedSignal};
use proptest::prelude::*;

const SIGNAL_LEN: usize = 48;

/// The benchmark's two tile geometries at capacity 256: (tile length,
/// tiled-kernel taps, grid). Its second layer's 64-sample tiles meet
/// 19-tap kernels on a 240-point plane, its first layer's 256-sample tiles
/// 35-tap kernels on a 1000-point one.
const BENCHMARK_GRIDS: [(usize, usize, usize); 2] = [(64, 19, 240), (256, 35, 1000)];

fn configs(capacity: usize) -> [(&'static str, JtcEngineConfig); 3] {
    [
        ("ideal", JtcEngineConfig::ideal(capacity)),
        (
            "adc_only",
            JtcEngineConfig {
                adc_bits: Some(8),
                ..JtcEngineConfig::ideal(capacity)
            },
        ),
        (
            "cg_seed11",
            JtcEngineConfig {
                noise_seed: 11,
                ..JtcEngineConfig::photofourier_cg(capacity)
            },
        ),
    ]
}

fn kernel(i: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|j| ((i * 7 + j * 3) as f64 * 0.41).sin() - 0.2 * (i % 3) as f64)
        .collect()
}

fn signal(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|i| ((i as f64 + phase) * 0.29).sin() + 0.3)
        .collect()
}

/// The two tiles every set is run against unless a test says otherwise.
fn tiles(len: usize) -> Vec<Vec<f64>> {
    vec![signal(len, 0.0), signal(len, 5.5)]
}

fn scaled(values: &[f64], scale: f64) -> Vec<f64> {
    values.iter().map(|v| v * scale).collect()
}

fn prepare(engine: &JtcEngine, kernels: &[Vec<f64>], len: usize) -> Vec<Arc<dyn PreparedConv1d>> {
    kernels
        .iter()
        .map(|k| engine.prepare_kernel(k, len).expect("the JTC prepares"))
        .collect()
}

fn refs(preps: &[Arc<dyn PreparedConv1d>]) -> Vec<&dyn PreparedConv1d> {
    preps.iter().map(|p| &**p).collect()
}

fn per_kernel(
    set: &[&dyn PreparedConv1d],
    shared: &dyn PreparedSignal,
    signal: &[f64],
) -> Vec<Vec<f64>> {
    set.iter()
        .map(|k| k.correlate_with_signal(shared, signal))
        .collect()
}

/// A quiet NaN no chain produces: a sample the set call leaves unwritten
/// keeps it, and no loop output matches it bit for bit.
const UNWRITTEN: u64 = 0x7ff8_dead_beef_0001;

/// The set call into one buffer of `corr_len` samples per kernel (the
/// buffer starts as [`UNWRITTEN`]), cut back into one vector per kernel.
fn set_call(
    set: &[&dyn PreparedConv1d],
    shared: Option<&dyn PreparedSignal>,
    signal: &[f64],
    corr_len: usize,
    acc: Option<&mut StageAcc>,
) -> Vec<Vec<f64>> {
    let mut out = vec![f64::from_bits(UNWRITTEN); set.len() * corr_len];
    set[0].correlate_set_into(set, shared, signal, &mut out, acc);
    (0..set.len())
        .map(|k| out[k * corr_len..(k + 1) * corr_len].to_vec())
        .collect()
}

/// Samples of the valid correlation of a `signal_len` signal with a
/// `kernel_len` kernel.
fn corr_len(signal_len: usize, kernel_len: usize) -> usize {
    (signal_len + 1).saturating_sub(kernel_len)
}

fn assert_bits(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: output count");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: kernel {k} length");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: kernel {k} sample {i}");
        }
    }
}

/// Which path a set call took, read off this thread's scratch arena (one
/// test, one thread): a lane block leaves its lobe in `lanes_half`, the
/// per-kernel chain never touches it.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Path {
    Lanes,
    PerKernel,
}

fn path_taken(f: impl FnOnce()) -> Path {
    with_spectrum_scratch(|s| s.lanes_half.clear());
    f();
    match with_spectrum_scratch(|s| s.lanes_half.len()) {
        0 => Path::PerKernel,
        _ => Path::Lanes,
    }
}

/// Runs `kernels` against `tiles` (each of the set's signal length) on two
/// engines of one configuration — the set call on one, the per-kernel loop
/// on the other — and checks the path taken, outputs and engine state (the
/// `Debug` form shows the noise generator). Hands back the set call's
/// outputs, tile by tile.
fn check_set_equals_loop(
    name: &str,
    config: &JtcEngineConfig,
    kernels: &[Vec<f64>],
    tiles: &[Vec<f64>],
    expect: Path,
) -> Vec<Vec<Vec<f64>>> {
    let len = tiles[0].len();
    let out_len = corr_len(len, kernels[0].len());
    let (by_set, by_loop) = (
        JtcEngine::new(config.clone()).unwrap(),
        JtcEngine::new(config.clone()).unwrap(),
    );
    let (set_preps, loop_preps) = (
        prepare(&by_set, kernels, len),
        prepare(&by_loop, kernels, len),
    );
    tiles
        .iter()
        .enumerate()
        .map(|(t, tile)| {
            let what = format!("{name}, {} kernels, tile {t}", kernels.len());
            let shared = set_preps[0].prepare_signal(tile).unwrap();
            let set = refs(&set_preps);
            let mut lanes = Vec::new();
            let path = path_taken(|| lanes = set_call(&set, Some(&*shared), tile, out_len, None));
            assert_eq!(path, expect, "{what}: path");
            let looped = per_kernel(&refs(&loop_preps), &*shared, tile);
            assert_bits(&lanes, &looped, &what);
            assert_eq!(
                format!("{by_set:?}"),
                format!("{by_loop:?}"),
                "{what}: engine state"
            );
            lanes
        })
        .collect()
}

#[test]
fn set_call_equals_the_per_kernel_loop_for_every_block_shape() {
    for (name, config) in configs(64) {
        for count in 1..=2 * LANES + 1 {
            let kernels: Vec<Vec<f64>> = (0..count).map(|i| kernel(i, 5)).collect();
            // One kernel is not worth a lane block.
            let expect = if count == 1 {
                Path::PerKernel
            } else {
                Path::Lanes
            };
            check_set_equals_loop(name, &config, &kernels, &tiles(SIGNAL_LEN), expect);
        }
    }
}

#[test]
fn set_call_equals_the_per_kernel_loop_on_the_benchmark_grids() {
    for (len, taps, grid) in BENCHMARK_GRIDS {
        let plane = PreparedSpectrum::new(&kernel(0, taps), len, 256).unwrap();
        assert_eq!(plane.grid_size(), grid, "{len}-sample tiles, {taps} taps");
        for (name, config) in configs(256) {
            // Two and three kernels ride with idle lanes, four fill a
            // block, five leave a lone kernel to the scalar chain, eight
            // are two full blocks.
            for count in [2, 3, 4, 5, 8] {
                let kernels: Vec<Vec<f64>> = (0..count).map(|i| kernel(i, taps)).collect();
                let name = format!("{name}, n = {grid}");
                check_set_equals_loop(&name, &config, &kernels, &tiles(len), Path::Lanes);
            }
        }
    }
}

#[test]
fn a_silent_kernel_in_a_lane_draws_no_noise() {
    // An all-zero kernel under an all-zero tile has zero RMS and must
    // consume nothing, also when it rides between kernels that do.
    let (_, config) = configs(64).into_iter().nth(2).unwrap();
    let kernels = vec![kernel(0, 3), vec![0.0; 3], kernel(2, 3), kernel(3, 3)];
    let tiles = vec![signal(16, 0.0), vec![0.0; 16], signal(16, 5.5)];
    check_set_equals_loop(
        "cg with a silent lane",
        &config,
        &kernels,
        &tiles,
        Path::Lanes,
    );
}

#[test]
fn silent_lanes_on_the_benchmark_grids() {
    // A silent kernel beside live ones and a block of silent kernels, each
    // under live tiles and under an all-zero one: a silent kernel under the
    // zero tile reads exact zeros and draws nothing, whatever rides beside
    // it (a live kernel's own term leaks rounding into its lobe, so only
    // the silent lanes are exact).
    for (len, taps, _) in BENCHMARK_GRIDS {
        let mut tiles = tiles(len);
        tiles.insert(1, vec![0.0; len]);
        for (name, config) in configs(256) {
            let silent_between = vec![kernel(0, taps), vec![0.0; taps], kernel(2, taps)];
            let all_silent = vec![vec![0.0; taps]; LANES + 1];
            for kernels in [silent_between, all_silent] {
                let outs = check_set_equals_loop(name, &config, &kernels, &tiles, Path::Lanes);
                for (k, out) in outs[1].iter().enumerate() {
                    let silent = kernels[k].iter().all(|&v| v == 0.0);
                    assert!(
                        !silent || out.iter().all(|&v| v == 0.0),
                        "{name}, {len}-sample zero tile, kernel {k}: {out:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn huge_operands_come_back_as_data_in_lanes() {
    // 1e150-scale kernels and tiles: the intensities are near the top of
    // `f64` behind a DAC-less plane, and on CG the rescaled samples' sum of
    // squares overflows. At 1e160 the intensity itself overflows. Either
    // way the lane block must still be the per-kernel loop bit for bit and
    // hand back non-finite samples where a value cannot be represented —
    // never a panic.
    for (len, taps, grid) in BENCHMARK_GRIDS {
        for scale in [1e150, 1e160] {
            let kernels: Vec<Vec<f64>> = (0..LANES + 1)
                .map(|i| scaled(&kernel(i, taps), scale))
                .collect();
            let tiles: Vec<Vec<f64>> = tiles(len).iter().map(|t| scaled(t, scale)).collect();
            for (name, config) in configs(256) {
                let what = format!("{name}, n = {grid}, scale {scale:e}");
                let outs = check_set_equals_loop(&what, &config, &kernels, &tiles, Path::Lanes);
                let intensity_overflows = config.dac_bits.is_none() && scale > 1e155;
                let rms_overflows = config.sensing_snr_db.is_some();
                if intensity_overflows || rms_overflows {
                    for (k, out) in outs.iter().flatten().enumerate() {
                        assert!(
                            out.iter().any(|v| !v.is_finite()),
                            "{what}: output {k} hides the overflow"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn subnormal_spectra_ride_in_lanes_bit_for_bit() {
    // Kernels and tiles scaled into the subnormal range: spectra, their
    // sums and the intensities underflow gradually (no flush-to-zero on
    // either instantiation) and the set must still be the loop.
    for (len, taps, grid) in BENCHMARK_GRIDS {
        let kernels: Vec<Vec<f64>> = (0..LANES + 1)
            .map(|i| scaled(&kernel(i, taps), 1e-310))
            .collect();
        let tiles: Vec<Vec<f64>> = tiles(len).iter().map(|t| scaled(t, 1e-310)).collect();
        for (name, config) in configs(256) {
            let what = format!("{name}, n = {grid}, subnormal");
            check_set_equals_loop(&what, &config, &kernels, &tiles, Path::Lanes);
        }
    }
}

#[test]
fn one_off_trait_and_kept_prepared_entries_are_one_chain() {
    // Three engines of one configuration, one entry point each, the same
    // tiles in the same order: bit-identical outputs and — the `Debug` form
    // shows the noise generator — streams left in the same state. An
    // all-zero tile under an all-zero kernel is silent (zero RMS) and must
    // draw nothing on any entry.
    for (name, config) in configs(64) {
        let engine = || JtcEngine::new(config.clone()).unwrap();
        let (by_trait, one_off, keeping) = (engine(), engine(), engine());
        let kernels = [kernel(1, 5), vec![0.0; 5]];
        let kept = kernels
            .each_ref()
            .map(|k| keeping.prepare(k, SIGNAL_LEN).unwrap());
        let steps = [
            (signal(SIGNAL_LEN, 0.0), 0),
            (signal(SIGNAL_LEN, 5.5), 0),
            (vec![0.0; SIGNAL_LEN], 1),
            (signal(SIGNAL_LEN, 9.25), 0),
        ];
        for (t, (tile, k)) in steps.iter().enumerate() {
            let what = format!("{name}, tile {t}");
            let before = format!("{one_off:?}");
            let outs = [
                by_trait.correlate_valid(tile, &kernels[*k]),
                one_off.correlate(tile, &kernels[*k]).unwrap(),
                kept[*k].correlate(tile).unwrap(),
            ];
            assert_eq!(outs[0].len(), SIGNAL_LEN - 5 + 1, "{what}");
            assert_bits(
                &outs[..1],
                &outs[1..2],
                &format!("{what}: trait vs one-off"),
            );
            assert_bits(&outs[1..2], &outs[2..], &format!("{what}: one-off vs kept"));
            let state = format!("{one_off:?}");
            assert_eq!(format!("{by_trait:?}"), state, "{what}: trait entry state");
            assert_eq!(format!("{keeping:?}"), state, "{what}: kept entry state");
            let silent = *k == 1;
            assert_eq!(
                before == state,
                silent || one_off.is_deterministic(),
                "{what}: only a live tile on a noisy engine draws"
            );
        }
    }
}

#[test]
fn stage_marks_change_no_bit_and_split_the_block_exactly() {
    let engine = JtcEngine::new(JtcEngineConfig::photofourier_cg(64)).unwrap();
    let other = JtcEngine::new(JtcEngineConfig::photofourier_cg(64)).unwrap();
    let kernels: Vec<Vec<f64>> = (0..LANES + 2).map(|i| kernel(i, 5)).collect();
    let (preps, other_preps) = (
        prepare(&engine, &kernels, SIGNAL_LEN),
        prepare(&other, &kernels, SIGNAL_LEN),
    );
    let tile = signal(SIGNAL_LEN, 1.0);
    let shared = preps[0].prepare_signal(&tile).unwrap();
    let mut acc = StageAcc::start();
    let set = refs(&preps);
    let len = corr_len(SIGNAL_LEN, 5);
    let traced = set_call(&set, Some(&*shared), &tile, len, Some(&mut acc));
    let other_set = refs(&other_preps);
    let plain = set_call(&other_set, Some(&*shared), &tile, len, None);
    assert_bits(&traced, &plain, "traced vs plain");
    let ns = acc.ns();
    assert_eq!(
        ns[Stage::SignalFft.index()],
        0,
        "the transform was shared, not taken"
    );
    for stage in [Stage::SpectrumApply, Stage::Inverse, Stage::DacAdc] {
        assert!(ns[stage.index()] > 0, "{} is marked", stage.name());
    }
}

/// A handle of a type the JTC does not know, forwarding what the trait
/// requires and nothing else — the shape of a tracing wrapper written
/// before the set call existed.
#[derive(Debug)]
struct Foreign(Arc<dyn PreparedConv1d>);

impl PreparedConv1d for Foreign {
    fn signal_len(&self) -> usize {
        self.0.signal_len()
    }

    fn correlate_valid(&self, signal: &[f64]) -> Vec<f64> {
        self.0.correlate_valid(signal)
    }

    fn correlate_with_signal(&self, prepared: &dyn PreparedSignal, signal: &[f64]) -> Vec<f64> {
        self.0.correlate_with_signal(prepared, signal)
    }
}

#[test]
fn sets_that_cannot_ride_in_lanes_fall_back_to_the_loop() {
    let kernels: Vec<Vec<f64>> = (0..LANES + 1).map(|i| kernel(i, 5)).collect();
    let out_len = corr_len(SIGNAL_LEN, 5);
    for (name, config) in configs(64) {
        // A transform taken on another grid (a 40-tap kernel's plane for
        // the same tiles), and no transform at all: every member must be
        // answered as it answers alone — the full chain on the tile.
        let wide = JtcEngine::new(config.clone()).unwrap();
        let wide = wide.prepare_kernel(&kernel(0, 40), SIGNAL_LEN).unwrap();
        let grids = [40, 5].map(|taps| {
            PreparedSpectrum::new(&kernel(0, taps), SIGNAL_LEN, 64)
                .unwrap()
                .grid_size()
        });
        assert_ne!(grids[0], grids[1], "two grids");
        for (t, tile) in tiles(SIGNAL_LEN).iter().enumerate() {
            let (by_set, by_loop) = (
                JtcEngine::new(config.clone()).unwrap(),
                JtcEngine::new(config.clone()).unwrap(),
            );
            let (set_preps, loop_preps) = (
                prepare(&by_set, &kernels, SIGNAL_LEN),
                prepare(&by_loop, &kernels, SIGNAL_LEN),
            );
            let (set, looped) = (refs(&set_preps), refs(&loop_preps));
            let foreign_grid = wide.prepare_signal(tile).unwrap();
            let what = format!("{name}, tile {t}, transform on another grid");
            let mut outs = Vec::new();
            let path =
                path_taken(|| outs = set_call(&set, Some(&*foreign_grid), tile, out_len, None));
            assert_eq!(path, Path::PerKernel, "{what}: path");
            assert_bits(&outs, &per_kernel(&looped, &*foreign_grid, tile), &what);
            assert_eq!(format!("{by_set:?}"), format!("{by_loop:?}"), "{what}");

            let what = format!("{name}, tile {t}, no transform");
            let path = path_taken(|| outs = set_call(&set, None, tile, out_len, None));
            assert_eq!(path, Path::PerKernel, "{what}: path");
            let full: Vec<Vec<f64>> = looped.iter().map(|k| k.correlate_valid(tile)).collect();
            assert_bits(&outs, &full, &what);
            assert_eq!(format!("{by_set:?}"), format!("{by_loop:?}"), "{what}");
        }

        // A kernel longer than the signal: empty outputs, no lanes.
        let long: Vec<Vec<f64>> = (0..3).map(|i| kernel(i, 20)).collect();
        check_set_equals_loop(
            &format!("{name} long"),
            &config,
            &long,
            &tiles(12),
            Path::PerKernel,
        );

        // A foreign member, first (the default body answers) and in the
        // middle (the override recognises it and steps aside).
        for foreign_at in [0, 2] {
            let (by_set, by_loop) = (
                JtcEngine::new(config.clone()).unwrap(),
                JtcEngine::new(config.clone()).unwrap(),
            );
            let wrap = |engine: &JtcEngine| -> Vec<Arc<dyn PreparedConv1d>> {
                let mut preps = prepare(engine, &kernels, SIGNAL_LEN);
                preps[foreign_at] = Arc::new(Foreign(Arc::clone(&preps[foreign_at])));
                preps
            };
            let (set_preps, loop_preps) = (wrap(&by_set), wrap(&by_loop));
            let tile = signal(SIGNAL_LEN, 2.0);
            let shared = set_preps[1].prepare_signal(&tile).unwrap();
            let set = refs(&set_preps);
            let what = format!("{name} foreign at {foreign_at}");
            let mut lanes = Vec::new();
            let path = path_taken(|| lanes = set_call(&set, Some(&*shared), &tile, out_len, None));
            assert_eq!(path, Path::PerKernel, "{what}: path");
            let looped = per_kernel(&refs(&loop_preps), &*shared, &tile);
            assert_bits(&lanes, &looped, &what);
            assert_eq!(format!("{by_set:?}"), format!("{by_loop:?}"), "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random kernels, signals and set sizes on the CG chain (DAC, noise,
    /// ADC — everything a lane has to reproduce).
    #[test]
    fn random_sets_equal_the_per_kernel_loop(
        tile in prop::collection::vec(-4.0f64..4.0, 24usize..=24),
        kernels in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 4usize..=4), 1..11),
        seed in 0u64..1000,
    ) {
        let config = JtcEngineConfig { noise_seed: seed, ..JtcEngineConfig::photofourier_cg(32) };
        let (by_set, by_loop) =
            (JtcEngine::new(config.clone()).unwrap(), JtcEngine::new(config).unwrap());
        let (set_preps, loop_preps) =
            (prepare(&by_set, &kernels, 24), prepare(&by_loop, &kernels, 24));
        let shared = set_preps[0].prepare_signal(&tile).unwrap();
        let set = refs(&set_preps);
        let lanes = set_call(&set, Some(&*shared), &tile, 24 - 4 + 1, None);
        let looped = per_kernel(&refs(&loop_preps), &*shared, &tile);
        assert_bits(&lanes, &looped, "random set");
        prop_assert_eq!(format!("{by_set:?}"), format!("{by_loop:?}"));
    }
}
