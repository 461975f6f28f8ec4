//! A set call asked for a prefix of every lobe.
//!
//! Row tiling asks [`PreparedConv1d::correlate_set_into`] for the first
//! `len <= corr_len` samples of each member's valid correlation: a plane's
//! last tile completes fewer output rows than the others and reads only
//! the head of its correlations. The contract held here: the prefix call
//! returns, **bit for bit**, the first `len` samples of the whole call,
//! and leaves the engine's noise stream exactly where the whole call
//! leaves it.
//!
//! The engine decides how. A read-out that is per sample (no ADC, no
//! sensing noise: the ideal engine and a DAC-only one) evaluates only the
//! prefix's bins of the second lens. A read-out over the whole lobe — an
//! ADC quantising against the lobe's peak, noise scaled to its RMS and
//! drawn per lobe — runs whole lobes and copies the prefix: an ADC-only
//! engine is deterministic and still must not quantise a prefix against
//! the prefix's own peak. Both are checked, on the lone-kernel chain and
//! on lane blocks, on the benchmark's two grids, with and without a shared
//! transform.

use std::sync::Arc;

use pf_dsp::scratch::with_spectrum_scratch;
use pf_jtc::engine::{JtcEngine, JtcEngineConfig};
use pf_jtc::PreparedSpectrum;
use pf_tiling::{Conv1dEngine, PreparedConv1d};

/// The benchmark's two tile geometries at capacity 256: (tile length,
/// tiled-kernel taps, grid, the length row tiling asks of a plane's last
/// tile — two output rows of an 8- and a 16-column plane).
const BENCHMARK_GRIDS: [(usize, usize, usize, usize); 2] = [(64, 19, 240, 16), (256, 35, 1000, 32)];

/// The configurations and whether their read-out ranges over the lobe.
fn configs() -> [(&'static str, JtcEngineConfig, bool); 4] {
    [
        ("ideal", JtcEngineConfig::ideal(256), false),
        (
            "dac_only",
            JtcEngineConfig {
                dac_bits: Some(8),
                ..JtcEngineConfig::ideal(256)
            },
            false,
        ),
        (
            "adc_only",
            JtcEngineConfig {
                adc_bits: Some(8),
                ..JtcEngineConfig::ideal(256)
            },
            true,
        ),
        (
            "cg_seed13",
            JtcEngineConfig {
                noise_seed: 13,
                ..JtcEngineConfig::photofourier_cg(256)
            },
            true,
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

fn prepare(engine: &JtcEngine, kernels: &[Vec<f64>], len: usize) -> Vec<Arc<dyn PreparedConv1d>> {
    let kernels: Vec<&[f64]> = kernels.iter().map(Vec::as_slice).collect();
    engine
        .prepare_kernels(&kernels, len)
        .into_iter()
        .map(|prep| prep.expect("the JTC prepares"))
        .collect()
}

/// A quiet NaN no chain produces: a sample the set call leaves unwritten
/// keeps it.
const UNWRITTEN: u64 = 0x7ff8_dead_beef_0001;

/// The bins the last second lens of this thread evaluated, for a block of
/// one and for a lane block (the arena keeps each width's output).
fn lens_bins() -> (usize, usize) {
    with_spectrum_scratch(|s| (s.half.len(), s.lanes_half.len()))
}

/// Runs `count` kernels against two tiles on twin engines — the whole call
/// on one, a call for the first `len` samples on the other — for every
/// prefix length worth asking, and checks bits, engine state and how many
/// bins the second lens evaluated.
fn check_prefixes(name: &str, config: &JtcEngineConfig, whole_lobe: bool, count: usize) {
    for (tile_len, taps, grid, last_tile) in BENCHMARK_GRIDS {
        let corr_len = tile_len + 1 - taps;
        let plane = PreparedSpectrum::new(&kernel(0, taps), tile_len, 256).unwrap();
        assert_eq!(plane.grid_size(), grid, "{tile_len}-sample tiles");
        let kernels: Vec<Vec<f64>> = (0..count).map(|i| kernel(i, taps)).collect();
        for len in [0, 1, 2, last_tile, corr_len / 2, corr_len - 1, corr_len] {
            for with_transform in [true, false] {
                let (by_whole, by_prefix) = (
                    JtcEngine::new(config.clone()).unwrap(),
                    JtcEngine::new(config.clone()).unwrap(),
                );
                let whole_set = prepare(&by_whole, &kernels, tile_len);
                let prefix_set = prepare(&by_prefix, &kernels, tile_len);
                let whole_refs: Vec<&dyn PreparedConv1d> = whole_set.iter().map(|p| &**p).collect();
                let prefix_refs: Vec<&dyn PreparedConv1d> =
                    prefix_set.iter().map(|p| &**p).collect();
                for (t, tile) in [signal(tile_len, 0.0), signal(tile_len, 5.5)]
                    .iter()
                    .enumerate()
                {
                    let what = format!(
                        "{name}, n = {grid}, {count} kernels, len {len} of {corr_len}, \
                         transform {with_transform}, tile {t}"
                    );
                    let shared = |set: &[&dyn PreparedConv1d]| {
                        with_transform.then(|| set[0].prepare_signal(tile).unwrap())
                    };
                    let (whole_shared, prefix_shared) = (shared(&whole_refs), shared(&prefix_refs));

                    let mut whole = vec![f64::from_bits(UNWRITTEN); count * corr_len];
                    whole_refs[0].correlate_set_into(
                        &whole_refs,
                        whole_shared.as_deref(),
                        tile,
                        &mut whole,
                        None,
                    );
                    with_spectrum_scratch(|s| {
                        s.half.clear();
                        s.lanes_half.clear();
                    });
                    let mut prefix = vec![f64::from_bits(UNWRITTEN); count * len];
                    prefix_refs[0].correlate_set_into(
                        &prefix_refs,
                        prefix_shared.as_deref(),
                        tile,
                        &mut prefix,
                        None,
                    );
                    let (lone, lanes) = lens_bins();

                    for k in 0..count {
                        for i in 0..len {
                            assert_eq!(
                                prefix[k * len + i].to_bits(),
                                whole[k * corr_len + i].to_bits(),
                                "{what}: kernel {k} sample {i}"
                            );
                        }
                    }
                    assert_eq!(
                        format!("{by_prefix:?}"),
                        format!("{by_whole:?}"),
                        "{what}: engine state"
                    );
                    // What the second lens evaluated at each width the
                    // call ran: whole lobes where the read-out needs them,
                    // the prefix's bins otherwise, and nothing at all for
                    // an empty per-sample prefix.
                    let evaluated = if whole_lobe { corr_len } else { len };
                    let ran_lone = !with_transform || count % 4 == 1;
                    let ran_lanes = with_transform && count > 1;
                    let expect = (
                        if ran_lone { evaluated } else { 0 },
                        if ran_lanes { evaluated } else { 0 },
                    );
                    assert_eq!((lone, lanes), expect, "{what}: bins evaluated");
                }
            }
        }
    }
}

#[test]
fn a_lone_kernel_returns_the_prefix_of_its_whole_call() {
    for (name, config, whole_lobe) in configs() {
        check_prefixes(name, &config, whole_lobe, 1);
    }
}

#[test]
fn a_lane_block_returns_the_prefixes_of_its_whole_call() {
    // Two kernels ride a block with idle lanes, four fill it, six leave a
    // short block after a full one, five a lone tail.
    for (name, config, whole_lobe) in configs() {
        for count in [2, 4, 5, 6] {
            check_prefixes(name, &config, whole_lobe, count);
        }
    }
}
