//! Bit pin for the tiled execution path: output bits and `tiling.*`
//! counters of every tiling variant × padding mode × kernel count on the
//! digital, ideal-JTC and seeded CG engines, compared against constants
//! recorded from the commit *before* the execution bodies were collapsed
//! into one driver and three strategy bodies. A refactor of `executor.rs`
//! (or of the `pf-jtc` chain bodies beneath it) that changes one output bit
//! or one counter fails here with the freshly computed table printed, so an
//! intentional change is a copy-paste re-record.
//!
//! The digital rows are pure multiply-adds; the JTC rows also pin the FFT
//! twiddles (libm `sin`/`cos`), and the CG rows the vendored noise stream
//! and the ziggurat's tables and slow paths (libm `exp`/`ln`/`sqrt`).

use pf_dsp::conv::Matrix;
use pf_jtc::{JtcEngine, JtcEngineConfig};
use pf_telemetry::Telemetry;
use pf_tiling::TilingVariant::{self, PartialRowTiling, RowPartitioning, RowTiling};
use pf_tiling::{Conv1dEngine, DigitalEngine, EdgeHandling, ParallelGrain, TiledConvolver};

/// One shape: `(name, (rows, cols) of the input, (rows, cols) of the
/// kernels, n_conv, variant)`. The capacity forces `variant` in valid mode;
/// `ZeroPad` widens the rows and may tip a shape into the next variant,
/// which is part of what is pinned.
type Case = (
    &'static str,
    (usize, usize),
    (usize, usize),
    usize,
    TilingVariant,
);

#[rustfmt::skip]
const CASES: [Case; 9] = [
    ("row_several_tiles", (12, 12), (3, 3), 64, RowTiling),
    ("row_tile_at_capacity", (8, 8), (3, 3), 24, RowTiling),
    ("row_kernel_equals_input", (5, 5), (5, 5), 32, RowTiling),
    ("row_1xn_kernel", (6, 10), (1, 4), 25, RowTiling),
    ("partial_three_groups", (9, 8), (5, 3), 16, PartialRowTiling),
    ("partial_uneven_groups", (10, 10), (3, 3), 25, PartialRowTiling),
    ("partitioned_square", (12, 12), (3, 3), 7, RowPartitioning),
    ("partitioned_1xn_kernel", (4, 20), (1, 5), 9, RowPartitioning),
    ("partitioned_clipped_tail", (7, 15), (3, 3), 6, RowPartitioning),
];

const MODES: [Option<EdgeHandling>; 3] = [
    None,
    Some(EdgeHandling::Wraparound),
    Some(EdgeHandling::ZeroPad),
];

const COUNTERS: [&str; 5] = [
    "tiling.tiles",
    "tiling.convs_1d",
    "tiling.spectrum_hits",
    "tiling.spectrum_misses",
    "tiling.conv2d_calls",
];

/// `(case, engine, FNV-1a digest of every output plane, summed counters in
/// `COUNTERS` order)`, recorded from the parent commit at image grain. The
/// nine `cg_seed7` digests were re-recorded once, when the sensing-noise
/// draw became the paired polar method (new values per seed, same law);
/// the deterministic half of that change passed against the old digests.
/// All eighteen `jtc_ideal` / `cg_seed7` digests were re-recorded once
/// more when the prepared joint plane shrank to the valid window
/// (`d = 2·Ls − Lk`, `n ≥ 4·Ls − Lk`: other twiddles, other rounding, the
/// same lobe to ≈ 1e-15, the same noise draws per block), under the 1e-9
/// oracles of `pf-jtc/tests/geometry.rs`; the nine `digital` digests and
/// all 27 counter rows passed that change unedited. And once again, all
/// eighteen, when the three per-sample bodies behind the Fourier plane
/// were replaced together: the second lens became the DCT-I of the
/// symmetric intensity through a quarter-length plan, on grids that are
/// multiples of four (odd bins come off a running sum: the lobe moves by
/// a few 10⁻¹⁵ of the plane's DC term, held by `pf-dsp/tests/conformance.rs`'
/// explicit bound and the same geometry oracles), and the sensing-noise
/// draw became one ziggurat normal per sample (new values per seed, same
/// law — `pf-photonics/tests/noise_law.rs` — and no pair rule: a block's
/// draws no longer depend on how the stream was blocked before it). The
/// converters' libm-free rounding changed no bit; the nine `digital`
/// digests and all 27 counter rows passed unedited again. The nine
/// `cg_seed7` digests were re-recorded once more, alone, when the noise
/// stream became keyed by position (sample `j` a pure function of the
/// seed and `j`: new values per seed, same law, same positions per
/// block).
///
/// The `spectrum_hits` cell of fourteen optical rows was re-recorded once,
/// when partial row tiling and row partitioning stopped keeping their
/// signal transforms in a keyed per-run cache and took them the way row
/// tiling does: every distinct signal cut and transformed once, the
/// transforms indexed by position. Under the old cache the correlation
/// that took a transform counted as a miss only, so there `hits + misses
/// == convs_1d`; now every strategy counts by one rule — a miss is a
/// transform taken, a hit a correlation that read one — so those runs
/// read `hits == convs_1d` and `misses` is unchanged. That is the ten
/// `partial_*` / `partitioned_*` rows and the two `row_*` shapes whose
/// `ZeroPad` leg widens the rows into partial row tiling
/// (`row_tile_at_capacity`, `row_kernel_equals_input`), where the hits
/// grew by exactly that leg's misses. All 27 digests and every other
/// counter cell passed unedited.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, u64, [u64; 5])] = &[
    ("row_several_tiles", "digital", 0xc9262865451d249f, [28, 56, 0, 0, 6]),
    ("row_several_tiles", "jtc_ideal", 0x4993df6f00bdb3a7, [28, 56, 42, 14, 6]),
    ("row_several_tiles", "cg_seed7", 0xd23179e023772100, [28, 56, 42, 14, 6]),
    ("row_tile_at_capacity", "digital", 0xe9c61248ff65bd9c, [60, 120, 0, 0, 6]),
    ("row_tile_at_capacity", "jtc_ideal", 0x2c78f47436896629, [60, 120, 106, 46, 6]),
    ("row_tile_at_capacity", "cg_seed7", 0x3f19ccbca3c7ed50, [60, 120, 106, 46, 6]),
    ("row_kernel_equals_input", "digital", 0xa664cf548b893756, [32, 64, 0, 0, 6]),
    ("row_kernel_equals_input", "jtc_ideal", 0xcbf51bda63180dc1, [32, 64, 58, 26, 6]),
    ("row_kernel_equals_input", "cg_seed7", 0x0fd10b236eb0761f, [32, 64, 58, 26, 6]),
    ("row_1xn_kernel", "digital", 0x69a106b6538b24f3, [24, 48, 0, 0, 6]),
    ("row_1xn_kernel", "jtc_ideal", 0x2b8bbb7c14123474, [24, 48, 36, 12, 6]),
    ("row_1xn_kernel", "cg_seed7", 0x204d7186cb84491a, [24, 48, 36, 12, 6]),
    ("partial_three_groups", "digital", 0x7dac6479869c8a08, [174, 348, 0, 0, 6]),
    ("partial_three_groups", "jtc_ideal", 0xf496d349088e5fb9, [174, 348, 348, 90, 6]),
    ("partial_three_groups", "cg_seed7", 0xe10748f1b38b8686, [174, 348, 348, 90, 6]),
    ("partial_uneven_groups", "digital", 0x9100a4288e185c18, [112, 224, 0, 0, 6]),
    ("partial_uneven_groups", "jtc_ideal", 0x9be965d701b8600a, [112, 224, 224, 112, 6]),
    ("partial_uneven_groups", "cg_seed7", 0x60c7986d44475690, [112, 224, 224, 112, 6]),
    ("partitioned_square", "digital", 0x746f96282d965543, [0, 920, 0, 0, 6]),
    ("partitioned_square", "jtc_ideal", 0xe4a04b08e88aaf41, [0, 920, 920, 168, 6]),
    ("partitioned_square", "cg_seed7", 0x0d9910a9197b1702, [0, 920, 920, 168, 6]),
    ("partitioned_1xn_kernel", "digital", 0x8d25baf906aa87e6, [0, 192, 0, 0, 6]),
    ("partitioned_1xn_kernel", "jtc_ideal", 0x33a1e1ba4dc6c967, [0, 192, 192, 96, 6]),
    ("partitioned_1xn_kernel", "cg_seed7", 0x5f1f5efd5a8fb632, [0, 192, 192, 96, 6]),
    ("partitioned_clipped_tail", "digital", 0x4af2b21f5ecec0fe, [0, 848, 0, 0, 6]),
    ("partitioned_clipped_tail", "jtc_ideal", 0x11f02401e4abaf45, [0, 848, 848, 168, 6]),
    ("partitioned_clipped_tail", "cg_seed7", 0x11fc98098104e443, [0, 848, 848, 168, 6]),
];

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect();
    Matrix::new(rows, cols, data).unwrap()
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs every mode × kernel count of `case` on engines built by `engine`
/// (a fresh one per call, so a seeded noise stream restarts) and returns
/// the digest of all output bits, the summed counters, and the raw bits.
fn run_case<E: Conv1dEngine>(
    &(_, (rows, cols), (kr, kc), n_conv, _): &Case,
    grain: ParallelGrain,
    engine: impl Fn() -> E,
) -> (u64, [u64; 5], Vec<u64>) {
    let input = lcg_matrix(rows, cols, 11);
    let kernels: Vec<Matrix> = (0..3).map(|k| lcg_matrix(kr, kc, 101 + k)).collect();
    let tel = Telemetry::enabled();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut bits = Vec::new();
    for mode in MODES {
        for k in [1usize, 3] {
            let convolver = TiledConvolver::new(engine(), n_conv)
                .unwrap()
                .with_grain(grain)
                .with_telemetry(tel.clone());
            let planes = match mode {
                None => convolver.correlate2d_valid_multi(&input, &kernels[..k]),
                Some(edges) => convolver.correlate2d_same_multi(&input, &kernels[..k], edges),
            }
            .unwrap();
            assert_eq!(planes.len(), k);
            for plane in &planes {
                fnv1a(&mut digest, plane.rows() as u64);
                fnv1a(&mut digest, plane.cols() as u64);
                for v in plane.data() {
                    fnv1a(&mut digest, v.to_bits());
                    bits.push(v.to_bits());
                }
            }
        }
    }
    let snap = tel.snapshot();
    (digest, COUNTERS.map(|name| snap.counter(name)), bits)
}

#[test]
fn outputs_and_counters_match_the_parent_recorded_table() {
    let cg = |capacity: usize| {
        JtcEngine::new(JtcEngineConfig {
            noise_seed: 7,
            ..JtcEngineConfig::photofourier_cg(capacity)
        })
        .unwrap()
    };
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();

    let mut actual = Vec::new();
    for case in &CASES {
        let &(name, (rows, cols), (kr, kc), n_conv, variant) = case;
        let plan = TiledConvolver::new(DigitalEngine, n_conv)
            .unwrap()
            .plan(&Matrix::zeros(rows, cols), &Matrix::zeros(kr, kc))
            .unwrap();
        assert_eq!(plan.variant, variant, "{name}");

        // Image grain is the recorded reference; the default grain on a
        // 4-wide pool must reproduce its bits and its counters (work fans
        // out on `jtc_ideal`; the digital cost hint and the stochastic
        // engine's determinism gate keep the other two serial).
        macro_rules! pin {
            ($engine_name:literal, $engine:expr) => {{
                let (digest, counters, serial_bits) = run_case(case, ParallelGrain::Image, $engine);
                let (_, wide_counters, wide_bits) =
                    wide.install(|| run_case(case, ParallelGrain::Auto, $engine));
                assert_eq!(
                    (serial_bits, counters),
                    (wide_bits, wide_counters),
                    "{name} on {}: the 4-wide run diverged from serial",
                    $engine_name
                );
                actual.push((name, $engine_name, digest, counters));
            }};
        }
        pin!("digital", || DigitalEngine);
        pin!("jtc_ideal", || JtcEngine::ideal(n_conv).unwrap());
        pin!("cg_seed7", || cg(n_conv));
    }

    let table: String = actual
        .iter()
        .map(|(case, engine, digest, c)| {
            format!("    (\"{case}\", \"{engine}\", {digest:#018x}, {c:?}),\n")
        })
        .collect();
    assert!(
        actual[..] == EXPECTED[..],
        "bit pin diverged; freshly computed table:\n{table}"
    );
}
