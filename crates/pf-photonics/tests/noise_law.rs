//! The sensing-noise *law*, checked on the values the ziggurat draw
//! produces: zero-mean Gaussian with the configured standard deviation,
//! independent per sample, right out into the tail the slow path samples,
//! the layer a word picks independent of where in the layer it lands — and
//! the position rule seeded replay rests on: each sample takes one
//! position of the seed's keyed stream, whatever its draw rejects, so how
//! samples are grouped into blocks (one call, many, or four reserved at
//! once) changes no value (and nothing is consumed when `sigma == 0` or
//! the block is empty).
//!
//! Seeds are fixed, so every check is deterministic. Tolerances are the
//! statistic's standard error under the law (CLT / binomial, stated at each
//! check) times [`Z`]: a correct draw sits inside them with room to spare,
//! while a biased one (wrong variance, a dropped tail, a wedge accepted
//! against the wrong curve, layer bits leaking into the uniform) is tens of
//! standard errors out at these sample sizes.

use pf_photonics::detector::{standard_normal, SensingNoise};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Draws per seed.
const N: usize = 200_000;
/// Half-width of every acceptance band, in standard errors of the statistic.
const Z: f64 = 5.0;
const SIGMA: f64 = 0.1;
const SCALE: f64 = 3.0;
/// One block length per seed: whole-run blocks, the tile lengths the CG
/// workloads condition (46, 222), odd blocks and short ones — the law must
/// not depend on how samples are blocked.
const BLOCKS: [usize; 8] = [N, 46, 222, 45, 7, 2, 1000, N];

/// `N` standardised draws (`noise / (SIGMA * SCALE)`) from `seed`, taken in
/// blocks of `block` samples.
fn standardised(seed: u64, block: usize) -> Vec<f64> {
    let mut noise = SensingNoise::new(SIGMA, seed).unwrap();
    let mut draws = Vec::with_capacity(N);
    let mut buf = vec![0.0; block];
    while draws.len() < N {
        buf.fill(0.0);
        noise.add_scaled(&mut buf, SCALE);
        let take = buf.len().min(N - draws.len());
        draws.extend(buf[..take].iter().map(|v| v / (SIGMA * SCALE)));
    }
    draws
}

fn within(name: &str, seed: &str, value: f64, expected: f64, std_err: f64) {
    assert!(
        (value - expected).abs() <= Z * std_err,
        "{name} on {seed}: {value} is {:.1} standard errors from {expected}",
        (value - expected).abs() / std_err
    );
}

/// The share of `z` beyond `k` in magnitude against the two-sided tail
/// mass `p` of the standard normal; a count of n Bernoulli(p) trials has
/// standard error sqrt(p (1 - p) / n).
fn check_tail(label: &str, z: &[f64], k: f64, p: f64) {
    let n = z.len() as f64;
    let beyond = z.iter().filter(|x| x.abs() > k).count() as f64 / n;
    within(
        &format!("fraction beyond {k} sigma"),
        label,
        beyond,
        p,
        (p * (1.0 - p) / n).sqrt(),
    );
}

/// Checks every moment, tail and correlation statistic of `z` (already
/// standardised) against the standard normal.
fn check_law(label: &str, z: &[f64]) {
    let n = z.len() as f64;
    let mean = z.iter().sum::<f64>() / n;
    let central = |p: i32| z.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
    let var = central(2);
    // Standard errors of the sample mean, variance, skewness and excess
    // kurtosis of n iid normals: 1/sqrt(n), sqrt(2/n), sqrt(6/n), sqrt(24/n).
    within("mean", label, mean, 0.0, (1.0 / n).sqrt());
    within("variance", label, var, 1.0, (2.0 / n).sqrt());
    within(
        "skewness",
        label,
        central(3) / var.powf(1.5),
        0.0,
        (6.0 / n).sqrt(),
    );
    within(
        "excess kurtosis",
        label,
        central(4) / (var * var) - 3.0,
        0.0,
        (24.0 / n).sqrt(),
    );
    // Two-sided tail mass of the standard normal beyond k sigma
    // (erfc(k / sqrt 2)).
    for (k, p) in [
        (1.0, 0.317_310_507_863),
        (2.0, 0.045_500_263_896),
        (3.0, 0.002_699_796_063),
    ] {
        check_tail(label, z, k, p);
    }
    // Sample autocorrelation of white noise at any lag: standard error
    // 1/sqrt(n). Neighbouring samples come off neighbouring positions of
    // one keyed counter.
    for lag in 1usize..=4 {
        let r = z
            .windows(lag + 1)
            .map(|w| (w[0] - mean) * (w[lag] - mean))
            .sum::<f64>()
            / (n * var);
        within(
            &format!("lag-{lag} autocorrelation"),
            label,
            r,
            0.0,
            (1.0 / n).sqrt(),
        );
    }
}

#[test]
fn draws_follow_the_gaussian_law_on_every_seed_and_pooled() {
    let mut pooled = Vec::with_capacity(N * BLOCKS.len());
    for (seed, &block) in BLOCKS.iter().enumerate() {
        let z = standardised(seed as u64 + 1, block);
        check_law(&format!("seed {} (blocks of {block})", seed + 1), &z);
        pooled.extend(z);
    }
    // Pooling the seeds shrinks every standard error by sqrt(8): a bias too
    // small to see on one seed shows here. (The concatenation has seven
    // seams, which move a lag statistic by ~1e-5 of a standard error.)
    check_law("all seeds pooled", &pooled);
}

/// The tail sampler. Everything beyond 3.4426 σ comes from the base layer's
/// exponential-rejection loop, which 200 000 draws visit some 115 times:
/// 2·10⁷ pooled draws put 11 500, 1 270 and 136 samples beyond the three
/// marks, enough for a 5-standard-error band to mean something.
#[test]
#[cfg_attr(debug_assertions, ignore = "2·10⁷ draws: release builds only")]
fn the_tail_beyond_the_base_layer_carries_its_mass() {
    let mut pooled = Vec::with_capacity(100 * N);
    for seed in 0..100u64 {
        pooled.extend(standardised(1_000 + seed, N));
    }
    for (k, p) in [
        (3.442_619_855_899, 5.761_085_1e-4),
        (4.0, 6.334_248_4e-5),
        (4.5, 6.795_346_2e-6),
    ] {
        check_tail("100 seeds pooled", &pooled, k, p);
    }
    // Both sides: the tail takes its sign from the word that sent it there.
    let far: Vec<f64> = pooled.iter().copied().filter(|z| z.abs() > 4.0).collect();
    let right = far.iter().filter(|z| **z > 0.0).count() as f64 / far.len() as f64;
    within(
        "right-hand share beyond 4 sigma",
        "100 seeds pooled",
        right,
        0.5,
        (0.25 / far.len() as f64).sqrt(),
    );
}

/// The ziggurat of `detector.rs`' docs, rebuilt here from its two
/// constants: `edges[i]` is the right edge of layer `i`, widest first,
/// `edges[128] = 0`.
fn layer_edges() -> Vec<f64> {
    const TAIL_START: f64 = 3.442_619_855_899;
    const LAYER_AREA: f64 = 9.912_563_035_262_17e-3;
    let density = |x: f64| (-0.5 * x * x).exp();
    let mut edges = vec![LAYER_AREA / density(TAIL_START), TAIL_START];
    for i in 1..127 {
        let up = LAYER_AREA / edges[i] + density(edges[i]);
        edges.push((-2.0 * up.ln()).sqrt());
    }
    edges.push(0.0);
    edges
}

/// One word feeds a draw twice — low bits pick the layer, high bits the
/// position in it — and the two must not correlate. Sorted by the layer
/// their first word picked: every layer is picked equally often, leaves by
/// the one-word path as often as its geometry says (`edges[i+1] /
/// edges[i]`), and a one-word draw is uniform over the inner rectangle
/// whichever layer it came from (mean 0, second moment 1/3 of the edge
/// squared).
#[test]
fn the_layer_a_word_picks_says_nothing_about_where_in_it_the_draw_lands() {
    let edges = layer_edges();
    let layers = edges.len() - 1;
    // Per layer: words that picked it, those that returned on that word,
    // and the first two moments of `z / inner edge` over the latter.
    let mut stats = vec![(0usize, 0usize, 0.0f64, 0.0f64); layers];
    let draws = BLOCKS.len() * N;
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..draws {
        let mut one_word_on = rng.clone();
        let layer = (one_word_on.next_u64() & (layers as u64 - 1)) as usize;
        let z = standard_normal(&mut rng);
        let (picked, fast, sum, sum_sq) = &mut stats[layer];
        *picked += 1;
        if rng == one_word_on {
            let v = z / edges[layer + 1];
            assert!(v.abs() < 1.0, "layer {layer}: {z} left on the fast path");
            *fast += 1;
            *sum += v;
            *sum_sq += v * v;
        }
    }
    let p = 1.0 / layers as f64;
    for (layer, &(picked, fast, sum, sum_sq)) in stats.iter().enumerate() {
        let label = format!("layer {layer}");
        within(
            "share of first words",
            &label,
            picked as f64 / draws as f64,
            p,
            (p * (1.0 - p) / draws as f64).sqrt(),
        );
        let inner = edges[layer + 1] / edges[layer];
        within(
            "one-word share",
            &label,
            fast as f64 / picked as f64,
            inner,
            (inner * (1.0 - inner) / picked as f64).sqrt(),
        );
        if fast == 0 {
            // The top layer has no inner rectangle: every draw is a wedge.
            assert_eq!(layer, layers - 1);
            continue;
        }
        // A uniform on (-1, 1): mean 0 ± sqrt(1/3n), second moment
        // 1/3 ± sqrt((1/5 − 1/9)/n).
        let n = fast as f64;
        within(
            "one-word mean",
            &label,
            sum / n,
            0.0,
            (1.0 / (3.0 * n)).sqrt(),
        );
        within(
            "one-word second moment",
            &label,
            sum_sq / n,
            1.0 / 3.0,
            (4.0 / (45.0 * n)).sqrt(),
        );
    }
}

#[test]
fn splitting_a_block_anywhere_changes_no_value() {
    let block = |seed: u64, len: usize| {
        let mut out = vec![0.0; len];
        SensingNoise::new(SIGMA, seed)
            .unwrap()
            .add_scaled(&mut out, SCALE);
        out
    };
    // Same seed, same block; another seed, another block.
    assert_eq!(block(7, 64), block(7, 64));
    assert_ne!(block(7, 64), block(8, 64));

    // 4 000 samples meet every path of the draw (some 110 wedges, a tail
    // or two): cut anywhere, into two or into many, the pieces are the
    // whole. Nothing rides between calls but the stream position.
    let long = block(7, 4_000);
    for cut in [0usize, 1, 2, 3, 45, 46, 222, 1_999, 3_999, 4_000] {
        let mut noise = SensingNoise::new(SIGMA, 7).unwrap();
        let mut pieces = vec![0.0; long.len()];
        let (first, second) = pieces.split_at_mut(cut);
        noise.add_scaled(first, SCALE);
        noise.add_scaled(second, SCALE);
        assert_eq!(pieces, long, "cut at {cut}");
    }
    for piece in [1usize, 7, 45, 46, 222] {
        let mut noise = SensingNoise::new(SIGMA, 7).unwrap();
        let mut pieces = vec![0.0; long.len()];
        for chunk in pieces.chunks_mut(piece) {
            noise.add_scaled(chunk, SCALE);
        }
        assert_eq!(pieces, long, "pieces of {piece}");
    }
}

#[test]
fn every_entry_point_is_one_add_scaled_block() {
    let values: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin() * 4.0).collect();
    let mut by_slice = SensingNoise::new(SIGMA, 11).unwrap();
    let mut by_block = by_slice.clone();
    let mut expected = values.clone();
    let peak = by_block.add_scaled(&mut expected, 1.0);
    let got = by_slice.perturb_slice(&values);
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
    // The returned peak is the block's largest magnitude after the add.
    assert_eq!(peak, expected.iter().fold(0.0f64, |m, v| m.max(v.abs())));
    // Both sources sit at the same stream position afterwards...
    assert_eq!(by_slice.perturb(1.5), by_block.perturb(1.5));
    // ...and `perturb` is a one-sample block.
    let mut one = [0.25];
    by_block.add_scaled(&mut one, 1.0);
    assert_eq!(by_slice.perturb(0.25).to_bits(), one[0].to_bits());
}

#[test]
fn silent_sources_and_empty_blocks_leave_the_stream_alone() {
    // `SensingNoise` exposes no stream position; its `Debug` form prints
    // the generator state, which is what must not move.
    let mut quiet = SensingNoise::new(0.0, 5).unwrap();
    let before = format!("{quiet:?}");
    let mut values = [1.0, -2.5, 0.5];
    assert_eq!(quiet.add_scaled(&mut values, 4.0), 2.5);
    assert_eq!(values, [1.0, -2.5, 0.5]);
    assert_eq!(quiet.perturb(3.5), 3.5);
    assert_eq!(quiet.perturb_slice(&[1.0, 2.0]), vec![1.0, 2.0]);
    assert_eq!(format!("{quiet:?}"), before);

    let mut noisy = SensingNoise::new(SIGMA, 5).unwrap();
    let before = format!("{noisy:?}");
    assert_eq!(noisy.add_scaled(&mut [], SCALE), 0.0);
    assert!(noisy.perturb_slice(&[]).is_empty());
    assert_eq!(format!("{noisy:?}"), before);
    noisy.perturb(0.0);
    assert_ne!(format!("{noisy:?}"), before);
}

/// `n` values off a fixed curve, away from zero, so every block has a
/// peak of its own.
fn ramp(n: usize, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + phase) * 0.61).sin() * 2.0)
        .collect()
}

#[test]
fn one_reservation_of_four_blocks_is_four_add_scaled_calls() {
    // Equal blocks (a lane block of one tile length), an empty block (a
    // silent kernel) between live ones, ragged lengths, all empty, and
    // blocks long enough to meet wedges and the tail.
    let shapes = [
        [46, 46, 46, 46],
        [222, 0, 222, 222],
        [1, 7, 0, 45],
        [0, 0, 0, 0],
        [4_000, 3, 1_000, 1],
    ];
    let scales = [3.0, 0.5, 1.0, 2.0];
    for sigma in [SIGMA, 0.0] {
        for lens in shapes {
            let what = format!("sigma {sigma}, blocks {lens:?}");
            let mut reserved = SensingNoise::new(sigma, 9).unwrap();
            let mut by_call = reserved.clone();
            let mut blocks: Vec<Vec<f64>> = lens
                .iter()
                .enumerate()
                .map(|(b, &n)| ramp(n, b as f64))
                .collect();
            let mut called = blocks.clone();
            let [a, b, c, d] = &mut blocks[..] else {
                unreachable!("four blocks")
            };
            let peaks = reserved.add_scaled_blocks([a, b, c, d], scales);
            for (b, (block, scale)) in called.iter_mut().zip(scales).enumerate() {
                let peak = by_call.add_scaled(block, scale);
                assert_eq!(peaks[b].to_bits(), peak.to_bits(), "{what}: peak {b}");
            }
            for (b, (x, y)) in blocks.iter().zip(&called).enumerate() {
                let (x, y): (Vec<u64>, Vec<u64>) = (
                    x.iter().map(|v| v.to_bits()).collect(),
                    y.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(x, y, "{what}: block {b}");
            }
            // Both sources stand at the same position afterwards.
            assert_eq!(format!("{reserved:?}"), format!("{by_call:?}"), "{what}");
            assert_eq!(reserved.perturb(0.5), by_call.perturb(0.5), "{what}");
        }
    }
}

#[test]
fn a_continued_source_draws_what_one_long_block_draws_there() {
    // 6 000 positions meet some 170 wedge tests — a share of them
    // rejected, the draw starting over on the sample's own retry words —
    // and the tail sampler (checked below): a source that has drawn `n`
    // samples, one call at a time, and then draws `M` more must draw
    // samples `n + 1 … n + M` of the long block, wherever `n` falls.
    const LONG: usize = 6_000;
    const M: usize = 5;
    let mut long = vec![0.0; LONG + M];
    SensingNoise::new(SIGMA, 3)
        .unwrap()
        .add_scaled(&mut long, SCALE);
    let tails = long
        .iter()
        .filter(|v| (*v / (SIGMA * SCALE)).abs() > 3.442_619_855_899)
        .count();
    assert!(tails > 0, "the run reaches the tail sampler");

    let mut source = SensingNoise::new(SIGMA, 3).unwrap();
    for n in 0..LONG {
        let mut next = [0.0; M];
        source.clone().add_scaled(&mut next, SCALE);
        for (i, (got, want)) in next.iter().zip(&long[n..]).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "after {n}, sample {i}");
        }
        source.add_scaled(&mut [0.0], SCALE);
    }
}
