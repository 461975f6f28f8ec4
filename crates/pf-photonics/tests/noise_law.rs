//! The sensing-noise *law*, checked on the values the paired polar draw
//! produces: zero-mean Gaussian with the configured standard deviation,
//! independent per sample, both members of a pair equally good — and the
//! stream-consumption rule (`ceil(len / 2)` pairs per block, no spare
//! carried, nothing consumed when `sigma == 0` or the block is empty) that
//! seeded replay rests on.
//!
//! Seeds are fixed, so every check is deterministic. Tolerances are the
//! statistic's standard error under the law (CLT / binomial, stated at each
//! check) times [`Z`]: a correct draw sits inside them with room to spare,
//! while a biased one (wrong variance, a dropped tail, correlated pair
//! members) is tens of standard errors out at these sample sizes.

use pf_photonics::detector::SensingNoise;

/// Draws per seed.
const N: usize = 200_000;
/// Half-width of every acceptance band, in standard errors of the statistic.
const Z: f64 = 5.0;
const SIGMA: f64 = 0.1;
const SCALE: f64 = 3.0;
/// One block length per seed: whole-run blocks, the tile lengths the CG
/// workloads condition (46, 222), odd blocks (which drop a spare) and
/// short ones — the law must not depend on how samples are blocked.
const BLOCKS: [usize; 8] = [N, 46, 222, 45, 7, 2, 1000, N];

/// `N` standardised draws (`noise / (SIGMA * SCALE)`) from `seed`, taken in
/// blocks of `block` samples, with each draw's slot parity in its block.
fn standardised(seed: u64, block: usize) -> Vec<(f64, bool)> {
    let mut noise = SensingNoise::new(SIGMA, seed).unwrap();
    let mut draws = Vec::with_capacity(N);
    let mut buf = vec![0.0; block];
    while draws.len() < N {
        buf.fill(0.0);
        noise.add_scaled(&mut buf, SCALE);
        for (slot, v) in buf.iter().enumerate().take(N - draws.len()) {
            draws.push((v / (SIGMA * SCALE), slot % 2 == 1));
        }
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
    // (erfc(k / sqrt 2)); a count of n Bernoulli(p) trials has standard
    // error sqrt(p (1 - p) / n).
    for (k, p) in [
        (1.0, 0.317_310_507_863),
        (2.0, 0.045_500_263_896),
        (3.0, 0.002_699_796_063),
    ] {
        let beyond = z.iter().filter(|x| x.abs() > k).count() as f64 / n;
        within(
            &format!("fraction beyond {k} sigma"),
            label,
            beyond,
            p,
            (p * (1.0 - p) / n).sqrt(),
        );
    }
    // Sample autocorrelation of white noise at any lag: standard error
    // 1/sqrt(n). Lag 1 pairs the two members of one polar pair (and the
    // last of one pair with the first of the next), lag 2 adjacent pairs.
    for lag in [1usize, 2] {
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
    let (mut even, mut odd) = (Vec::new(), Vec::new());
    for (seed, &block) in BLOCKS.iter().enumerate() {
        let draws = standardised(seed as u64 + 1, block);
        let z: Vec<f64> = draws.iter().map(|&(v, _)| v).collect();
        check_law(&format!("seed {} (blocks of {block})", seed + 1), &z);

        // The x and y members of a pair must be equally good: each slot
        // parity on its own follows the whole law.
        for (name, want_odd, all) in [("even", false, &mut even), ("odd", true, &mut odd)] {
            let slot: Vec<f64> = draws
                .iter()
                .filter(|&&(_, is_odd)| is_odd == want_odd)
                .map(|&(v, _)| v)
                .collect();
            check_law(&format!("seed {} {name} slots", seed + 1), &slot);
            all.extend(slot);
        }
        pooled.extend(z);
    }
    // Pooling the seeds shrinks every standard error by sqrt(8): a bias too
    // small to see on one seed shows here. (The concatenation has seven
    // seams, which move a lag statistic by ~1e-5 of a standard error.)
    check_law("all seeds pooled", &pooled);
    check_law("even slots pooled", &even);
    check_law("odd slots pooled", &odd);
}

#[test]
fn a_block_is_a_function_of_seed_stream_position_and_length() {
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

    // `a` then `b` samples consume ceil(a/2) pairs, then ceil(b/2): the
    // first block is a prefix of one long block, the second starts at the
    // next *pair* boundary — an odd block's spare is dropped, not carried.
    let long = block(7, 64);
    for a in [0usize, 1, 2, 3, 4, 9, 10] {
        for b in [0usize, 1, 2, 5, 8] {
            let mut noise = SensingNoise::new(SIGMA, 7).unwrap();
            let (mut first, mut second) = (vec![0.0; a], vec![0.0; b]);
            noise.add_scaled(&mut first, SCALE);
            noise.add_scaled(&mut second, SCALE);
            let start = a.div_ceil(2) * 2;
            assert_eq!(first[..], long[..a], "first block, a={a} b={b}");
            assert_eq!(second[..], long[start..start + b], "a={a} b={b}");
        }
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
    // ...and `perturb` is a one-sample block: it consumed one whole pair.
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
