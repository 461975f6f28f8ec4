//! DFT-oracle conformance suite for every FFT plan variant.
//!
//! The transform layer promises two different strengths of agreement and
//! this suite checks both against an **independent** naive O(n²) reference
//! DFT (written here, not the library's own `fft::dft`, so a refactor
//! cannot silently re-derive a wrong baseline):
//!
//! * every plan variant — the one mixed-radix kernel (radix-2 passes for
//!   powers of two, radix-4/2/3/5 otherwise), packed-real, batched,
//!   symmetric-input at width 1 and in lanes — matches the oracle within
//!   `1e-9`, and a length outside the 5-smooth domain is refused;
//! * where the docs claim bit-identity (free fft vs. shared plan, batched
//!   real vs. serial real, selected bins vs. the full real transform, a
//!   symmetric-input bin vs. the same bin asked for by any other range,
//!   each lane of the lane transform vs. the symmetric-input transform at
//!   width 1, in every instantiation this host can run), results match
//!   **bit for bit**;
//! * the first lens in lanes — the packed-even real transform is one body
//!   at two widths, and unlike the symmetric body it has an exact twin:
//!   every lane of `forward_real_batch_into`, in every instantiation this
//!   host can run, is `forward_real_into` of that row **bit for bit**, at
//!   every row count (a lone row, idle lanes, full blocks);
//! * the symmetric-input transform — a quarter-length DCT-I whose odd bins
//!   come off a running sum, so no other transform in the library computes
//!   its bits — is held to an explicit bound against an exact oracle:
//!   `|X − exact| ≤ SYMMETRIC_C·ε·Σ_j|x_j|·√(1 + steps)` on every bin,
//!   on DC-heavy rows and joint-plane intensities too;
//! * structural invariants: forward∘inverse round-trips, Parseval.

use pf_dsp::fft::{fft, ifft};
use pf_dsp::plan::{FftPlan, RealFftPlan};
use pf_dsp::{Complex, ComplexLanes, DspError, LANES};
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// Absolute conformance tolerance. Inputs are bounded to ±1 and lengths to
/// ≤ 128, so both the oracle's and the plans' rounding stay far below it.
const TOL: f64 = 1e-9;

/// Naive O(n²) reference DFT, independently coded: accumulates against
/// freshly evaluated phasors, never a precomputed table.
fn oracle(x: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = x.len();
    let sign = if inverse { 2.0 } else { -2.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::ZERO;
        for (j, &v) in x.iter().enumerate() {
            let ang = sign * std::f64::consts::PI * (k as f64) * (j as f64) / n as f64;
            acc += v * Complex::new(ang.cos(), ang.sin());
        }
        if inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        out.push(acc);
    }
    out
}

/// Lengths covering every butterfly: powers of two (radix-2 passes),
/// 5-smooth non-pow2 with 4-factors (radix-4 butterflies) and without.
const LENGTHS: &[usize] = &[
    1, 2, 4, 8, 32, 128, // radix-2
    6, 10, 15, 45, // mixed radix without a 4-factor
    12, 20, 36, 48, 60, 100, // mixed radix exercising radix-4
];

/// Real lengths: even, with a 5-smooth half (power-of-two and mixed-radix
/// halves, with and without a 4-factor).
const REAL_LENGTHS: &[usize] = &[2, 4, 16, 128, 6, 12, 20, 60, 10, 30, 90];

/// Complex lengths the one kernel refuses: a prime factor above 5.
const REFUSED_LENGTHS: &[usize] = &[7, 11, 13, 14, 21, 22, 97];

/// Real lengths a real-input plan refuses: odd, or a half with a prime
/// factor above 5.
const REFUSED_REAL_LENGTHS: &[usize] = &[1, 7, 9, 45, 21, 14, 22, 26, 28, 44, 52, 194];

fn complex_signal() -> impl Strategy<Value = Vec<Complex>> {
    (0usize..LENGTHS.len()).prop_flat_map(|i| {
        let n = LENGTHS[i];
        prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n..=n)
            .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
    })
}

fn real_signal() -> impl Strategy<Value = Vec<f64>> {
    (0usize..REAL_LENGTHS.len()).prop_flat_map(|i| {
        let n = REAL_LENGTHS[i];
        prop::collection::vec(-1.0f64..1.0, n..=n)
    })
}

fn assert_close(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(
            (*p - *q).abs() < TOL,
            "{what}: bin {k} of n={} differs: {p} vs {q}",
            a.len()
        );
    }
}

fn assert_bits(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.re.to_bits(), q.re.to_bits(), "{what}: re bin {k}");
        assert_eq!(p.im.to_bits(), q.im.to_bits(), "{what}: im bin {k}");
    }
}

proptest! {
    /// Every complex plan variant matches the oracle, forward and inverse.
    #[test]
    fn every_plan_variant_matches_the_oracle(x in complex_signal()) {
        let plan = FftPlan::shared(x.len()).unwrap();
        assert_close(&plan.fft(&x).unwrap(), &oracle(&x, false), "forward");
        assert_close(&plan.ifft(&x).unwrap(), &oracle(&x, true), "inverse");
    }

    /// The free functions are documented as thin wrappers over the shared
    /// plan: bit-identical, now for every length.
    #[test]
    fn free_fft_is_bit_identical_to_the_shared_plan(x in complex_signal()) {
        let plan = FftPlan::shared(x.len()).unwrap();
        assert_bits(&fft(&x).unwrap(), &plan.fft(&x).unwrap(), "free vs plan");
    }

    /// forward ∘ inverse is the identity for every kernel.
    #[test]
    fn forward_inverse_roundtrips(x in complex_signal()) {
        let plan = FftPlan::shared(x.len()).unwrap();
        let mut data = x.clone();
        plan.process(&mut data, false).unwrap();
        plan.process(&mut data, true).unwrap();
        assert_close(&data, &x, "roundtrip");
    }

    /// Energy is preserved (Parseval) for every kernel.
    #[test]
    fn parseval_holds_for_every_kernel(x in complex_signal()) {
        let y = fft(&x).unwrap();
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() <= TOL * te.max(1.0));
    }

    /// The real-input plan matches the oracle's non-redundant bins.
    #[test]
    fn real_plans_match_the_oracle(x in real_signal()) {
        let n = x.len();
        let plan = RealFftPlan::shared(n).unwrap();
        let mut scratch = Vec::new();
        let mut half = Vec::new();
        plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
        let as_complex: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        let reference = oracle(&as_complex, false);
        prop_assert_eq!(half.len(), n / 2 + 1);
        assert_close(&half, &reference[..half.len()], "real plan");
    }

    /// Batched real execution is documented bit-identical to looping
    /// `forward_real_into`.
    #[test]
    fn batched_real_is_bit_identical_to_serial(x in real_signal(), rows in 1usize..5) {
        let n = x.len();
        let plan = RealFftPlan::shared(n).unwrap();
        let inputs: Vec<f64> = (0..rows).flat_map(|r| {
            x.iter().map(move |v| v + r as f64 * 0.01)
        }).collect();
        let mut scratch = Vec::new();
        let mut batched = Vec::new();
        plan.forward_real_batch_into(&inputs, rows, &mut scratch, &mut batched).unwrap();
        let sl = plan.spectrum_len();
        for r in 0..rows {
            let mut single = Vec::new();
            plan.forward_real_into(&inputs[r * n..(r + 1) * n], &mut scratch, &mut single)
                .unwrap();
            assert_bits(&batched[r * sl..(r + 1) * sl], &single, "batched real");
        }
    }

    /// The free inverse agrees with the inverse oracle for every length.
    #[test]
    fn inverse_matches_the_oracle(x in complex_signal()) {
        assert_close(&ifft(&x).unwrap(), &oracle(&x, true), "free inverse");
    }
}

/// Every length outside the one kernel's domain is refused when a plan is
/// built — shared or not, complex or real — and by the free transforms.
#[test]
fn lengths_outside_the_five_smooth_domain_are_refused() {
    let refused = |r: Result<(), DspError>| matches!(r, Err(DspError::InvalidLength { .. }));
    for &n in REFUSED_LENGTHS {
        assert!(refused(FftPlan::new(n).map(drop)), "n={n}");
        assert!(refused(FftPlan::shared(n).map(drop)), "n={n}");
        let x = vec![Complex::ONE; n];
        assert!(refused(fft(&x).map(drop)), "n={n}");
        assert!(refused(ifft(&x).map(drop)), "n={n}");
    }
    for &n in REFUSED_REAL_LENGTHS {
        assert!(refused(RealFftPlan::new(n).map(drop)), "n={n}");
        assert!(refused(RealFftPlan::shared(n).map(drop)), "n={n}");
    }
}

/// The selected-bins real transform, on every real length above
/// (power-of-two and mixed-radix half plans): each bin of each range —
/// `{0}`, `{n/2}`, single interior bins, the full range and everything
/// between — is bit-identical to the same bin of
/// `forward_real_into` and within tolerance of the oracle.
#[test]
fn selected_bins_match_the_full_transform_and_the_oracle() {
    for &n in REAL_LENGTHS {
        let x: Vec<f64> = (0..n)
            .map(|j| ((j * j + 3 * j) as f64 * 0.37).sin() * 0.9)
            .collect();
        let plan = RealFftPlan::shared(n).unwrap();
        let (mut scratch, mut full, mut bins) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward_real_into(&x, &mut scratch, &mut full).unwrap();
        let as_complex: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        let reference = oracle(&as_complex, false);
        for lo in 0..=n / 2 {
            for hi in lo..=n / 2 {
                plan.forward_real_bins_into(&x, lo..=hi, &mut scratch, &mut bins)
                    .unwrap();
                let what = format!("n={n} bins {lo}..={hi}");
                assert_bits(&bins, &full[lo..=hi], &what);
                assert_close(&bins, &reference[lo..=hi], &what);
            }
        }
    }
}

/// Ranges reaching past bin `n/2`, inverted ranges and over-long inputs are
/// rejected, on halves with and without a 4-factor alike.
#[test]
fn selected_bins_reject_bad_ranges() {
    for n in [12usize, 10, 6] {
        let plan = RealFftPlan::shared(n).unwrap();
        let x = vec![0.5; n];
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let half = n / 2;
        let inverted = std::ops::RangeInclusive::new(3, 2);
        for bad in [0..=half + 1, half + 1..=half + 1, inverted, half..=n] {
            assert!(
                matches!(
                    plan.forward_real_bins_into(&x, bad.clone(), &mut scratch, &mut out),
                    Err(pf_dsp::DspError::InvalidLength { .. })
                ),
                "n={n} range {bad:?} must be rejected"
            );
        }
        assert!(plan
            .forward_real_bins_into(&vec![0.0; n + 1], 0..=0, &mut scratch, &mut out)
            .is_err());
    }
}

/// One way into the lane transform.
type LaneCall = fn(
    &RealFftPlan,
    &[[f64; LANES]],
    RangeInclusive<usize>,
    &mut Vec<ComplexLanes>,
    &mut Vec<[f64; LANES]>,
) -> Result<(), DspError>;

/// Every instantiation of the lane body this host can run, each called
/// directly: the dispatching entry point is the AVX2 one wherever AVX2 is
/// detected (and the baseline one elsewhere), the portable entry point is
/// the baseline one everywhere.
const LANE_CALLS: [(&str, LaneCall); 2] = [
    ("dispatched", RealFftPlan::forward_real_bins_lanes),
    ("portable", RealFftPlan::forward_real_bins_lanes_portable),
];

/// The recorded error constant of the symmetric-input transform: every bin
/// of every case below is within `SYMMETRIC_C·ε·Σ_j|x_j|·√(1 + s)` of the
/// exact transform, `Σ` over the whole `n`-point row and `s` the number of
/// running-sum steps behind the bin — none for an even bin, `⌈(n/2 − b)/2⌉`
/// for an odd bin `b`, whose sum starts at bin `n/2`. The largest ratio
/// this suite measures is ≈ 6.3 (n = 720, a joint-plane intensity; rows
/// bounded to ±1 and DC-heavy rows stay below 2); the constant leaves the
/// headroom a different libm's twiddles may need and must not be raised
/// past 64 without re-deriving the bound in the plan's docs.
const SYMMETRIC_C: f64 = 16.0;

/// Samples `0..=n/2` of a symmetric real row, bounded to ±1.
fn half_row(n: usize, seed: usize) -> Vec<f64> {
    (0..=n / 2)
        .map(|j| ((j * j + (3 + seed) * j + 7 * seed) as f64 * 0.37).sin() * 0.9)
        .collect()
}

/// [`half_row`] riding on a constant 10³ times its size: the output plane's
/// DC term then dwarfs every other bin, and every rounding the running sum
/// collects is relative to the big term, not to the bin it lands on.
fn dc_heavy_row(n: usize, seed: usize) -> Vec<f64> {
    half_row(n, seed).iter().map(|v| 1e3 + v).collect()
}

/// The row the second lens of a JTC sees: the square-law intensity of a
/// joint plane — a positive "signal" on the first quarter, a short
/// zero-mean "kernel" ending at the middle. Its output plane has a central
/// term (the signal's autocorrelation, as large as the DC term and
/// `n/4` bins wide) three orders above the correlation lobe, so the
/// running sum walks from one scale to the other: the worst case the
/// error bound has to cover. The library's own first lens builds it — an
/// input, not a reference.
fn joint_plane_row(n: usize, seed: usize) -> Vec<f64> {
    let unit = |i: usize| ((i * i + (5 + seed) * i + 11 * seed) as f64 * 0.61).sin();
    let mut joint: Vec<f64> = (0..n / 4).map(|i| 0.5 + 0.5 * unit(i)).collect();
    joint.resize(n / 2 - n / 16, 0.0);
    joint.extend((0..n / 16).map(|i| 1e-3 * unit(i + n)));
    let (mut scratch, mut spectrum) = (Vec::new(), Vec::new());
    RealFftPlan::shared(n)
        .unwrap()
        .forward_real_into(&joint, &mut scratch, &mut spectrum)
        .unwrap();
    spectrum.iter().map(|z| z.norm_sqr()).collect()
}

/// Every bin `0..=n/2` of the exact transform of the symmetric row whose
/// first half is `half`, to well under one `ε·Σ|x_j|`: the DCT-I sum with
/// the phase index reduced in integers (the angle is then exact to one
/// rounding, whatever `j·k` was) and accumulated with Neumaier's
/// compensation. Independent of the library: no table, no plan.
fn symmetric_oracle(half: &[f64]) -> Vec<f64> {
    let m = half.len() - 1;
    (0..=m)
        .map(|k| {
            let (mut sum, mut comp) = (0.0f64, 0.0f64);
            for (j, &h) in half.iter().enumerate() {
                let weight = if j == 0 || j == m { 1.0 } else { 2.0 };
                let ang = std::f64::consts::PI * ((j * k) % (2 * m)) as f64 / m as f64;
                let term = weight * h * ang.cos();
                let next = sum + term;
                comp += if sum.abs() >= term.abs() {
                    (sum - next) + term
                } else {
                    (term - next) + sum
                };
                sum = next;
            }
            sum + comp
        })
        .collect()
}

/// Checks the symmetric-input transform of `rows` (symmetric rows given by
/// their first halves) over `ranges`, at both widths. Width 1
/// (`forward_real_bins_symmetric`, one row at a time): every bin the bin of
/// the same name in the full-range transform, bit for bit (a bin does not
/// depend on the range that asked for it), within `TOL` of the O(n²) DFT
/// oracle on the mirrored row (rows bounded to ±1 only: on a DC-heavy row
/// that oracle's own rounding is what `TOL` would measure), and within
/// `SYMMETRIC_C·ε·Σ|x_j|·√(1 + steps)` of the exact transform. Every lane
/// of the lane transform, in every instantiation: width 1, bit for bit.
/// Returns the largest error seen, in units of `ε·Σ|x_j|·√(1 + steps)`.
fn check_lanes(
    n: usize,
    rows: [&[f64]; LANES],
    ranges: &[RangeInclusive<usize>],
    what: &str,
) -> f64 {
    let plan = RealFftPlan::shared(n).unwrap();
    assert!(plan.supports_lanes(), "n={n}");
    let half: Vec<[f64; LANES]> = (0..=n / 2)
        .map(|i| std::array::from_fn(|l| rows[l][i]))
        .collect();
    let references: Vec<Option<Vec<Complex>>> = rows
        .iter()
        .map(|row| {
            let mirrored: Vec<Complex> = (0..n)
                .map(|i| Complex::from_real(row[i.min(n - i)]))
                .collect();
            (row.iter().all(|v| v.abs() <= 1.0)).then(|| oracle(&mirrored, false))
        })
        .collect();
    let exact: Vec<Vec<f64>> = rows.iter().map(|row| symmetric_oracle(row)).collect();
    let (mut one_work, mut one, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    let (mut work, mut lanes) = (Vec::new(), Vec::new());
    let mut worst = 0.0f64;
    for l in 0..LANES {
        let unit = f64::EPSILON
            * (0..n)
                .map(|i| rows[l][i.min(n - i)].abs())
                .sum::<f64>()
                .max(f64::MIN_POSITIVE);
        plan.forward_real_bins_symmetric(rows[l], 0..=n / 2, &mut one_work, &mut whole)
            .unwrap();
        for bins in ranges {
            plan.forward_real_bins_symmetric(rows[l], bins.clone(), &mut one_work, &mut one)
                .unwrap();
            let what = format!("{what} n={n} bins {bins:?} row {l}");
            assert_eq!(one.len(), bins.end() - bins.start() + 1, "{what}");
            for (bin, &got) in bins.clone().zip(&one) {
                assert_eq!(got.to_bits(), whole[bin].to_bits(), "{what}: bin {bin}");
                if let Some(reference) = references[l].as_ref().map(|r| r[bin]) {
                    assert!(
                        (got - reference.re).abs() < TOL && reference.im.abs() < TOL,
                        "{what}: bin {bin} reads {got}, the DFT oracle {reference}"
                    );
                }
                // An even bin is read straight off the quarter-length
                // transform; an odd one has come down the running sum from
                // bin n/2, one rounding a step.
                let steps = if bin % 2 == 1 {
                    (n / 2 - bin).div_ceil(2)
                } else {
                    0
                };
                let error = (got - exact[l][bin]).abs() / (unit * (1.0 + steps as f64).sqrt());
                assert!(
                    error <= SYMMETRIC_C,
                    "{what}: bin {bin} is {error:.2} ε·Σ|x|·√(1 + {steps}) from the exact transform"
                );
                worst = worst.max(error);
            }
            for (name, call) in LANE_CALLS {
                call(&plan, &half, bins.clone(), &mut work, &mut lanes).unwrap();
                assert_eq!(lanes.len(), one.len(), "{what} ({name})");
                for (lane, &want) in lanes.iter().zip(&one) {
                    assert_eq!(lane[l].to_bits(), want.to_bits(), "{what} lane ({name})");
                }
            }
        }
    }
    worst
}

/// Four different rows, then one row in every lane (what a short last
/// block looks like), then four rows with a dominant DC term and four
/// joint-plane intensities.
fn check_lanes_every_fill(n: usize, ranges: &[RangeInclusive<usize>]) -> f64 {
    let fill = |row: fn(usize, usize) -> Vec<f64>, what: &str| {
        let rows: Vec<Vec<f64>> = (0..LANES).map(|l| row(n, l)).collect();
        check_lanes(n, std::array::from_fn(|l| &*rows[l]), ranges, what)
    };
    let repeated = half_row(n, 1);
    fill(half_row, "four rows")
        .max(check_lanes(
            n,
            [&*repeated; LANES],
            ranges,
            "one row repeated",
        ))
        .max(fill(dc_heavy_row, "DC-heavy rows"))
        .max(fill(joint_plane_row, "joint-plane intensities"))
}

/// Whether `n` is `2^a·3^b·5^c`.
fn is_five_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// The symmetric-input transform, width 1 and lanes, on every small
/// multiple of four with a power-of-two or mixed-radix quarter, over
/// **every** bin sub-range — `{0}`, `{1}`, `{n/2 − 1}`, `{n/2}`, odd and
/// even starts and ends, the full range and everything between.
#[test]
fn lanes_match_the_scalar_transform_and_the_oracle_on_every_bin_range() {
    for n in [4usize, 8, 12, 16, 20, 24, 60, 128] {
        let ranges: Vec<_> = (0..=n / 2)
            .flat_map(|lo| (lo..=n / 2).map(move |hi| lo..=hi))
            .collect();
        check_lanes_every_fill(n, &ranges);
    }
}

/// The symmetric-input transform, width 1 and lanes, on every 5-smooth
/// multiple of four up to 1 024 — the lengths `prepared_geometry` can hand
/// the JTC for tiles of up to 256 samples; 240 and 1000 are the
/// benchmark's, with quarters 60 = 4·3·5 and 250 = 2·5·5·5 — over the
/// ends, the whole, single bins of both parities next to both ends, and
/// lobe-shaped windows of the spectrum (for 240 and 1000 the lobes the
/// benchmark reads). Prints the largest error met, in units of the bound.
#[test]
fn lanes_match_the_scalar_transform_and_the_oracle_on_the_jtc_grids() {
    let mut worst = (0.0f64, 0);
    for n in (4usize..=1024).step_by(4).filter(|&n| is_five_smooth(n)) {
        let m = n / 2;
        let mut ranges = vec![
            0..=0,
            1..=1,
            m - 1..=m - 1,
            m..=m,
            0..=m,
            1..=m - 1,
            m / 3..=m / 3,
            m / 4..=m / 4 + m / 5,
            m / 4 + 1..=m / 4 + m / 5,
            m - m / 3..=m,
        ];
        match n {
            240 => ranges.push(64..=109),
            1000 => ranges.push(256..=477),
            _ => {}
        }
        // The shortest lengths have no room for the odd-start window.
        ranges.retain(|bins| bins.start() <= bins.end());
        let error = check_lanes_every_fill(n, &ranges);
        if error > worst.0 {
            worst = (error, n);
        }
    }
    println!(
        "largest symmetric-transform error: {:.2} ε·Σ|x|·√(1 + steps) at n = {} (bound {SYMMETRIC_C})",
        worst.0, worst.1
    );
}

/// Lengths that are twice an odd number have no symmetric-input path at
/// either width, and say so (odd lengths and multiples of four without a
/// 5-smooth quarter have no plan at all: `REFUSED_REAL_LENGTHS`); bad
/// inputs are rejected where the path is supported.
#[test]
fn lanes_are_refused_where_unsupported_and_on_bad_input() {
    let (mut work, mut out) = (Vec::new(), Vec::new());
    let (mut one_work, mut one) = (Vec::new(), Vec::new());
    for n in [2usize, 6, 10, 30, 250] {
        let plan = RealFftPlan::shared(n).unwrap();
        assert!(!plan.supports_lanes(), "n={n}");
        assert!(
            matches!(
                plan.forward_real_bins_symmetric(
                    &vec![0.5; n / 2 + 1],
                    0..=0,
                    &mut one_work,
                    &mut one
                ),
                Err(DspError::InvalidLength { .. })
            ),
            "n={n} (width 1)"
        );
        let half = vec![[0.5; LANES]; n / 2 + 1];
        for (name, call) in LANE_CALLS {
            assert!(
                matches!(
                    call(&plan, &half, 0..=0, &mut work, &mut out),
                    Err(DspError::InvalidLength { .. })
                ),
                "n={n} ({name})"
            );
        }
    }
    let plan = RealFftPlan::shared(12).unwrap();
    let half = vec![[0.5; LANES]; 7];
    let inverted = RangeInclusive::new(3, 2);
    for bad in [0..=7, 7..=7, inverted.clone()] {
        assert!(
            plan.forward_real_bins_symmetric(&[0.5; 7], bad.clone(), &mut one_work, &mut one)
                .is_err(),
            "range {bad:?} (width 1)"
        );
    }
    for len in [6usize, 8] {
        assert!(
            plan.forward_real_bins_symmetric(&[0.5; 8][..len], 0..=0, &mut one_work, &mut one)
                .is_err(),
            "{len} samples (width 1)"
        );
    }
    for (name, call) in LANE_CALLS {
        for bad in [0..=7, 7..=7, inverted.clone()] {
            assert!(
                call(&plan, &half, bad.clone(), &mut work, &mut out).is_err(),
                "range {bad:?} ({name})"
            );
        }
        // Exactly samples 0..=n/2: one short or one long is refused.
        for len in [6usize, 8] {
            assert!(
                call(&plan, &half.repeat(2)[..len], 0..=0, &mut work, &mut out).is_err(),
                "{len} samples ({name})"
            );
        }
    }
}

/// One way into the batched first lens.
type BatchCall =
    fn(&RealFftPlan, &[f64], usize, &mut Vec<Complex>, &mut Vec<Complex>) -> Result<(), DspError>;

/// Every instantiation of the first lens' lane body this host can run:
/// the dispatching entry point (AVX2 where detected) and the one pinned to
/// the baseline ISA.
const BATCH_CALLS: [(&str, BatchCall); 2] = [
    ("dispatched", RealFftPlan::forward_real_batch_into),
    ("portable", RealFftPlan::forward_real_batch_into_portable),
];

/// The row shapes the first lens meets, `len` samples each: a generic row
/// bounded to ±1, a kernel's half of the joint plane (zeros up to the
/// separation `d`, then `Lk` samples), a row of ±1 and a DC-heavy row.
const FIRST_LENS_ROWS: [fn(usize, usize) -> Vec<f64>; 4] = [
    |len, seed| {
        (0..len)
            .map(|j| ((j * j + (3 + seed) * j + 7 * seed) as f64 * 0.37).sin() * 0.9)
            .collect()
    },
    |len, seed| {
        let lk = (len / 2).clamp(1, 35);
        let mut row = vec![0.0; len - lk];
        row.extend((0..lk).map(|j| ((j + 5 * seed) as f64 * 0.61).cos()));
        row
    },
    |len, seed| {
        (0..len)
            .map(|j| {
                if (j * j + seed * j) % 3 == 0 {
                    -1.0
                } else {
                    1.0
                }
            })
            .collect()
    },
    |len, seed| {
        (0..len)
            .map(|j| 1e3 + ((j + seed) as f64 * 0.29).sin())
            .collect()
    },
];

/// Bins `0..=n/2` of the O(n²) oracle transform of `row` zero-padded to `n`.
fn real_oracle(row: &[f64], n: usize) -> Vec<Complex> {
    let mut padded: Vec<Complex> = row.iter().map(|&v| Complex::from_real(v)).collect();
    padded.resize(n, Complex::ZERO);
    let mut bins = oracle(&padded, false);
    bins.truncate(n / 2 + 1);
    bins
}

/// `rows` (one length) through every batched entry point: each row's half
/// spectrum is `forward_real_into` of that row, bit for bit.
fn check_batch_is_the_row_loop(n: usize, rows: &[Vec<f64>], what: &str) {
    let plan = RealFftPlan::shared(n).unwrap();
    let sl = plan.spectrum_len();
    let planar: Vec<f64> = rows.concat();
    let (mut scratch, mut batched, mut single) = (Vec::new(), Vec::new(), Vec::new());
    for (name, call) in BATCH_CALLS {
        call(&plan, &planar, rows.len(), &mut scratch, &mut batched).unwrap();
        assert_eq!(batched.len(), rows.len() * sl, "{what} ({name})");
        for (r, row) in rows.iter().enumerate() {
            plan.forward_real_into(row, &mut scratch, &mut single)
                .unwrap();
            let what = format!("{what} n={n} row {r} of {} ({name})", rows.len());
            assert_bits(&batched[r * sl..(r + 1) * sl], &single, &what);
        }
    }
}

/// The first lens in lanes, on every even 5-smooth length up to 1 024 (240
/// and 1 000, the benchmark's grids, among them): every lane of a full
/// block is the one-row transform bit for bit, in both instantiations, on
/// full-length rows and on rows shorter than `n` (implicit zero padding; an
/// odd row length too), on every row shape above — and whatever rides in
/// the other lanes: the four shapes share a block in every rotation.
#[test]
fn first_lens_lanes_match_the_one_row_transform_on_every_even_grid() {
    for n in (2usize..=1024).step_by(2).filter(|&n| is_five_smooth(n)) {
        for len in [n, n - 1, (n / 4).max(1)] {
            for rotation in 0..LANES {
                let rows: Vec<Vec<f64>> = (0..LANES)
                    .map(|l| FIRST_LENS_ROWS[(l + rotation) % LANES](len, l))
                    .collect();
                let what = format!("rows of {len}, rotation {rotation}");
                check_batch_is_the_row_loop(n, &rows, &what);
            }
        }
    }
}

/// `forward_real_batch_into` is the row loop for 1 to 9 rows — every
/// remainder: a lone row at width 1, two and three rows with idle lanes,
/// full blocks, and full blocks followed by each of those — and every row
/// is within `TOL` of the O(n²) oracle (rows bounded to ±1).
#[test]
fn batched_first_lens_is_the_row_loop_for_every_remainder() {
    for n in [2usize, 4, 12, 16, 60, 240, 1000] {
        let len = n - n / 4;
        for count in 1..=9 {
            let rows: Vec<Vec<f64>> = (0..count).map(|r| FIRST_LENS_ROWS[r % 3](len, r)).collect();
            check_batch_is_the_row_loop(n, &rows, "remainders");
        }
        let plan = RealFftPlan::shared(n).unwrap();
        let rows: Vec<Vec<f64>> = (0..9).map(|r| FIRST_LENS_ROWS[r % 3](len, r)).collect();
        let (mut scratch, mut batched) = (Vec::new(), Vec::new());
        plan.forward_real_batch_into(&rows.concat(), 9, &mut scratch, &mut batched)
            .unwrap();
        for (row, spectrum) in rows.iter().zip(batched.chunks_exact(plan.spectrum_len())) {
            assert_close(spectrum, &real_oracle(row, n), "batched first lens");
        }
    }
}
