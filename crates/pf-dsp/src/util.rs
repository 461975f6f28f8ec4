//! Numeric helpers shared across the PhotoFourier crates.

/// Returns the smallest power of two greater than or equal to `n`.
///
/// Returns `1` for `n == 0`.
///
/// ```
/// assert_eq!(pf_dsp::util::next_pow2(0), 1);
/// assert_eq!(pf_dsp::util::next_pow2(1), 1);
/// assert_eq!(pf_dsp::util::next_pow2(5), 8);
/// assert_eq!(pf_dsp::util::next_pow2(256), 256);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns the smallest **even 5-smooth** number (`2^a·3^b·5^c` with
/// `a >= 1`) greater than or equal to `n` — the tightest length a
/// [`RealFftPlan`](crate::plan::RealFftPlan) accepts: the FFT kernel runs
/// 5-smooth lengths, and evenness is required so the real-input
/// half-spectrum packing applies.
///
/// Always at most `next_pow2(n)`, so callers switching from pow2 padding
/// can only shrink their transforms.
///
/// ```
/// assert_eq!(pf_dsp::util::next_fast_len(0), 2);
/// assert_eq!(pf_dsp::util::next_fast_len(6), 6);
/// assert_eq!(pf_dsp::util::next_fast_len(7), 8);
/// assert_eq!(pf_dsp::util::next_fast_len(97), 100);
/// assert_eq!(pf_dsp::util::next_fast_len(1025), 1080);
/// ```
pub fn next_fast_len(n: usize) -> usize {
    let target = n.max(2);
    let mut best = next_pow2(target);
    // Enumerate odd-part candidates 3^b·5^c below the current best and
    // pair each with the smallest 2^a (a >= 1) that reaches the target;
    // every even 5-smooth number is visited this way.
    let mut p3 = 1usize;
    while p3 < best {
        let mut p35 = p3;
        while p35 < best {
            let mut m = p35 * 2;
            while m < target {
                match m.checked_mul(2) {
                    Some(next) => m = next,
                    None => break,
                }
            }
            if m >= target && m < best {
                best = m;
            }
            match p35.checked_mul(5) {
                Some(next) => p35 = next,
                None => break,
            }
        }
        match p3.checked_mul(3) {
            Some(next) => p3 = next,
            None => break,
        }
    }
    best
}

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative L2 error `||a - b|| / ||b||`.
///
/// Returns the absolute L2 norm of `a` when `b` is (numerically) zero so the
/// metric stays finite.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relative_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "relative_l2_error requires equal lengths");
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    if den <= f64::EPSILON {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse requires equal lengths");
    assert!(!a.is_empty(), "mse requires non-empty inputs");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Signal-to-noise ratio in dB of `signal` against an error slice
/// `signal - reference`.
///
/// Defined as `10 log10(sum(ref^2) / sum((sig-ref)^2))`. Returns
/// `f64::INFINITY` when the error energy is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn snr_db(signal: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(
        signal.len(),
        reference.len(),
        "snr_db requires equal lengths"
    );
    let sig: f64 = reference.iter().map(|x| x * x).sum();
    let err: f64 = signal
        .iter()
        .zip(reference)
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    if err <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (sig / err).log10()
    }
}

/// Geometric mean of a slice of positive values.
///
/// Returns `None` if the slice is empty or any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(255), 256);
        assert_eq!(next_pow2(257), 512);
    }

    #[test]
    fn next_fast_len_is_tight_even_and_5_smooth() {
        assert_eq!(next_fast_len(0), 2);
        assert_eq!(next_fast_len(1), 2);
        assert_eq!(next_fast_len(2), 2);
        assert_eq!(next_fast_len(3), 4);
        assert_eq!(next_fast_len(5), 6);
        assert_eq!(next_fast_len(11), 12);
        assert_eq!(next_fast_len(13), 16);
        assert_eq!(next_fast_len(26), 27 + 3); // 30 = 2·3·5
        assert_eq!(next_fast_len(2048), 2048);
        // Exhaustive check against a brute-force search over a range.
        let is_even_5_smooth = |mut v: usize| {
            if !v.is_multiple_of(2) {
                return false;
            }
            for p in [2usize, 3, 5] {
                while v.is_multiple_of(p) {
                    v /= p;
                }
            }
            v == 1
        };
        for n in 2..2200usize {
            let fast = next_fast_len(n);
            assert!(fast >= n && is_even_5_smooth(fast), "n={n} fast={fast}");
            assert!(fast <= next_pow2(n), "n={n} fast={fast}");
            for candidate in n..fast {
                assert!(!is_even_5_smooth(candidate), "n={n} missed {candidate}");
            }
        }
    }

    #[test]
    fn error_metrics() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        assert_eq!(relative_l2_error(&a, &b), 0.0);
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(snr_db(&a, &b), f64::INFINITY);

        let c = [1.0, 2.0, 4.0];
        assert_eq!(max_abs_diff(&c, &b), 1.0);
        assert!(relative_l2_error(&c, &b) > 0.0);
        assert!((mse(&c, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert!(snr_db(&c, &b) > 10.0);
    }

    #[test]
    fn relative_error_zero_reference() {
        let a = [1.0, 0.0];
        let b = [0.0, 0.0];
        assert!((relative_l2_error(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_cases() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[2.0, -1.0]), None);
        let g = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geometric_mean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }
}
