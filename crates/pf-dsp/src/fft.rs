//! Fourier transforms.
//!
//! The on-chip lens of a JTC performs a continuous 1D Fourier transform; the
//! discrete simulation of that lens is an FFT. This module provides:
//!
//! * [`fft`] / [`ifft`] — fast transforms for any 5-smooth length
//!   (`2^a·3^b·5^c`), routed through the shared [`FftPlan`] registry (one
//!   mixed-radix kernel; powers of two run as radix-2 passes);
//! * [`dft`] / [`idft`] — O(N²) direct transforms for any length, used as
//!   the reference oracle in tests;
//! * [`fft_real`] — convenience wrapper transforming a real signal;
//! * [`fftshift`] — centers the zero-frequency bin, matching how the JTC
//!   output plane is drawn in the paper (Figure 2).

use crate::complex::Complex;
use crate::error::DspError;
use crate::plan::FftPlan;

/// Computes the forward FFT of `input` (any non-zero 5-smooth length).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty input and
/// [`DspError::InvalidLength`] for a length with a prime factor above 5.
///
/// # Examples
///
/// ```
/// use pf_dsp::{fft::fft, Complex};
/// let x = vec![Complex::ONE; 4];
/// let y = fft(&x)?;
/// assert!((y[0].re - 4.0).abs() < 1e-12);
/// assert!(y[1].abs() < 1e-12);
/// # Ok::<(), pf_dsp::DspError>(())
/// ```
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    fft_dir(input, false)
}

/// Computes the inverse FFT of `input` (normalized by `1/N`; any non-zero
/// 5-smooth length).
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn ifft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    fft_dir(input, true)
}

/// Thin wrapper routing through the shared [`FftPlan`] registry, so free
/// calls and plan-based calls are numerically identical by construction.
fn fft_dir(input: &[Complex], inverse: bool) -> Result<Vec<Complex>, DspError> {
    if input.is_empty() {
        return Err(DspError::EmptyInput { what: "fft input" });
    }
    let plan = FftPlan::shared(input.len())?;
    let mut data = input.to_vec();
    plan.process(&mut data, inverse)?;
    Ok(data)
}

/// Computes the forward FFT of a real signal.
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn fft_real(input: &[f64]) -> Result<Vec<Complex>, DspError> {
    let complex: Vec<Complex> = input.iter().map(|&x| Complex::from_real(x)).collect();
    fft(&complex)
}

/// Computes the direct DFT of `input` (any length, O(N²)).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty input.
pub fn dft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    dft_dir(input, false)
}

/// Computes the direct inverse DFT of `input` (any length, O(N²)).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty input.
pub fn idft(input: &[Complex]) -> Result<Vec<Complex>, DspError> {
    dft_dir(input, true)
}

fn dft_dir(input: &[Complex], inverse: bool) -> Result<Vec<Complex>, DspError> {
    if input.is_empty() {
        return Err(DspError::EmptyInput { what: "dft input" });
    }
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += x * Complex::cis(ang);
        }
        if inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        out.push(acc);
    }
    Ok(out)
}

/// Swaps the two halves of the spectrum so the zero-frequency component sits
/// in the middle of the output, as in the paper's JTC output plots.
///
/// For odd lengths the extra element stays with the first half, matching
/// NumPy's `fftshift` convention.
pub fn fftshift<T: Clone>(input: &[T]) -> Vec<T> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mid = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&input[mid..]);
    out.extend_from_slice(&input[..mid]);
    out
}

/// Inverse of [`fftshift`].
pub fn ifftshift<T: Clone>(input: &[T]) -> Vec<T> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mid = n / 2;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&input[mid..]);
    out.extend_from_slice(&input[..mid]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::max_abs_diff;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "complex mismatch: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn fft_rejects_empty_and_non_five_smooth_lengths() {
        assert!(matches!(fft(&[]), Err(DspError::EmptyInput { .. })));
        assert!(matches!(
            fft(&[Complex::ONE; 7]),
            Err(DspError::InvalidLength { .. })
        ));
        // Non-pow2 5-smooth lengths route through the mixed-radix plans
        // and agree with the direct DFT.
        for n in [3usize, 6, 12, 20] {
            let x: Vec<Complex> = (0..n)
                .map(|k| Complex::new((k as f64 * 0.61).sin(), (k as f64 * 0.17).cos()))
                .collect();
            let a = fft(&x).unwrap();
            let b = dft(&x).unwrap();
            assert_close(&a, &b, 1e-9);
            let back = ifft(&a).unwrap();
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let y = fft(&x).unwrap();
        for z in y {
            assert!((z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let x = vec![Complex::ONE; 16];
        let y = fft(&x).unwrap();
        assert!((y[0].re - 16.0).abs() < 1e-12);
        for z in &y[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn fft_matches_dft() {
        let x: Vec<Complex> = (0..32)
            .map(|k| Complex::new((k as f64 * 0.3).sin(), (k as f64 * 0.7).cos()))
            .collect();
        let a = fft(&x).unwrap();
        let b = dft(&x).unwrap();
        assert_close(&a, &b, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> = (0..64)
            .map(|k| Complex::new(k as f64, -(k as f64) * 0.5))
            .collect();
        let y = ifft(&fft(&x).unwrap()).unwrap();
        assert_close(&x, &y, 1e-9);
    }

    #[test]
    fn idft_inverts_dft_odd_length() {
        let x: Vec<Complex> = (0..7)
            .map(|k| Complex::new((k as f64).sqrt(), k as f64 * 0.1))
            .collect();
        let y = idft(&dft(&x).unwrap()).unwrap();
        assert_close(&x, &y, 1e-10);
    }

    #[test]
    fn parseval_theorem_holds() {
        let x: Vec<Complex> = (0..128)
            .map(|k| Complex::new((k as f64 * 0.11).sin(), (k as f64 * 0.05).cos()))
            .collect();
        let y = fft(&x).unwrap();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn real_signal_has_conjugate_symmetric_spectrum() {
        let x: Vec<f64> = (0..16).map(|k| (k as f64 * 0.4).sin()).collect();
        let y = fft_real(&x).unwrap();
        let n = y.len();
        for k in 1..n {
            let diff = (y[k] - y[n - k].conj()).abs();
            assert!(diff < 1e-10, "bin {k} not conjugate symmetric");
        }
    }

    #[test]
    fn fftshift_roundtrip_even_and_odd() {
        let even = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(fftshift(&even), vec![2.0, 3.0, 0.0, 1.0]);
        assert_eq!(ifftshift(&fftshift(&even)), even);
        let odd = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(fftshift(&odd), vec![3.0, 4.0, 0.0, 1.0, 2.0]);
        assert_eq!(ifftshift(&fftshift(&odd)), odd);
        let empty: Vec<f64> = vec![];
        assert!(fftshift(&empty).is_empty());
    }

    #[test]
    fn time_shift_is_linear_phase() {
        // x delayed by d => spectrum multiplied by exp(-2 pi i k d / N).
        let n = 32;
        let x: Vec<Complex> = (0..n)
            .map(|k| Complex::from_real((k as f64 * 0.23).cos()))
            .collect();
        let d = 5usize;
        let shifted: Vec<Complex> = (0..n).map(|k| x[(k + n - d) % n]).collect();
        let fx = fft(&x).unwrap();
        let fs = fft(&shifted).unwrap();
        for k in 0..n {
            let phase = Complex::cis(-2.0 * std::f64::consts::PI * (k * d) as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-9);
        }
    }

    #[test]
    fn fftshift_preserves_values() {
        let x: Vec<f64> = (0..9).map(|k| k as f64).collect();
        let mut shifted = fftshift(&x);
        shifted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(max_abs_diff(&shifted, &x), 0.0);
    }
}
