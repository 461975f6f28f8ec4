//! Reference convolution and correlation kernels.
//!
//! These digital implementations serve two purposes in the reproduction:
//!
//! 1. They are the *golden reference* that the JTC physics simulation and the
//!    row-tiling algorithm are validated against (Section III of the paper
//!    proves row-tiled 1D convolution equals 2D convolution in `valid` mode).
//! 2. They are the building block of the digital backend (`pf_tiling::DigitalEngine`).
//!
//! All routines operate on `f64` slices / row-major matrices and come in the
//! three standard padding modes.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::{fft, ifft};
use crate::util::next_pow2;

/// Output-size convention for convolution, mirroring NumPy/SciPy naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaddingMode {
    /// Every point of overlap: output length `N + K - 1`.
    Full,
    /// Output has the same size as the (first) input; the paper's CNNs use
    /// this mode for their convolution layers.
    Same,
    /// Only positions where the kernel fits entirely inside the input:
    /// output length `N - K + 1`.
    Valid,
}

/// A 2D matrix in row-major order, the minimal structure needed to express
/// image-like inputs and kernels.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, DspError> {
        if data.len() != rows * cols {
            return Err(DspError::ShapeMismatch {
                expected: format!("{} elements ({rows}x{cols})", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice (the writeback path of the tiled
    /// executor copies whole output rows at once).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Direct 1D convolution of `signal` with `kernel`.
///
/// The kernel is flipped, as in the mathematical definition
/// `y[n] = sum_k x[k] h[n - k]`.
///
/// Returns an empty vector if either input is empty, or if `Valid` mode is
/// requested with a kernel longer than the signal.
pub fn conv1d(signal: &[f64], kernel: &[f64], mode: PaddingMode) -> Vec<f64> {
    if signal.is_empty() || kernel.is_empty() {
        return Vec::new();
    }
    let full = conv1d_full(signal, kernel);
    trim_mode(&full, signal.len(), kernel.len(), mode)
}

fn conv1d_full(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    let n = signal.len();
    let k = kernel.len();
    let mut out = vec![0.0; n + k - 1];
    for (i, &s) in signal.iter().enumerate() {
        if s == 0.0 {
            continue;
        }
        for (j, &h) in kernel.iter().enumerate() {
            out[i + j] += s * h;
        }
    }
    out
}

fn trim_mode(full: &[f64], n: usize, k: usize, mode: PaddingMode) -> Vec<f64> {
    match mode {
        PaddingMode::Full => full.to_vec(),
        PaddingMode::Same => {
            let start = (k - 1) / 2;
            full[start..start + n].to_vec()
        }
        PaddingMode::Valid => {
            if k > n {
                Vec::new()
            } else {
                full[k - 1..n].to_vec()
            }
        }
    }
}

/// 1D cross-correlation of `signal` with `kernel` (kernel *not* flipped).
///
/// This is the operation CNN "convolution" layers actually perform, and the
/// operation the JTC produces between its two input windows.
pub fn correlate1d(signal: &[f64], kernel: &[f64], mode: PaddingMode) -> Vec<f64> {
    let flipped: Vec<f64> = kernel.iter().rev().copied().collect();
    conv1d(signal, &flipped, mode)
}

/// FFT-accelerated 1D convolution, numerically equivalent to
/// [`conv1d`] with [`PaddingMode::Full`].
///
/// This mirrors what the optics do: multiply spectra, transform back. It is
/// used by the JTC simulation for large tiled inputs.
///
/// # Errors
///
/// Propagates FFT errors (which cannot occur for the internally chosen
/// power-of-two length, but the signature stays fallible for transparency).
pub fn conv1d_fft(signal: &[f64], kernel: &[f64]) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() || kernel.is_empty() {
        return Ok(Vec::new());
    }
    let out_len = signal.len() + kernel.len() - 1;
    let n = next_pow2(out_len);
    let mut a = vec![Complex::ZERO; n];
    let mut b = vec![Complex::ZERO; n];
    for (i, &x) in signal.iter().enumerate() {
        a[i] = Complex::from_real(x);
    }
    for (i, &x) in kernel.iter().enumerate() {
        b[i] = Complex::from_real(x);
    }
    let fa = fft(&a)?;
    let fb = fft(&b)?;
    let prod: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x * y).collect();
    let time = ifft(&prod)?;
    Ok(time[..out_len].iter().map(|z| z.re).collect())
}

/// Direct 2D convolution (kernel flipped in both dimensions).
///
/// `Same` mode zero-pads the input so the output has the input's size, which
/// is the convention the paper's CNNs (and the edge-effect discussion in
/// Section III-A) assume.
pub fn conv2d(input: &Matrix, kernel: &Matrix, mode: PaddingMode) -> Matrix {
    let mut flipped = Matrix::zeros(kernel.rows(), kernel.cols());
    for r in 0..kernel.rows() {
        for c in 0..kernel.cols() {
            flipped.set(
                r,
                c,
                kernel.get(kernel.rows() - 1 - r, kernel.cols() - 1 - c),
            );
        }
    }
    correlate2d(input, &flipped, mode)
}

/// Direct 2D cross-correlation (kernel not flipped) — the CNN layer operation.
///
/// Returns an empty (0x0) matrix in `Valid` mode when the kernel is larger
/// than the input in either dimension.
pub fn correlate2d(input: &Matrix, kernel: &Matrix, mode: PaddingMode) -> Matrix {
    let (ir, ic) = (input.rows() as isize, input.cols() as isize);
    let (kr, kc) = (kernel.rows() as isize, kernel.cols() as isize);

    let (out_rows, out_cols, row_off, col_off): (isize, isize, isize, isize) = match mode {
        PaddingMode::Full => (ir + kr - 1, ic + kc - 1, -(kr - 1), -(kc - 1)),
        PaddingMode::Same => (ir, ic, -((kr - 1) / 2), -((kc - 1) / 2)),
        PaddingMode::Valid => {
            if kr > ir || kc > ic {
                return Matrix::zeros(0, 0);
            }
            (ir - kr + 1, ic - kc + 1, 0, 0)
        }
    };

    let mut out = Matrix::zeros(out_rows as usize, out_cols as usize);
    for orow in 0..out_rows {
        for ocol in 0..out_cols {
            let mut acc = 0.0;
            for dr in 0..kr {
                for dc in 0..kc {
                    let r = orow + row_off + dr;
                    let c = ocol + col_off + dc;
                    if r >= 0 && r < ir && c >= 0 && c < ic {
                        acc += input.get(r as usize, c as usize)
                            * kernel.get(dr as usize, dc as usize);
                    }
                }
            }
            out.set(orow as usize, ocol as usize, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::max_abs_diff;

    #[test]
    fn conv1d_known_values() {
        let s = [1.0, 2.0, 3.0];
        let k = [0.0, 1.0, 0.5];
        assert_eq!(
            conv1d(&s, &k, PaddingMode::Full),
            vec![0.0, 1.0, 2.5, 4.0, 1.5]
        );
        assert_eq!(conv1d(&s, &k, PaddingMode::Same), vec![1.0, 2.5, 4.0]);
        assert_eq!(conv1d(&s, &k, PaddingMode::Valid), vec![2.5]);
    }

    #[test]
    fn conv1d_empty_inputs() {
        assert!(conv1d(&[], &[1.0], PaddingMode::Full).is_empty());
        assert!(conv1d(&[1.0], &[], PaddingMode::Full).is_empty());
        assert!(conv1d(&[1.0], &[1.0, 2.0], PaddingMode::Valid).is_empty());
    }

    #[test]
    fn conv1d_identity_kernel() {
        let s = [3.0, -1.0, 4.0, 1.5];
        assert_eq!(conv1d(&s, &[1.0], PaddingMode::Same), s.to_vec());
    }

    #[test]
    fn conv_is_commutative_in_full_mode() {
        let a = [1.0, 2.0, -3.0, 0.5];
        let b = [0.2, 0.0, 1.0];
        let ab = conv1d(&a, &b, PaddingMode::Full);
        let ba = conv1d(&b, &a, PaddingMode::Full);
        assert_eq!(ab.len(), ba.len());
        assert!(max_abs_diff(&ab, &ba) < 1e-12);
    }

    #[test]
    fn correlate_flips_kernel() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let k = [1.0, 0.0, -1.0];
        let corr = correlate1d(&s, &k, PaddingMode::Valid);
        // correlation: s[i]*1 + s[i+1]*0 + s[i+2]*(-1)
        assert_eq!(corr, vec![1.0 - 3.0, 2.0 - 4.0]);
        let conv = conv1d(&s, &k, PaddingMode::Valid);
        assert_eq!(conv, vec![3.0 - 1.0, 4.0 - 2.0]);
    }

    #[test]
    fn fft_conv_matches_direct() {
        let s: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let k: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let direct = conv1d(&s, &k, PaddingMode::Full);
        let via_fft = conv1d_fft(&s, &k).unwrap();
        assert_eq!(direct.len(), via_fft.len());
        assert!(max_abs_diff(&direct, &via_fft) < 1e-9);
    }

    #[test]
    fn fft_conv_empty() {
        assert!(conv1d_fft(&[], &[1.0]).unwrap().is_empty());
    }

    #[test]
    fn matrix_construction_and_access() {
        let m = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert!(Matrix::new(2, 2, vec![1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matrix_get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let input = Matrix::new(3, 3, (1..=9).map(|x| x as f64).collect()).unwrap();
        let kernel = Matrix::new(1, 1, vec![1.0]).unwrap();
        let out = conv2d(&input, &kernel, PaddingMode::Same);
        assert_eq!(out, input);
    }

    #[test]
    fn correlate2d_valid_known_values() {
        // 3x3 input, 2x2 kernel of ones -> each output = sum of 2x2 window.
        let input = Matrix::new(3, 3, (1..=9).map(|x| x as f64).collect()).unwrap();
        let kernel = Matrix::new(2, 2, vec![1.0; 4]).unwrap();
        let out = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn correlate2d_same_zero_pads() {
        let input = Matrix::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let kernel = Matrix::new(3, 3, vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        // Kernel is a centered delta, so `same` correlation returns the input.
        let out = correlate2d(&input, &kernel, PaddingMode::Same);
        assert_eq!(out, input);
    }

    #[test]
    fn correlate2d_valid_kernel_too_large() {
        let input = Matrix::zeros(2, 2);
        let kernel = Matrix::zeros(3, 3);
        let out = correlate2d(&input, &kernel, PaddingMode::Valid);
        assert_eq!(out.rows(), 0);
        assert_eq!(out.cols(), 0);
    }

    #[test]
    fn conv2d_separable_matches_two_1d() {
        // A separable kernel k = u v^T gives conv2d(x,k) = conv over rows then cols.
        let input = Matrix::new(4, 4, (0..16).map(|x| (x as f64 * 0.37).sin()).collect()).unwrap();
        let u = [1.0, 2.0, 1.0];
        let v = [0.5, 0.0, -0.5];
        let mut kdata = Vec::new();
        for &a in &u {
            for &b in &v {
                kdata.push(a * b);
            }
        }
        let kernel = Matrix::new(3, 3, kdata).unwrap();
        let direct = conv2d(&input, &kernel, PaddingMode::Valid);

        // Row pass with v, then column pass with u.
        let mut row_pass = Matrix::zeros(4, 2);
        for r in 0..4 {
            let conv = conv1d(input.row(r), &v, PaddingMode::Valid);
            for (c, &val) in conv.iter().enumerate() {
                row_pass.set(r, c, val);
            }
        }
        let mut sep = Matrix::zeros(2, 2);
        for c in 0..2 {
            let col: Vec<f64> = (0..4).map(|r| row_pass.get(r, c)).collect();
            let conv = conv1d(&col, &u, PaddingMode::Valid);
            for (r, &val) in conv.iter().enumerate() {
                sep.set(r, c, val);
            }
        }
        assert!(max_abs_diff(direct.data(), sep.data()) < 1e-12);
    }
}
