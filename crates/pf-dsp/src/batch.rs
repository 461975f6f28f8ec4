//! Row-batch entry points over the single-signal plans.
//!
//! The JTC tiling layer produces *batches* of equal-length tiles — every
//! tile of one image row-set, or one tile per image of a batch — laid out
//! back to back (planar). These calls take such a batch in one go; what
//! runs underneath is **one plan execution per row**, in row order, through
//! the same body as the single-signal call, so every row is bit-identical
//! to it by construction. No stage is shared across rows: the tight
//! 5-smooth grids the JTC picks almost never have a power-of-two half, and
//! a mixed-radix row already walks its tables in cache. (Work shared
//! *across transforms* lives in the lane path,
//! [`RealFftPlan::forward_real_bins_lanes`].)
//!
//! * [`BatchFftPlan`] — one complex plan over `rows` contiguous signals.
//! * [`RealFftPlan::forward_real_batch_into`] — the real forward transform
//!   of every row; bit-identical to looping
//!   [`forward_real_into`](crate::plan::RealFftPlan::forward_real_into).
//! * [`RealFftPlan::forward_real_packed_into`] — the two-for-one variant:
//!   consecutive row pairs share one full-length complex transform
//!   ([`RealFftPlan::forward_real_pair_into`]), with a single-row fallback
//!   for the odd tail. Matches the serial path to DFT accuracy but not
//!   bit-for-bit (the pair's rounding couples inside the shared
//!   transform), so it is opt-in rather than the default batch path.

use crate::complex::Complex;
use crate::error::DspError;
use crate::plan::{FftPlan, RealFftPlan};
use std::sync::Arc;

/// Executes one [`FftPlan`] over a contiguous planar batch of signals, row
/// by row.
///
/// # Examples
///
/// ```
/// use pf_dsp::batch::BatchFftPlan;
/// use pf_dsp::plan::FftPlan;
/// use pf_dsp::Complex;
///
/// let batch = BatchFftPlan::shared(8)?;
/// // Two length-8 rows back to back.
/// let mut rows = vec![Complex::ONE; 16];
/// batch.process_batch(&mut rows, false)?;
/// assert!((rows[0].re - 8.0).abs() < 1e-12);
/// assert!((rows[8].re - 8.0).abs() < 1e-12);
/// # Ok::<(), pf_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchFftPlan {
    plan: Arc<FftPlan>,
}

impl BatchFftPlan {
    /// Wraps an existing plan for batched execution.
    pub fn new(plan: Arc<FftPlan>) -> Self {
        Self { plan }
    }

    /// Fetches the shared plan for length `n` and wraps it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::shared`].
    pub fn shared(n: usize) -> Result<Self, DspError> {
        Ok(Self::new(FftPlan::shared(n)?))
    }

    /// The wrapped single-signal plan.
    pub fn plan(&self) -> &Arc<FftPlan> {
        &self.plan
    }

    /// Transform length of the wrapped plan.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether the wrapped plan length is zero (never true for a
    /// constructed plan; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Transforms every length-`n` row of `data` in place (`data.len()`
    /// must be a multiple of the plan length; zero rows is a no-op).
    ///
    /// Bit-identical to calling
    /// [`FftPlan::process`](crate::plan::FftPlan::process) on each row.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `data.len()` is not a
    /// multiple of the plan length.
    pub fn process_batch(&self, data: &mut [Complex], inverse: bool) -> Result<(), DspError> {
        let n = self.plan.len();
        if !data.len().is_multiple_of(n) {
            return Err(DspError::InvalidLength {
                len: data.len(),
                requirement: "batched input length must be a multiple of the plan length",
            });
        }
        for row in data.chunks_exact_mut(n) {
            self.plan.process(row, inverse)?;
        }
        Ok(())
    }
}

/// Validates a planar real-input batch and returns the row length.
fn batch_row_len(plan_len: usize, inputs: &[f64], rows: usize) -> Result<usize, DspError> {
    if rows == 0 || inputs.is_empty() || !inputs.len().is_multiple_of(rows) {
        return Err(DspError::InvalidLength {
            len: inputs.len(),
            requirement: "batched real input must be rows * row_len samples, both >= 1",
        });
    }
    let row_len = inputs.len() / rows;
    if row_len > plan_len {
        return Err(DspError::InvalidLength {
            len: row_len,
            requirement: "real FFT input must not exceed the plan length",
        });
    }
    Ok(row_len)
}

impl RealFftPlan {
    /// Computes the half spectra of `rows` equal-length real signals laid
    /// out back-to-back in `inputs`, writing `rows * spectrum_len()`
    /// bins back-to-back into `out`. Rows shorter than the plan length are
    /// zero-padded on the right.
    ///
    /// Each row runs the single-signal transform in turn, so the result is
    /// **bit-identical to looping
    /// [`forward_real_into`](Self::forward_real_into) over the rows.**
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] when `inputs.len()` is not
    /// `rows` equal rows or a row exceeds the plan length.
    pub fn forward_real_batch_into(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        let row_len = batch_row_len(self.n, inputs, rows)?;
        let sl = self.spectrum_len();
        out.clear();
        out.resize(rows * sl, Complex::ZERO);
        for (row, spec) in inputs.chunks_exact(row_len).zip(out.chunks_exact_mut(sl)) {
            self.forward_real_core(row, 0..=self.n / 2, scratch, spec)?;
        }
        Ok(())
    }

    /// Two-for-one batched forward transform: consecutive row pairs share
    /// one full-length complex FFT
    /// ([`forward_real_pair_into`](Self::forward_real_pair_into)); an odd
    /// trailing row falls back to the single-row path. Output layout
    /// matches [`forward_real_batch_into`](Self::forward_real_batch_into).
    ///
    /// Halves the forward-transform count for even row counts, which is a
    /// genuine flop win for odd plan lengths (no half-length trick
    /// exists there). Matches the serial path to DFT accuracy but **not**
    /// bit-for-bit — paired rows round together — so callers that promise
    /// bit-identical batching must use
    /// [`forward_real_batch_into`](Self::forward_real_batch_into) instead.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`forward_real_batch_into`](Self::forward_real_batch_into).
    pub fn forward_real_packed_into(
        &self,
        inputs: &[f64],
        rows: usize,
        scratch: &mut Vec<Complex>,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        let row_len = batch_row_len(self.n, inputs, rows)?;
        let sl = self.spectrum_len();
        out.clear();
        out.resize(rows * sl, Complex::ZERO);
        let mut r = 0;
        while r + 1 < rows {
            let a = &inputs[r * row_len..(r + 1) * row_len];
            let b = &inputs[(r + 1) * row_len..(r + 2) * row_len];
            let (out_a, tail) = out[r * sl..].split_at_mut(sl);
            self.forward_real_pair_core(a, b, scratch, out_a, &mut tail[..sl])?;
            r += 2;
        }
        if r < rows {
            let row = &inputs[r * row_len..(r + 1) * row_len];
            self.forward_real_core(row, 0..=self.n / 2, scratch, &mut out[r * sl..(r + 1) * sl])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k + 3 * seed) as f64 * 0.23).sin() + 0.1 * seed as f64)
            .collect()
    }

    #[test]
    fn batch_rejects_non_multiple_lengths() {
        let batch = BatchFftPlan::shared(8).unwrap();
        let mut data = vec![Complex::ZERO; 12];
        assert!(matches!(
            batch.process_batch(&mut data, false),
            Err(DspError::InvalidLength { .. })
        ));
        assert_eq!(batch.len(), 8);
        assert!(!batch.is_empty());
    }

    #[test]
    fn batched_complex_rows_are_bit_identical_to_serial() {
        // Radix-2 (pow2), mixed-radix and Bluestein lengths, several row
        // counts including zero and one.
        for n in [8usize, 12, 7] {
            for rows in [0usize, 1, 2, 3, 5] {
                let mut data: Vec<Complex> = (0..rows * n)
                    .map(|k| Complex::new((k as f64 * 0.19).sin(), (k as f64 * 0.37).cos()))
                    .collect();
                let mut reference = data.clone();
                let batch = BatchFftPlan::shared(n).unwrap();
                batch.process_batch(&mut data, false).unwrap();
                for chunk in reference.chunks_exact_mut(n) {
                    batch.plan().process(chunk, false).unwrap();
                }
                for (a, b) in data.iter().zip(&reference) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} rows={rows}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} rows={rows}");
                }
                // And the inverse pass.
                let mut inv = data.clone();
                let mut inv_ref = data.clone();
                batch.process_batch(&mut inv, true).unwrap();
                for chunk in inv_ref.chunks_exact_mut(n) {
                    batch.plan().process(chunk, true).unwrap();
                }
                for (a, b) in inv.iter().zip(&inv_ref) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn batched_real_rows_are_bit_identical_to_serial() {
        for n in [16usize, 12, 9] {
            for rows in [1usize, 2, 3, 4] {
                let plan = RealFftPlan::shared(n).unwrap();
                let row_len = n - 2; // exercise the zero-padding path
                let inputs: Vec<f64> = (0..rows).flat_map(|r| row(row_len, r)).collect();
                let mut scratch = Vec::new();
                let mut batched = Vec::new();
                plan.forward_real_batch_into(&inputs, rows, &mut scratch, &mut batched)
                    .unwrap();
                let sl = plan.spectrum_len();
                assert_eq!(batched.len(), rows * sl);
                for r in 0..rows {
                    let mut single = Vec::new();
                    plan.forward_real_into(
                        &inputs[r * row_len..(r + 1) * row_len],
                        &mut scratch,
                        &mut single,
                    )
                    .unwrap();
                    for k in 0..sl {
                        let b = batched[r * sl + k];
                        assert_eq!(b.re.to_bits(), single[k].re.to_bits(), "n={n} r={r} k={k}");
                        assert_eq!(b.im.to_bits(), single[k].im.to_bits(), "n={n} r={r} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_batches_match_serial_spectra() {
        // Even and odd row counts (odd exercises the single-row tail),
        // even and odd plan lengths.
        for n in [16usize, 9, 20] {
            for rows in [1usize, 2, 3, 4, 5] {
                let plan = RealFftPlan::shared(n).unwrap();
                let inputs: Vec<f64> = (0..rows).flat_map(|r| row(n, r)).collect();
                let mut scratch = Vec::new();
                let mut packed = Vec::new();
                plan.forward_real_packed_into(&inputs, rows, &mut scratch, &mut packed)
                    .unwrap();
                let sl = plan.spectrum_len();
                assert_eq!(packed.len(), rows * sl);
                for r in 0..rows {
                    let mut single = Vec::new();
                    plan.forward_real_into(&inputs[r * n..(r + 1) * n], &mut scratch, &mut single)
                        .unwrap();
                    for k in 0..sl {
                        assert!(
                            (packed[r * sl + k] - single[k]).abs() < 1e-9,
                            "n={n} rows={rows} r={r} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_rejects_ragged_real_inputs() {
        let plan = RealFftPlan::shared(8).unwrap();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        // 7 samples do not split into 2 rows.
        assert!(matches!(
            plan.forward_real_batch_into(&[0.0; 7], 2, &mut scratch, &mut out),
            Err(DspError::InvalidLength { .. })
        ));
        // Row length exceeding the plan length.
        assert!(matches!(
            plan.forward_real_batch_into(&[0.0; 18], 2, &mut scratch, &mut out),
            Err(DspError::InvalidLength { .. })
        ));
        // Empty rows have nothing to transform.
        assert!(matches!(
            plan.forward_real_batch_into(&[], 2, &mut scratch, &mut out),
            Err(DspError::InvalidLength { .. })
        ));
        // Zero rows never divide evenly.
        assert!(matches!(
            plan.forward_real_packed_into(&[0.0; 8], 0, &mut scratch, &mut out),
            Err(DspError::InvalidLength { .. })
        ));
    }
}
