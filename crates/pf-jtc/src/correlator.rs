//! Literal numerical simulation of the optical JTC chain: the Figure 2
//! visualiser and the slow oracle of the crate.
//!
//! Nothing on an execution path calls this module. [`JtcSimulator`] builds
//! the whole joint input plane and keeps the whole output plane, which is
//! what Figure 2 plots ([`JtcOutput::intensity_shifted`],
//! [`JtcOutput::terms_are_separated`]) and what makes it an *independent*
//! check of the engine's prepared chain ([`crate::prepared`]: another grid,
//! real half-spectrum transforms, only the correlation lobe read out) — the
//! two are held together at 1e-9 by the tests of both modules.
//!
//! The simulation follows the physics described in Section II-A:
//!
//! 1. the signal and the kernel are placed side by side on the input plane
//!    with a spatial separation large enough that the output terms do not
//!    overlap;
//! 2. the first lens computes the Fourier transform of the joint input;
//! 3. the square-law non-linearity (photodetector + EOM pair in CG, passive
//!    non-linear material in NG) produces the Fourier-plane intensity
//!    `|F[s + k]|²`;
//! 4. the second lens transforms again, yielding Equation 1: the two
//!    cross-correlation terms at `±(x_s + x_k)` plus the central
//!    non-convolution term `O(x)`.
//!
//! The simulation grid is larger than the physical number of waveguides so
//! the discrete transform behaves like the continuous optics: on the
//! simulator's plane there is **no circular aliasing between the three
//! terms** (`joint_geometry` keeps every lobe whole and apart, guard bands
//! included). The physical capacity only limits how long the signal and
//! kernel may be.
//!
//! The prepared chain asks for less — **no aliasing into the read window**.
//! Its photodetectors sample only the valid window of the `+` lobe
//! (Section III-A), so `prepared_geometry` lets the rest of that lobe run
//! into the central term and into the `−` lobe and keeps the plane just
//! large enough that nothing lands on the bins that are read
//! (`valid_lobe_is_clear`, the three-interval check next to it). Another
//! separation *and* another grid: the two geometries share nothing but the
//! physics.

use pf_dsp::complex::Complex;
use pf_dsp::fft::{fft, fftshift};
use pf_dsp::util::{next_fast_len, next_pow2};
use pf_photonics::adc::peak_magnitude;
use serde::{Deserialize, Serialize};

use crate::error::JtcError;

/// The complete output plane of one JTC pass, as a photodetector array would
/// record it (Figure 2), plus the bookkeeping needed to pull the convolution
/// result back out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JtcOutput {
    /// Field amplitude on the output plane (length = simulation grid size),
    /// *not* shifted: index 0 is the optical axis.
    pub field: Vec<f64>,
    /// Index of the centre of the `+` correlation lobe on the output plane.
    pub correlation_center: usize,
    /// Length of the signal that produced this output.
    pub signal_len: usize,
    /// Length of the kernel that produced this output.
    pub kernel_len: usize,
}

impl JtcOutput {
    /// Output-plane intensity with the optical axis moved to the middle, the
    /// way Figure 2 plots it. The three lobes (conjugate correlation,
    /// central `O(x)` term, correlation) appear left, centre and right.
    pub fn intensity_shifted(&self) -> Vec<f64> {
        fftshift(&self.field.iter().map(|x| x * x).collect::<Vec<_>>())
    }

    /// Extracts the *valid* cross-correlation `c[j] = Σ_q s[j+q]·k[q]`
    /// (length `signal_len - kernel_len + 1`) from the `+` correlation lobe.
    ///
    /// Returns an empty vector if the kernel was longer than the signal.
    pub fn valid_correlation(&self) -> Vec<f64> {
        if self.kernel_len > self.signal_len {
            return Vec::new();
        }
        let n = self.field.len();
        let len = self.signal_len - self.kernel_len + 1;
        (0..len)
            .map(|j| self.field[(self.correlation_center + n - j) % n])
            .collect()
    }

    /// Checks that the three output terms are spatially separated: the
    /// maximum absolute field value in the guard bands between the lobes is
    /// below `threshold` times the peak value. This is the property Figure 2
    /// demonstrates.
    pub fn terms_are_separated(&self, threshold: f64) -> bool {
        let n = self.field.len();
        let peak = peak_magnitude(&self.field);
        if peak == 0.0 {
            return true;
        }
        // Guard band: between the end of the central term and the start of
        // the + lobe (and symmetrically for the - lobe).
        let central_halfwidth = self.signal_len.max(self.kernel_len);
        let lobe_start =
            self.correlation_center - (self.signal_len - 1).min(self.correlation_center);
        if lobe_start <= central_halfwidth + 1 {
            return false;
        }
        let guard = &self.field[central_halfwidth + 1..lobe_start - 1];
        let guard_max = peak_magnitude(guard);
        // Symmetric guard on the conjugate side.
        let conj_center = n - self.correlation_center;
        let conj_end = conj_center + (self.signal_len - 1).min(n - conj_center - 1);
        let guard2 =
            &self.field[(conj_end + 1).min(n - 1)..(n - central_halfwidth - 1).max(conj_end + 1)];
        let guard2_max = peak_magnitude(guard2);
        guard_max.max(guard2_max) <= threshold * peak
    }
}

/// Numerical model of a 1D on-chip JTC with a given input-plane capacity
/// (number of input waveguides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JtcSimulator {
    capacity: usize,
    grid: usize,
}

impl JtcSimulator {
    /// Creates a simulator for a JTC whose input plane holds `capacity`
    /// samples (waveguides).
    ///
    /// # Errors
    ///
    /// Returns [`JtcError::InvalidConfig`] if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, JtcError> {
        if capacity == 0 {
            return Err(JtcError::InvalidConfig {
                name: "capacity",
                requirement: "must be at least 1".to_string(),
            });
        }
        // Grid large enough that the central term, the two correlation lobes
        // and their guard bands never alias: 8x the capacity rounded to a
        // power of two keeps every case used by PhotoFourier comfortably
        // separated.
        let grid = next_pow2(8 * capacity.max(8));
        Ok(Self { capacity, grid })
    }

    /// Input-plane capacity in samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Size of the numerical simulation grid.
    pub fn grid_size(&self) -> usize {
        self.grid
    }

    /// Runs the full optics chain and returns the output plane.
    ///
    /// # Errors
    ///
    /// * [`JtcError::EmptyOperand`] if the signal or kernel is empty.
    /// * [`JtcError::InputTooLarge`] if `signal.len() > capacity` or the
    ///   kernel is longer than the signal (the JTC input plane places the
    ///   kernel in the slot reserved by the row-tiling layout, which is never
    ///   longer than the signal).
    pub fn output_plane(&self, signal: &[f64], kernel: &[f64]) -> Result<JtcOutput, JtcError> {
        if signal.is_empty() {
            return Err(JtcError::EmptyOperand { what: "signal" });
        }
        if kernel.is_empty() {
            return Err(JtcError::EmptyOperand { what: "kernel" });
        }
        if signal.len() > self.capacity || kernel.len() > self.capacity {
            return Err(JtcError::InputTooLarge {
                signal_len: signal.len(),
                kernel_len: kernel.len(),
                capacity: self.capacity,
            });
        }

        let (d, n) = joint_geometry(signal.len(), kernel.len(), self.grid);

        // Joint input plane: signal at the origin, kernel at offset d.
        let mut joint = vec![Complex::ZERO; n];
        for (i, &s) in signal.iter().enumerate() {
            joint[i] = Complex::from_real(s);
        }
        for (i, &k) in kernel.iter().enumerate() {
            joint[d + i] += Complex::from_real(k);
        }

        // First lens.
        let fourier_plane = fft(&joint)?;
        // Square-law non-linearity in the Fourier plane.
        let intensity: Vec<Complex> = fourier_plane
            .iter()
            .map(|z| Complex::from_real(z.norm_sqr()))
            .collect();
        // Second lens; normalise the double-transform gain of N.
        let output = fft(&intensity)?;
        let field: Vec<f64> = output.iter().map(|z| z.re / n as f64).collect();

        Ok(JtcOutput {
            field,
            correlation_center: d,
            signal_len: signal.len(),
            kernel_len: kernel.len(),
        })
    }

    /// Convenience wrapper: runs the optics and extracts the valid
    /// cross-correlation in one call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`JtcSimulator::output_plane`].
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Result<Vec<f64>, JtcError> {
        Ok(self.output_plane(signal, kernel)?.valid_correlation())
    }
}

/// Joint input-plane geometry of the simulator: the signal→kernel
/// separation `d` (large enough that the **whole** correlation lobes clear
/// the central term, guard bands included) and the simulation grid size `n`
/// (the simulator's base grid, grown if an unusually long kernel needs more
/// guard space).
pub(crate) fn joint_geometry(signal_len: usize, kernel_len: usize, grid: usize) -> (usize, usize) {
    let d = 2 * signal_len + kernel_len + 2;
    let n = grid.max(next_pow2(2 * d + 2 * kernel_len + 4));
    (d, n)
}

/// Input-plane geometry of the prepared chain: the smallest separation `d`
/// and the smallest **5-smooth multiple of four** `n` on which the bins the
/// chain reads — the valid window of the `+` lobe — are exact
/// ([`valid_lobe_is_clear`]): `d = 2·Ls − Lk`, `n ≥ 4·Ls − Lk`. Everything
/// else on the output plane may alias: the invalid ends of the `+` lobe
/// overlap the central term below the window and the `−` lobe above it.
///
/// `pf_dsp`'s mixed-radix plans run any 5-smooth length directly — a
/// 256-sample signal against a 67-sample tiled kernel runs on 960 points
/// (the simulator: 2048). `n` is even and `d < n/2`, so the half-spectrum
/// optics (conjugate symmetry, mirror bin handling, lobe extraction from
/// the half spectrum) apply; a multiple of four, so the second lens — the
/// transform of a real *and even* intensity — runs as one quarter-length
/// complex transform on every plane there is
/// ([`RealFftPlan::forward_real_bins_symmetric`](pf_dsp::plan::RealFftPlan::forward_real_bins_symmetric)),
/// with a 5-smooth quarter.
///
/// Total: a kernel longer than the signal has no valid window, so it sits
/// right behind the signal (`d = Ls`) on a plane that holds both.
pub(crate) fn prepared_geometry(signal_len: usize, kernel_len: usize) -> (usize, usize) {
    let d = 2 * signal_len - kernel_len.min(signal_len);
    // Twice an even 5-smooth number: every 5-smooth multiple of four, and
    // nothing else.
    let n = 2 * next_fast_len((2 * d + kernel_len).div_ceil(2));
    debug_assert!(valid_lobe_is_clear(signal_len, kernel_len, d, n));
    (d, n)
}

/// Whether the bins the prepared chain reads are exact on a circular output
/// plane of `n` points, with the signal on `[0, Ls)` and the kernel on
/// `[d, d + Lk)` of the input plane.
///
/// The output plane is the circular autocorrelation of the joint input
/// (Equation 1), three terms on three intervals of lags `τ (mod n)`:
///
/// * the central term `O(x)` on `|τ| ≤ Ls − 1` (for `Lk ≤ Ls`), i.e. on
///   `[0, Ls − 1]` and its image `[n − Ls + 1, n − 1]`;
/// * the `+` lobe on `[d − Ls + 1, d + Lk − 1]`, whose **valid window**
///   `V = [d − Ls + Lk, d]` holds the `Ls − Lk + 1` samples that are read
///   (sample `j` at bin `d − j`);
/// * the `−` lobe on the mirror image, `[n − d − Lk + 1, n − d + Ls − 1]`.
///
/// The chain reads `V` out of the half spectrum, so `V` has to end at or
/// below `n/2` (the last condition implies it), and there each of the
/// other intervals can reach it from one side only — one inequality per
/// interval. A kernel longer than the signal has no valid window; the
/// plane then only has to hold both operands side by side.
pub(crate) fn valid_lobe_is_clear(ls: usize, lk: usize, d: usize, n: usize) -> bool {
    if lk > ls {
        return d >= ls && d + lk <= n;
    }
    // V starts above the central term: d − Ls + Lk > Ls − 1.
    let above_central = d + lk >= 2 * ls;
    // V ends below the central term's image: d < n − Ls + 1.
    let below_central_image = d + ls <= n;
    // V ends below the − lobe: d < n − d − Lk + 1.
    let below_minus_lobe = 2 * d + lk <= n;
    above_central && below_central_image && below_minus_lobe
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::{correlate1d, PaddingMode};
    use pf_dsp::util::max_abs_diff;

    #[test]
    fn constructor_validation() {
        assert!(JtcSimulator::new(0).is_err());
        let jtc = JtcSimulator::new(256).unwrap();
        assert_eq!(jtc.capacity(), 256);
        assert!(jtc.grid_size() >= 2048);
        assert!(jtc.grid_size().is_power_of_two());
    }

    #[test]
    fn rejects_bad_operands() {
        let jtc = JtcSimulator::new(16).unwrap();
        assert!(matches!(
            jtc.correlate(&[], &[1.0]),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            jtc.correlate(&[1.0], &[]),
            Err(JtcError::EmptyOperand { .. })
        ));
        assert!(matches!(
            jtc.correlate(&[1.0; 17], &[1.0]),
            Err(JtcError::InputTooLarge { .. })
        ));
    }

    #[test]
    fn correlation_matches_digital_reference() {
        let jtc = JtcSimulator::new(64).unwrap();
        let signal: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.3).sin() + 0.5).collect();
        let kernel = vec![0.25, 0.5, 1.0, 0.5, 0.25];
        let optical = jtc.correlate(&signal, &kernel).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert_eq!(optical.len(), digital.len());
        assert!(max_abs_diff(&optical, &digital) < 1e-8);
    }

    #[test]
    fn correlation_handles_signed_values() {
        // The field-level math is linear, so signed inputs (pseudo-negative
        // weights are handled at a higher level, but the simulation itself
        // must stay exact for signed data used in fidelity studies).
        let jtc = JtcSimulator::new(32).unwrap();
        let signal = vec![1.0, -2.0, 3.0, -4.0, 5.0, 0.0, 1.5, -0.5];
        let kernel = vec![-1.0, 2.0, -1.0];
        let optical = jtc.correlate(&signal, &kernel).unwrap();
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert!(max_abs_diff(&optical, &digital) < 1e-9);
    }

    #[test]
    fn kernel_of_length_one_is_scaling() {
        let jtc = JtcSimulator::new(16).unwrap();
        let signal = vec![1.0, 2.0, 3.0];
        let corr = jtc.correlate(&signal, &[2.0]).unwrap();
        assert!(max_abs_diff(&corr, &[2.0, 4.0, 6.0]) < 1e-9);
    }

    #[test]
    fn output_terms_are_spatially_separated() {
        // The Figure 2 property: correlation lobes clear the central term.
        let jtc = JtcSimulator::new(256).unwrap();
        let signal: Vec<f64> = (0..256).map(|i| ((i % 13) as f64) / 13.0).collect();
        let kernel: Vec<f64> = vec![0.2; 13];
        let out = jtc.output_plane(&signal, &kernel).unwrap();
        assert!(out.terms_are_separated(1e-6));
    }

    #[test]
    fn central_term_contains_signal_energy() {
        // O(x) = F[|S|^2 + |K|^2]: its DC sample equals the total energy of
        // signal and kernel plus the correlation contribution is far away.
        let jtc = JtcSimulator::new(32).unwrap();
        let signal = vec![1.0, 2.0, 2.0, 1.0];
        let kernel = vec![1.0, 1.0];
        let out = jtc.output_plane(&signal, &kernel).unwrap();
        let energy: f64 =
            signal.iter().map(|x| x * x).sum::<f64>() + kernel.iter().map(|x| x * x).sum::<f64>();
        assert!((out.field[0] - energy).abs() < 1e-9);
    }

    #[test]
    fn intensity_shifted_has_three_lobes() {
        let jtc = JtcSimulator::new(64).unwrap();
        let signal: Vec<f64> = (0..48)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.2 })
            .collect();
        let kernel = vec![1.0, 0.5, 0.25];
        let out = jtc.output_plane(&signal, &kernel).unwrap();
        let shifted = out.intensity_shifted();
        assert_eq!(shifted.len(), jtc.grid_size());
        // Centre lobe at the middle of the shifted plot.
        let mid = shifted.len() / 2;
        let center_peak: f64 = shifted[mid - 2..mid + 2]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(center_peak > 0.0);
        // Energy exists away from the centre (the correlation lobes).
        let side_energy: f64 =
            shifted[..mid - 200].iter().sum::<f64>() + shifted[mid + 200..].iter().sum::<f64>();
        assert!(side_energy > 0.0);
    }

    #[test]
    fn prepared_geometry_is_tight_a_multiple_of_four_and_sufficient() {
        // A length outside the FFT kernel's domain has no plan at all.
        let runs_the_second_lens =
            |n: usize| pf_dsp::plan::RealFftPlan::shared(n).is_ok_and(|p| p.supports_lanes());
        // Every tile the chain can meet lands in that domain.
        for s in 1usize..=256 {
            for k in 1..=s {
                let (_, n) = prepared_geometry(s, k);
                assert!(runs_the_second_lens(n), "s={s} k={k}: n={n}");
            }
        }
        for s in [1usize, 3, 8, 32, 100, 256] {
            for k in [1usize, 3, 5, 32, 67, 256] {
                let (d, n) = prepared_geometry(s, k);
                assert!(valid_lobe_is_clear(s, k, d, n), "s={s} k={k}: d={d} n={n}");
                // Both operands fit, the window is read from the half
                // spectrum, and the grid never exceeds what keeping every
                // term apart took (the bound this geometry replaced).
                assert!(d >= s && d + k <= n, "s={s} k={k}: d={d} n={n}");
                assert!(2 * d < n, "s={s} k={k}: d={d} is not below n/2={}", n / 2);
                assert!(n <= next_fast_len(4 * s + 4 * k + 8), "s={s} k={k}: n={n}");
                // A multiple of four (the half-spectrum mirror bin exists) with
                // a 5-smooth quarter (the one FFT kernel's domain): what the
                // symmetric second lens asks of a plan.
                assert!(runs_the_second_lens(n), "s={s} k={k}: n={n}");
                if k > s {
                    // No window: the kernel sits right behind the signal
                    // on a plane that must still hold both.
                    assert_eq!(d, s, "s={s} k={k}");
                    assert!(!valid_lobe_is_clear(s, k, d, d + k - 1), "s={s} k={k}");
                    continue;
                }
                // The bound is the wall: d = 2·Ls − Lk, n ≥ 4·Ls − Lk, no
                // 5-smooth multiple of four sits between the two, and the
                // largest even plane below the bound aliases into the window.
                assert_eq!(d, 2 * s - k, "s={s} k={k}");
                let bound = 4 * s - k;
                assert!(n >= bound, "s={s} k={k}: n={n} below {bound}");
                for smaller in bound..n {
                    assert!(
                        !runs_the_second_lens(smaller),
                        "s={s} k={k}: {smaller} < {n} would do"
                    );
                }
                let below = (bound - 1) & !1;
                assert!(
                    !valid_lobe_is_clear(s, k, d, below),
                    "s={s} k={k}: {below} < {bound} must alias"
                );
            }
        }
        // The resnet18 tile geometries: conv1 and `conv_fresh` tiles, the
        // conv2 tiles, and the 67-sample tiled kernel that ran on 1350.
        assert_eq!(prepared_geometry(256, 35), (477, 1000));
        assert_eq!(prepared_geometry(64, 19), (109, 240));
        assert_eq!(prepared_geometry(256, 67), (445, 960));
    }

    /// The valid window of the brute-force circular autocorrelation of an
    /// all-ones joint plane: every term is strictly positive on its whole
    /// support, so the window reads `Lk` everywhere iff nothing but the
    /// `+` lobe lands on it.
    fn all_ones_window_is_exact(ls: usize, lk: usize, d: usize, n: usize) -> bool {
        let mut joint = vec![0u32; n];
        for x in (0..ls).chain(d..d + lk) {
            joint[x] += 1;
        }
        (0..=ls - lk).all(|j| {
            let tau = d - j;
            let r: u32 = (0..n).map(|x| joint[x] * joint[(x + tau) % n]).sum();
            r as usize == lk
        })
    }

    #[test]
    fn valid_lobe_is_clear_agrees_with_brute_force_autocorrelation() {
        for ls in 1usize..=9 {
            for lk in 1..=ls {
                // Every placement with the window on the plane and read
                // from the half spectrum (d ≤ n/2).
                for d in ls - lk..=3 * ls {
                    for n in (2 * d).max(d + lk)..=5 * ls {
                        assert_eq!(
                            valid_lobe_is_clear(ls, lk, d, n),
                            all_ones_window_is_exact(ls, lk, d, n),
                            "ls={ls} lk={lk} d={d} n={n}"
                        );
                    }
                }
                // Exact at the bound itself, before rounding to a fast
                // length, and wrong one step below it.
                let (d, bound) = (2 * ls - lk, 4 * ls - lk);
                assert!(all_ones_window_is_exact(ls, lk, d, bound));
                assert!(!all_ones_window_is_exact(ls, lk, d, bound - 1));
            }
        }
    }

    #[test]
    fn valid_correlation_empty_when_kernel_longer() {
        let out = JtcOutput {
            field: vec![0.0; 64],
            correlation_center: 16,
            signal_len: 2,
            kernel_len: 5,
        };
        assert!(out.valid_correlation().is_empty());
    }
}
