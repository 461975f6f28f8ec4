//! Frozen copy of the **seed** (pre-execution-engine) hot path.
//!
//! `speedup_vs_seed` in `BENCH_throughput.json` is only meaningful if the
//! reference it divides by never moves. The live code paths keep getting
//! faster (that is the point), so this module preserves the seed
//! implementation verbatim:
//!
//! * a per-call radix-2 FFT that recomputes the bit-reversal permutation and
//!   the twiddle factors (incrementally, `w *= w_len`) on every invocation —
//!   the original `pf_dsp::fft::fft_dir`;
//! * a JTC correlate that assembles the joint input plane and runs **two
//!   full-grid complex FFTs** per call — the original
//!   `JtcSimulator::output_plane`;
//! * strictly serial row tiling with no kernel preparation — the original
//!   `TiledConvolver::valid_by_row_tiling`;
//! * a CG signal chain ([`SeedCg`]) wrapping the seed optics in the
//!   unprepared mixed-signal pipeline (per-call DAC quantisation of both
//!   operands, sensing noise, output ADC) — the pre-preparation structure
//!   the stochastic backend ran before prepared kernels were extended to
//!   noisy engines.
//!
//! Do not "fix" or optimise this module; it is a measurement origin, not
//! production code.

use parking_lot::Mutex;
use pf_dsp::complex::Complex;
use pf_dsp::conv::{correlate1d, Matrix, PaddingMode};
use pf_dsp::util::next_pow2;
use pf_photonics::adc::Adc;
use pf_photonics::dac::Dac;
use pf_photonics::detector::SensingNoise;
use pf_tiling::Conv1dEngine;

/// The seed FFT: per-call bit reversal, incremental twiddles.
fn seed_fft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    assert!(n.is_power_of_two() && n > 0, "seed fft needs a pow2 length");
    let mut data = input.to_vec();

    let bits = n.trailing_zeros();
    for i in 0..n {
        let mut x = i;
        let mut j = 0usize;
        for _ in 0..bits {
            j = (j << 1) | (x & 1);
            x >>= 1;
        }
        if j > i {
            data.swap(i, j);
        }
    }

    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
    data
}

/// The seed ideal-JTC correlator (geometry identical to
/// `JtcSimulator::output_plane` at the seed commit).
#[derive(Debug, Clone, Copy)]
pub struct SeedJtc {
    capacity: usize,
    grid: usize,
}

impl SeedJtc {
    /// Builds the seed simulator for `capacity` input-plane samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            grid: next_pow2(8 * capacity.max(8)),
        }
    }

    /// The seed valid cross-correlation: joint plane, two full complex FFTs.
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        assert!(!signal.is_empty() && !kernel.is_empty());
        assert!(signal.len() <= self.capacity && kernel.len() <= self.capacity);
        if kernel.len() > signal.len() {
            return Vec::new();
        }
        let d = 2 * signal.len() + kernel.len() + 2;
        let n = self.grid.max(next_pow2(2 * d + 2 * kernel.len() + 4));

        let mut joint = vec![Complex::ZERO; n];
        for (i, &s) in signal.iter().enumerate() {
            joint[i] = Complex::from_real(s);
        }
        for (i, &k) in kernel.iter().enumerate() {
            joint[d + i] += Complex::from_real(k);
        }

        let fourier_plane = seed_fft(&joint);
        let intensity: Vec<Complex> = fourier_plane
            .iter()
            .map(|z| Complex::from_real(z.norm_sqr()))
            .collect();
        let output = seed_fft(&intensity);
        let field: Vec<f64> = output.iter().map(|z| z.re / n as f64).collect();

        let len = signal.len() - kernel.len() + 1;
        (0..len).map(|j| field[(d + n - j) % n]).collect()
    }
}

/// The seed PhotoFourier-CG signal chain: the seed joint-plane optics
/// wrapped in the unprepared mixed-signal pipeline (8-bit DAC quantisation
/// of signal and kernel per call, RMS-relative sensing noise, 8-bit output
/// ADC). Frozen like the rest of this module: the live CG path now caches
/// prepared kernel spectra and shares signal spectra, and its speedup is
/// measured against *this* pre-preparation structure.
#[derive(Debug)]
pub struct SeedCg {
    jtc: SeedJtc,
    dac: Dac,
    adc: Adc,
    noise: SensingNoise,
}

impl SeedCg {
    /// Builds the seed CG chain for `capacity` input-plane samples, with
    /// the paper's signal-chain parameters (8-bit converters, 20 dB
    /// sensing SNR, seed 0).
    pub fn new(capacity: usize) -> Self {
        Self {
            jtc: SeedJtc::new(capacity),
            dac: Dac::new(8, 10.0, 35.71).expect("seed DAC parameters are valid"),
            adc: Adc::new(8, 0.625, 0.93).expect("seed ADC parameters are valid"),
            noise: SensingNoise::from_snr_db(pf_photonics::params::TARGET_SNR_DB, 1.0, 0)
                .expect("seed SNR is valid"),
        }
    }

    /// The seed unprepared CG correlation: per-call DAC quantisation of
    /// both operands, the seed joint-plane optics, rescale, sensing noise,
    /// output ADC.
    pub fn correlate(&mut self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        let (signal_q, s_scale) = seed_quantize(&self.dac, signal);
        let (kernel_q, k_scale) = seed_quantize(&self.dac, kernel);
        let mut out = self.jtc.correlate(&signal_q, &kernel_q);
        let rescale = s_scale * k_scale;
        for v in &mut out {
            *v *= rescale;
        }
        let rms = (out.iter().map(|x| x * x).sum::<f64>() / out.len().max(1) as f64).sqrt();
        if rms > 0.0 {
            for v in out.iter_mut() {
                *v += self.noise.perturb(0.0) * rms;
            }
        }
        let full_scale = out
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(f64::EPSILON);
        self.adc.quantize_slice(&out, full_scale)
    }
}

/// The seed normalise-then-DAC operand quantisation.
fn seed_quantize(dac: &Dac, values: &[f64]) -> (Vec<f64>, f64) {
    let max_abs = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        return (values.to_vec(), 1.0);
    }
    let quantised: Vec<f64> = values
        .iter()
        .map(|&v| dac.generate(v.abs() / max_abs) * v.signum())
        .collect();
    (quantised, max_abs)
}

/// The seed 1D backends.
#[derive(Debug)]
pub enum SeedEngine<'a> {
    /// Exact digital dot-product reference.
    Digital,
    /// The seed ideal-JTC optics chain.
    Jtc(&'a SeedJtc),
    /// The seed CG signal chain (mutable noise state behind a mutex, like
    /// the live engine).
    Cg(&'a Mutex<SeedCg>),
}

/// The seed engines under the live executors (`resnet18_batch_infer`'s seed
/// leg): nothing is prepared, so every tile runs the frozen per-call chain.
impl Conv1dEngine for SeedEngine<'_> {
    fn correlate_valid(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        match self {
            SeedEngine::Digital => correlate1d(signal, kernel, PaddingMode::Valid),
            SeedEngine::Jtc(jtc) => jtc.correlate(signal, kernel),
            SeedEngine::Cg(cg) => cg.lock().correlate(signal, kernel),
        }
    }

    fn is_deterministic(&self) -> bool {
        !matches!(self, SeedEngine::Cg(_))
    }
}

/// The seed row-tiled `valid` 2D cross-correlation: serial tiles, the tiled
/// kernel rebuilt per convolution, no preparation, no parallelism. Supports
/// the full row-tiling regime (`n_conv >= kernel_rows * input_cols`), which
/// is the regime every perf scenario runs in.
pub fn seed_conv2d_valid(
    engine: &SeedEngine<'_>,
    input: &Matrix,
    kernel: &Matrix,
    n_conv: usize,
) -> Matrix {
    let si = input.cols();
    let sk = kernel.rows();
    assert!(
        n_conv >= sk * si,
        "seed path only reproduces the row-tiling regime"
    );
    let rows_per_tile = (n_conv / si).min(input.rows());
    let n_or = rows_per_tile.saturating_sub(sk).saturating_add(1).max(1);

    let out_rows = input.rows() - kernel.rows() + 1;
    let out_cols = input.cols() - kernel.cols() + 1;
    let mut out = Matrix::zeros(out_rows, out_cols);

    // Tiled kernel, rebuilt per call exactly like the seed executor did.
    let tiled_kernel_len = (sk - 1) * si + kernel.cols();
    let mut tiled_kernel = vec![0.0; tiled_kernel_len];
    for r in 0..sk {
        let dst = r * si;
        tiled_kernel[dst..dst + kernel.cols()].copy_from_slice(kernel.row(r));
    }

    let mut r0 = 0;
    while r0 < out_rows {
        let mut tiled_input = vec![0.0; n_conv];
        for i in 0..rows_per_tile {
            let r = r0 + i;
            if r >= input.rows() {
                break;
            }
            let dst = i * si;
            tiled_input[dst..dst + si].copy_from_slice(input.row(r));
        }
        let signal = &tiled_input[..rows_per_tile * si];
        let corr = engine.correlate_valid(signal, &tiled_kernel);
        for rr in 0..n_or {
            let out_r = r0 + rr;
            if out_r >= out_rows {
                break;
            }
            for c in 0..out_cols {
                out.set(out_r, c, corr[rr * si + c]);
            }
        }
        r0 += n_or;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_dsp::conv::correlate2d;
    use pf_dsp::util::max_abs_diff;

    #[test]
    fn seed_jtc_matches_digital_reference() {
        let jtc = SeedJtc::new(64);
        let signal: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.3).sin() + 0.5).collect();
        let kernel = vec![0.25, 0.5, 1.0, 0.5, 0.25];
        let optical = jtc.correlate(&signal, &kernel);
        let digital = correlate1d(&signal, &kernel, PaddingMode::Valid);
        assert_eq!(optical.len(), digital.len());
        assert!(max_abs_diff(&optical, &digital) < 1e-8);
    }

    #[test]
    fn seed_conv2d_matches_reference_on_both_engines() {
        let input = Matrix::new(
            16,
            16,
            (0..256).map(|i| (i as f64 * 0.11).sin() + 0.2).collect(),
        )
        .unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);

        let digital = seed_conv2d_valid(&SeedEngine::Digital, &input, &kernel, 256);
        assert!(max_abs_diff(digital.data(), reference.data()) < 1e-10);

        let jtc = SeedJtc::new(256);
        let optical = seed_conv2d_valid(&SeedEngine::Jtc(&jtc), &input, &kernel, 256);
        assert!(max_abs_diff(optical.data(), reference.data()) < 1e-7);
    }

    #[test]
    fn seed_cg_is_noisy_but_close() {
        use pf_dsp::util::relative_l2_error;

        let input = Matrix::new(
            16,
            16,
            (0..256).map(|i| (i as f64 * 0.13).sin() + 0.4).collect(),
        )
        .unwrap();
        let kernel = Matrix::new(3, 3, (0..9).map(|i| (i as f64 - 4.0) / 9.0).collect()).unwrap();
        let reference = correlate2d(&input, &kernel, PaddingMode::Valid);
        let cg = Mutex::new(SeedCg::new(256));
        let noisy = seed_conv2d_valid(&SeedEngine::Cg(&cg), &input, &kernel, 256);
        let err = relative_l2_error(noisy.data(), reference.data());
        assert!(err > 0.0, "the seed CG chain must actually inject noise");
        assert!(err < 0.25, "seed CG error unexpectedly large: {err}");
    }
}
