//! Property-based tests for the DSP substrate.

use pf_dsp::complex::Complex;
use pf_dsp::conv::{conv1d, conv1d_fft, correlate2d, Matrix, PaddingMode};
use pf_dsp::fft::{dft, fft, fft_real, fftshift, ifft, ifftshift};
use pf_dsp::plan::{FftPlan, RealFftPlan};
use pf_dsp::util::{max_abs_diff, next_pow2};
use proptest::prelude::*;

fn real_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..=max_len)
}

fn complex_vec_pow2() -> impl Strategy<Value = Vec<Complex>> {
    (0u32..7).prop_flat_map(|log| {
        let n = 1usize << log;
        prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), n..=n)
            .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
    })
}

proptest! {
    #[test]
    fn fft_ifft_roundtrip(x in complex_vec_pow2()) {
        let back = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-7);
        }
    }

    #[test]
    fn fft_matches_dft(x in complex_vec_pow2()) {
        let a = fft(&x).unwrap();
        let b = dft(&x).unwrap();
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((*p - *q).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_is_linear(x in complex_vec_pow2(), scale in -10.0f64..10.0) {
        let scaled: Vec<Complex> = x.iter().map(|z| z.scale(scale)).collect();
        let fx = fft(&x).unwrap();
        let fs = fft(&scaled).unwrap();
        for (a, b) in fx.iter().zip(&fs) {
            prop_assert!((a.scale(scale) - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn fftshift_roundtrips(x in real_vec(64)) {
        prop_assert_eq!(ifftshift(&fftshift(&x)), x);
    }

    #[test]
    fn shared_plan_matches_fft_bit_for_bit(x in complex_vec_pow2()) {
        // The free functions are thin wrappers over the shared plan, so the
        // two APIs must agree exactly — not within a tolerance.
        let plan = FftPlan::shared(x.len()).unwrap();
        let a = plan.fft(&x).unwrap();
        let b = fft(&x).unwrap();
        for (p, q) in a.iter().zip(&b) {
            prop_assert_eq!(p.re.to_bits(), q.re.to_bits());
            prop_assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
        let ai = plan.ifft(&x).unwrap();
        let bi = ifft(&x).unwrap();
        for (p, q) in ai.iter().zip(&bi) {
            prop_assert_eq!(p.re.to_bits(), q.re.to_bits());
            prop_assert_eq!(p.im.to_bits(), q.im.to_bits());
        }
    }

    #[test]
    fn shared_plan_matches_dft(x in complex_vec_pow2()) {
        let plan = FftPlan::shared(x.len()).unwrap();
        let a = plan.fft(&x).unwrap();
        let b = dft(&x).unwrap();
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((*p - *q).abs() < 1e-6);
        }
    }

    #[test]
    fn real_fft_plan_matches_full_fft(x in real_vec(63), log in 6u32..9) {
        // Half-spectrum of the real-input plan == the matching bins of the
        // full complex transform of the zero-padded signal.
        let n = 1usize << log;
        let plan = RealFftPlan::shared(n).unwrap();
        let mut scratch = Vec::new();
        let mut half = Vec::new();
        plan.forward_real_into(&x, &mut scratch, &mut half).unwrap();
        let mut padded = x.clone();
        padded.resize(n, 0.0);
        let full = fft_real(&padded).unwrap();
        prop_assert_eq!(half.len(), n / 2 + 1);
        for k in 0..=(n / 2) {
            prop_assert!((half[k] - full[k]).abs() < 1e-8, "bin {} of n={}", k, n);
        }
    }

    #[test]
    fn conv_full_length_and_commutativity(a in real_vec(48), b in real_vec(16)) {
        let ab = conv1d(&a, &b, PaddingMode::Full);
        let ba = conv1d(&b, &a, PaddingMode::Full);
        prop_assert_eq!(ab.len(), a.len() + b.len() - 1);
        prop_assert!(max_abs_diff(&ab, &ba) < 1e-8);
    }

    #[test]
    fn conv_fft_matches_direct(a in real_vec(64), b in real_vec(12)) {
        let direct = conv1d(&a, &b, PaddingMode::Full);
        let fast = conv1d_fft(&a, &b).unwrap();
        prop_assert_eq!(direct.len(), fast.len());
        prop_assert!(max_abs_diff(&direct, &fast) < 1e-6);
    }

    #[test]
    fn conv_distributes_over_addition(a in real_vec(32), b in real_vec(8), c_seed in real_vec(8)) {
        // pad b and c to same length
        let len = b.len().max(c_seed.len());
        let mut b2 = b.clone(); b2.resize(len, 0.0);
        let mut c2 = c_seed.clone(); c2.resize(len, 0.0);
        let sum: Vec<f64> = b2.iter().zip(&c2).map(|(x, y)| x + y).collect();
        let lhs = conv1d(&a, &sum, PaddingMode::Full);
        let rb = conv1d(&a, &b2, PaddingMode::Full);
        let rc = conv1d(&a, &c2, PaddingMode::Full);
        let rhs: Vec<f64> = rb.iter().zip(&rc).map(|(x, y)| x + y).collect();
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-7);
    }

    #[test]
    fn valid_mode_is_subslice_of_full(a in real_vec(40), b in real_vec(10)) {
        prop_assume!(b.len() <= a.len());
        let full = conv1d(&a, &b, PaddingMode::Full);
        let valid = conv1d(&a, &b, PaddingMode::Valid);
        prop_assert_eq!(valid.len(), a.len() - b.len() + 1);
        let start = b.len() - 1;
        prop_assert!(max_abs_diff(&valid, &full[start..start + valid.len()]) < 1e-12);
    }

    #[test]
    fn correlate2d_valid_dims(rows in 1usize..8, cols in 1usize..8, kr in 1usize..4, kc in 1usize..4) {
        prop_assume!(kr <= rows && kc <= cols);
        let input = Matrix::new(rows, cols, vec![1.0; rows * cols]).unwrap();
        let kernel = Matrix::new(kr, kc, vec![1.0; kr * kc]).unwrap();
        let out = correlate2d(&input, &kernel, PaddingMode::Valid);
        prop_assert_eq!(out.rows(), rows - kr + 1);
        prop_assert_eq!(out.cols(), cols - kc + 1);
        // All-ones input and kernel -> every output equals kernel size.
        for &v in out.data() {
            prop_assert!((v - (kr * kc) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn next_pow2_properties(n in 0usize..100_000) {
        let p = next_pow2(n);
        prop_assert!(p >= n.max(1));
        prop_assert!(p.is_power_of_two());
        prop_assert!(p < 2 * n.max(1));
    }

    #[test]
    fn parseval(x in complex_vec_pow2()) {
        let y = fft(&x).unwrap();
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() <= 1e-6 * te.max(1.0));
    }
}
