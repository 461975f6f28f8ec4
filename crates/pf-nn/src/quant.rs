//! Symmetric fixed-point quantisation of weights, activations and partial
//! sums.
//!
//! PhotoFourier operates at 8-bit precision by default (Table IV); the
//! accuracy experiments quantify what that costs and how temporal
//! accumulation buys it back.

use pf_dsp::conv::Matrix;
use pf_photonics::adc::{peak_magnitude, round_half_away};
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Quantisation settings for one tensor class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Number of bits (including sign).
    pub bits: u32,
    /// Whether quantisation is enabled at all.
    pub enabled: bool,
}

impl QuantConfig {
    /// 8-bit quantisation, the paper's default.
    pub fn int8() -> Self {
        Self {
            bits: 8,
            enabled: true,
        }
    }

    /// Quantisation disabled (full precision).
    pub fn disabled() -> Self {
        Self {
            bits: 32,
            enabled: false,
        }
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::int8()
    }
}

/// Quantises a single value symmetrically to `bits` levels over
/// `[-max_abs, max_abs]`.
///
/// Returns the value unchanged if `max_abs` is zero.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 31, or if `max_abs` is
/// negative or NaN.
pub fn quantize_symmetric(value: f64, max_abs: f64, bits: u32) -> f64 {
    let mut sample = [value];
    quantize_in_place(&mut sample, max_abs, bits);
    sample[0]
}

/// [`quantize_symmetric`] over a slice with one scale, overwriting it: the
/// one quantiser body, with the checks and the level count taken once per
/// call rather than once per sample, so the loop vectorises. The
/// arithmetic per sample is unchanged.
fn quantize_in_place(values: &mut [f64], max_abs: f64, bits: u32) {
    assert!(bits > 0 && bits < 32, "bits must be in 1..=31");
    if max_abs == 0.0 {
        return;
    }
    // `f64::clamp`'s own check, made once.
    assert!(
        -max_abs <= max_abs,
        "min > max, or either was NaN. min = {:?}, max = {max_abs:?}",
        -max_abs
    );
    let levels = ((1u64 << (bits - 1)) - 1) as f64;
    for v in values {
        let mut clipped = *v;
        if clipped < -max_abs {
            clipped = -max_abs;
        }
        if clipped > max_abs {
            clipped = max_abs;
        }
        *v = round_half_away(clipped / max_abs * levels) / levels * max_abs;
    }
}

/// Quantises a slice with a shared scale (its own maximum absolute value).
///
/// # Panics
///
/// Panics under the same conditions as [`quantize_symmetric`].
pub fn quantize_slice(values: &[f64], bits: u32) -> Vec<f64> {
    let mut out = values.to_vec();
    quantize_in_place(&mut out, peak_magnitude(values), bits);
    out
}

/// Quantises a tensor with a single per-tensor scale.
///
/// # Panics
///
/// Panics under the same conditions as [`quantize_symmetric`].
pub fn quantize_tensor(tensor: &Tensor, config: QuantConfig) -> Tensor {
    let mut out = tensor.clone();
    if config.enabled {
        quantize_in_place(out.data_mut(), tensor.max_abs(), config.bits);
    }
    out
}

/// The `(H, W)` planes of a `(C, H, W)` tensor, quantised as
/// [`quantize_tensor`] quantises them — one scale for the whole tensor —
/// but written straight into one matrix per channel, with no quantised
/// tensor in between.
///
/// # Panics
///
/// Panics if the tensor is not 3D, or under the conditions of
/// [`quantize_symmetric`].
pub(crate) fn quantize_planes(tensor: &Tensor, config: QuantConfig) -> Vec<Matrix> {
    let &[c, h, w] = tensor.shape() else {
        panic!("quantize_planes requires a 3D tensor");
    };
    let max_abs = tensor.max_abs();
    (0..c)
        .map(|ch| {
            let mut data = tensor.data()[ch * h * w..][..h * w].to_vec();
            if config.enabled {
                quantize_in_place(&mut data, max_abs, config.bits);
            }
            Matrix::new(h, w, data).expect("one plane per channel")
        })
        .collect()
}

/// Worst-case relative quantisation step for a given bit width.
pub fn quantization_step(bits: u32) -> f64 {
    1.0 / ((1u64 << (bits - 1)) - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_quantization_bounds() {
        let q = quantize_symmetric(0.5, 1.0, 8);
        assert!((q - 0.5).abs() <= quantization_step(8));
        assert_eq!(quantize_symmetric(2.0, 1.0, 8), 1.0);
        assert_eq!(quantize_symmetric(-2.0, 1.0, 8), -1.0);
        assert_eq!(quantize_symmetric(0.3, 0.0, 8), 0.3);
    }

    #[test]
    fn quantization_is_idempotent() {
        for &v in &[0.017, -0.93, 0.44, 1.0, -1.0] {
            let q1 = quantize_symmetric(v, 1.0, 8);
            let q2 = quantize_symmetric(q1, 1.0, 8);
            assert!((q1 - q2).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=31")]
    fn zero_bits_rejected() {
        let _ = quantize_symmetric(1.0, 1.0, 0);
    }

    #[test]
    fn slice_quantization_uses_shared_scale() {
        let values = [0.1, -0.2, 0.4];
        let q = quantize_slice(&values, 8);
        for (a, b) in values.iter().zip(&q) {
            assert!((a - b).abs() <= 0.4 * quantization_step(8) + 1e-12);
        }
        // The extreme value is representable exactly.
        assert!((q[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tensor_quantization_and_disable() {
        let t = Tensor::random(vec![2, 8, 8], -3.0, 3.0, 5);
        let q = quantize_tensor(&t, QuantConfig::int8());
        let max_err = t
            .data()
            .iter()
            .zip(q.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= t.max_abs() * quantization_step(8) + 1e-12);
        assert!(max_err > 0.0);
        let same = quantize_tensor(&t, QuantConfig::disabled());
        assert_eq!(same, t);
    }

    #[test]
    fn more_bits_less_error() {
        let t = Tensor::random(vec![1, 16, 16], -1.0, 1.0, 9);
        let err = |bits| {
            let q = quantize_tensor(
                &t,
                QuantConfig {
                    bits,
                    enabled: true,
                },
            );
            t.data()
                .iter()
                .zip(q.data())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        assert!(err(4) > err(8));
        assert!(err(8) > err(12));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(QuantConfig::default(), QuantConfig::int8());
        assert!(!QuantConfig::disabled().enabled);
        assert_eq!(QuantConfig::int8().bits, 8);
    }
}
