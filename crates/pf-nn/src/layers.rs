//! Layer descriptions and runtime layers.
//!
//! Two views of a network coexist:
//!
//! * [`ConvLayerSpec`] — a pure *shape* description (channels, kernel,
//!   stride, input resolution). The architecture simulator in `pf-arch`
//!   schedules and costs these without touching data; the model zoo in
//!   [`crate::models`] is expressed as lists of them.
//! * Runtime layers ([`Conv2d`], [`Linear`], [`relu`], [`max_pool2d`],
//!   [`avg_pool2d`]) — carry weights and compute activations, used by the
//!   fidelity and accuracy experiments.

use pf_dsp::conv::Matrix;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::tensor::Tensor;

/// Shape description of one convolution layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayerSpec {
    /// Layer name, e.g. `"conv3_2"`.
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (PhotoFourier executes strided convolutions at stride 1 and
    /// discards outputs, Section VI-E).
    pub stride: usize,
    /// Input feature-map height = width (all evaluated CNNs use square
    /// activations).
    pub input_size: usize,
    /// Whether `same` zero-padding is applied (true for nearly every modern
    /// CNN layer).
    pub padded: bool,
}

impl ConvLayerSpec {
    /// Creates a layer spec.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if any dimension is zero or the
    /// kernel exceeds the input size.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        input_size: usize,
        padded: bool,
    ) -> Result<Self, NnError> {
        let spec = Self {
            name: name.into(),
            in_channels,
            out_channels,
            kernel,
            stride,
            input_size,
            padded,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.in_channels == 0
            || self.out_channels == 0
            || self.kernel == 0
            || self.stride == 0
            || self.input_size == 0
        {
            return Err(NnError::InvalidParameter {
                name: "conv layer dimensions",
                requirement: "all dimensions must be non-zero".to_string(),
            });
        }
        if self.kernel > self.input_size {
            return Err(NnError::InvalidParameter {
                name: "kernel",
                requirement: format!(
                    "kernel ({}) must not exceed input size ({})",
                    self.kernel, self.input_size
                ),
            });
        }
        Ok(())
    }

    /// Output feature-map size (height = width).
    pub fn output_size(&self) -> usize {
        if self.padded {
            self.input_size.div_ceil(self.stride)
        } else {
            (self.input_size - self.kernel) / self.stride + 1
        }
    }

    /// Number of multiply-accumulate operations in this layer.
    pub fn macs(&self) -> u64 {
        let out = self.output_size() as u64;
        out * out
            * self.out_channels as u64
            * self.in_channels as u64
            * (self.kernel * self.kernel) as u64
    }

    /// Number of weight parameters.
    pub fn weight_count(&self) -> u64 {
        self.out_channels as u64 * self.in_channels as u64 * (self.kernel * self.kernel) as u64
    }

    /// Number of input activation values.
    pub fn input_activations(&self) -> u64 {
        self.in_channels as u64 * (self.input_size * self.input_size) as u64
    }

    /// Number of output activation values.
    pub fn output_activations(&self) -> u64 {
        let out = self.output_size() as u64;
        self.out_channels as u64 * out * out
    }
}

/// A runtime 2D convolution layer (cross-correlation, `same` padding
/// optional, unit stride handled natively; larger strides subsample the
/// unit-stride result as the PFCU does).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    /// Weights with shape `(out_channels, in_channels, k, k)`.
    pub weights: Tensor,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
    /// Stride.
    pub stride: usize,
    /// `same` padding when true, `valid` otherwise.
    pub padded: bool,
}

impl Conv2d {
    /// Creates a convolution layer with random weights in `[-scale, scale]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for zero-sized dimensions.
    pub fn random(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padded: bool,
        scale: f64,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidParameter {
                name: "conv dimensions",
                requirement: "must be non-zero".to_string(),
            });
        }
        let weights = Tensor::random(
            vec![out_channels, in_channels, kernel, kernel],
            -scale,
            scale,
            seed,
        );
        Ok(Self {
            weights,
            bias: vec![0.0; out_channels],
            stride,
            padded,
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.weights.shape()[2]
    }

    /// Shape spec for this layer given an input resolution.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if the kernel exceeds
    /// `input_size`.
    pub fn spec(&self, name: &str, input_size: usize) -> Result<ConvLayerSpec, NnError> {
        ConvLayerSpec::new(
            name,
            self.in_channels(),
            self.out_channels(),
            self.kernel(),
            self.stride,
            input_size,
            self.padded,
        )
    }
}

/// A fully connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix `(out_features, in_features)`.
    pub weights: Matrix,
    /// Bias per output feature.
    pub bias: Vec<f64>,
}

impl Linear {
    /// Creates a linear layer with random weights in `[-scale, scale]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for zero-sized dimensions.
    pub fn random(
        in_features: usize,
        out_features: usize,
        scale: f64,
        seed: u64,
    ) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidParameter {
                name: "linear dimensions",
                requirement: "must be non-zero".to_string(),
            });
        }
        let t = Tensor::random(vec![out_features, in_features], -scale, scale, seed);
        let weights = Matrix::new(out_features, in_features, t.to_vec())
            .expect("tensor data has matching length");
        Ok(Self {
            weights,
            bias: vec![0.0; out_features],
        })
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// Applies the layer to a flat feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input length differs from
    /// `in_features`.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>, NnError> {
        if input.len() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} features", self.in_features()),
                found: format!("{} features", input.len()),
            });
        }
        Ok((0..self.out_features())
            .map(|o| {
                self.weights
                    .row(o)
                    .iter()
                    .zip(input)
                    .map(|(w, x)| w * x)
                    .sum::<f64>()
                    + self.bias[o]
            })
            .collect())
    }
}

/// Rectified linear unit applied element-wise, in place on a tensor the
/// caller owns.
pub fn relu(mut input: Tensor) -> Tensor {
    for x in input.data_mut() {
        *x = x.max(0.0);
    }
    input
}

/// 2D max pooling with a square window and equal stride.
///
/// # Panics
///
/// Panics if the input is not 3D or the window is zero.
pub fn max_pool2d(input: &Tensor, window: usize) -> Tensor {
    pool2d(input, window, f64::NEG_INFINITY, f64::max, |m, _| m)
}

/// 2D average pooling with a square window and equal stride.
///
/// # Panics
///
/// Panics if the input is not 3D or the window is zero.
pub fn avg_pool2d(input: &Tensor, window: usize) -> Tensor {
    // `-0.0` is where `Iterator::sum` starts an `f64` sum.
    pool2d(input, window, -0.0, |s, v| s + v, |s, len| s / len as f64)
}

/// Global average pooling: reduces each channel to a single value.
///
/// # Panics
///
/// Panics if the input is not 3D.
pub fn global_avg_pool(input: &Tensor) -> Vec<f64> {
    assert_eq!(
        input.shape().len(),
        3,
        "global_avg_pool requires a 3D tensor"
    );
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    (0..c)
        .map(|ch| {
            let m = input.channel(ch);
            m.data().iter().sum::<f64>() / (h * w) as f64
        })
        .collect()
}

/// Pools every `window × window` block of each plane in place: a window's
/// value is `finish(step(..step(step(init, x₀), x₁).., xₙ), n)` over its
/// `n` samples row by row, left to right — the order a copy of the window
/// would hold them in — with no copy made. An output row's windows are
/// folded side by side, one input row at a time; each window still sees
/// its own samples in that order, so the value is the same.
fn pool2d(
    input: &Tensor,
    window: usize,
    init: f64,
    step: impl Fn(f64, f64) -> f64,
    finish: impl Fn(f64, usize) -> f64,
) -> Tensor {
    assert_eq!(input.shape().len(), 3, "pooling requires a 3D tensor");
    assert!(window > 0, "pooling window must be positive");
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    // A plane smaller than the window is one window over all of it.
    let (oh, ow) = ((h / window).max(1), (w / window).max(1));
    let (win_h, win_w) = (window.min(h), window.min(w));
    let mut out = Vec::with_capacity(c * oh * ow);
    for plane in input.data().chunks(h * w) {
        for rows in plane.chunks(w * window).take(oh) {
            let at = out.len();
            out.resize(at + ow, init);
            let folds = &mut out[at..];
            for row in rows.chunks(w).take(win_h) {
                for (fold, cols) in folds.iter_mut().zip(row.chunks(window)) {
                    for &v in &cols[..win_w] {
                        *fold = step(*fold, v);
                    }
                }
            }
            for fold in folds {
                *fold = finish(*fold, win_h * win_w);
            }
        }
    }
    Tensor::new(vec![c, oh, ow], out).expect("one value per window")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_validation_and_shapes() {
        assert!(ConvLayerSpec::new("bad", 0, 8, 3, 1, 32, true).is_err());
        assert!(ConvLayerSpec::new("bad", 8, 8, 33, 1, 32, true).is_err());
        let spec = ConvLayerSpec::new("conv1", 3, 64, 3, 1, 224, true).unwrap();
        assert_eq!(spec.output_size(), 224);
        assert_eq!(spec.weight_count(), 3 * 64 * 9);
        assert_eq!(spec.macs(), 224 * 224 * 3 * 64 * 9);
        assert_eq!(spec.input_activations(), 3 * 224 * 224);
        assert_eq!(spec.output_activations(), 64 * 224 * 224);
    }

    #[test]
    fn strided_and_unpadded_output_sizes() {
        // AlexNet conv1: 11x11 stride 4 on 224 (padded) -> 56.
        let spec = ConvLayerSpec::new("alex1", 3, 64, 11, 4, 224, true).unwrap();
        assert_eq!(spec.output_size(), 56);
        // Unpadded valid: (32 - 3)/1 + 1 = 30.
        let spec = ConvLayerSpec::new("v", 1, 1, 3, 1, 32, false).unwrap();
        assert_eq!(spec.output_size(), 30);
        // Unpadded strided: (32 - 4)/2 + 1 = 15.
        let spec = ConvLayerSpec::new("v", 1, 1, 4, 2, 32, false).unwrap();
        assert_eq!(spec.output_size(), 15);
    }

    #[test]
    fn conv2d_construction() {
        assert!(Conv2d::random(0, 4, 3, 1, true, 0.1, 0).is_err());
        let conv = Conv2d::random(3, 8, 3, 1, true, 0.1, 1).unwrap();
        assert_eq!(conv.in_channels(), 3);
        assert_eq!(conv.out_channels(), 8);
        assert_eq!(conv.kernel(), 3);
        let spec = conv.spec("c", 32).unwrap();
        assert_eq!(spec.out_channels, 8);
        assert_eq!(spec.input_size, 32);
    }

    #[test]
    fn linear_forward() {
        let mut layer = Linear::random(3, 2, 0.5, 3).unwrap();
        layer.weights = Matrix::new(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        layer.bias = vec![1.0, 0.0];
        let out = layer.forward(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(out, vec![2.0 - 6.0 + 1.0, 1.0 + 2.0 + 3.0]);
        assert!(layer.forward(&[1.0]).is_err());
        assert!(Linear::random(0, 2, 0.5, 3).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::new(vec![1, 2, 2], vec![1.0, -1.0, 0.0, -3.0]).unwrap();
        assert_eq!(relu(t).data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn max_and_avg_pooling() {
        let t = Tensor::new(
            vec![1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let mp = max_pool2d(&t, 2);
        assert_eq!(mp.shape(), &[1, 2, 2]);
        assert_eq!(mp.data(), &[6.0, 8.0, 14.0, 16.0]);
        let ap = avg_pool2d(&t, 2);
        assert_eq!(ap.data(), &[3.5, 5.5, 11.5, 13.5]);

        // Against the buffered fold the windows were reduced by before
        // they were read in place: odd sizes, planes smaller than the
        // window, and NaN and -0.0 inside a window, bit for bit.
        let buffered = |input: &Tensor, window: usize, reduce: fn(&[f64]) -> f64| {
            let (h, w) = (input.shape()[1], input.shape()[2]);
            let (oh, ow) = ((h / window).max(1), (w / window).max(1));
            let (win_h, win_w) = (window.min(h), window.min(w));
            let mut out = Vec::new();
            for plane in input.data().chunks(h * w) {
                for rows in plane.chunks(w * window).take(oh) {
                    for oc in 0..ow {
                        let mut buf = Vec::new();
                        for row in rows.chunks(w).take(win_h) {
                            buf.extend_from_slice(&row[oc * window..oc * window + win_w]);
                        }
                        out.push(reduce(&buf));
                    }
                }
            }
            out
        };
        let max_fold: fn(&[f64]) -> f64 =
            |vals| vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg_fold: fn(&[f64]) -> f64 = |vals| vals.iter().sum::<f64>() / vals.len() as f64;
        let specials = [f64::NAN, -0.0, 0.0, -1.5, f64::NEG_INFINITY, 2.25];
        for (c, h, w) in [
            (1, 5, 7),
            (2, 3, 3),
            (1, 1, 1),
            (3, 7, 2),
            (1, 2, 9),
            (2, 9, 5),
        ] {
            let data: Vec<f64> = (0..c * h * w)
                .map(|i| {
                    if i % 5 == 3 {
                        specials[(i / 5) % specials.len()]
                    } else {
                        ((i as f64) * 0.37).sin()
                    }
                })
                .collect();
            for data in [
                data.clone(),
                vec![-0.0; data.len()],
                vec![f64::NAN; data.len()],
            ] {
                let t = Tensor::new(vec![c, h, w], data).unwrap();
                for window in [1usize, 2, 3, 4, 10] {
                    for (pooled, fold) in [
                        (max_pool2d(&t, window), max_fold),
                        (avg_pool2d(&t, window), avg_fold),
                    ] {
                        let want = buffered(&t, window, fold);
                        let got: Vec<u64> = pooled.data().iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "({c}, {h}, {w}) window {window}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_average_pooling() {
        let t = Tensor::new(vec![2, 2, 2], vec![1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
        assert_eq!(global_avg_pool(&t), vec![1.0, 5.0]);
    }
}
