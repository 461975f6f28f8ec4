//! A small dense tensor type.
//!
//! Activations are stored as `(channels, height, width)` and convolution
//! weights as `(out_channels, in_channels, kernel_h, kernel_w)`, both in
//! row-major order. The type deliberately stays minimal: PhotoFourier's
//! experiments need indexing, channel views, a handful of element-wise
//! operations and conversions to/from the `pf_dsp` matrix type.

use pf_dsp::conv::Matrix;
use pf_photonics::adc::peak_magnitude;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NnError;

/// Dense row-major tensor of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor from a shape and data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the data length does not equal
    /// the product of the shape, or [`NnError::InvalidParameter`] for an
    /// empty shape.
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Result<Self, NnError> {
        if shape.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "shape",
                requirement: "must have at least one dimension".to_string(),
            });
        }
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{numel} elements for shape {shape:?}"),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "shape must not be empty");
        let numel = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// Creates a tensor of uniformly distributed random values in
    /// `[low, high)` using a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or `low >= high`.
    pub fn random(shape: Vec<usize>, low: f64, high: f64, seed: u64) -> Self {
        assert!(!shape.is_empty(), "shape must not be empty");
        assert!(low < high, "low must be less than high");
        let mut rng = StdRng::seed_from_u64(seed);
        let numel = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(low..high)).collect();
        Self { shape, data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access for a 3D `(c, h, w)` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or an index is out of
    /// bounds.
    pub fn get3(&self, c: usize, h: usize, w: usize) -> f64 {
        assert_eq!(self.shape.len(), 3, "get3 requires a 3D tensor");
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w]
    }

    /// Mutable element access for a 3D `(c, h, w)` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or an index is out of
    /// bounds.
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: f64) {
        assert_eq!(self.shape.len(), 3, "set3 requires a 3D tensor");
        let (ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch && h < hh && w < ww, "index out of bounds");
        self.data[(c * hh + h) * ww + w] = v;
    }

    /// Element access for a 4D `(o, i, h, w)` tensor (convolution weights).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-dimensional or an index is out of
    /// bounds.
    pub fn get4(&self, o: usize, i: usize, h: usize, w: usize) -> f64 {
        assert_eq!(self.shape.len(), 4, "get4 requires a 4D tensor");
        let (oo, ii, hh, ww) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        assert!(o < oo && i < ii && h < hh && w < ww, "index out of bounds");
        self.data[((o * ii + i) * hh + h) * ww + w]
    }

    /// Extracts channel `c` of a 3D tensor as a [`Matrix`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or `c` is out of bounds.
    pub fn channel(&self, c: usize) -> Matrix {
        assert_eq!(self.shape.len(), 3, "channel() requires a 3D tensor");
        let (ch, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(c < ch, "channel index out of bounds");
        let start = c * h * w;
        Matrix::new(h, w, self.data[start..start + h * w].to_vec())
            .expect("channel slice has the right length")
    }

    /// Extracts the `(kernel_h, kernel_w)` filter plane for output channel
    /// `o`, input channel `i` of a 4D weight tensor as a [`Matrix`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-dimensional or an index is out of
    /// bounds.
    pub fn filter_plane(&self, o: usize, i: usize) -> Matrix {
        assert_eq!(self.shape.len(), 4, "filter_plane() requires a 4D tensor");
        let (oo, ii, kh, kw) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        assert!(o < oo && i < ii, "filter index out of bounds");
        let start = (o * ii + i) * kh * kw;
        Matrix::new(kh, kw, self.data[start..start + kh * kw].to_vec())
            .expect("filter slice has the right length")
    }

    /// Builds a 3D tensor from a list of per-channel matrices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the matrices do not all share
    /// the same shape, or [`NnError::InvalidParameter`] if the list is empty.
    pub fn from_channels(channels: &[Matrix]) -> Result<Self, NnError> {
        let first = channels.first().ok_or(NnError::InvalidParameter {
            name: "channels",
            requirement: "must contain at least one matrix".to_string(),
        })?;
        let (h, w) = (first.rows(), first.cols());
        let mut data = Vec::with_capacity(channels.len() * h * w);
        for m in channels {
            if m.rows() != h || m.cols() != w {
                return Err(NnError::ShapeMismatch {
                    expected: format!("{h}x{w}"),
                    found: format!("{}x{}", m.rows(), m.cols()),
                });
            }
            data.extend_from_slice(m.data());
        }
        Ok(Self {
            shape: vec![channels.len(), h, w],
            data,
        })
    }

    /// Applies a function element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self, NnError> {
        if self.shape != other.shape {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                found: format!("{:?}", other.shape),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Maximum absolute value (zero for an all-zero tensor).
    pub fn max_abs(&self) -> f64 {
        peak_magnitude(&self.data)
    }

    /// Flattens to a 1D vector (clones the data).
    pub fn to_vec(&self) -> Vec<f64> {
        self.data.clone()
    }

    /// Flattens to a 1D vector without copying: the tensor's own data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        assert!(Tensor::new(vec![], vec![]).is_err());
        assert!(Tensor::new(vec![2, 2], vec![1.0]).is_err());
        let t = Tensor::new(vec![2, 3], (0..6).map(|x| x as f64).collect()).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn zeros_and_random() {
        let z = Tensor::zeros(vec![2, 4]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let r1 = Tensor::random(vec![3, 3], -1.0, 1.0, 42);
        let r2 = Tensor::random(vec![3, 3], -1.0, 1.0, 42);
        assert_eq!(r1, r2);
        let r3 = Tensor::random(vec![3, 3], -1.0, 1.0, 43);
        assert_ne!(r1, r3);
        assert!(r1.data().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn indexing_3d_and_4d() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.set3(1, 2, 3, 7.0);
        assert_eq!(t.get3(1, 2, 3), 7.0);
        assert_eq!(t.get3(0, 0, 0), 0.0);

        let w = Tensor::new(vec![2, 2, 2, 2], (0..16).map(|x| x as f64).collect()).unwrap();
        assert_eq!(w.get4(0, 0, 0, 0), 0.0);
        assert_eq!(w.get4(1, 1, 1, 1), 15.0);
        assert_eq!(w.get4(1, 0, 1, 0), 10.0);
    }

    #[test]
    #[should_panic(expected = "requires a 3D tensor")]
    fn get3_on_2d_panics() {
        let t = Tensor::zeros(vec![2, 2]);
        let _ = t.get3(0, 0, 0);
    }

    #[test]
    fn channel_and_filter_views() {
        let t = Tensor::new(vec![2, 2, 3], (0..12).map(|x| x as f64).collect()).unwrap();
        let c1 = t.channel(1);
        assert_eq!(c1.rows(), 2);
        assert_eq!(c1.cols(), 3);
        assert_eq!(c1.data(), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);

        let w = Tensor::new(vec![2, 3, 2, 2], (0..24).map(|x| x as f64).collect()).unwrap();
        let f = w.filter_plane(1, 2);
        assert_eq!(f.data(), &[20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn from_channels_roundtrip() {
        let t = Tensor::random(vec![3, 4, 5], -1.0, 1.0, 7);
        let channels: Vec<Matrix> = (0..3).map(|c| t.channel(c)).collect();
        let rebuilt = Tensor::from_channels(&channels).unwrap();
        assert_eq!(rebuilt, t);
        assert!(Tensor::from_channels(&[]).is_err());
        let mismatched = vec![Matrix::zeros(2, 2), Matrix::zeros(3, 3)];
        assert!(Tensor::from_channels(&mismatched).is_err());
    }

    #[test]
    fn map_add_maxabs() {
        let a = Tensor::new(vec![2, 2], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let relu = a.map(|x| x.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
        let b = Tensor::new(vec![2, 2], vec![1.0; 4]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.data(), &[2.0, -1.0, 4.0, -3.0]);
        assert_eq!(a.max_abs(), 4.0);
        let c = Tensor::zeros(vec![3, 3]);
        assert!(a.add(&c).is_err());
    }
}
