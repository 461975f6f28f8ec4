//! A small runnable CNN used for the end-to-end accuracy experiments.
//!
//! The reproduction cannot ship ImageNet weights, so accuracy trends (the
//! Table I accuracy-drop numbers and the Figure 7 accuracy-vs-depth sweep)
//! are measured on this small network over the synthetic dataset of
//! [`crate::dataset`]: a fixed random convolutional feature extractor runs
//! through the *exact same numeric pipeline* as the big networks (reference
//! 2D convolution vs row-tiled execution with quantisation, noise and
//! temporal accumulation), and a linear probe trained on the reference
//! features measures how much classification accuracy each non-ideality
//! costs. See DESIGN.md for the substitution rationale.

use crate::error::NnError;
use crate::executor::Conv2dExecutor;
use crate::layers::{max_pool2d, relu, Conv2d};
use crate::tensor::Tensor;

/// A two-convolution-layer feature extractor with fixed (seeded) random
/// weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallCnn {
    conv1: Conv2d,
    conv2: Conv2d,
    input_channels: usize,
    input_size: usize,
}

impl SmallCnn {
    /// Creates the extractor for `input_channels`×`input_size`×`input_size`
    /// images.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if the input size is not a
    /// multiple of 4 (two 2× poolings) or any dimension is zero.
    pub fn new(input_channels: usize, input_size: usize, seed: u64) -> Result<Self, NnError> {
        if input_channels == 0 || input_size == 0 || !input_size.is_multiple_of(4) {
            return Err(NnError::InvalidParameter {
                name: "input_size",
                requirement: "must be a non-zero multiple of 4".to_string(),
            });
        }
        Ok(Self {
            conv1: Conv2d::random(input_channels, 8, 3, 1, true, 0.5, seed)?,
            conv2: Conv2d::random(8, 16, 3, 1, true, 0.35, seed.wrapping_add(1))?,
            input_channels,
            input_size,
        })
    }

    /// Number of features produced by [`SmallCnn::features`].
    pub fn feature_len(&self) -> usize {
        16 * (self.input_size / 4) * (self.input_size / 4)
    }

    /// The first convolution layer (exposed for fidelity studies).
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// The second convolution layer.
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// Extracts the flattened feature vector of one image using the supplied
    /// convolution executor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the image does not have the
    /// configured shape, or propagates executor errors.
    pub fn features(
        &self,
        image: &Tensor,
        executor: &dyn Conv2dExecutor,
    ) -> Result<Vec<f64>, NnError> {
        if image.shape() != [self.input_channels, self.input_size, self.input_size] {
            return Err(NnError::ShapeMismatch {
                expected: format!(
                    "[{}, {}, {}]",
                    self.input_channels, self.input_size, self.input_size
                ),
                found: format!("{:?}", image.shape()),
            });
        }
        let x = executor.forward(image, &self.conv1)?;
        let x = max_pool2d(&relu(x), 2);
        let x = executor.forward(&x, &self.conv2)?;
        Ok(max_pool2d(&relu(x), 2).into_vec())
    }

    /// Extracts features for a whole batch of images.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmallCnn::features`].
    pub fn features_batch(
        &self,
        images: &[Tensor],
        executor: &dyn Conv2dExecutor,
    ) -> Result<Vec<Vec<f64>>, NnError> {
        images
            .iter()
            .map(|img| self.features(img, executor))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ReferenceExecutor;

    #[test]
    fn construction_validation() {
        assert!(SmallCnn::new(0, 16, 1).is_err());
        assert!(SmallCnn::new(1, 15, 1).is_err());
        assert!(SmallCnn::new(1, 16, 1).is_ok());
    }

    #[test]
    fn feature_dimensions() {
        let cnn = SmallCnn::new(1, 16, 7).unwrap();
        assert_eq!(cnn.feature_len(), 16 * 4 * 4);
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 3);
        let feats = cnn.features(&image, &ReferenceExecutor).unwrap();
        assert_eq!(feats.len(), cnn.feature_len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SmallCnn::new(1, 16, 7).unwrap();
        let b = SmallCnn::new(1, 16, 7).unwrap();
        assert_eq!(a, b);
        let image = Tensor::random(vec![1, 16, 16], 0.0, 1.0, 3);
        let fa = a.features(&image, &ReferenceExecutor).unwrap();
        let fb = b.features(&image, &ReferenceExecutor).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn rejects_wrong_image_shape() {
        let cnn = SmallCnn::new(1, 16, 7).unwrap();
        let bad = Tensor::random(vec![3, 16, 16], 0.0, 1.0, 3);
        assert!(cnn.features(&bad, &ReferenceExecutor).is_err());
    }

    #[test]
    fn batch_features() {
        let cnn = SmallCnn::new(1, 16, 9).unwrap();
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::random(vec![1, 16, 16], 0.0, 1.0, i))
            .collect();
        let feats = cnn.features_batch(&images, &ReferenceExecutor).unwrap();
        assert_eq!(feats.len(), 3);
        assert!(feats.iter().all(|f| f.len() == cnn.feature_len()));
    }
}
