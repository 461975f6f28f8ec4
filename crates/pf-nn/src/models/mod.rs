//! The CNN model zoo used in the paper's evaluation.
//!
//! Each network is described as the ordered list of its convolution layers
//! ([`crate::layers::ConvLayerSpec`]); the paper only accelerates and
//! benchmarks convolution layers since they contribute more than 99% of the
//! MACs (Section VI-A). Fully-connected layers and poolings are therefore
//! not part of the performance model, but the runnable
//! [`small::SmallCnn`] includes them for the end-to-end accuracy experiments.

pub mod cifar;
pub mod imagenet;
pub mod small;

use serde::{Deserialize, Serialize};

use crate::layers::ConvLayerSpec;

/// A network described by its convolution layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name, e.g. "VGG-16".
    pub name: String,
    /// Input image resolution (height = width).
    pub input_size: usize,
    /// Number of classifier outputs.
    pub num_classes: usize,
    /// Convolution layers, in execution order.
    pub conv_layers: Vec<ConvLayerSpec>,
}

impl NetworkSpec {
    /// Total multiply-accumulate count over all convolution layers.
    pub fn total_macs(&self) -> u64 {
        self.conv_layers.iter().map(|l| l.macs()).sum()
    }

    /// Largest single-layer activation footprint in values (input or
    /// output), which sizes the activation SRAM (Section V-A requires 2×
    /// this for ping-pong buffering).
    pub fn max_activation_values(&self) -> u64 {
        self.conv_layers
            .iter()
            .map(|l| l.input_activations().max(l.output_activations()))
            .max()
            .unwrap_or(0)
    }

    /// Largest single-layer weight footprint in values, which sizes the
    /// weight SRAM.
    pub fn max_layer_weights(&self) -> u64 {
        self.conv_layers
            .iter()
            .map(|l| l.weight_count())
            .max()
            .unwrap_or(0)
    }

    /// Number of convolution layers.
    pub fn num_conv_layers(&self) -> usize {
        self.conv_layers.len()
    }
}

/// All five ImageNet-scale CNNs the paper benchmarks in Table III and
/// Section VI (AlexNet, VGG-16, ResNet-18/34/50).
pub fn paper_benchmark_suite() -> Vec<NetworkSpec> {
    vec![
        imagenet::alexnet(),
        imagenet::vgg16(),
        imagenet::resnet18(),
        imagenet::resnet34(),
        imagenet::resnet50(),
    ]
}

/// The three networks used for the prior-work comparison of Figure 13.
pub fn comparison_suite() -> Vec<NetworkSpec> {
    vec![imagenet::alexnet(), imagenet::vgg16(), imagenet::resnet18()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contents() {
        let suite = paper_benchmark_suite();
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"AlexNet"));
        assert!(names.contains(&"VGG-16"));
        assert!(names.contains(&"ResNet-50"));
        assert_eq!(comparison_suite().len(), 3);
    }

    #[test]
    fn aggregate_statistics_are_positive() {
        for net in paper_benchmark_suite() {
            assert!(net.total_macs() > 0, "{} has zero MACs", net.name);
            let weights: u64 = net.conv_layers.iter().map(|l| l.weight_count()).sum();
            assert!(weights > 0);
            assert!(net.max_activation_values() > 0);
            assert!(net.num_conv_layers() > 0);
        }
    }
}
