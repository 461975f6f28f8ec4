//! Linear-probe training.
//!
//! The accuracy experiments freeze the convolutional feature extractor (the
//! part that runs on PhotoFourier) and train a softmax linear classifier on
//! the reference features. Accuracy is then re-measured with features
//! produced by the photonic / quantised pipeline — the resulting drop plays
//! the role of the paper's "accuracy drop" metric (Table I, Figure 7).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::layers::Linear;

/// Training hyper-parameters for the linear probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Shuffling / initialisation seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.05,
            weight_decay: 1e-4,
            seed: 0,
        }
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Trains a softmax linear classifier on feature vectors with plain SGD.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] if the inputs are empty or
/// inconsistent.
pub fn train_linear_probe(
    features: &[Vec<f64>],
    labels: &[usize],
    num_classes: usize,
    config: TrainConfig,
) -> Result<Linear, NnError> {
    if features.is_empty() || features.len() != labels.len() {
        return Err(NnError::InvalidParameter {
            name: "features/labels",
            requirement: "must be non-empty and of equal length".to_string(),
        });
    }
    if num_classes < 2 {
        return Err(NnError::InvalidParameter {
            name: "num_classes",
            requirement: "need at least two classes".to_string(),
        });
    }
    let dim = features[0].len();
    if features.iter().any(|f| f.len() != dim) {
        return Err(NnError::InvalidParameter {
            name: "features",
            requirement: "all feature vectors must have the same length".to_string(),
        });
    }
    if labels.iter().any(|&l| l >= num_classes) {
        return Err(NnError::InvalidParameter {
            name: "labels",
            requirement: format!("labels must be < {num_classes}"),
        });
    }

    // Normalise features to zero mean / unit scale for stable SGD.
    let (mean, scale) = feature_statistics(features);
    let normalised: Vec<Vec<f64>> = features
        .iter()
        .map(|f| normalize(f, &mean, scale))
        .collect();

    let mut probe = Linear::random(dim, num_classes, 0.01, config.seed)?;
    let mut order: Vec<usize> = (0..normalised.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for &idx in &order {
            let x = &normalised[idx];
            let y = labels[idx];
            let logits = probe.forward(x)?;
            let probs = softmax(&logits);
            // Gradient of cross-entropy w.r.t. logits: p - onehot(y).
            for (class, &prob) in probs.iter().enumerate() {
                let grad = prob - if class == y { 1.0 } else { 0.0 };
                // Matrix stores row-major (out_features x in_features).
                let mut row: Vec<f64> = probe.weights.row(class).to_vec();
                for (j, w) in row.iter_mut().enumerate() {
                    *w -= config.learning_rate * (grad * x[j] + config.weight_decay * *w);
                }
                for (j, w) in row.iter().enumerate() {
                    probe.weights.set(class, j, *w);
                }
                probe.bias[class] -= config.learning_rate * grad;
            }
        }
    }

    // Bake the normalisation into the trained probe so evaluation can use
    // raw features: w'x_norm = w'(x - mean)/scale. Every weight is
    // overwritten below, so the random initialisation scale is irrelevant.
    let mut folded = Linear::random(dim, num_classes, 1e-6, config.seed)?;
    for class in 0..num_classes {
        let mut bias = probe.bias[class];
        for (j, &m) in mean.iter().enumerate() {
            let w = probe.weights.get(class, j) / scale;
            folded.weights.set(class, j, w);
            bias -= w * m;
        }
        folded.bias[class] = bias;
    }
    Ok(folded)
}

/// Classification accuracy of a linear probe on raw feature vectors.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] if the inputs are empty or
/// inconsistent, and propagates shape errors from the probe.
pub fn accuracy(probe: &Linear, features: &[Vec<f64>], labels: &[usize]) -> Result<f64, NnError> {
    if features.is_empty() || features.len() != labels.len() {
        return Err(NnError::InvalidParameter {
            name: "features/labels",
            requirement: "must be non-empty and of equal length".to_string(),
        });
    }
    let mut correct = 0usize;
    for (f, &y) in features.iter().zip(labels) {
        let logits = probe.forward(f)?;
        let pred = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("at least one class");
        if pred == y {
            correct += 1;
        }
    }
    Ok(correct as f64 / features.len() as f64)
}

fn feature_statistics(features: &[Vec<f64>]) -> (Vec<f64>, f64) {
    let dim = features[0].len();
    let mut mean = vec![0.0; dim];
    for f in features {
        for (m, &v) in mean.iter_mut().zip(f) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= features.len() as f64;
    }
    let mut var = 0.0;
    for f in features {
        for (m, &v) in mean.iter().zip(f) {
            var += (v - m) * (v - m);
        }
    }
    var /= (features.len() * dim) as f64;
    (mean, var.sqrt().max(1e-9))
}

fn normalize(f: &[f64], mean: &[f64], scale: f64) -> Vec<f64> {
    f.iter().zip(mean).map(|(v, m)| (v - m) / scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn softmax_properties() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stable for large logits.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_learns_separable_data() {
        // Two Gaussian clusters in 8 dimensions.
        let mut rng = StdRng::seed_from_u64(5);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let class = i % 2;
            let center = if class == 0 { 1.0 } else { -1.0 };
            features.push((0..8).map(|_| center + rng.gen_range(-0.5..0.5)).collect());
            labels.push(class);
        }
        let probe = train_linear_probe(&features, &labels, 2, TrainConfig::default()).unwrap();
        let acc = accuracy(&probe, &features, &labels).unwrap();
        assert!(acc > 0.95, "probe failed to learn separable data: {acc}");
    }

    #[test]
    fn probe_validation_errors() {
        assert!(train_linear_probe(&[], &[], 2, TrainConfig::default()).is_err());
        let f = vec![vec![1.0, 2.0]];
        assert!(train_linear_probe(&f, &[0, 1], 2, TrainConfig::default()).is_err());
        assert!(train_linear_probe(&f, &[0], 1, TrainConfig::default()).is_err());
        assert!(train_linear_probe(&f, &[5], 2, TrainConfig::default()).is_err());
        let mixed = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(train_linear_probe(&mixed, &[0, 1], 2, TrainConfig::default()).is_err());
    }

    #[test]
    fn accuracy_validation() {
        let probe = Linear::random(2, 2, 0.1, 0).unwrap();
        assert!(accuracy(&probe, &[], &[]).is_err());
        let f = vec![vec![1.0, 2.0]];
        assert!(accuracy(&probe, &f, &[0, 1]).is_err());
        assert!(accuracy(&probe, &f, &[0]).is_ok());
    }

    #[test]
    fn training_is_deterministic() {
        let features = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
        ];
        let labels = vec![0, 1, 0, 1];
        let a = train_linear_probe(&features, &labels, 2, TrainConfig::default()).unwrap();
        let b = train_linear_probe(&features, &labels, 2, TrainConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
