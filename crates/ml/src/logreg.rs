//! Multinomial logistic regression (softmax, SGD).
//!
//! Not in the paper's Fig. 6 line-up; provided as a platform extension so
//! collaborators can register additional model types (paper Section V,
//! "Devise new ML models").

use tvdp_kernel::rng::Rng;

use crate::{dot, validate_fit_input, Classifier};

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy)]
pub struct LogRegParams {
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub l2: f32,
    /// Epochs over the training set.
    pub epochs: usize,
    /// RNG seed for sample ordering.
    pub seed: u64,
}

impl Default for LogRegParams {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            l2: 1e-5,
            epochs: 40,
            seed: 0,
        }
    }
}

/// Softmax regression trained by SGD on cross-entropy.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    pub(crate) params: LogRegParams,
    /// Per class: weights, last element is the bias.
    pub(crate) weights: Vec<Vec<f32>>,
}

impl LogisticRegression {
    /// Creates an unfitted model with default parameters.
    pub fn new() -> Self {
        Self::with_params(LogRegParams::default())
    }

    /// Creates an unfitted model with explicit parameters.
    pub fn with_params(params: LogRegParams) -> Self {
        assert!(params.learning_rate > 0.0, "learning rate must be positive");
        Self {
            params,
            weights: Vec::new(),
        }
    }

    fn softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Class probabilities for one sample.
    #[cfg(test)]
    fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        Self::softmax(&self.decision_scores(x))
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        let dim = validate_fit_input(x, y, n_classes);
        self.weights = vec![vec![0.0f32; dim + 1]; n_classes];
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut rng = Rng::seed_from_u64(self.params.seed);
        let lr = self.params.learning_rate;
        let l2 = self.params.l2;
        for _ in 0..self.params.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let logits: Vec<f32> = self
                    .weights
                    .iter()
                    .map(|w| dot(&w[..dim], &x[i]) + w[dim])
                    .collect();
                let probs = Self::softmax(&logits);
                for (c, w) in self.weights.iter_mut().enumerate() {
                    let grad = probs[c] - f32::from(y[i] == c);
                    for (wv, &xv) in w[..dim].iter_mut().zip(&x[i]) {
                        *wv -= lr * (grad * xv + l2 * *wv);
                    }
                    w[dim] -= lr * grad;
                }
            }
        }
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(!self.weights.is_empty(), "classifier not fitted");
        self.weights
            .iter()
            .map(|w| {
                let dim = w.len() - 1;
                dot(&w[..dim], x) + w[dim]
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "Logistic Regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_blobs_and_yields_probabilities() {
        let mut rng = Rng::seed_from_u64(4);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..80 {
            x.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
            y.push(0);
            x.push(vec![
                4.0 + rng.gen_range(-1.0..1.0),
                4.0 + rng.gen_range(-1.0..1.0),
            ]);
            y.push(1);
        }
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y, 2);
        assert_eq!(lr.predict_one(&[0.0, 0.0]), 0);
        assert_eq!(lr.predict_one(&[4.0, 4.0]), 1);
        let p = lr.predict_proba(&[0.0, 0.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[0] > 0.9, "p={p:?}");
    }

    #[test]
    fn probabilities_near_half_on_boundary() {
        let x = vec![vec![0.0], vec![2.0]];
        let y = vec![0, 1];
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &y, 2);
        let p = lr.predict_proba(&[1.0]);
        assert!((p[0] - 0.5).abs() < 0.2, "p={p:?}");
    }

    #[test]
    fn deterministic_under_seed() {
        let x = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![5.0, 5.0],
            vec![6.0, 4.0],
        ];
        let y = vec![0, 0, 1, 1];
        let mut a = LogisticRegression::new();
        let mut b = LogisticRegression::new();
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.weights, b.weights);
    }
}
