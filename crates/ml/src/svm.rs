//! Linear support vector machine (one-vs-rest, Pegasos SGD).
//!
//! The paper's best classifier (Fig. 6/7) is an SVM; this implementation
//! uses the Pegasos primal sub-gradient solver (Shalev-Shwartz et al.) on
//! the hinge loss with L2 regularization, one binary machine per class.

use tvdp_kernel::rng::Rng;

use crate::{dot, validate_fit_input, Classifier};

/// Hyper-parameters for [`LinearSvm`].
#[derive(Debug, Clone, Copy)]
pub struct SvmParams {
    /// L2 regularization strength λ.
    pub lambda: f32,
    /// Number of SGD epochs over the training set.
    pub epochs: usize,
    /// RNG seed for sample ordering.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        Self {
            lambda: 1e-5,
            epochs: 200,
            seed: 0,
        }
    }
}

/// One-vs-rest linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    pub(crate) params: SvmParams,
    /// Per class: weight vector (last element is the bias).
    pub(crate) weights: Vec<Vec<f32>>,
}

impl LinearSvm {
    /// Creates an unfitted SVM with default parameters.
    pub fn new() -> Self {
        Self::with_params(SvmParams::default())
    }

    /// Creates an unfitted SVM with explicit parameters.
    pub fn with_params(params: SvmParams) -> Self {
        assert!(params.lambda > 0.0, "lambda must be positive");
        assert!(params.epochs >= 1, "need at least one epoch");
        Self {
            params,
            weights: Vec::new(),
        }
    }

    /// Trains one binary Pegasos machine: labels +1 for `positive_class`.
    fn train_binary(
        &self,
        x: &[Vec<f32>],
        y: &[usize],
        positive_class: usize,
        seed: u64,
    ) -> Vec<f32> {
        let dim = x[0].len();
        let mut w = vec![0.0f32; dim + 1]; // last slot = bias
        let n = x.len();
        let lambda = self.params.lambda;
        // Class-balanced instance weights: each one-vs-rest subproblem is
        // heavily imbalanced (1 class vs 4), so positive examples get a
        // proportionally larger hinge gradient (sklearn's
        // `class_weight="balanced"`).
        let n_pos = y.iter().filter(|&&l| l == positive_class).count().max(1);
        let w_pos = n as f32 / (2.0 * n_pos as f32);
        let w_neg = n as f32 / (2.0 * (n - n_pos).max(1) as f32);
        let mut rng = Rng::seed_from_u64(seed);
        let mut t: u64 = 1;
        // Averaged Pegasos: the average of the SGD iterates over the
        // second half of training converges far more reliably than the
        // final iterate.
        let total_steps = (self.params.epochs * n) as u64;
        let burn_in = total_steps / 2;
        let mut w_avg = vec![0.0f32; dim + 1];
        let mut averaged: u64 = 0;
        for _ in 0..self.params.epochs {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let label: f32 = if y[i] == positive_class { 1.0 } else { -1.0 };
                let eta = 1.0 / (lambda * t as f32);
                let margin = label * (dot(&w[..dim], &x[i]) + w[dim]);
                // w ← (1 − ηλ)w (+ ηy·x when the margin is violated). The
                // bias shrinks with the weights (Pegasos' constant-feature
                // bias): its steps are 1/(λt) like theirs, and without the
                // matching decay the first few, ~1/λ each, never average out.
                let shrink = 1.0 - eta * lambda;
                for v in &mut w {
                    *v *= shrink;
                }
                if margin < 1.0 {
                    let cw = if label > 0.0 { w_pos } else { w_neg };
                    for (wv, &xv) in w[..dim].iter_mut().zip(&x[i]) {
                        *wv += eta * cw * label * xv;
                    }
                    w[dim] += eta * cw * label;
                }
                if t > burn_in {
                    for (a, &v) in w_avg.iter_mut().zip(&w) {
                        *a += v;
                    }
                    averaged += 1;
                }
                t += 1;
            }
        }
        if averaged > 0 {
            for a in &mut w_avg {
                *a /= averaged as f32;
            }
            w_avg
        } else {
            w
        }
    }

    /// Margin (signed distance proxy) of a sample for one class.
    pub fn margin(&self, class: usize, x: &[f32]) -> f32 {
        let w = &self.weights[class];
        let dim = w.len() - 1;
        dot(&w[..dim], x) + w[dim]
    }
}

impl Default for LinearSvm {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        validate_fit_input(x, y, n_classes);
        self.weights = (0..n_classes)
            .map(|c| self.train_binary(x, y, c, self.params.seed.wrapping_add(c as u64)))
            .collect();
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(!self.weights.is_empty(), "classifier not fitted");
        // Normalize each one-vs-rest margin by its hyperplane norm so the
        // scores are geometric distances and comparable across the binary
        // machines (uncalibrated raw margins skew the argmax).
        (0..self.weights.len())
            .map(|c| {
                let w = &self.weights[c];
                let dim = w.len() - 1;
                let norm = dot(&w[..dim], &w[..dim]).sqrt().max(1e-12);
                self.margin(c, x) / norm
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(seed: u64, n_per_class: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let centers = [[0.0f32, 0.0], [4.0, 0.0], [2.0, 4.0]];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                x.push(vec![
                    center[0] + rng.gen_range(-0.8..0.8),
                    center[1] + rng.gen_range(-0.8..0.8),
                ]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn separates_three_blobs() {
        let (x, y) = linearly_separable(1, 50);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y, 3);
        let acc = svm
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn margins_have_correct_sign_far_from_boundary() {
        let (x, y) = linearly_separable(2, 60);
        let mut svm = LinearSvm::new();
        svm.fit(&x, &y, 3);
        // Deep inside class 0's blob, its OvR margin must be positive and
        // the others negative.
        let m0 = svm.margin(0, &[0.0, 0.0]);
        let m1 = svm.margin(1, &[0.0, 0.0]);
        assert!(m0 > 0.0, "m0={m0}");
        assert!(m1 < 0.0, "m1={m1}");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = linearly_separable(3, 30);
        let mut a = LinearSvm::with_params(SvmParams {
            seed: 9,
            ..Default::default()
        });
        let mut b = LinearSvm::with_params(SvmParams {
            seed: 9,
            ..Default::default()
        });
        a.fit(&x, &y, 3);
        b.fit(&x, &y, 3);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn bias_allows_offset_boundary() {
        // 1-D classes separated at x = 10 — unsolvable without a bias term.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            x.push(vec![8.0 + (i % 10) as f32 * 0.1]);
            y.push(0);
            x.push(vec![12.0 + (i % 10) as f32 * 0.1]);
            y.push(1);
        }
        for seed in 0..8 {
            let mut svm = LinearSvm::with_params(SvmParams {
                epochs: 80,
                seed,
                ..Default::default()
            });
            svm.fit(&x, &y, 2);
            assert_eq!(svm.predict_one(&[8.5]), 0, "seed {seed}");
            assert_eq!(svm.predict_one(&[12.5]), 1, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let svm = LinearSvm::new();
        let _ = svm.predict_one(&[0.0]);
    }
}
