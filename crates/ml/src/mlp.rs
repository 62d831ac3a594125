//! A single-hidden-layer perceptron (ReLU + softmax) trained by SGD.
//!
//! Two roles in TVDP:
//!
//! * as a registered classifier ("devise new ML models", paper Section V),
//! * as the *fine-tuning head* for CNN features: the paper fine-tunes its
//!   Caffe network on the training split before extracting features; we
//!   reproduce that step by training this head on the random-convolution
//!   embedding and exposing [`Mlp::hidden_activations`] as the fine-tuned
//!   feature vector.

use tvdp_kernel::rng::Rng;

use crate::{validate_fit_input, Classifier};

/// Hyper-parameters for [`Mlp`].
#[derive(Debug, Clone, Copy)]
pub struct MlpParams {
    /// Hidden-layer width.
    pub hidden: usize,
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub l2: f32,
    /// Seed for init and sample order.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self {
            hidden: 64,
            epochs: 40,
            learning_rate: 0.01,
            l2: 1e-5,
            seed: 0,
        }
    }
}

/// One-hidden-layer MLP classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) params: MlpParams,
    pub(crate) dim: usize,
    pub(crate) n_classes: usize,
    /// Hidden weights, `[hidden][dim]` flattened; plus per-unit bias.
    pub(crate) w1: Vec<f32>,
    pub(crate) b1: Vec<f32>,
    /// Output weights, `[classes][hidden]` flattened; plus per-class bias.
    pub(crate) w2: Vec<f32>,
    pub(crate) b2: Vec<f32>,
}

impl Mlp {
    /// Creates an unfitted network with default parameters.
    pub fn new() -> Self {
        Self::with_params(MlpParams::default())
    }

    /// Creates an unfitted network with explicit parameters.
    pub fn with_params(params: MlpParams) -> Self {
        assert!(params.hidden >= 1, "need at least one hidden unit");
        assert!(params.learning_rate > 0.0, "learning rate must be positive");
        Self {
            params,
            dim: 0,
            n_classes: 0,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: Vec::new(),
        }
    }

    fn forward_hidden(&self, x: &[f32], hidden: &mut [f32]) {
        for (j, (out, bias)) in hidden.iter_mut().zip(&self.b1).enumerate() {
            let mut acc = *bias;
            let row = &self.w1[j * self.dim..(j + 1) * self.dim];
            for (w, &v) in row.iter().zip(x) {
                acc += w * v;
            }
            *out = acc.max(0.0);
        }
    }

    fn forward_logits(&self, hidden: &[f32], logits: &mut [f32]) {
        let h = self.params.hidden;
        for (c, (out, bias)) in logits.iter_mut().zip(&self.b2).enumerate() {
            let mut acc = *bias;
            let row = &self.w2[c * h..(c + 1) * h];
            for (w, &v) in row.iter().zip(hidden) {
                acc += w * v;
            }
            *out = acc;
        }
    }

    /// ReLU hidden activations for a sample — the fine-tuned feature
    /// vector of length `params.hidden`.
    pub fn hidden_activations(&self, x: &[f32]) -> Vec<f32> {
        assert!(self.dim > 0, "classifier not fitted");
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut hidden = vec![0.0f32; self.params.hidden];
        self.forward_hidden(x, &mut hidden);
        hidden
    }

    fn softmax_inplace(logits: &mut [f32]) {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for l in logits.iter_mut() {
            *l = (*l - max).exp();
            // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
            sum += *l;
        }
        for l in logits.iter_mut() {
            *l /= sum;
        }
    }
}

impl Default for Mlp {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for Mlp {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        let dim = validate_fit_input(x, y, n_classes);
        self.dim = dim;
        self.n_classes = n_classes;
        let h = self.params.hidden;
        let mut rng = Rng::seed_from_u64(self.params.seed);
        let mut gaussian = |scale: f32| {
            let u1: f32 = rng.gen_range(1e-7..1.0f32);
            let u2: f32 = rng.gen_range(0.0..1.0f32);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * scale
        };
        let s1 = (2.0 / dim as f32).sqrt();
        self.w1 = (0..h * dim).map(|_| gaussian(s1)).collect();
        self.b1 = vec![0.0; h];
        let s2 = (2.0 / h as f32).sqrt();
        self.w2 = (0..n_classes * h).map(|_| gaussian(s2)).collect();
        self.b2 = vec![0.0; n_classes];

        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut hidden = vec![0.0f32; h];
        let mut logits = vec![0.0f32; n_classes];
        let lr = self.params.learning_rate;
        let l2 = self.params.l2;
        for _ in 0..self.params.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                self.forward_hidden(&x[i], &mut hidden);
                self.forward_logits(&hidden, &mut logits);
                Self::softmax_inplace(&mut logits);
                // Output-layer gradient: dL/dlogit_c = p_c - [c == y].
                // Hidden gradient accumulates through w2 before we mutate it.
                let mut dhidden = vec![0.0f32; h];
                for (c, &logit) in logits.iter().enumerate() {
                    let g = logit - f32::from(y[i] == c);
                    let row = &mut self.w2[c * h..(c + 1) * h];
                    for j in 0..h {
                        dhidden[j] += g * row[j];
                        row[j] -= lr * (g * hidden[j] + l2 * row[j]);
                    }
                    self.b2[c] -= lr * g;
                }
                for j in 0..h {
                    if hidden[j] <= 0.0 {
                        continue; // ReLU gate
                    }
                    let g = dhidden[j];
                    let row = &mut self.w1[j * self.dim..(j + 1) * self.dim];
                    for (w, &v) in row.iter_mut().zip(&x[i]) {
                        *w -= lr * (g * v + l2 * *w);
                    }
                    self.b1[j] -= lr * g;
                }
            }
        }
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(self.dim > 0, "classifier not fitted");
        let mut hidden = vec![0.0f32; self.params.hidden];
        self.forward_hidden(x, &mut hidden);
        let mut logits = vec![0.0f32; self.n_classes];
        self.forward_logits(&hidden, &mut logits);
        logits
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            x.push(vec![a, b]);
            y.push(usize::from((a > 0.5) != (b > 0.5)));
        }
        (x, y)
    }

    fn accuracy(model: &impl Classifier, x: &[Vec<f32>], y: &[usize]) -> f64 {
        let preds = model.predict(x);
        preds.iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
    }

    /// Holds for every seed, not one stream: the hidden layer separates
    /// the XOR quadrants a linear boundary cannot.
    #[test]
    fn learns_xor_unlike_linear_models() {
        let (x, y) = xor_data(300, 1);
        for seed in 0..6 {
            let mut mlp = Mlp::with_params(MlpParams {
                hidden: 16,
                epochs: 120,
                seed,
                ..Default::default()
            });
            mlp.fit(&x, &y, 2);
            let mut linear = crate::LogisticRegression::with_params(crate::logreg::LogRegParams {
                seed,
                ..Default::default()
            });
            linear.fit(&x, &y, 2);
            let (acc, linear_acc) = (accuracy(&mlp, &x, &y), accuracy(&linear, &x, &y));
            assert!(acc > 0.8, "seed {seed}: MLP XOR accuracy {acc}");
            assert!(
                linear_acc < 0.7,
                "seed {seed}: linear XOR accuracy {linear_acc}"
            );
        }
    }

    #[test]
    fn hidden_activations_nonnegative_and_sized() {
        let (x, y) = xor_data(100, 2);
        let mut mlp = Mlp::new();
        mlp.fit(&x, &y, 2);
        let hidd = mlp.hidden_activations(&x[0]);
        assert_eq!(hidd.len(), 64);
        assert!(hidd.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = xor_data(80, 3);
        let mut a = Mlp::new();
        let mut b = Mlp::new();
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.hidden_activations(&x[0]), b.hidden_activations(&x[0]));
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let mlp = Mlp::new();
        let _ = mlp.predict_one(&[0.0, 0.0]);
    }
}
