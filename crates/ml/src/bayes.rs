//! Gaussian naive Bayes.

use crate::{validate_fit_input, Classifier};

/// Gaussian naive Bayes: per-class, per-feature normal densities with
/// variance smoothing, log-space scoring.
#[derive(Debug, Clone, Default)]
pub struct GaussianNb {
    /// Per class: (log prior, per-feature mean, per-feature variance).
    pub(crate) classes: Vec<ClassStats>,
    pub(crate) var_smoothing: f32,
}

#[derive(Debug, Clone)]
pub(crate) struct ClassStats {
    pub(crate) log_prior: f32,
    pub(crate) mean: Vec<f32>,
    pub(crate) var: Vec<f32>,
}

impl GaussianNb {
    /// Creates an unfitted model with scikit-learn's default smoothing.
    pub fn new() -> Self {
        Self {
            classes: Vec::new(),
            var_smoothing: 1e-6,
        }
    }
}

impl Classifier for GaussianNb {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        let dim = validate_fit_input(x, y, n_classes);
        let n = x.len() as f32;
        // Global max variance scales the smoothing floor.
        let mut global_mean = vec![0.0f32; dim];
        for row in x {
            for (g, &v) in global_mean.iter_mut().zip(row) {
                *g += v;
            }
        }
        for g in &mut global_mean {
            *g /= n;
        }
        let mut global_var_max = 0.0f32;
        for d in 0..dim {
            let v: f32 = x
                .iter()
                .map(|r| (r[d] - global_mean[d]).powi(2))
                // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
                .sum::<f32>()
                / n;
            global_var_max = global_var_max.max(v);
        }
        let floor = self.var_smoothing * global_var_max.max(1e-9);

        self.classes = (0..n_classes)
            .map(|class| {
                let rows: Vec<&Vec<f32>> = x
                    .iter()
                    .zip(y)
                    .filter(|(_, &l)| l == class)
                    .map(|(r, _)| r)
                    .collect();
                if rows.is_empty() {
                    // Unseen class: uniform-ish fallback with -inf prior.
                    return ClassStats {
                        log_prior: f32::NEG_INFINITY,
                        mean: vec![0.0; dim],
                        var: vec![1.0; dim],
                    };
                }
                let m = rows.len() as f32;
                let mut mean = vec![0.0f32; dim];
                for r in &rows {
                    for (acc, &v) in mean.iter_mut().zip(r.iter()) {
                        *acc += v;
                    }
                }
                for v in &mut mean {
                    *v /= m;
                }
                let mut var = vec![0.0f32; dim];
                for r in &rows {
                    for d in 0..dim {
                        var[d] += (r[d] - mean[d]).powi(2);
                    }
                }
                for v in &mut var {
                    *v = *v / m + floor;
                }
                ClassStats {
                    log_prior: (m / n).ln(),
                    mean,
                    var,
                }
            })
            .collect();
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(!self.classes.is_empty(), "classifier not fitted");
        self.classes
            .iter()
            .map(|c| {
                if c.log_prior == f32::NEG_INFINITY {
                    return f32::NEG_INFINITY;
                }
                let mut log_lik = c.log_prior;
                for ((&xv, &mean), &var) in x.iter().zip(&c.mean).zip(&c.var) {
                    let diff = xv - mean;
                    log_lik += -0.5 * ((2.0 * std::f32::consts::PI * var).ln() + diff * diff / var);
                }
                log_lik
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "Naive Bayes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_shifted_gaussians() {
        // Deterministic pseudo-noise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let noise = ((i * 37) % 17) as f32 / 17.0 - 0.5;
            x.push(vec![0.0 + noise, 1.0 - noise]);
            y.push(0);
            x.push(vec![4.0 + noise, 5.0 + noise]);
            y.push(1);
        }
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y, 2);
        assert_eq!(nb.predict_one(&[0.2, 1.1]), 0);
        assert_eq!(nb.predict_one(&[3.9, 5.2]), 1);
    }

    #[test]
    fn prior_breaks_ties_for_majority_class() {
        // Identical feature distributions, class 1 three times as frequent.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = (i % 5) as f32;
            x.push(vec![v]);
            y.push(usize::from(i % 4 != 0));
        }
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y, 2);
        assert_eq!(nb.predict_one(&[2.0]), 1);
    }

    #[test]
    fn zero_variance_feature_does_not_nan() {
        let x = vec![
            vec![1.0, 5.0],
            vec![1.0, 6.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 0, 1, 1];
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y, 2);
        let s = nb.decision_scores(&[1.0, 5.5]);
        assert!(s.iter().all(|v| !v.is_nan()));
        assert_eq!(nb.predict_one(&[1.0, 5.5]), 0);
    }

    #[test]
    fn unseen_class_never_predicted() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
        let y = vec![0, 0, 1, 1];
        let mut nb = GaussianNb::new();
        nb.fit(&x, &y, 3); // class 2 has no samples
        for probe in [-5.0, 0.5, 10.5, 100.0] {
            assert_ne!(nb.predict_one(&[probe]), 2);
        }
    }
}
