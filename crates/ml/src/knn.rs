//! k-nearest-neighbour classifier.

use crate::{sq_l2, validate_fit_input, Classifier};

/// k-NN with Euclidean distance and distance-weighted voting.
///
/// Stores the training set; prediction scans all samples.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    pub(crate) k: usize,
    pub(crate) weighted: bool,
    pub(crate) x: Vec<Vec<f32>>,
    pub(crate) y: Vec<usize>,
    pub(crate) n_classes: usize,
}

impl KnnClassifier {
    /// Creates an unfitted classifier with `k` neighbours and uniform votes.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        Self {
            k,
            weighted: false,
            x: Vec::new(),
            y: Vec::new(),
            n_classes: 0,
        }
    }

    /// Enables inverse-distance-weighted voting.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        validate_fit_input(x, y, n_classes);
        self.x = x.to_vec();
        self.y = y.to_vec();
        self.n_classes = n_classes;
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(self.n_classes > 0, "classifier not fitted");
        // Collect the k nearest by a single pass with a small max-heap
        // emulated as a sorted vec (k is tiny in practice).
        let k = self.k.min(self.x.len());
        let mut nearest: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for (row, &label) in self.x.iter().zip(&self.y) {
            let d = sq_l2(row, x);
            if nearest.len() < k {
                nearest.push((d, label));
                nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
            } else if d < nearest[k - 1].0 {
                nearest[k - 1] = (d, label);
                nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
            }
        }
        let mut votes = vec![0.0f32; self.n_classes];
        for &(d, label) in &nearest {
            let w = if self.weighted {
                1.0 / (d.sqrt() + 1e-6)
            } else {
                1.0
            };
            votes[label] += w;
        }
        // Normalize to a vote fraction so scores are in [0, 1].
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        let total: f32 = votes.iter().sum();
        if total > 0.0 {
            for v in &mut votes {
                *v /= total;
            }
        }
        votes
    }

    fn name(&self) -> &'static str {
        "kNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let t = i as f32 * 0.05;
            x.push(vec![t, t]);
            y.push(0);
            x.push(vec![5.0 + t, 5.0 + t]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn separable_blobs_classified() {
        let (x, y) = two_blobs();
        let mut knn = KnnClassifier::new(3);
        knn.fit(&x, &y, 2);
        assert_eq!(knn.predict_one(&[0.1, 0.1]), 0);
        assert_eq!(knn.predict_one(&[5.2, 5.2]), 1);
    }

    #[test]
    fn scores_sum_to_one() {
        let (x, y) = two_blobs();
        let mut knn = KnnClassifier::new(5);
        knn.fit(&x, &y, 2);
        let s = knn.decision_scores(&[2.5, 2.5]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let x = vec![vec![0.0], vec![10.0]];
        let y = vec![0, 1];
        let mut knn = KnnClassifier::new(50);
        knn.fit(&x, &y, 2);
        // With both neighbours voting, weighted variant must prefer closer.
        let mut w = KnnClassifier::new(50).weighted();
        w.fit(&x, &y, 2);
        assert_eq!(w.predict_one(&[1.0]), 0);
        assert_eq!(w.predict_one(&[9.0]), 1);
        // Unweighted ties are broken to the first class by argmax.
        let _ = knn.predict_one(&[5.0]);
    }

    #[test]
    fn exact_match_dominates_weighted_vote() {
        let x = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![10.0, 10.0]];
        let y = vec![0, 1, 1];
        let mut knn = KnnClassifier::new(3).weighted();
        knn.fit(&x, &y, 2);
        assert_eq!(knn.predict_one(&[0.0, 0.0]), 0);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn predict_before_fit_panics() {
        let knn = KnnClassifier::new(3);
        let _ = knn.predict_one(&[0.0]);
    }
}
