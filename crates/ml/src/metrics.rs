//! Classification metrics: confusion matrix, precision, recall, F1.
//!
//! The paper reports macro F1 scores (Fig. 6) and per-category F1 (Fig. 7);
//! this module computes both from a confusion matrix.

/// A `n_classes x n_classes` confusion matrix; rows are true classes,
/// columns predicted classes.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty matrix for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        Self {
            n_classes,
            counts: vec![0; n_classes * n_classes],
        }
    }

    /// Builds the matrix from parallel truth/prediction slices.
    pub fn from_predictions(truth: &[usize], predicted: &[usize], n_classes: usize) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut m = Self::new(n_classes);
        for (&t, &p) in truth.iter().zip(predicted) {
            m.record(t, p);
        }
        m
    }

    /// Records one observation.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.n_classes && predicted < self.n_classes,
            "class out of range"
        );
        self.counts[truth * self.n_classes + predicted] += 1;
    }

    /// Count at (truth, predicted).
    pub fn get(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.n_classes + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|c| self.get(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision of one class: TP / (TP + FP); 0 when never predicted.
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.get(class, class);
        let predicted: u64 = (0..self.n_classes).map(|t| self.get(t, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall of one class: TP / (TP + FN); 0 when the class never occurs.
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.get(class, class);
        let actual: u64 = (0..self.n_classes).map(|p| self.get(class, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 of one class (harmonic mean of precision and recall).
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean of per-class F1 — the measure in the paper's Fig. 6.
    pub fn macro_f1(&self) -> f64 {
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        (0..self.n_classes).map(|c| self.f1(c)).sum::<f64>() / self.n_classes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let m = ConfusionMatrix::from_predictions(&[0, 1, 2, 1], &[0, 1, 2, 1], 3);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
        for c in 0..3 {
            assert_eq!(m.precision(c), 1.0);
            assert_eq!(m.recall(c), 1.0);
        }
    }

    #[test]
    fn known_confusion() {
        // truth:     0 0 0 0 1 1
        // predicted: 0 0 1 1 1 0
        let m = ConfusionMatrix::from_predictions(&[0, 0, 0, 0, 1, 1], &[0, 0, 1, 1, 1, 0], 2);
        assert_eq!(m.get(0, 0), 2);
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.get(1, 1), 1);
        assert!((m.accuracy() - 0.5).abs() < 1e-12);
        // class 0: precision 2/3, recall 2/4.
        assert!((m.precision(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall(0) - 0.5).abs() < 1e-12);
        let f1_0 = 2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5);
        assert!((m.f1(0) - f1_0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_classes_yield_zero_not_nan() {
        // Class 2 never occurs and is never predicted.
        let m = ConfusionMatrix::from_predictions(&[0, 1], &[1, 0], 3);
        assert_eq!(m.precision(2), 0.0);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.f1(2), 0.0);
        assert!(!m.macro_f1().is_nan());
    }

    #[test]
    fn empty_matrix_accuracy_zero() {
        let m = ConfusionMatrix::new(2);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.total(), 0);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn record_rejects_out_of_range() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 2);
    }
}
