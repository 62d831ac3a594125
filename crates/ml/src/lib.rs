//! Machine-learning substrate for the Translational Visual Data Platform.
//!
//! The paper's analysis layer (Section V and the Section VII case study)
//! trains and compares classic classifiers over image feature vectors using
//! scikit-learn. This crate provides the same algorithm family from
//! scratch, deterministic under explicit seeds:
//!
//! * classifiers: [`knn::KnnClassifier`], [`tree::DecisionTree`],
//!   [`bayes::GaussianNb`], [`forest::RandomForest`], [`svm::LinearSvm`]
//!   (one-vs-rest Pegasos), [`logreg::LogisticRegression`] — the five used
//!   in the paper's Fig. 6 plus logistic regression as an extension,
//! * clustering: [`cluster::KMeans`] (k-means++), used to build the
//!   SIFT-BoW visual dictionary,
//! * preprocessing: [`scale::StandardScaler`],
//! * evaluation: [`metrics::ConfusionMatrix`] (precision / recall / F1),
//!   stratified splits and k-fold cross-validation in [`data`] and [`eval`].
//!
//! Every classifier implements the [`Classifier`] trait and can report
//! per-class decision scores, which the edge crate's crowd-based learning
//! loop uses for margin-based sample prioritization.

pub mod bayes;
pub mod cluster;
pub mod data;
pub mod eval;
pub mod forest;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod mlp;
pub mod model_io;
pub mod pipeline;
pub mod scale;
pub mod svm;
pub mod tree;

pub use bayes::GaussianNb;
pub use cluster::KMeans;
pub use data::{kfold_indices, stratified_split, Dataset};
pub use eval::{cross_validate, cross_validate_with_pool, CvResult};
pub use forest::RandomForest;
pub use knn::KnnClassifier;
pub use logreg::LogisticRegression;
pub use metrics::ConfusionMatrix;
pub use mlp::{Mlp, MlpParams};
pub use model_io::SerializableModel;
pub use pipeline::ScaledClassifier;
pub use scale::StandardScaler;
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A trained multi-class classifier over dense `f32` feature vectors.
///
/// Implementations must be fitted with [`Classifier::fit`] before
/// prediction; predicting on an unfitted model panics (programming error,
/// not data error).
///
/// ```
/// use tvdp_ml::{Classifier, LinearSvm};
///
/// let x = vec![vec![0.0, 0.0], vec![0.3, 0.1], vec![5.0, 5.0], vec![5.2, 4.9]];
/// let y = vec![0, 0, 1, 1];
/// let mut svm = LinearSvm::new();
/// svm.fit(&x, &y, 2);
/// assert_eq!(svm.predict_one(&[0.1, 0.2]), 0);
/// assert_eq!(svm.predict_one(&[5.0, 5.1]), 1);
/// ```
pub trait Classifier {
    /// Trains on feature rows `x` with labels `y` in `0..n_classes`.
    ///
    /// # Panics
    ///
    /// Panics when `x` and `y` disagree in length, `x` is empty, rows have
    /// inconsistent dimensionality, or a label is `>= n_classes`.
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize);

    /// Per-class decision scores for one sample. Higher means more likely.
    /// The winning class is `argmax`. Scores are comparable *within* one
    /// call, not across models.
    fn decision_scores(&self, x: &[f32]) -> Vec<f32>;

    /// Predicted class for one sample.
    fn predict_one(&self, x: &[f32]) -> usize {
        argmax(&self.decision_scores(x))
    }

    /// Predicted classes for a batch.
    fn predict(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict_one(x)).collect()
    }

    /// Human-readable algorithm name (used in experiment reports).
    fn name(&self) -> &'static str;
}

/// Index of the maximum value (first on ties). Panics on empty input.
pub fn argmax(scores: &[f32]) -> usize {
    assert!(!scores.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Validates a training-set shape shared by all classifiers.
pub(crate) fn validate_fit_input(x: &[Vec<f32>], y: &[usize], n_classes: usize) -> usize {
    assert!(!x.is_empty(), "empty training set");
    assert_eq!(x.len(), y.len(), "feature/label length mismatch");
    assert!(n_classes >= 2, "need at least two classes");
    let dim = x[0].len();
    assert!(dim > 0, "zero-dimensional features");
    for (i, row) in x.iter().enumerate() {
        assert_eq!(
            row.len(),
            dim,
            "row {i} has dimension {} != {dim}",
            row.len()
        );
    }
    for (i, &label) in y.iter().enumerate() {
        assert!(
            label < n_classes,
            "label {label} at row {i} >= n_classes {n_classes}"
        );
    }
    dim
}

// Vector primitives come from the shared kernel crate (the workspace's
// single SIMD-friendly implementation); re-exported under the names this
// crate has always used.
pub use tvdp_kernel::dot;
#[doc(inline)]
pub use tvdp_kernel::l2_sq as sq_l2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "argmax of empty")]
    fn argmax_empty_panics() {
        let _ = argmax(&[]);
    }

    #[test]
    fn vector_math() {
        let a = [1.0, 0.0, 2.0];
        let b = [0.0, 1.0, 2.0];
        assert_eq!(sq_l2(&a, &b), 2.0);
        assert_eq!(dot(&a, &b), 4.0);
    }

    #[test]
    #[should_panic(expected = "feature/label length mismatch")]
    fn validate_rejects_mismatch() {
        validate_fit_input(&[vec![1.0]], &[0, 1], 2);
    }

    #[test]
    #[should_panic(expected = ">= n_classes")]
    fn validate_rejects_bad_label() {
        validate_fit_input(&[vec![1.0], vec![2.0]], &[0, 5], 2);
    }
}
