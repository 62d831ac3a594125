//! Preprocessing + classifier pipelines.
//!
//! Scale-sensitive classifiers (SVM, logistic regression, MLP) need their
//! inputs standardized with statistics fitted on the training data only.
//! [`ScaledClassifier`] bundles a [`StandardScaler`] with any classifier
//! so the platform can persist and apply the pair as one model.

use crate::scale::StandardScaler;
use crate::Classifier;

/// A classifier that standardizes its inputs with train-split statistics.
#[derive(Debug, Clone)]
pub struct ScaledClassifier<C> {
    pub(crate) inner: C,
    pub(crate) scaler: Option<StandardScaler>,
}

impl<C: Classifier> ScaledClassifier<C> {
    /// Wraps an unfitted classifier.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            scaler: None,
        }
    }
}

impl<C: Classifier> Classifier for ScaledClassifier<C> {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        let scaler = StandardScaler::fit(x);
        let scaled = scaler.transform(x);
        self.scaler = Some(scaler);
        self.inner.fit(&scaled, y, n_classes);
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        #[expect(
            clippy::expect_used,
            reason = "Classifier contract: fit() precedes decision_scores(); documented on the trait"
        )]
        let scaler = self.scaler.as_ref().expect("classifier not fitted");
        let mut row = x.to_vec();
        scaler.transform_row(&mut row);
        self.inner.decision_scores(&row)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::LinearSvm;

    /// Two classes separated along a feature whose raw scale is huge —
    /// hard for an unscaled SGD SVM with few epochs.
    fn badly_scaled() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let j = (i % 10) as f32;
            x.push(vec![1e5 + j * 10.0, 0.001 * j]);
            y.push(0);
            x.push(vec![1.2e5 + j * 10.0, 0.001 * j]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn scaling_pipeline_handles_bad_scales() {
        let (x, y) = badly_scaled();
        let mut scaled = ScaledClassifier::new(LinearSvm::new());
        scaled.fit(&x, &y, 2);
        let acc = scaled
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "scaled pipeline accuracy {acc}");
        assert_eq!(scaled.name(), "SVM");
    }

    #[test]
    fn scores_use_train_statistics() {
        let (x, y) = badly_scaled();
        let mut scaled = ScaledClassifier::new(LinearSvm::new());
        scaled.fit(&x, &y, 2);
        // A point near the class-1 centre must classify as 1 even though
        // its raw values dwarf the second feature.
        assert_eq!(scaled.predict_one(&[1.2e5, 0.005]), 1);
        assert_eq!(scaled.predict_one(&[1.0e5, 0.005]), 0);
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn unfitted_pipeline_panics() {
        let scaled = ScaledClassifier::new(LinearSvm::new());
        let _ = scaled.predict_one(&[0.0, 0.0]);
    }
}
