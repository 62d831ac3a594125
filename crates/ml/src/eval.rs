//! Model evaluation: k-fold cross-validation.
//!
//! The paper's protocol (Section VII-A) trains on 80% of the data with
//! 10-fold cross-validation and reports F1.
use tvdp_kernel::Pool;

use crate::data::{kfold_indices, Dataset};
use crate::metrics::ConfusionMatrix;
use crate::Classifier;

/// Aggregate result of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Macro F1 per fold.
    pub fold_f1: Vec<f64>,
    /// Accuracy per fold.
    pub fold_accuracy: Vec<f64>,
}

impl CvResult {
    /// Mean macro F1 across folds.
    pub fn mean_f1(&self) -> f64 {
        mean(&self.fold_f1)
    }

    /// Sample standard deviation of fold F1.
    pub fn std_f1(&self) -> f64 {
        let m = self.mean_f1();
        let n = self.fold_f1.len();
        if n < 2 {
            return 0.0;
        }
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        (self.fold_f1.iter().map(|&v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs `k`-fold cross-validation: for each fold, trains a fresh classifier
/// from `make_model` on the training part and scores the validation part.
/// Folds run on the global pool; see [`cross_validate_with_pool`].
pub fn cross_validate<C, F>(data: &Dataset, k: usize, seed: u64, make_model: F) -> CvResult
where
    C: Classifier + Send,
    F: Fn() -> C + Sync,
{
    cross_validate_with_pool(data, k, seed, make_model, Pool::global())
}

/// [`cross_validate`] with an explicit worker pool. Every fold is an
/// independent train/score job (fold splits are fixed up front by
/// `kfold_indices`, and each fold builds its own model and RNG state), so
/// per-fold scores are bit-identical for every thread count; fold order in
/// the result always matches the fold index order.
pub fn cross_validate_with_pool<C, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    make_model: F,
    pool: &Pool,
) -> CvResult
where
    C: Classifier + Send,
    F: Fn() -> C + Sync,
{
    let folds = kfold_indices(data.len(), k, seed);
    let scores: Vec<(f64, f64)> = pool.map(&folds, |_, (train_idx, val_idx)| {
        let train = data.subset(train_idx);
        let val = data.subset(val_idx);
        let mut model = make_model();
        model.fit(&train.features, &train.labels, data.n_classes);
        let preds = model.predict(&val.features);
        let cm = ConfusionMatrix::from_predictions(&val.labels, &preds, data.n_classes);
        (cm.macro_f1(), cm.accuracy())
    });
    let (fold_f1, fold_accuracy) = scores.into_iter().unzip();
    CvResult {
        fold_f1,
        fold_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnClassifier;
    use tvdp_kernel::rng::Rng;

    fn blob_dataset(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            let cx = c as f32 * 5.0;
            for _ in 0..n_per_class {
                features.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        Dataset::new(features, labels, 3)
    }

    #[test]
    fn cv_on_separable_data_scores_high() {
        let data = blob_dataset(30, 1);
        let result = cross_validate(&data, 5, 42, || KnnClassifier::new(3));
        assert_eq!(result.fold_f1.len(), 5);
        assert!(result.mean_f1() > 0.9, "mean f1 {}", result.mean_f1());
        assert!(mean(&result.fold_accuracy) > 0.9);
    }

    #[test]
    fn cv_deterministic() {
        let data = blob_dataset(20, 2);
        let a = cross_validate(&data, 4, 9, || KnnClassifier::new(3));
        let b = cross_validate(&data, 4, 9, || KnnClassifier::new(3));
        assert_eq!(a.fold_f1, b.fold_f1);
    }

    #[test]
    fn std_f1_zero_for_single_fold_list() {
        let r = CvResult {
            fold_f1: vec![0.8],
            fold_accuracy: vec![0.8],
        };
        assert_eq!(r.std_f1(), 0.0);
    }
}
