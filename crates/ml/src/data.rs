//! Datasets, splits, and fold generation.

use tvdp_kernel::rng::Rng;

/// A labelled dataset of dense feature rows.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows; all rows share one dimensionality.
    pub features: Vec<Vec<f32>>,
    /// Class labels, each `< n_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Builds a dataset, validating shape invariants.
    pub fn new(features: Vec<Vec<f32>>, labels: Vec<usize>, n_classes: usize) -> Self {
        assert_eq!(
            features.len(),
            labels.len(),
            "feature/label length mismatch"
        );
        if let Some(first) = features.first() {
            let dim = first.len();
            assert!(
                features.iter().all(|r| r.len() == dim),
                "ragged feature rows"
            );
        }
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        Self {
            features,
            labels,
            n_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality (0 when empty).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Selects the subset at `indices` (cloning rows).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Appends another dataset with the same schema.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(self.n_classes, other.n_classes, "class-count mismatch");
        if !self.is_empty() && !other.is_empty() {
            assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        }
        self.features.extend(other.features.iter().cloned());
        self.labels.extend_from_slice(&other.labels);
    }
}

/// Stratified split: preserves per-class proportions between train and test.
/// The paper's 80/20 evaluation protocol uses this to keep minority classes
/// represented.
pub fn stratified_split(
    labels: &[usize],
    n_classes: usize,
    train_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&train_fraction),
        "fraction out of range"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for class in 0..n_classes {
        let mut members: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        rng.shuffle(&mut members);
        let cut = ((members.len() as f64) * train_fraction).round() as usize;
        let rest = members.split_off(cut.min(members.len()));
        train.extend(members);
        test.extend(rest);
    }
    rng.shuffle(&mut train);
    rng.shuffle(&mut test);
    (train, test)
}

/// K-fold indices: returns `k` (train, validation) index pairs covering all
/// `n` samples; validation folds are disjoint and exhaustive.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(n >= k, "fewer samples than folds");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut idx);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = n * f / k;
        let hi = n * (f + 1) / k;
        let val: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(idx[hi..].iter()).copied().collect();
        folds.push((train, val));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![3.0, 3.0],
            ],
            vec![0, 0, 1, 1],
            2,
        )
    }

    #[test]
    fn dataset_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[0, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![0, 1]);
        assert_eq!(s.features[1], vec![3.0, 3.0]);
    }

    #[test]
    fn extend_appends() {
        let mut d = toy();
        let e = toy();
        d.extend(&e);
        assert_eq!(d.len(), 8);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0, 1], 2);
    }

    #[test]
    fn stratified_preserves_class_balance() {
        // 30 of class 0, 10 of class 1.
        let labels: Vec<usize> = std::iter::repeat_n(0, 30)
            .chain(std::iter::repeat_n(1, 10))
            .collect();
        let (train, test) = stratified_split(&labels, 2, 0.8, 3);
        assert_eq!(train.len() + test.len(), 40);
        let train_c1 = train.iter().filter(|&&i| labels[i] == 1).count();
        let test_c1 = test.iter().filter(|&&i| labels[i] == 1).count();
        assert_eq!(train_c1, 8);
        assert_eq!(test_c1, 2);
    }

    #[test]
    fn kfold_covers_everything_disjointly() {
        let folds = kfold_indices(23, 5, 11);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 23];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            for &v in val {
                assert!(!seen[v], "index {v} in two validation folds");
                seen[v] = true;
                assert!(!train.contains(&v), "index {v} in both train and val");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "fewer samples than folds")]
    fn kfold_rejects_tiny_input() {
        let _ = kfold_indices(3, 5, 0);
    }
}
