//! Random forest: bagged CART trees with feature subsampling.

use tvdp_kernel::rng::Rng;
use tvdp_kernel::Pool;

use crate::tree::{DecisionTree, TreeParams};
use crate::{validate_fit_input, Classifier};

/// Golden-ratio increment (splitmix64); decorrelates per-tree bootstrap
/// seeds so every tree's resample is independent of the others and of
/// training order.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A random forest of [`DecisionTree`]s.
///
/// Each tree trains on a bootstrap resample of the data and examines
/// `sqrt(dim)` random features per split; prediction averages the per-tree
/// leaf distributions.
#[derive(Debug, Clone)]
pub struct RandomForest {
    pub(crate) n_trees: usize,
    pub(crate) params: TreeParams,
    pub(crate) seed: u64,
    pub(crate) trees: Vec<DecisionTree>,
    pub(crate) n_classes: usize,
    /// Worker count for per-tree training; `None` uses the global pool.
    /// Not part of the model, so excluded from serialization.
    pub(crate) pool_threads: Option<usize>,
}

impl RandomForest {
    /// Creates an unfitted forest with `n_trees` trees and default tree
    /// parameters, deterministic under `seed`.
    pub fn new(n_trees: usize, seed: u64) -> Self {
        assert!(n_trees >= 1, "need at least one tree");
        Self {
            n_trees,
            params: TreeParams::default(),
            seed,
            trees: Vec::new(),
            n_classes: 0,
            pool_threads: None,
        }
    }

    /// Trains trees on a pool of `threads` workers instead of the global
    /// pool. Each tree derives its bootstrap RNG from the forest seed and
    /// its own index, so the fitted model is identical for any count.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-ml's determinism and tvdp-edge's chaos tests vary the pool width")
    pub fn with_pool_threads(mut self, threads: usize) -> Self {
        self.pool_threads = Some(threads);
        self
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        let dim = validate_fit_input(x, y, n_classes);
        self.n_classes = n_classes;
        let mut params = self.params;
        if params.features_per_split.is_none() {
            params.features_per_split = Some(((dim as f64).sqrt().ceil() as usize).max(1));
        }
        let pool = match self.pool_threads {
            Some(t) => Pool::new(t),
            None => *Pool::global(),
        };
        // Each tree seeds its own bootstrap RNG from (forest seed, tree
        // index) — no RNG state is shared across trees, so training is
        // embarrassingly parallel and thread-count independent.
        let seed = self.seed;
        self.trees = pool.map_index(self.n_trees, |t| {
            let n = x.len();
            let mut rng = Rng::seed_from_u64(seed ^ (t as u64 + 1).wrapping_mul(SEED_MIX));
            let mut bx = Vec::with_capacity(n);
            let mut by = Vec::with_capacity(n);
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                bx.push(x[i].clone());
                by.push(y[i]);
            }
            let mut tree = DecisionTree::with_params(params, seed.wrapping_add(t as u64 + 1));
            tree.fit(&bx, &by, n_classes);
            tree
        });
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        assert!(!self.trees.is_empty(), "classifier not fitted");
        let mut acc = vec![0.0f32; self.n_classes];
        for tree in &self.trees {
            for (a, s) in acc.iter_mut().zip(tree.decision_scores(x)) {
                *a += s;
            }
        }
        for a in &mut acc {
            *a /= self.trees.len() as f32;
        }
        acc
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_blobs(seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..60 {
            let n1: f32 = rng.gen_range(-1.0..1.0);
            let n2: f32 = rng.gen_range(-1.0..1.0);
            x.push(vec![n1, n2, rng.gen_range(-1.0..1.0)]);
            y.push(0);
            x.push(vec![3.0 + n1, 3.0 + n2, rng.gen_range(-1.0..1.0)]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn classifies_blobs() {
        let (x, y) = noisy_blobs(1);
        let mut rf = RandomForest::new(15, 42);
        rf.fit(&x, &y, 2);
        assert_eq!(rf.trees.len(), 15);
        assert_eq!(rf.predict_one(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(rf.predict_one(&[3.0, 3.0, 0.0]), 1);
    }

    #[test]
    fn scores_average_to_probabilities() {
        let (x, y) = noisy_blobs(2);
        let mut rf = RandomForest::new(10, 7);
        rf.fit(&x, &y, 2);
        let s = rf.decision_scores(&[1.5, 1.5, 0.0]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = noisy_blobs(3);
        let mut a = RandomForest::new(8, 99);
        let mut b = RandomForest::new(8, 99);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let (x, y) = noisy_blobs(4);
        let mut a = RandomForest::new(3, 1);
        let mut b = RandomForest::new(3, 2);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        // Scores (not necessarily argmax) should differ on at least one input.
        let differs = x
            .iter()
            .any(|r| a.decision_scores(r) != b.decision_scores(r));
        assert!(differs);
    }

    #[test]
    fn forest_beats_or_matches_stump_on_xor() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..200 {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            x.push(vec![a, b]);
            y.push(usize::from((a > 0.5) != (b > 0.5)));
        }
        let mut rf = RandomForest::new(25, 11);
        rf.fit(&x, &y, 2);
        let acc = rf
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| p == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.9, "forest accuracy {acc}");
    }
}
