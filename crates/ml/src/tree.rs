//! CART decision tree with Gini impurity.

use tvdp_kernel::rng::Rng;

use crate::{validate_fit_input, Classifier};

/// Hyper-parameters for [`DecisionTree`] (and the trees inside
/// [`crate::forest::RandomForest`]).
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// A node with fewer samples becomes a leaf.
    pub min_samples_split: usize,
    /// Candidate thresholds considered per feature (quantile subsampling
    /// keeps training near `O(n · dim · candidates)`).
    pub max_thresholds: usize,
    /// Number of features examined per split; `None` means all (set by the
    /// random forest to `sqrt(dim)`).
    pub features_per_split: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            max_thresholds: 24,
            features_per_split: None,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        /// Class probability distribution at the leaf.
        dist: Vec<f32>,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A CART classifier: binary splits chosen by Gini-impurity reduction.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) params: TreeParams,
    pub(crate) seed: u64,
    pub(crate) root: Option<Node>,
    pub(crate) n_classes: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree with default parameters.
    pub fn new() -> Self {
        Self::with_params(TreeParams::default(), 0)
    }

    /// Creates an unfitted tree with explicit parameters and RNG seed (the
    /// seed only matters when `features_per_split` subsamples features).
    pub fn with_params(params: TreeParams, seed: u64) -> Self {
        assert!(params.max_depth >= 1, "max_depth must be >= 1");
        assert!(params.max_thresholds >= 1, "max_thresholds must be >= 1");
        Self {
            params,
            seed,
            root: None,
            n_classes: 0,
        }
    }

    /// Number of decision nodes plus leaves (model complexity diagnostic).
    #[cfg(test)]
    fn node_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
    }

    fn leaf_from(indices: &[usize], y: &[usize], n_classes: usize) -> Node {
        let mut dist = vec![0.0f32; n_classes];
        for &i in indices {
            dist[y[i]] += 1.0;
        }
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        let total: f32 = dist.iter().sum();
        if total > 0.0 {
            for d in &mut dist {
                *d /= total;
            }
        }
        Node::Leaf { dist }
    }

    #[allow(clippy::too_many_arguments, clippy::ptr_arg)]
    fn build(
        &self,
        x: &[Vec<f32>],
        y: &[usize],
        indices: &mut Vec<usize>,
        depth: usize,
        n_classes: usize,
        rng: &mut Rng,
    ) -> Node {
        let mut counts = vec![0usize; n_classes];
        for &i in indices.iter() {
            counts[y[i]] += 1;
        }
        let total = indices.len();
        let parent_gini = Self::gini(&counts, total);
        let pure = counts.contains(&total);
        if depth >= self.params.max_depth || total < self.params.min_samples_split || pure {
            return Self::leaf_from(indices, y, n_classes);
        }

        let dim = x[0].len();
        let mut feature_pool: Vec<usize> = (0..dim).collect();
        let n_features = self.params.features_per_split.unwrap_or(dim).clamp(1, dim);
        if n_features < dim {
            rng.shuffle(&mut feature_pool);
            feature_pool.truncate(n_features);
        }

        let mut best: Option<(usize, f32, f64)> = None; // (feature, threshold, weighted gini)
        let mut values: Vec<f32> = Vec::with_capacity(total);
        for &feature in &feature_pool {
            values.clear();
            values.extend(indices.iter().map(|&i| x[i][feature]));
            values.sort_by(f32::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            // Quantile-subsampled candidate thresholds (midpoints).
            let candidates = self.params.max_thresholds.min(values.len() - 1);
            for c in 0..candidates {
                let pos = (values.len() - 1) * (c + 1) / (candidates + 1);
                let threshold = (values[pos] + values[pos + 1]) / 2.0;
                let mut left_counts = vec![0usize; n_classes];
                let mut left_total = 0usize;
                for &i in indices.iter() {
                    if x[i][feature] <= threshold {
                        left_counts[y[i]] += 1;
                        left_total += 1;
                    }
                }
                if left_total == 0 || left_total == total {
                    continue;
                }
                let right_counts: Vec<usize> = counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&a, &b)| a - b)
                    .collect();
                let right_total = total - left_total;
                let weighted = (left_total as f64 * Self::gini(&left_counts, left_total)
                    + right_total as f64 * Self::gini(&right_counts, right_total))
                    / total as f64;
                if best.is_none_or(|(_, _, g)| weighted < g) {
                    best = Some((feature, threshold, weighted));
                }
            }
        }

        let Some((feature, threshold, gain_gini)) = best else {
            return Self::leaf_from(indices, y, n_classes);
        };
        if gain_gini >= parent_gini - 1e-12 {
            // No impurity reduction: stop.
            return Self::leaf_from(indices, y, n_classes);
        }

        let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] <= threshold);
        let left = self.build(x, y, &mut left_idx, depth + 1, n_classes, rng);
        let right = self.build(x, y, &mut right_idx, depth + 1, n_classes, rng);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        validate_fit_input(x, y, n_classes);
        self.n_classes = n_classes;
        let mut indices: Vec<usize> = (0..x.len()).collect();
        let mut rng = Rng::seed_from_u64(self.seed);
        self.root = Some(self.build(x, y, &mut indices, 0, n_classes, &mut rng));
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        #[expect(
            clippy::expect_used,
            reason = "Classifier contract: fit() precedes decision_scores(); documented on the trait"
        )]
        let mut node = self.root.as_ref().expect("classifier not fitted");
        loop {
            match node {
                Node::Leaf { dist } => return dist.clone(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<usize>) {
        // XOR needs at least depth 2 — not linearly separable.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let a = i as f32 / 8.0;
                let b = j as f32 / 8.0;
                x.push(vec![a, b]);
                y.push(usize::from((a > 0.5) != (b > 0.5)));
            }
        }
        (x, y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new();
        t.fit(&x, &y, 2);
        let preds = t.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(
            correct as f64 / y.len() as f64 > 0.95,
            "accuracy too low: {correct}/{}",
            y.len()
        );
    }

    #[test]
    fn depth_one_stump_cannot_learn_xor() {
        let (x, y) = xor_data();
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let mut t = DecisionTree::with_params(params, 0);
        t.fit(&x, &y, 2);
        let preds = t.predict(&x);
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!((correct as f64 / y.len() as f64) < 0.8);
        assert!(t.node_count() <= 3);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTree::new();
        t.fit(&x, &y, 2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[5.0]), 1);
    }

    #[test]
    fn leaf_distribution_sums_to_one() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new();
        t.fit(&x, &y, 2);
        let s = t.decision_scores(&[0.3, 0.9]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = xor_data();
        let mut a = DecisionTree::new();
        let mut b = DecisionTree::new();
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
        assert_eq!(a.node_count(), b.node_count());
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let x = vec![vec![1.0, 1.0]; 10];
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let mut t = DecisionTree::new();
        t.fit(&x, &y, 2);
        assert_eq!(t.node_count(), 1, "no split possible on constant features");
    }
}
