//! The crowd-based learning loop (paper Fig. 4, ref [34]).
//!
//! Edge devices hold pools of freshly captured, unlabeled samples. Each
//! round, the current server model is (conceptually) dispatched to the
//! edges; every edge scores its pool locally, prioritizes the most
//! informative samples (smallest prediction margin), extracts feature
//! vectors locally, and uploads only what fits the per-round bandwidth
//! budget. Uploaded samples get labels (user feedback / manual
//! labelling), join the server training set, and the model is retrained.
//!
//! Uploading features instead of raw images is the framework's bandwidth
//! lever: the report tracks both the bytes actually sent and the bytes a
//! raw-image upload would have cost.

use tvdp_kernel::rng::Rng;

use tvdp_ml::{Classifier, ConfusionMatrix, Dataset};

/// How an edge picks which samples to upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Smallest top-1 / top-2 margin first (uncertainty sampling) — the
    /// paper's prioritized distributed selection.
    Margin,
    /// Uniform random (the ablation baseline).
    Random,
}

/// Loop configuration.
#[derive(Debug, Clone)]
pub struct CrowdLearningConfig {
    /// Number of dispatch/collect/retrain rounds.
    pub rounds: usize,
    /// Upload budget per edge per round, bytes.
    pub per_edge_budget_bytes: u64,
    /// Bytes of one uploaded feature vector (dim × 4 for f32).
    pub feature_bytes: u64,
    /// Bytes a raw image upload would have cost instead.
    pub raw_image_bytes: u64,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// RNG seed (random strategy, tie-breaking).
    pub seed: u64,
}

/// One edge device's sample pool: feature vectors with *hidden* ground-
/// truth labels (revealed only when a sample is uploaded and labelled).
#[derive(Debug, Clone)]
pub struct EdgeNode {
    /// Node identifier.
    pub id: u64,
    /// Remaining unlabeled pool.
    pub pool: Vec<(Vec<f32>, usize)>,
}

/// Per-round statistics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0 = before any edge data).
    pub round: usize,
    /// Macro F1 of the server model on the held-out test set.
    pub test_f1: f64,
    /// Samples uploaded this round across all edges.
    pub uploaded: usize,
    /// Feature bytes actually uploaded this round.
    pub bytes_uploaded: u64,
    /// Bytes raw-image uploads would have cost this round.
    pub raw_bytes_equivalent: u64,
}

/// Full loop report.
#[derive(Debug, Clone)]
pub struct CrowdLearningReport {
    /// Per-round stats; entry 0 is the initial model before edge data.
    pub rounds: Vec<RoundStats>,
    /// Bandwidth saved by shipping features instead of raw images, in
    /// `[0, 1]` (1 = everything saved).
    pub bandwidth_saving: f64,
}

/// Orders a pool's indices by the edge's local selection policy:
/// smallest prediction margin first for [`SelectionStrategy::Margin`],
/// a seeded shuffle for [`SelectionStrategy::Random`].
pub(crate) fn selection_order<C: Classifier>(
    model: &C,
    pool: &[(Vec<f32>, usize)],
    strategy: SelectionStrategy,
    rng: &mut Rng,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    match strategy {
        SelectionStrategy::Random => rng.shuffle(&mut order),
        SelectionStrategy::Margin => {
            let mut scored: Vec<(f32, usize)> = pool
                .iter()
                .enumerate()
                .map(|(i, (x, _))| {
                    let mut scores = model.decision_scores(x);
                    scores.sort_by(|a, b| b.total_cmp(a));
                    let margin = if scores.len() >= 2 {
                        scores[0] - scores[1]
                    } else {
                        f32::INFINITY
                    };
                    (margin, i)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            order = scored.into_iter().map(|(_, i)| i).collect();
        }
    }
    order
}

/// Runs the crowd-based learning loop.
///
/// `make_model` builds a fresh classifier per retraining; `train` seeds
/// the server's labelled set; `test` is the held-out evaluation set.
pub fn run_crowd_learning<C, F>(
    train: &Dataset,
    test: &Dataset,
    edges: &mut [EdgeNode],
    config: &CrowdLearningConfig,
    make_model: F,
) -> CrowdLearningReport
where
    C: Classifier,
    F: Fn() -> C,
{
    assert!(config.rounds >= 1, "need at least one round");
    assert!(config.feature_bytes > 0, "zero feature size");
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut accumulated = train.clone();
    let mut rounds = Vec::new();
    let mut total_bytes = 0u64;
    let mut total_raw = 0u64;

    // Round 0: the initial model.
    let mut model = make_model();
    model.fit(
        &accumulated.features,
        &accumulated.labels,
        accumulated.n_classes,
    );
    let cm = ConfusionMatrix::from_predictions(
        &test.labels,
        &model.predict(&test.features),
        test.n_classes,
    );
    rounds.push(RoundStats {
        round: 0,
        test_f1: cm.macro_f1(),
        uploaded: 0,
        bytes_uploaded: 0,
        raw_bytes_equivalent: 0,
    });

    let per_round_samples = (config.per_edge_budget_bytes / config.feature_bytes) as usize;

    for round in 1..=config.rounds {
        let mut uploaded_this_round = 0usize;
        for edge in edges.iter_mut() {
            if edge.pool.is_empty() || per_round_samples == 0 {
                continue;
            }
            // Order the pool by the edge's local selection policy.
            let order = selection_order(&model, &edge.pool, config.strategy, &mut rng);
            let take = per_round_samples.min(order.len());
            // Remove selected samples from the pool (descending indices so
            // removal doesn't shift later ones).
            let mut selected: Vec<usize> = order[..take].to_vec();
            selected.sort_unstable_by(|a, b| b.cmp(a));
            for idx in selected {
                let (x, label) = edge.pool.swap_remove(idx);
                accumulated.features.push(x);
                accumulated.labels.push(label);
                uploaded_this_round += 1;
                total_bytes += config.feature_bytes;
                total_raw += config.raw_image_bytes;
            }
        }
        // Retrain on the grown set and evaluate.
        let mut retrained = make_model();
        retrained.fit(
            &accumulated.features,
            &accumulated.labels,
            accumulated.n_classes,
        );
        model = retrained;
        let cm = ConfusionMatrix::from_predictions(
            &test.labels,
            &model.predict(&test.features),
            test.n_classes,
        );
        rounds.push(RoundStats {
            round,
            test_f1: cm.macro_f1(),
            uploaded: uploaded_this_round,
            bytes_uploaded: uploaded_this_round as u64 * config.feature_bytes,
            raw_bytes_equivalent: uploaded_this_round as u64 * config.raw_image_bytes,
        });
    }

    let bandwidth_saving = if total_raw == 0 {
        0.0
    } else {
        1.0 - total_bytes as f64 / total_raw as f64
    };
    CrowdLearningReport {
        rounds,
        bandwidth_saving,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_ml::LinearSvm;

    /// Two-blob problem; the initial training set is tiny and the edges
    /// hold the bulk of the data.
    fn setup(seed: u64) -> (Dataset, Dataset, Vec<EdgeNode>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sample = |class: usize| -> (Vec<f32>, usize) {
            let cx = class as f32 * 2.0;
            (
                vec![cx + rng.gen_range(-1.2..1.2), cx + rng.gen_range(-1.2..1.2)],
                class,
            )
        };
        let mut mk_dataset = |n: usize| {
            let mut f = Vec::new();
            let mut l = Vec::new();
            for i in 0..n {
                let (x, y) = sample(i % 2);
                f.push(x);
                l.push(y);
            }
            Dataset::new(f, l, 2)
        };
        let train = mk_dataset(8);
        let test = mk_dataset(200);
        let edges = (0..4)
            .map(|id| EdgeNode {
                id,
                pool: (0..100).map(|i| sample(i % 2)).collect(),
            })
            .collect();
        (train, test, edges)
    }

    fn config(strategy: SelectionStrategy) -> CrowdLearningConfig {
        CrowdLearningConfig {
            rounds: 4,
            per_edge_budget_bytes: 160, // 20 two-dim f32 vectors
            feature_bytes: 8,
            raw_image_bytes: 6912, // 48x48x3
            strategy,
            seed: 5,
        }
    }

    #[test]
    fn retraining_improves_f1() {
        let (train, test, mut edges) = setup(1);
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            LinearSvm::new,
        );
        assert_eq!(report.rounds.len(), 5);
        let (initial, last) = (report.rounds[0].test_f1, report.rounds[4].test_f1);
        assert!(last > initial, "no improvement: {initial} -> {last}");
    }

    #[test]
    fn budget_caps_uploads() {
        let (train, test, mut edges) = setup(2);
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Random),
            LinearSvm::new,
        );
        for r in &report.rounds[1..] {
            // 4 edges x 20 samples max per round.
            assert!(r.uploaded <= 80, "round uploaded {}", r.uploaded);
            assert_eq!(r.bytes_uploaded, r.uploaded as u64 * 8);
        }
    }

    #[test]
    fn bandwidth_saving_reflects_feature_upload() {
        let (train, test, mut edges) = setup(3);
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            LinearSvm::new,
        );
        // 8 bytes instead of 6912 per sample: saving well above 99%.
        assert!(
            report.bandwidth_saving > 0.99,
            "saving {}",
            report.bandwidth_saving
        );
    }

    #[test]
    fn pools_shrink_and_never_duplicate() {
        let (train, test, mut edges) = setup(4);
        let before: usize = edges.iter().map(|e| e.pool.len()).sum();
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.rounds.iter().map(|r| r.uploaded).sum();
        assert_eq!(before - after, uploaded);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let (train, test, mut edges) = setup(5);
            run_crowd_learning(
                &train,
                &test,
                &mut edges,
                &config(SelectionStrategy::Margin),
                LinearSvm::new,
            )
        };
        let a = run();
        let b = run();
        let af: Vec<f64> = a.rounds.iter().map(|r| r.test_f1).collect();
        let bf: Vec<f64> = b.rounds.iter().map(|r| r.test_f1).collect();
        assert_eq!(af, bf);
    }
}
