//! Section VI experiment: crowd-based learning — margin-prioritized vs
//! random sample selection at equal bandwidth, plus the feature-vs-raw
//! upload saving.

use tvdp_datagen::{generate, DatasetConfig};
use tvdp_edge::{
    learning::run_crowd_learning, CrowdLearningConfig, EdgeNode, SelectionStrategy, UplinkConfig,
};
use tvdp_ml::data::stratified_split;
use tvdp_ml::{Dataset, LinearSvm, StandardScaler};
use tvdp_vision::{CnnExtractor, FeatureExtractor};

/// Configuration for the crowd-learning experiment.
#[derive(Debug, Clone)]
pub struct EdgeLearningConfig {
    /// Total images (server seed + edge pools + test).
    pub n_images: usize,
    /// Image edge length in pixels.
    pub image_size: usize,
    /// Images in the server's initial labelled set.
    pub server_seed_size: usize,
    /// Held-out test images.
    pub test_size: usize,
    /// Number of edge devices splitting the remaining pool.
    pub n_edges: usize,
    /// Learning rounds.
    pub rounds: usize,
    /// Upload budget per edge per round, bytes.
    pub per_edge_budget_bytes: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for EdgeLearningConfig {
    fn default() -> Self {
        Self {
            n_images: 1400,
            image_size: 48,
            server_seed_size: 100,
            test_size: 300,
            n_edges: 8,
            rounds: 5,
            per_edge_budget_bytes: 40_000, // ~20 CNN vectors of 480 f32s
            seed: 0xED6E,
        }
    }
}

/// One strategy's learning trajectory.
#[derive(Debug, Clone)]
pub struct EdgeLearningOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Test macro F1 per round (index 0 = before edge data).
    pub f1_per_round: Vec<f64>,
    /// Fraction of bandwidth saved by shipping features, `[0, 1]`.
    pub bandwidth_saving: f64,
}

/// The experiment result: margin vs random at equal budget.
#[derive(Debug, Clone)]
pub struct EdgeLearningResult {
    /// Both outcomes.
    pub outcomes: Vec<EdgeLearningOutcome>,
    /// Raw bytes one image upload would cost.
    pub raw_image_bytes: u64,
    /// Bytes one feature upload costs.
    pub feature_bytes: u64,
}

/// Runs the experiment.
pub fn run_edge_learning(config: &EdgeLearningConfig) -> EdgeLearningResult {
    assert!(
        config.server_seed_size + config.test_size < config.n_images,
        "no samples left for the edges"
    );
    let data = generate(&DatasetConfig {
        n_images: config.n_images,
        image_size: config.image_size,
        seed: config.seed,
        ..Default::default()
    });
    let labels: Vec<usize> = data.iter().map(|d| d.cleanliness.index()).collect();
    // Extract CNN features once (the edges extract locally in the story).
    let cnn = CnnExtractor::new();
    let features: Vec<Vec<f32>> = data.iter().map(|d| cnn.extract(&d.image)).collect();
    let scaler = StandardScaler::fit(&features);
    let features = scaler.transform(&features);
    let feature_bytes = (features[0].len() * 4) as u64;
    let raw_image_bytes = (config.image_size * config.image_size * 3) as u64;

    // Stratified three-way split: server seed, test, edge pools.
    let (mut rest, test_idx) = stratified_split(
        &labels,
        5,
        1.0 - config.test_size as f64 / config.n_images as f64,
        config.seed,
    );
    let seed_idx: Vec<usize> = rest
        .drain(..config.server_seed_size.min(rest.len()))
        .collect();

    let pick = |idx: &[usize]| -> Dataset {
        Dataset::new(
            idx.iter().map(|&i| features[i].clone()).collect(),
            idx.iter().map(|&i| labels[i]).collect(),
            5,
        )
    };
    let train = pick(&seed_idx);
    let test = pick(&test_idx);

    let outcomes = [SelectionStrategy::Margin, SelectionStrategy::Random]
        .into_iter()
        .map(|strategy| {
            // Fresh edge pools per strategy (identical contents).
            let mut edges: Vec<EdgeNode> = (0..config.n_edges)
                .map(|e| EdgeNode {
                    id: e as u64,
                    pool: rest
                        .iter()
                        .skip(e)
                        .step_by(config.n_edges)
                        .map(|&i| (features[i].clone(), labels[i]))
                        .collect(),
                })
                .collect();
            let report = run_crowd_learning(
                &train,
                &test,
                &mut edges,
                &CrowdLearningConfig {
                    rounds: config.rounds,
                    per_edge_budget_bytes: config.per_edge_budget_bytes,
                    feature_bytes,
                    raw_image_bytes,
                    strategy,
                    seed: config.seed,
                },
                &UplinkConfig::reliable(config.seed),
                LinearSvm::new,
            );
            EdgeLearningOutcome {
                strategy: format!("{strategy:?}"),
                f1_per_round: report.rounds.iter().map(|r| r.test_f1).collect(),
                bandwidth_saving: report.bandwidth_saving,
            }
        })
        .collect();

    EdgeLearningResult {
        outcomes,
        raw_image_bytes,
        feature_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_improves_under_both_strategies() {
        let result = run_edge_learning(&EdgeLearningConfig {
            n_images: 300,
            image_size: 32,
            server_seed_size: 40,
            test_size: 80,
            n_edges: 4,
            rounds: 3,
            per_edge_budget_bytes: 20_000,
            ..Default::default()
        });
        assert_eq!(result.outcomes.len(), 2);
        for o in &result.outcomes {
            assert_eq!(o.f1_per_round.len(), 4);
            let first = o.f1_per_round[0];
            let last = *o.f1_per_round.last().unwrap();
            assert!(
                last > first - 0.02,
                "{}: learning regressed {first} -> {last}",
                o.strategy
            );
        }
        assert!(result.raw_image_bytes > result.feature_bytes / 2);
    }
}
