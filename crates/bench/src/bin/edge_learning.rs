//! Section VI experiment: the crowd-based learning loop — margin-
//! prioritized vs random sample selection at equal bandwidth, and the
//! feature-vs-raw upload saving.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use tvdp_bench::{run_edge_learning, EdgeLearningConfig};

fn main() {
    let config = EdgeLearningConfig::default();
    eprintln!(
        "edge_learning: {} images, {} edges, {} rounds, {} B/edge/round",
        config.n_images, config.n_edges, config.rounds, config.per_edge_budget_bytes
    );
    let t0 = std::time::Instant::now();
    let result = run_edge_learning(&config);
    eprintln!("edge_learning: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("\nCrowd-Based Learning — test F1 per retraining round\n");
    for outcome in &result.outcomes {
        let series: Vec<String> = outcome
            .f1_per_round
            .iter()
            .map(|f| format!("{f:.3}"))
            .collect();
        println!("{:<8} {}", outcome.strategy, series.join(" -> "));
    }
    println!(
        "\nbandwidth: {} B/feature vs {} B/raw image  (saving {:.1}%)",
        result.feature_bytes,
        result.raw_image_bytes,
        result.outcomes[0].bandwidth_saving * 100.0
    );
    println!("paper shape: retraining from edge data upgrades the model; prioritized");
    println!("selection matches or beats random at equal bandwidth");
}
