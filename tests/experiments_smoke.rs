//! Shape invariants of every experiment runner at tiny scale: the
//! qualitative claims the paper's figures rest on must hold even in fast
//! debug runs (statistical claims are asserted loosely; the release-mode
//! figure binaries verify them at full scale).

use tvdp_bench::{
    run_coverage, run_edge_learning, run_fig6, run_fig8, run_fig9, ClassificationConfig,
    CoverageConfig, EdgeLearningConfig, Fig8Config, Fig9Config,
};

#[test]
fn fig6_feature_families_rank_as_in_the_paper() {
    // 64 px is the smallest frame that gives SIFT enough keypoints for
    // its vocabulary to beat a colour histogram; below it only CNN's lead
    // survives.
    let result = run_fig6(&ClassificationConfig {
        n_images: 600,
        bow_vocabulary: 48,
        head_hidden: 32,
        head_epochs: 40,
        ..Default::default()
    });
    let mean = |feature| result.mean_f1_for_feature(feature);
    let (color, bow, cnn) = (mean("Color Histogram"), mean("SIFT-BoW"), mean("CNN"));
    assert!(
        cnn > bow && bow > color,
        "paper's ordering CNN > SIFT-BoW > colour: {cnn} {bow} {color}"
    );
    assert_eq!(result.best().feature, "CNN");
}

#[test]
fn fig8_latency_ordering_holds() {
    let result = run_fig8(&Fig8Config { runs: 40, seed: 3 });
    // Every model: desktop < smartphone < RPi.
    for model in ["MobileNetV1", "MobileNetV2", "InceptionV3"] {
        let d = result.mean_ms(model, "Desktop").unwrap();
        let s = result.mean_ms(model, "Smartphone").unwrap();
        let r = result.mean_ms(model, "Raspberry PI").unwrap();
        assert!(d < s && s < r, "{model}: {d} {s} {r}");
    }
    // Every device: MobileNetV2 < MobileNetV1 < InceptionV3.
    for device in ["Desktop", "Smartphone", "Raspberry PI"] {
        let v2 = result.mean_ms("MobileNetV2", device).unwrap();
        let v1 = result.mean_ms("MobileNetV1", device).unwrap();
        let inc = result.mean_ms("InceptionV3", device).unwrap();
        assert!(v2 < v1 && v1 < inc, "{device}: {v2} {v1} {inc}");
    }
    // Paper's headline: ~1.5 orders of magnitude RPi vs desktop.
    let orders = result.rpi_desktop_orders();
    assert!((1.0..2.3).contains(&orders), "separation {orders}");
}

#[test]
fn fig9_translational_flow_produces_usable_knowledge() {
    let r = run_fig9(&Fig9Config {
        n_images: 200,
        image_size: 32,
        ..Default::default()
    });
    // The cleanliness model must beat random guessing (5 classes).
    assert!(
        r.cleanliness_f1 > 0.25,
        "cleanliness F1 {}",
        r.cleanliness_f1
    );
    // The reused encampment knowledge localizes something real.
    assert!(r.tents_ground_truth > 0);
    assert!(r.hotspot_cells > 0);
    // The graffiti follow-on beats random (2 classes) on the same data.
    assert!(r.graffiti_f1 > 0.4, "graffiti F1 {}", r.graffiti_f1);
    assert_eq!(r.images_reused, 200);
}

#[test]
fn coverage_campaign_is_monotone_and_terminates() {
    let result = run_coverage(&CoverageConfig {
        region_m: 300.0,
        min_sectors: 3,
        max_rounds: 10,
        ..Default::default()
    });
    for outcome in &result.outcomes {
        for w in outcome.coverage_per_round.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "{}: coverage decreased",
                outcome.strategy
            );
        }
        assert!(
            outcome.satisfied,
            "{} did not reach the goal",
            outcome.strategy
        );
    }
}

#[test]
fn edge_learning_improves_and_saves_bandwidth() {
    let result = run_edge_learning(&EdgeLearningConfig {
        n_images: 260,
        image_size: 32,
        server_seed_size: 40,
        test_size: 60,
        n_edges: 4,
        rounds: 3,
        per_edge_budget_bytes: 30_000,
        ..Default::default()
    });
    for outcome in &result.outcomes {
        let first = outcome.f1_per_round[0];
        let best = outcome.f1_per_round.iter().copied().fold(0.0f64, f64::max);
        assert!(
            best > first,
            "{}: no round improved on the seed model",
            outcome.strategy
        );
        assert!(outcome.bandwidth_saving > 0.0);
    }
    assert!(result.feature_bytes < result.raw_image_bytes);
}
