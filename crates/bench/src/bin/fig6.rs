//! Regenerates the paper's Fig. 6: F1 of every (image feature, classifier)
//! combination on the street-cleanliness dataset.
//!
//! Usage: `fig6 [--scale N]` where N multiplies the default dataset size
//! (N=15 approaches the paper's 22K images; expect long runtimes).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use tvdp_bench::classification::run_cv_protocol;
use tvdp_bench::{run_fig6, ClassificationConfig};

fn main() {
    let scale: usize = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let config = ClassificationConfig {
        n_images: 3000 * scale,
        ..Default::default()
    };
    eprintln!(
        "fig6: {} images, {}px, BoW vocab {}, seed {:#x}",
        config.n_images, config.image_size, config.bow_vocabulary, config.seed
    );
    let t0 = std::time::Instant::now();
    let result = run_fig6(&config);
    eprintln!("fig6: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("\nFig. 6 — Various Classifiers and Image Features (macro F1)\n");
    println!(
        "{:<18} {:>8} {:>14} {:>8}",
        "classifier", "Color", "SIFT-BoW", "CNN"
    );
    for clf in [
        "kNN",
        "Decision Tree",
        "Naive Bayes",
        "Random Forest",
        "SVM",
    ] {
        let get = |f: &str| result.f1(f, clf).unwrap_or(f64::NAN);
        println!(
            "{:<18} {:>8.3} {:>14.3} {:>8.3}",
            clf,
            get("Color Histogram"),
            get("SIFT-BoW"),
            get("CNN")
        );
    }
    let best = result.best();
    println!(
        "\nbest: {} + {} (F1 = {:.3}); paper: SVM + CNN (F1 = 0.83), SVM + SIFT-BoW = 0.64",
        best.classifier, best.feature, best.f1
    );
    println!(
        "feature means: Color {:.3} | SIFT-BoW {:.3} | CNN {:.3}",
        result.mean_f1_for_feature("Color Histogram"),
        result.mean_f1_for_feature("SIFT-BoW"),
        result.mean_f1_for_feature("CNN"),
    );

    if std::env::args().any(|a| a == "--cv") {
        // The paper's protocol: 10-fold CV on the 80% training split.
        eprintln!("fig6: running the 10-fold CV protocol (SVM per feature family)...");
        let cv = run_cv_protocol(&config, 10);
        println!(
            "
10-fold CV on the training split (SVM):"
        );
        for (feature, mean, std) in &cv.rows {
            println!("  {feature:<16} F1 = {mean:.3} ± {std:.3}");
        }
    }
}
