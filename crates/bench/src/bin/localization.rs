//! Scene-localization experiment (paper ref [23]): localize GPS-less
//! uploads from visually similar geo-tagged corpus images.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use tvdp_bench::{run_localization, LocalizationConfig};

fn main() {
    let config = LocalizationConfig::default();
    eprintln!(
        "localization: corpus {} + {} test images, k={}",
        config.corpus_size, config.test_size, config.k
    );
    let t0 = std::time::Instant::now();
    let r = run_localization(&config);
    eprintln!("localization: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("\nScene Localization (data-centric, ref [23])\n");
    println!(
        "localized                : {} / {}",
        r.localized, config.test_size
    );
    println!("median error             : {:>7.0} m", r.median_error_m);
    println!("mean error               : {:>7.0} m", r.mean_error_m);
    println!(
        "baseline (centroid guess): {:>7.0} m median",
        r.baseline_median_m
    );
    println!("within 250 m             : {:>6.1}%", r.within_250m * 100.0);
    println!("\npaper shape: visual neighbours localize far better than a blind guess");
}
