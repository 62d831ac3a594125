//! Figure 9: the translational-data scenario.
//!
//! Replays the paper's end-to-end collaboration on the full platform:
//!
//! 1. **LASAN** (government) uploads street imagery captured by its
//!    trucks and labels a training portion for street cleanliness,
//! 2. **USC** (researcher) trains a cleanliness model and applies it to
//!    the unlabelled remainder — machine annotations are written back,
//! 3. **the Homeless Coordinator** (another government user) reuses the
//!    *encampment* annotations directly — no new learning, no new data —
//!    to count tents and find hotspots (Fig. 9's translation),
//! 4. a **graffiti** study re-annotates the *same* stored images under a
//!    second scheme, again without collecting anything new.

use tvdp_core::platform::{Algorithm, IngestRequest};
use tvdp_core::{count_by_cell, hotspots, PlatformConfig, Role, Tvdp};
use tvdp_datagen::{generate, CleanlinessClass, DatasetConfig, StreetGrid};
use tvdp_ml::ConfusionMatrix;
use tvdp_storage::ImageId;
use tvdp_vision::FeatureKind;

/// Configuration for the scenario.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Total images LASAN uploads.
    pub n_images: usize,
    /// Image edge length in pixels.
    pub image_size: usize,
    /// Fraction human-labelled by LASAN.
    pub labelled_fraction: f64,
    /// Hotspot grid cell size in metres.
    pub cell_size_m: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Self {
            n_images: 900,
            image_size: 48,
            labelled_fraction: 0.7,
            cell_size_m: 200.0,
            seed: 0xF19,
        }
    }
}

/// Scenario outcome.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Precision of encampment retrieval on machine-annotated images.
    pub encampment_precision: f64,
    /// Recall of encampment retrieval on machine-annotated images.
    pub encampment_recall: f64,
    /// Macro F1 of the cleanliness model on the machine-annotated split.
    pub cleanliness_f1: f64,
    /// Tents counted by the Homeless Coordinator (machine annotations).
    pub tents_counted: usize,
    /// Ground-truth encampment images in the unlabelled split.
    pub tents_ground_truth: usize,
    /// Non-empty hotspot cells found.
    pub hotspot_cells: usize,
    /// Count in the densest hotspot cell.
    pub top_hotspot_count: usize,
    /// Macro F1 of the follow-on graffiti model (same images, no new
    /// collection).
    pub graffiti_f1: f64,
    /// Images reused across all three studies.
    pub images_reused: usize,
}

/// Runs the scenario.
#[expect(
    clippy::expect_used,
    reason = "experiment driver: aborting on a malformed setup is intended"
)]
pub fn run_fig9(config: &Fig9Config) -> Fig9Result {
    let platform = Tvdp::new(PlatformConfig::default());
    let lasan = platform.register_user("LASAN", Role::Government);
    let usc = platform.register_user("USC IMSC", Role::Researcher);
    let _coordinator = platform.register_user("Homeless Coordinator", Role::Government);

    let cleanliness = platform
        .register_scheme(
            "street-cleanliness",
            CleanlinessClass::ALL
                .iter()
                .map(|c| c.label().to_string())
                .collect(),
        )
        .expect("fresh scheme");
    let graffiti = platform
        .register_scheme("graffiti", vec!["absent".into(), "present".into()])
        .expect("fresh scheme");

    // 1. LASAN's trucks collect and upload.
    let data = generate(&DatasetConfig {
        n_images: config.n_images,
        image_size: config.image_size,
        seed: config.seed,
        ..Default::default()
    });
    let batch: Vec<_> = data
        .iter()
        .map(|d| {
            (
                d.image.clone(),
                IngestRequest {
                    gps: d.fov.camera,
                    fov: Some(d.fov),
                    captured_at: d.captured_at,
                    uploaded_at: d.uploaded_at,
                    keywords: d.keywords.clone(),
                },
            )
        })
        .collect();
    let ids: Vec<ImageId> = platform
        .ingest_batch(lasan, batch, 8)
        .expect("ingest succeeds");

    // 2. LASAN labels the first portion; USC trains and applies.
    let cut = ((data.len() as f64) * config.labelled_fraction) as usize;
    for (d, &id) in data[..cut].iter().zip(&ids[..cut]) {
        platform
            .annotate(lasan, id, cleanliness, d.cleanliness.index(), 1.0, None)
            .expect("annotate succeeds");
    }
    let model = platform
        .train_model(
            usc,
            "cleanliness-mlp",
            cleanliness,
            FeatureKind::Cnn,
            Algorithm::Mlp,
        )
        .expect("training succeeds");
    let predictions = platform
        .apply_model(model, &ids[cut..])
        .expect("apply succeeds");

    // Quality of the machine annotations against hidden ground truth.
    let truth: Vec<usize> = data[cut..].iter().map(|d| d.cleanliness.index()).collect();
    let predicted: Vec<usize> = predictions.iter().map(|(_, label, _)| *label).collect();
    let cm = ConfusionMatrix::from_predictions(&truth, &predicted, 5);
    let enc = CleanlinessClass::Encampment.index();

    // 3. The Homeless Coordinator reuses encampment annotations directly.
    let region = *StreetGrid::downtown_la().region();
    let cells = count_by_cell(
        platform.store(),
        cleanliness,
        enc,
        &region,
        config.cell_size_m,
        0.0,
    );
    let top = hotspots(
        platform.store(),
        cleanliness,
        enc,
        &region,
        config.cell_size_m,
        0.0,
        1,
    );
    // Counting only machine annotations (the new knowledge): human labels
    // came from LASAN's own study.
    let tents_counted = predictions
        .iter()
        .filter(|(_, label, _)| *label == enc)
        .count();
    let tents_ground_truth = data[cut..]
        .iter()
        .filter(|d| d.cleanliness == CleanlinessClass::Encampment)
        .count();

    // 4. Graffiti study over the same images: label the training portion
    //    with graffiti ground truth, train, apply — zero new collection.
    for (d, &id) in data[..cut].iter().zip(&ids[..cut]) {
        platform
            .annotate(lasan, id, graffiti, usize::from(d.graffiti), 1.0, None)
            .expect("annotate succeeds");
    }
    let graffiti_model = platform
        .train_model(
            usc,
            "graffiti-mlp",
            graffiti,
            FeatureKind::Cnn,
            Algorithm::Mlp,
        )
        .expect("training succeeds");
    let gpred = platform
        .apply_model(graffiti_model, &ids[cut..])
        .expect("apply succeeds");
    let gtruth: Vec<usize> = data[cut..]
        .iter()
        .map(|d| usize::from(d.graffiti))
        .collect();
    let gpredicted: Vec<usize> = gpred.iter().map(|(_, label, _)| *label).collect();
    let gcm = ConfusionMatrix::from_predictions(&gtruth, &gpredicted, 2);

    Fig9Result {
        encampment_precision: cm.precision(enc),
        encampment_recall: cm.recall(enc),
        cleanliness_f1: cm.macro_f1(),
        tents_counted,
        tents_ground_truth,
        hotspot_cells: cells.len(),
        top_hotspot_count: top.first().map_or(0, |c| c.count),
        graffiti_f1: gcm.macro_f1(),
        images_reused: data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_and_translates() {
        // Tiny but real end-to-end run (debug-build friendly).
        let result = run_fig9(&Fig9Config {
            n_images: 160,
            image_size: 32,
            ..Default::default()
        });
        assert!(result.tents_ground_truth > 0);
        assert!(result.hotspot_cells > 0);
        assert!((0.0..=1.0).contains(&result.cleanliness_f1));
        assert!((0.0..=1.0).contains(&result.graffiti_f1));
        assert_eq!(result.images_reused, 160);
        assert!(result.top_hotspot_count >= 1);
    }
}
