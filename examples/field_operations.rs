//! Field-operations walkthrough: the messier acquisition paths a real
//! deployment hits — dash-cam videos, duplicate uploads, and photos that
//! arrive without GPS.
//!
//! Run with: `cargo run --release --example field_operations`

use std::sync::Arc;

use tvdp::datagen::{generate, DatasetConfig};
use tvdp::geo::{Fov, GeoPoint};
use tvdp::platform::platform::{IngestOutcome, IngestRequest};
use tvdp::platform::video::{KeyframePolicy, VideoFrame};
use tvdp::platform::{PlatformConfig, Role, Tvdp};
use tvdp::query::engine::EngineConfig;
use tvdp::query::{localize, QueryEngine};
use tvdp::vision::{ColorHistogramExtractor, FeatureExtractor, FeatureKind, Image};

fn main() {
    // Every upload of the shift is journaled under one store directory.
    let dir = std::env::temp_dir().join("tvdp-field-ops");
    std::fs::remove_dir_all(&dir).ok();
    let (tvdp, _) = Tvdp::open(&dir, PlatformConfig::default()).expect("open store directory");
    let dept = tvdp.register_user("Street Services", Role::Government);

    // ------------------------------------------------------------------
    // 1. A dash-cam video arrives: 40 frames, truck stopped at a light
    //    for half of them. Key-frame selection stores only the novel ones.
    // ------------------------------------------------------------------
    let start = GeoPoint::new(34.045, -118.25);
    let frames: Vec<VideoFrame> = (0..40)
        .map(|i| {
            let moved = if i < 20 { 0.0 } else { (i - 19) as f64 * 18.0 };
            VideoFrame {
                image: Image::from_fn(48, 48, |x, y| {
                    let v = ((x * 3 + y * 7 + i) % 23) as u8 * 9;
                    [v, v / 2, 120]
                }),
                fov: Fov::new(start.destination(90.0, moved), 90.0, 60.0, 90.0),
                captured_at: 1_700_000_000 + i as i64,
            }
        })
        .collect();
    let report = tvdp
        .ingest_video(
            dept,
            &frames,
            KeyframePolicy::SpatialNovelty {
                min_move_m: 12.0,
                min_turn_deg: 30.0,
            },
            vec!["route-12".into(), "dashcam".into()],
        )
        .expect("video ingest");
    println!(
        "dash-cam video: {} frames offered, {} key frames stored, {} redundant frames dropped",
        report.frames_offered,
        report.keyframes.len(),
        report.frames_dropped
    );

    // ------------------------------------------------------------------
    // 2. A community partner re-uploads a photo the truck already took.
    //    Near-duplicate detection rejects it and points at the original.
    // ------------------------------------------------------------------
    let partner = tvdp.register_user("Neighborhood Watch", Role::CommunityPartner);
    let original_id = report.keyframes[0];
    let original_pixels = tvdp.store().pixels(original_id).expect("stored key frame");
    let outcome = tvdp
        .ingest_dedup(
            partner,
            original_pixels,
            IngestRequest {
                gps: frames[0].fov.camera,
                fov: Some(frames[0].fov),
                captured_at: 1_700_000_100,
                uploaded_at: 1_700_000_160,
                keywords: vec!["repeat".into()],
            },
            0.05,
            50.0,
        )
        .expect("dedup ingest");
    match outcome {
        IngestOutcome::Duplicate {
            existing,
            feature_distance,
        } => println!(
            "re-upload rejected: duplicate of {existing} (feature distance {feature_distance:.3})"
        ),
        IngestOutcome::Stored(id) => println!("unexpectedly stored as {id}"),
    }

    // ------------------------------------------------------------------
    // 3. A photo arrives with no GPS (stripped EXIF). Localize it from
    //    the platform's geo-tagged corpus by visual appearance.
    // ------------------------------------------------------------------
    let corpus = generate(&DatasetConfig {
        n_images: 400,
        image_size: 48,
        appearance_by_block: true,
        ..Default::default()
    });
    let extractor = ColorHistogramExtractor::paper_default();
    let store = tvdp.store();
    for d in &corpus[..360] {
        tvdp.ingest(
            dept,
            d.image.clone(),
            IngestRequest {
                gps: d.fov.camera,
                fov: Some(d.fov),
                captured_at: d.captured_at,
                uploaded_at: d.uploaded_at,
                keywords: vec![],
            },
        )
        .expect("corpus ingest");
    }
    // A color-appearance engine over the same store.
    let engine = QueryEngine::build(
        Arc::clone(store),
        EngineConfig {
            visual_kind: FeatureKind::ColorHistogram,
        },
    );
    // Forty photos with stripped EXIF; report the median placement error.
    let mut errors: Vec<f64> = Vec::new();
    for mystery in &corpus[360..] {
        let features = extractor.extract(&mystery.image);
        let estimate = localize(&engine, store, &features, FeatureKind::ColorHistogram, 9)
            .expect("enough neighbours");
        errors.push(estimate.center.fast_distance_m(&mystery.fov.camera));
    }
    errors.sort_by(f64::total_cmp);
    println!(
        "{} GPS-less photos localized by appearance: median error {:.0} m \
         (blind guess over this ~2 km region would median ~900 m)",
        errors.len(),
        errors[errors.len() / 2]
    );

    // ------------------------------------------------------------------
    // 4. End of shift: fold the journal into one base segment.
    // ------------------------------------------------------------------
    let report = tvdp.flush().expect("flush");
    println!(
        "\npersisted {} images ({} annotations) to {} ({} KiB base segment)",
        tvdp.stats().images,
        tvdp.stats().annotations,
        dir.display(),
        report.snapshot_bytes / 1024
    );
    drop(tvdp);
    std::fs::remove_dir_all(&dir).ok();
}
