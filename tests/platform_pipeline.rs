//! Cross-crate integration: the full platform pipeline from synthetic
//! acquisition through analysis, translational reuse, and persistence.

use std::sync::Arc;

use tvdp::datagen::{generate, CleanlinessClass, DatasetConfig, StreetGrid};
use tvdp::platform::platform::{Algorithm, IngestRequest};
use tvdp::platform::{count_by_cell, PlatformConfig, Role, Tvdp};
use tvdp::query::engine::EngineConfig;
use tvdp::query::{Query, QueryEngine, SpatialQuery, TextualMode};
use tvdp::storage::ImageOrigin;
use tvdp::vision::{CnnConfig, FeatureKind};

fn fast_config() -> PlatformConfig {
    PlatformConfig {
        cnn: CnnConfig {
            input_size: 16,
            stage_channels: vec![4, 8],
            pool_grid: 2,
            seed: 1,
        },
        min_training_samples: 10,
        ..Default::default()
    }
}

fn fast_platform() -> Tvdp {
    Tvdp::new(fast_config())
}

#[test]
fn ingest_train_apply_translate() {
    let tvdp = fast_platform();
    let gov = tvdp.register_user("LASAN", Role::Government);
    let usc = tvdp.register_user("USC", Role::Researcher);
    let scheme = tvdp
        .register_scheme(
            "street-cleanliness",
            CleanlinessClass::ALL
                .iter()
                .map(|c| c.label().into())
                .collect(),
        )
        .unwrap();

    let data = generate(&DatasetConfig {
        n_images: 120,
        image_size: 32,
        ..Default::default()
    });
    let mut ids = Vec::new();
    for d in &data {
        ids.push(
            tvdp.ingest(
                gov,
                d.image.clone(),
                IngestRequest {
                    gps: d.fov.camera,
                    fov: Some(d.fov),
                    captured_at: d.captured_at,
                    uploaded_at: d.uploaded_at,
                    keywords: d.keywords.clone(),
                },
            )
            .unwrap(),
        );
    }
    // Label 90, machine-annotate 30.
    for (d, &id) in data[..90].iter().zip(&ids[..90]) {
        tvdp.annotate(gov, id, scheme, d.cleanliness.index(), 1.0, None)
            .unwrap();
    }
    let model = tvdp
        .train_model(
            usc,
            "m",
            scheme,
            FeatureKind::Cnn,
            Algorithm::RandomForest(10),
        )
        .unwrap();
    let predictions = tvdp.apply_model(model, &ids[90..]).unwrap();
    assert_eq!(predictions.len(), 30);

    // Translational reuse: encampment counting over ALL annotations.
    let enc = CleanlinessClass::Encampment.index();
    let region = *StreetGrid::downtown_la().region();
    let cells = count_by_cell(tvdp.store(), scheme, enc, &region, 300.0, 0.0);
    let counted: usize = cells.iter().map(|c| c.count).sum();
    let human_enc = data[..90]
        .iter()
        .filter(|d| d.cleanliness == CleanlinessClass::Encampment)
        .count();
    assert!(
        counted >= human_enc,
        "human annotations alone guarantee {human_enc}"
    );

    // Every machine annotation is attached to the right scheme.
    for &id in &ids[90..] {
        let anns = tvdp.store().annotations_of(id);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].classification, scheme);
        assert!(!anns[0].is_human());
    }
}

#[test]
fn persistence_roundtrip_preserves_queryability() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("tvdp-pipeline-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (tvdp, _) = Tvdp::open(&dir, fast_config()).unwrap();
    let user = tvdp.register_user("u", Role::CommunityPartner);
    let data = generate(&DatasetConfig {
        n_images: 40,
        image_size: 32,
        ..Default::default()
    });
    for d in &data {
        tvdp.ingest(
            user,
            d.image.clone(),
            IngestRequest {
                gps: d.fov.camera,
                fov: Some(d.fov),
                captured_at: d.captured_at,
                uploaded_at: d.uploaded_at,
                keywords: vec!["persisted".into()],
            },
        )
        .unwrap();
    }

    // Compact, reopen, rebuild an engine over the reopened store.
    let region = *StreetGrid::downtown_la().region();
    let before = tvdp
        .search(&Query::Spatial(SpatialQuery::Range(region)))
        .unwrap()
        .len();
    tvdp.flush().unwrap();
    drop(tvdp);
    let (reopened, report) = Tvdp::open(&dir, fast_config()).unwrap();
    assert!(report.snapshot_found);
    assert_eq!(report.replayed_ops, 0);
    let reloaded = Arc::clone(reopened.store());
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reloaded.len(), 40);

    let engine = QueryEngine::build(Arc::clone(&reloaded), EngineConfig::default());
    let hits = engine
        .try_execute(&Query::Textual {
            text: "persisted".into(),
            mode: TextualMode::All,
        })
        .unwrap();
    assert_eq!(hits.len(), 40);

    // Spatial queries agree before and after the round trip.
    let after = engine
        .try_execute(&Query::Spatial(SpatialQuery::Range(region)))
        .unwrap()
        .len();
    assert_eq!(before, after);

    // Features survive too.
    for id in reloaded.image_ids() {
        assert!(reloaded.feature(id, FeatureKind::Cnn).is_some());
    }
}

#[test]
fn campaign_acquisition_feeds_directed_queries() {
    use tvdp::crowd::{Campaign, SimulationConfig};
    use tvdp::geo::{AngularRange, BBox, CoverageSpec, GeoPoint};

    let tvdp = fast_platform();
    let agency = tvdp.register_user("agency", Role::Government);
    let sw = GeoPoint::new(34.02, -118.29);
    let ne = sw.destination(0.0, 300.0);
    let e = sw.destination(90.0, 300.0);
    let area = BBox::new(sw.lat, sw.lon, ne.lat, e.lon);
    let campaign = Campaign::new("c", CoverageSpec::new(area, 100.0, 8), 2, 1);
    let sim = SimulationConfig {
        max_rounds: 4,
        ..Default::default()
    };
    let mut t = 0i64;
    let (report, ids) = tvdp
        .acquire_via_campaign(agency, &campaign, &sim, |_| {
            t += 10;
            (
                tvdp::vision::Image::from_fn(24, 24, |x, y| [x as u8, y as u8, 100]),
                vec!["campaign".into()],
                t,
            )
        })
        .unwrap();
    assert!(!ids.is_empty());
    assert_eq!(report.tasks_completed, ids.len());

    // All captures are findable, and direction filters prune.
    let all = tvdp
        .search(&Query::Spatial(SpatialQuery::Directed {
            region: area,
            directions: AngularRange::FULL,
        }))
        .unwrap();
    assert_eq!(all.len(), ids.len());
    let north_only = tvdp
        .search(&Query::Spatial(SpatialQuery::Directed {
            region: area,
            directions: AngularRange::centered(0.0, 30.0),
        }))
        .unwrap();
    assert!(north_only.len() < all.len());
}

#[test]
fn augmentation_expands_training_data_with_lineage() {
    use tvdp::vision::Augmentation;

    let tvdp = fast_platform();
    let user = tvdp.register_user("u", Role::Academic);
    let data = generate(&DatasetConfig {
        n_images: 6,
        image_size: 32,
        ..Default::default()
    });
    let d = &data[0];
    let parent = tvdp
        .ingest(
            user,
            d.image.clone(),
            IngestRequest {
                gps: d.fov.camera,
                fov: Some(d.fov),
                captured_at: d.captured_at,
                uploaded_at: d.uploaded_at,
                keywords: vec![],
            },
        )
        .unwrap();
    let ops = [
        Augmentation::FlipHorizontal,
        Augmentation::Rotate180,
        Augmentation::Brightness { delta: 25 },
        Augmentation::GaussianNoise {
            sigma: 5.0,
            seed: 3,
        },
    ];
    let children: Vec<_> = ops
        .iter()
        .map(|op| tvdp.augment(user, parent, *op).unwrap())
        .collect();
    let store = tvdp.store();
    let lineage = |id| {
        let origin = store.image(id).map(|r| r.origin);
        matches!(origin, Some(ImageOrigin::Augmented { parent: p, .. }) if p == parent)
    };
    assert_eq!(
        store
            .image_ids()
            .into_iter()
            .filter(|&id| lineage(id))
            .count(),
        4
    );
    for &child in &children {
        let rec = tvdp.store().image(child).unwrap();
        assert!(rec.is_augmented());
        // Augmented rows inherit the parent's spatial metadata.
        assert_eq!(rec.meta.gps, d.fov.camera);
        assert!(tvdp.store().feature(child, FeatureKind::Cnn).is_some());
    }
    assert_eq!(tvdp.stats().images, 5);
}
