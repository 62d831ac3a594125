//! Quickstart: stand up a TVDP instance, upload geo-tagged images, query
//! them five different ways, train a model, and apply it.
//!
//! Run with: `cargo run --release --example quickstart`

use tvdp::datagen::{generate, DatasetConfig};
use tvdp::geo::{AngularRange, BBox};
use tvdp::platform::platform::{Algorithm, IngestRequest};
use tvdp::platform::{PlatformConfig, Role, Tvdp};
use tvdp::query::{Query, SpatialQuery, TemporalField, TextualMode, VisualMode};
use tvdp::vision::FeatureKind;

fn main() {
    // 1. A platform and a participant.
    let tvdp = Tvdp::new(PlatformConfig::default());
    let city = tvdp.register_user("City of Los Angeles", Role::Government);
    println!("registered {city} — City of Los Angeles (Government)");

    // 2. Upload 300 geo-tagged street images (synthetic stand-ins for
    //    truck-mounted camera captures).
    let data = generate(&DatasetConfig {
        n_images: 300,
        image_size: 48,
        ..Default::default()
    });
    let scheme = tvdp
        .register_scheme(
            "street-cleanliness",
            tvdp::datagen::CleanlinessClass::ALL
                .iter()
                .map(|c| c.label().into())
                .collect(),
        )
        .expect("fresh scheme");
    let mut ids = Vec::new();
    for d in &data {
        let id = tvdp
            .ingest(
                city,
                d.image.clone(),
                IngestRequest {
                    gps: d.fov.camera,
                    fov: Some(d.fov),
                    captured_at: d.captured_at,
                    uploaded_at: d.uploaded_at,
                    keywords: d.keywords.clone(),
                },
            )
            .expect("ingest");
        ids.push(id);
    }
    println!(
        "ingested {} images ({} indexed features each)",
        ids.len(),
        2
    );

    // 3. Query the platform five ways.
    let region = BBox::new(34.04, -118.255, 34.05, -118.245);
    let spatial = tvdp
        .search(&Query::Spatial(SpatialQuery::Range(region)))
        .expect("valid query");
    println!("spatial range query      : {} hits", spatial.len());

    let directed = tvdp
        .search(&Query::Spatial(SpatialQuery::Directed {
            region: BBox::new(34.035, -118.26, 34.053, -118.238),
            directions: AngularRange::centered(0.0, 60.0),
        }))
        .expect("valid query");
    println!("north-facing FOV query   : {} hits", directed.len());

    let example = tvdp
        .store()
        .feature(ids[0], FeatureKind::Cnn)
        .expect("stored feature");
    let similar = tvdp
        .search(&Query::Visual {
            example,
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(5),
        })
        .expect("valid query");
    println!(
        "visual top-5 (like img 0): {:?}",
        similar.iter().map(|r| r.image.raw()).collect::<Vec<_>>()
    );

    let textual = tvdp
        .search(&Query::Textual {
            text: "tent".into(),
            mode: TextualMode::All,
        })
        .expect("valid query");
    println!("keyword query 'tent'     : {} hits", textual.len());

    let temporal = tvdp
        .search(&Query::Temporal {
            field: TemporalField::Captured,
            from: data[0].captured_at - 86_400,
            to: data[0].captured_at + 86_400,
        })
        .expect("valid query");
    println!("±1 day around capture #0 : {} hits", temporal.len());

    // 4. Label some uploads, train an MLP (the fine-tuned-CNN analogue),
    //    classify the rest.
    let labelled = 240;
    for (d, &id) in data[..labelled].iter().zip(&ids[..labelled]) {
        tvdp.annotate(city, id, scheme, d.cleanliness.index(), 1.0, None)
            .expect("annotate");
    }
    let model = tvdp
        .train_model(
            city,
            "cleanliness-mlp",
            scheme,
            FeatureKind::Cnn,
            Algorithm::Mlp,
        )
        .expect("train");
    let predictions = tvdp.apply_model(model, &ids[labelled..]).expect("apply");
    let correct = predictions
        .iter()
        .zip(&data[labelled..])
        .filter(|((_, label, _), d)| *label == d.cleanliness.index())
        .count();
    println!(
        "trained {model}; classified {} new images, {}/{} match ground truth",
        predictions.len(),
        correct,
        predictions.len()
    );

    // 5. Hybrid query: encampment-labelled images in a region.
    let enc = tvdp::datagen::CleanlinessClass::Encampment.index();
    let hybrid = tvdp
        .search(&Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(
                34.035, -118.26, 34.053, -118.238,
            ))),
            Query::Categorical {
                scheme,
                label: enc,
                min_confidence: 0.0,
            },
        ]))
        .expect("valid query");
    println!("encampments in region    : {} images", hybrid.len());

    let stats = tvdp.stats();
    println!(
        "\nplatform stats: {} images, {} annotations, {} models, {} users",
        stats.images, stats.annotations, stats.models, stats.users
    );
}
