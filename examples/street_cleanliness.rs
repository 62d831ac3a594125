//! The paper's flagship scenario (Section II + VII): LASAN collects
//! street imagery, USC builds a cleanliness classifier, the results are
//! written back as annotations, and the Homeless Coordinator reuses the
//! encampment class — translational data in action.
//!
//! Run with: `cargo run --release --example street_cleanliness`

use tvdp::datagen::{generate, CleanlinessClass, DatasetConfig, StreetGrid};
use tvdp::platform::platform::{Algorithm, IngestRequest};
use tvdp::platform::{count_by_cell, hotspots, PlatformConfig, Role, Tvdp};
use tvdp::vision::FeatureKind;

fn main() {
    let tvdp = Tvdp::new(PlatformConfig::default());

    // The collaborators of the paper's example scenario.
    let lasan = tvdp.register_user("LA Sanitation (LASAN)", Role::Government);
    let usc = tvdp.register_user("USC IMSC", Role::Researcher);
    let coordinator = tvdp.register_user("Homeless Coordinator", Role::Government);
    println!("participants: LASAN (gov), USC (research), Homeless Coordinator (gov)\n");

    // 1. LASAN's garbage trucks record streets while on their routes.
    let data = generate(&DatasetConfig {
        n_images: 700,
        image_size: 48,
        ..Default::default()
    });
    let cleanliness = tvdp
        .register_scheme(
            "street-cleanliness",
            CleanlinessClass::ALL
                .iter()
                .map(|c| c.label().into())
                .collect(),
        )
        .expect("fresh scheme");
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
    let ids = tvdp.ingest_batch(lasan, batch, 8).expect("ingest");
    println!("LASAN uploaded {} truck-camera images", ids.len());

    // 2. LASAN labels a training portion with its cleanliness levels.
    let labelled = 500;
    for (d, &id) in data[..labelled].iter().zip(&ids[..labelled]) {
        tvdp.annotate(lasan, id, cleanliness, d.cleanliness.index(), 1.0, None)
            .expect("annotate");
    }
    println!("LASAN hand-labelled {labelled} of them");

    // 3. USC trains the classifier and machine-annotates the rest.
    let model = tvdp
        .train_model(
            usc,
            "cleanliness",
            cleanliness,
            FeatureKind::Cnn,
            Algorithm::Mlp,
        )
        .expect("train");
    let predictions = tvdp.apply_model(model, &ids[labelled..]).expect("apply");
    let per_class: Vec<usize> = (0..5)
        .map(|c| {
            predictions
                .iter()
                .filter(|(_, label, _)| *label == c)
                .count()
        })
        .collect();
    println!(
        "\nUSC's model classified the remaining {}:",
        predictions.len()
    );
    for (c, count) in CleanlinessClass::ALL.iter().zip(&per_class) {
        println!("  {:<22} {count}", c.label());
    }

    // 4. Translation: the Homeless Coordinator queries the encampment
    //    annotations — produced for street cleaning — to map tents.
    let enc = CleanlinessClass::Encampment.index();
    let region = *StreetGrid::downtown_la().region();
    let cells = count_by_cell(tvdp.store(), cleanliness, enc, &region, 200.0, 0.0);
    let top = hotspots(tvdp.store(), cleanliness, enc, &region, 200.0, 0.0, 3);
    let tents: usize = cells.iter().map(|c| c.count).sum();
    println!("\nHomeless Coordinator (no new learning, same database):");
    println!(
        "  {} encampment sightings across {} map cells",
        tents,
        cells.len()
    );
    println!("  top tent hotspots:");
    for (i, cell) in top.iter().enumerate() {
        let c = cell.cell.center();
        println!(
            "    #{} at ({:.4}, {:.4}) — {} sightings",
            i + 1,
            c.lat,
            c.lon,
            cell.count
        );
    }
    let _ = coordinator;

    // 5. Street cleaning actions go out for the dirtiest detections.
    let dirty: Vec<_> = predictions
        .iter()
        .filter(|(_, label, conf)| {
            *label == CleanlinessClass::IllegalDumping.index() && *conf > 0.5
        })
        .collect();
    println!(
        "\nLASAN dispatches cleanup crews to {} high-confidence illegal-dumping sites",
        dirty.len()
    );
    let stats = tvdp.stats();
    println!(
        "\nfinal platform state: {} images, {} annotations, {} models",
        stats.images, stats.annotations, stats.models
    );
}
