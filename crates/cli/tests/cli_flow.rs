//! End-to-end CLI tests: every command driven in-process against a
//! temporary store file.

use tvdp_cli::run;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        Self(p)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn call(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    run(&owned).map_err(|e| e.to_string())
}

#[test]
fn full_cli_workflow() {
    let dir = TempDir::new("workflow");
    let store = dir.path("city.tvdp");
    let model = dir.path("model.json");

    // init
    let out = call(&["init", &store]).unwrap();
    assert!(out.contains("initialized"), "{out}");
    // init refuses to clobber
    assert!(call(&["init", &store]).unwrap_err().contains("exists"));

    // demo-data
    let out = call(&[
        "demo-data",
        &store,
        "--count",
        "120",
        "--size",
        "32",
        "--labelled",
        "0.75",
    ])
    .unwrap();
    assert!(out.contains("ingested 120 images (90 labelled)"), "{out}");

    // stats
    let out = call(&["stats", &store]).unwrap();
    assert!(out.contains("images      : 120"), "{out}");
    assert!(out.contains("street-cleanliness"), "{out}");
    assert!(out.contains("Cnn"), "{out}");

    // search by keyword
    let out = call(&["search", &store, "--keyword", "street"]).unwrap();
    assert!(out.contains("hits"), "{out}");

    // search by region (downtown LA box covers all demo data)
    let out = call(&["search", &store, "--region", "34.0,-118.3,34.1,-118.2"]).unwrap();
    assert!(out.starts_with("120 hits"), "{out}");

    // nearest
    let out = call(&["search", &store, "--near", "34.045,-118.25,5"]).unwrap();
    assert!(out.starts_with("5 hits"), "{out}");

    // label search (ground-truth annotations exist on 90 images)
    let out = call(&["search", &store, "--label", "street-cleanliness:Clean"]).unwrap();
    assert!(!out.starts_with("0 hits"), "{out}");

    // combined filters
    let out = call(&[
        "search",
        &store,
        "--keyword",
        "street",
        "--region",
        "34.0,-118.3,34.1,-118.2",
    ])
    .unwrap();
    assert!(out.contains("hits"), "{out}");

    // train
    let out = call(&[
        "train",
        &store,
        "--scheme",
        "street-cleanliness",
        "--algorithm",
        "forest",
        "--model-out",
        &model,
    ])
    .unwrap();
    assert!(out.contains("Random Forest"), "{out}");
    assert!(std::path::Path::new(&model).exists());

    // apply to the 30 unlabelled images; store is re-persisted
    let out = call(&[
        "apply",
        &store,
        "--model",
        &model,
        "--scheme",
        "street-cleanliness",
    ])
    .unwrap();
    assert!(out.contains("classified 30 images"), "{out}");
    let out = call(&["stats", &store]).unwrap();
    assert!(out.contains("annotations : 120"), "{out}");

    // hotspots over the now-complete annotations
    let out = call(&[
        "hotspots",
        &store,
        "--scheme",
        "street-cleanliness",
        "--label",
        "Encampment",
        "--top",
        "3",
    ])
    .unwrap();
    assert!(out.contains("hotspots"), "{out}");
}

#[test]
fn errors_are_helpful() {
    let dir = TempDir::new("errors");
    let store = dir.path("s.tvdp");
    // Missing store.
    assert!(call(&["stats", &store])
        .unwrap_err()
        .contains("cannot load"));
    call(&["init", &store]).unwrap();
    call(&["demo-data", &store, "--count", "30", "--size", "32"]).unwrap();
    // Unknown command.
    assert!(call(&["frobnicate", &store])
        .unwrap_err()
        .contains("unknown command"));
    // Bad region.
    assert!(call(&["search", &store, "--region", "1,2,3"])
        .unwrap_err()
        .contains("region"));
    // Inverted region.
    assert!(call(&["search", &store, "--region", "35,0,34,1"])
        .unwrap_err()
        .contains("min exceeds max"));
    // No filters.
    assert!(call(&["search", &store])
        .unwrap_err()
        .contains("at least one filter"));
    // Unknown scheme / label.
    assert!(call(&["search", &store, "--label", "nope:Clean"])
        .unwrap_err()
        .contains("unknown scheme"));
    assert!(
        call(&["search", &store, "--label", "street-cleanliness:Gold"])
            .unwrap_err()
            .contains("unknown label")
    );
    // Bad algorithm.
    assert!(call(&[
        "train",
        &store,
        "--scheme",
        "street-cleanliness",
        "--algorithm",
        "quantum",
        "--model-out",
        &dir.path("m.json"),
    ])
    .unwrap_err()
    .contains("unknown algorithm"));
    // Help exists.
    assert!(call(&["help"]).unwrap().contains("demo-data"));
}

#[test]
fn temporal_search_filters() {
    let dir = TempDir::new("temporal");
    let store = dir.path("s.tvdp");
    call(&["init", &store]).unwrap();
    call(&["demo-data", &store, "--count", "40", "--size", "32"]).unwrap();
    let all = call(&["search", &store, "--since", "0"]).unwrap();
    assert!(all.starts_with("40 hits"), "{all}");
    let none = call(&["search", &store, "--until", "0"]).unwrap();
    assert!(none.starts_with("0 hits"), "{none}");
}

#[test]
fn polygon_search() {
    let dir = TempDir::new("polygon");
    let store = dir.path("s.tvdp");
    call(&["init", &store]).unwrap();
    call(&["demo-data", &store, "--count", "60", "--size", "32"]).unwrap();
    // A triangle over the western half of downtown.
    let out = call(&[
        "search",
        &store,
        "--polygon",
        "34.035,-118.26;34.053,-118.26;34.053,-118.248",
    ])
    .unwrap();
    assert!(out.contains("hits"), "{out}");
    let hits: usize = out.split_whitespace().next().unwrap().parse().unwrap();
    let all: usize = call(&["search", &store, "--region", "34.0,-118.3,34.1,-118.2"])
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(hits > 0 && hits < all, "triangle {hits} vs all {all}");
    // Bad vertex errors cleanly.
    assert!(call(&["search", &store, "--polygon", "1,2;3"])
        .unwrap_err()
        .contains("vertex"));
    assert!(call(&["search", &store, "--polygon", "1,2;3,4"])
        .unwrap_err()
        .contains("at least 3"));
}

/// `train --model-out` then `apply --model` for every algorithm: the file
/// decodes to a model that re-encodes to the same bytes (so its scores
/// are bit-identical), and `apply` classifies with it.
#[test]
fn every_algorithm_roundtrips_through_a_model_file() {
    use tvdp_ml::SerializableModel;
    use tvdp_storage::codec;

    let dir = TempDir::new("allmodels");
    let store = dir.path("s.tvdp");
    call(&["init", &store]).unwrap();
    call(&[
        "demo-data",
        &store,
        "--count",
        "40",
        "--size",
        "32",
        "--labelled",
        "0.75",
    ])
    .unwrap();
    for algorithm in ["knn", "tree", "bayes", "forest", "svm", "logreg", "mlp"] {
        let model = dir.path(&format!("{algorithm}.json"));
        call(&[
            "train",
            &store,
            "--scheme",
            "street-cleanliness",
            "--algorithm",
            algorithm,
            "--model-out",
            &model,
        ])
        .unwrap();
        let doc = codec::parse(&std::fs::read_to_string(&model).unwrap()).unwrap();
        let input_dim: usize = codec::num_field(&doc, "input_dim").unwrap();
        let decoded = SerializableModel::from_value(&doc["weights"], input_dim).unwrap();
        assert_eq!(decoded.to_value(), doc["weights"], "{algorithm}");
        let out = call(&[
            "apply",
            &store,
            "--model",
            &model,
            "--scheme",
            "street-cleanliness",
        ])
        .unwrap();
        assert!(out.contains("classified"), "{algorithm}: {out}");
    }
}

#[test]
fn apply_rejects_mismatched_model_dimensions() {
    let dir = TempDir::new("dimcheck");
    let store = dir.path("s.tvdp");
    call(&["init", &store]).unwrap();
    call(&["demo-data", &store, "--count", "30", "--size", "32"]).unwrap();
    // Hand-craft a model file whose input_dim cannot match the store.
    let bogus = dir.path("bogus.json");
    std::fs::write(
        &bogus,
        r#"{
            "scheme": "street-cleanliness",
            "feature_kind": "Cnn",
            "input_dim": 7,
            "weights": { "NaiveBayes": { "classes": [], "var_smoothing": 1e-6 } }
        }"#,
    )
    .unwrap();
    let msg = call(&[
        "apply",
        &store,
        "--model",
        &bogus,
        "--scheme",
        "street-cleanliness",
    ])
    .unwrap_err();
    assert!(msg.contains("7-dim"), "{msg}");
}

#[test]
fn open_and_compact_durable_directory() {
    let dir = TempDir::new("durable");
    let store_dir = dir.path("crash-safe");

    // First open creates an empty crash-safe directory.
    let out = call(&["open", &store_dir]).unwrap();
    assert!(out.contains("snapshot absent"), "{out}");
    assert!(out.contains("images      : 0"), "{out}");

    // Seed it through the durable platform API (the CLI's open/compact
    // operate on directories written by Tvdp::open, not store files).
    {
        use tvdp_core::platform::IngestRequest;
        use tvdp_core::{PlatformConfig, Role, Tvdp};
        let (tvdp, _) =
            Tvdp::open(std::path::Path::new(&store_dir), PlatformConfig::default()).unwrap();
        let user = tvdp.register_user("cli-test", Role::Government);
        let image = tvdp_vision::Image::from_fn(24, 24, |x, y| [x as u8, y as u8, 120]);
        tvdp.ingest(
            user,
            image,
            IngestRequest {
                gps: tvdp_geo::GeoPoint::new(34.05, -118.25),
                fov: None,
                captured_at: 1000,
                uploaded_at: 1100,
                keywords: vec!["street".into()],
            },
        )
        .unwrap();
    }

    // Reopening replays the journal and reports the recovered rows.
    let out = call(&["open", &store_dir]).unwrap();
    assert!(out.contains("op(s) replayed"), "{out}");
    assert!(out.contains("images      : 1"), "{out}");

    // Compaction folds the journal into a snapshot...
    let out = call(&["compact", &store_dir]).unwrap();
    assert!(out.contains("folded into"), "{out}");

    // ...after which recovery loads the snapshot and replays nothing.
    let out = call(&["open", &store_dir]).unwrap();
    assert!(out.contains("snapshot loaded"), "{out}");
    assert!(out.contains("0 op(s) replayed"), "{out}");
    assert!(out.contains("images      : 1"), "{out}");

    // The new commands are documented.
    let help = call(&["help"]).unwrap();
    assert!(
        help.contains("tvdp open") && help.contains("tvdp compact"),
        "{help}"
    );
}
