//! End-to-end CLI tests: every command driven in-process against a
//! temporary store directory.

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
    let store = dir.path("city");
    let model = dir.path("model.json");

    // init creates an empty store directory
    let out = call(&["init", &store]).unwrap();
    assert!(out.contains("initialized"), "{out}");
    assert!(std::path::Path::new(&store).is_dir());
    let out = call(&["stats", &store]).unwrap();
    assert!(out.contains("images      : 0"), "{out}");
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

    // apply to the 30 unlabelled images; the annotations are journaled
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

    // open replays what demo-data and apply journaled...
    let out = call(&["open", &store]).unwrap();
    assert!(out.contains("snapshot absent"), "{out}");
    assert!(!out.contains(" 0 op(s) replayed"), "{out}");
    assert!(out.contains("images      : 120"), "{out}");
    assert!(out.contains("annotations : 120"), "{out}");

    // ...compact folds it into a base segment...
    let out = call(&["compact", &store]).unwrap();
    assert!(out.contains("folded into"), "{out}");

    // ...after which open loads the base and replays nothing.
    let out = call(&["open", &store]).unwrap();
    assert!(out.contains("snapshot loaded"), "{out}");
    assert!(out.contains("0 op(s) replayed"), "{out}");
    assert!(out.contains("images      : 120"), "{out}");
    assert!(out.contains("annotations : 120"), "{out}");
    let out = call(&["search", &store, "--region", "34.0,-118.3,34.1,-118.2"]).unwrap();
    assert!(out.starts_with("120 hits"), "{out}");
}

#[test]
fn errors_are_helpful() {
    let dir = TempDir::new("errors");
    let store = dir.path("s");
    // A missing store is refused, and nothing is created in its place.
    let model = dir.path("m.json");
    let commands: [&[&str]; 6] = [
        &["stats"],
        &["search", "--keyword", "street"],
        &["train", "--scheme", "s", "--model-out", &model],
        &["apply", "--model", &model, "--scheme", "s"],
        &["hotspots", "--scheme", "s", "--label", "l"],
        &["demo-data", "--count", "1"],
    ];
    for args in commands {
        let mut argv = vec![args[0], store.as_str()];
        argv.extend_from_slice(&args[1..]);
        let msg = call(&argv).unwrap_err();
        assert!(msg.contains("no store at"), "{argv:?}: {msg}");
        assert!(!std::path::Path::new(&store).exists(), "{argv:?}");
    }
    // So is a file where a directory should be.
    let file = dir.path("old.tvdp");
    std::fs::write(&file, b"TVDPWAL\x03").unwrap();
    assert!(call(&["stats", &file])
        .unwrap_err()
        .contains("not a store directory"));
    assert!(call(&["init", &file]).unwrap_err().contains("exists"));
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
    // Help documents every command.
    let help = call(&["help"]).unwrap();
    for command in [
        "init",
        "open",
        "compact",
        "demo-data",
        "stats",
        "search",
        "train",
        "apply",
        "hotspots",
    ] {
        assert!(help.contains(&format!("tvdp {command} <dir>")), "{command}");
    }
}

#[test]
fn temporal_search_filters() {
    let dir = TempDir::new("temporal");
    let store = dir.path("s");
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
    let store = dir.path("s");
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
    let store = dir.path("s");
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
    let store = dir.path("s");
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
