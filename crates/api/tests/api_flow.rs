//! End-to-end API-layer tests: the paper's seven endpoint families over
//! a live platform, with JSON-text request bodies.

use std::sync::Arc;

use tvdp_api::{ApiRequest, ApiServer, RateLimitConfig};
use tvdp_core::{PlatformConfig, Role, Tvdp};
use tvdp_kernel::rng::for_each_case;
use tvdp_storage::codec;
use tvdp_vision::{CnnConfig, Image};

fn fast_config() -> PlatformConfig {
    PlatformConfig {
        cnn: CnnConfig {
            input_size: 16,
            stage_channels: vec![4, 8],
            pool_grid: 2,
            seed: 1,
        },
        min_training_samples: 6,
        ..Default::default()
    }
}

fn fast_platform() -> Arc<Tvdp> {
    Arc::new(Tvdp::new(fast_config()))
}

fn scene(class: usize, seed: usize) -> Image {
    Image::from_fn(24, 24, |x, y| {
        let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
        if class == 0 {
            [200, v, v]
        } else {
            [v, v, 220]
        }
    })
}

fn add_body(class: usize, seed: usize, lat: f64) -> String {
    let img = scene(class, seed);
    format!(
        concat!(
            r#"{{"width":{},"height":{},"pixels":"{}","lat":{},"lon":-118.25,"#,
            r#""fov":{{"heading_deg":90.0,"angle_deg":60.0,"radius_m":80.0}},"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":["street","{}"]}}"#
        ),
        img.width(),
        img.height(),
        codec::hex_encode(img.raw()),
        lat,
        1000 + seed,
        1100 + seed,
        if class == 0 { "red" } else { "blue" },
    )
}

fn call(server: &ApiServer, key: &str, endpoint: &str, body: &str) -> tvdp_api::ApiResponse {
    server.handle(&ApiRequest::new(key, endpoint, body), 0)
}

#[test]
fn full_workflow_through_the_api() {
    let platform = fast_platform();
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 1000,
            per_second: 1000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);

    // (paper API 1) Add data: 12 labelled uploads.
    let scheme = {
        let r = call(
            &server,
            &key,
            "schemes/register",
            r#"{"name":"binary","labels":["red","blue"]}"#,
        );
        assert!(r.is_ok(), "{r:?}");
        r.body["scheme"].as_u64().unwrap()
    };
    let mut ids = Vec::new();
    for i in 0..12 {
        let class = i % 2;
        let r = call(
            &server,
            &key,
            "data/add",
            &add_body(class, i, 34.0 + i as f64 * 1e-4),
        );
        assert!(r.is_ok(), "{r:?}");
        let id = r.body["image"].as_u64().unwrap();
        let a = call(
            &server,
            &key,
            "annotations/add",
            &format!(r#"{{"image":{id},"scheme":{scheme},"label":{class}}}"#),
        );
        assert!(a.is_ok(), "{a:?}");
        ids.push(id);
    }

    // (2) Search: textual query finds the red uploads.
    let r = call(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"red","mode":"All"}}}"#,
    );
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body["count"].as_u64().unwrap(), 6);

    // A compound query exercises the hand-written decoder's recursion.
    let r = call(
        &server,
        &key,
        "data/search",
        concat!(
            r#"{"query":{"And":[{"Textual":{"text":"red","mode":"All"}},"#,
            r#"{"Spatial":{"Range":{"min_lat":33.9,"min_lon":-119.0,"#,
            r#""max_lat":34.1,"max_lon":-118.0}}}]}}"#
        ),
    );
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body["count"].as_u64().unwrap(), 6);

    // (3) Download: metadata plus pixels round-trip (pixels as hex).
    let r = call(
        &server,
        &key,
        "data/download",
        &format!(r#"{{"ids":[{}],"include_pixels":true}}"#, ids[0]),
    );
    assert!(r.is_ok());
    let item = &r.body["items"][0];
    assert_eq!(item["width"].as_u64().unwrap(), 24);
    let pixels = codec::hex_decode(item["pixels"].as_str().unwrap()).unwrap();
    assert_eq!(pixels.len(), 24 * 24 * 3);
    assert_eq!(item["keywords"][0].as_str().unwrap(), "street");
    // Many rows, asked for last to first: they decode on the pool, and
    // each item is what a download of its row alone answers, in the
    // order asked.
    let backwards: Vec<String> = ids.iter().rev().map(|id| id.to_string()).collect();
    let r = call(
        &server,
        &key,
        "data/download",
        &format!(
            r#"{{"ids":[{}],"include_pixels":true}}"#,
            backwards.join(",")
        ),
    );
    assert!(r.is_ok());
    for (i, id) in ids.iter().rev().enumerate() {
        let one = call(
            &server,
            &key,
            "data/download",
            &format!(r#"{{"ids":[{id}],"include_pixels":true}}"#),
        );
        assert_eq!(r.body["items"][i], one.body["items"][0], "item {i}");
        let seed = ids.len() - 1 - i;
        let pixels = codec::hex_decode(r.body["items"][i]["pixels"].as_str().unwrap()).unwrap();
        assert_eq!(pixels, scene(seed % 2, seed).raw(), "item {i}");
    }

    // (4) Get visual features for a new image without storing it.
    let img = scene(0, 99);
    let r = call(
        &server,
        &key,
        "features/extract",
        &format!(
            r#"{{"width":{},"height":{},"pixels":"{}"}}"#,
            img.width(),
            img.height(),
            codec::hex_encode(img.raw())
        ),
    );
    assert!(r.is_ok());
    let feats = r.body["features"].as_array().unwrap();
    assert_eq!(feats.len(), 2, "color histogram + CNN");
    let stats_before = call(&server, &key, "stats", "{}");
    assert_eq!(
        stats_before.body["images"].as_u64().unwrap(),
        12,
        "extract does not store"
    );

    // (7) Devise a model.
    let r = call(
        &server,
        &key,
        "models/devise",
        &format!(
            r#"{{"name":"red-vs-blue","scheme":{scheme},"feature_kind":"Cnn","algorithm":"Svm"}}"#
        ),
    );
    assert!(r.is_ok(), "{r:?}");
    let model = r.body["model"].as_u64().unwrap();

    // (6) Download the model's interface.
    let r = call(
        &server,
        &key,
        "models/download",
        &format!(r#"{{"model":{model}}}"#),
    );
    assert!(r.is_ok());
    assert_eq!(r.body["algorithm"].as_str().unwrap(), "SVM");
    assert_eq!(r.body["interface"]["feature_kind"].as_str().unwrap(), "Cnn");

    // (5) Use the model: upload two fresh images and classify them.
    let fresh: Vec<u64> = (0..2)
        .map(|class| {
            let r = call(
                &server,
                &key,
                "data/add",
                &add_body(class, 50 + class, 34.01),
            );
            r.body["image"].as_u64().unwrap()
        })
        .collect();
    let r = call(
        &server,
        &key,
        "models/apply",
        &format!(
            r#"{{"model":{model},"images":[{},{}]}}"#,
            fresh[0], fresh[1]
        ),
    );
    assert!(r.is_ok(), "{r:?}");
    let preds = r.body["predictions"].as_array().unwrap();
    assert_eq!(preds.len(), 2);
    assert_eq!(preds[0]["label"].as_u64().unwrap(), 0);
    assert_eq!(preds[1]["label"].as_u64().unwrap(), 1);

    // Edge dispatch.
    let r = call(
        &server,
        &key,
        "edge/dispatch",
        r#"{"device":"rpi","max_latency_ms":700.0}"#,
    );
    assert!(r.is_ok());
    assert!(r.body["model"].as_str().unwrap().starts_with("MobileNet"));

    // Final stats reflect everything.
    let r = call(&server, &key, "stats", "{}");
    assert_eq!(r.body["images"].as_u64().unwrap(), 14);
    assert_eq!(r.body["models"].as_u64().unwrap(), 1);
    assert!(r.body["annotations"].as_u64().unwrap() >= 14);
}

#[test]
fn idempotent_ingest_replays_the_original_response() {
    let platform = fast_platform();
    let user = platform.register_user("edge-7", Role::CommunityPartner);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 1000,
            per_second: 1000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(user);

    // An edge client uploads with an idempotency key; the ack is lost
    // in transit (simulated: the client never observes `first`), so it
    // retransmits the identical request.
    let request = ApiRequest {
        key: key.clone(),
        endpoint: "data/add".into(),
        body: add_body(0, 3, 34.02),
        idempotency_key: Some("edge7-s3".into()),
        deadline_ms: None,
    };
    let first = server.handle(&request, 0);
    assert!(first.is_ok(), "{first:?}");
    let retry = server.handle(&request, 40);
    assert!(retry.is_ok(), "{retry:?}");

    // The replayed response is byte-identical to the original...
    assert_eq!(retry.render_body(), first.render_body());
    // ...and exactly one image was stored.
    let stats = call(&server, &key, "stats", "{}");
    assert_eq!(stats.body["images"].as_u64().unwrap(), 1);

    // A different idempotency key with the same payload is a new upload.
    let mut second = request.clone();
    second.idempotency_key = Some("edge7-s4".into());
    let r = server.handle(&second, 80);
    assert!(r.is_ok());
    assert_ne!(r.render_body(), first.render_body());
    let stats = call(&server, &key, "stats", "{}");
    assert_eq!(stats.body["images"].as_u64().unwrap(), 2);
}

#[test]
fn auth_and_rate_limits_enforced() {
    let platform = fast_platform();
    let user = platform.register_user("u", Role::Academic);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 2,
            per_second: 1.0,
            ..Default::default()
        },
    );
    // Bad key.
    let r = call(&server, "tvdp_nope", "stats", "{}");
    assert_eq!(r.status, 401);
    // Rate limit after the burst, with a refill hint in the body.
    let key = server.issue_key(user);
    assert!(call(&server, &key, "stats", "{}").is_ok());
    assert!(call(&server, &key, "stats", "{}").is_ok());
    let r = call(&server, &key, "stats", "{}");
    assert_eq!(r.status, 429);
    let hint = r.body["retry_after_ms"].as_u64().unwrap();
    assert_eq!(hint, 1000, "empty bucket at 1 rps refills in one second");
    // Waiting exactly the hinted time succeeds.
    let r = server.handle(&ApiRequest::new(key.clone(), "stats", "{}"), hint as i64);
    assert!(r.is_ok(), "{r:?}");
    // Revoked key stops working.
    assert!(server.revoke_key(&key));
    let r = server.handle(&ApiRequest::new(key, "stats", "{}"), 10_000);
    assert_eq!(r.status, 401);
}

#[test]
fn error_paths_return_proper_statuses() {
    // Both platform kinds run one validator, so they answer alike.
    let mut dir = std::env::temp_dir();
    dir.push(format!("tvdp-api-flow-errors-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let durable = Arc::new(Tvdp::open(&dir, fast_config()).unwrap().0);
    for platform in [fast_platform(), durable] {
        error_paths_on(platform);
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn error_paths_on(platform: Arc<Tvdp>) {
    let user = platform.register_user("u", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), RateLimitConfig::default());
    let key = server.issue_key(user);

    // Unknown endpoint.
    assert_eq!(call(&server, &key, "nope/nope", "{}").status, 404);
    // Unparseable body.
    assert_eq!(call(&server, &key, "data/add", "{not json").status, 400);
    // Malformed body.
    assert_eq!(
        call(&server, &key, "data/add", r#"{"width":4}"#).status,
        400
    );
    // Pixel size mismatch: two bytes for a 4x4 image.
    let r = call(
        &server,
        &key,
        "data/add",
        concat!(
            r#"{"width":4,"height":4,"pixels":"0000","lat":34.0,"lon":-118.0,"#,
            r#""captured_at":0,"uploaded_at":1}"#
        ),
    );
    assert_eq!(r.status, 400);
    assert!(r.body["error"]
        .as_str()
        .unwrap()
        .contains("pixel buffer size mismatch"));
    // Bad coordinates.
    let img = scene(0, 0);
    let r = call(
        &server,
        &key,
        "data/add",
        &format!(
            concat!(
                r#"{{"width":{},"height":{},"pixels":"{}","lat":99.0,"lon":0.0,"#,
                r#""captured_at":0,"uploaded_at":1}}"#
            ),
            img.width(),
            img.height(),
            codec::hex_encode(img.raw())
        ),
    );
    assert_eq!(r.status, 400);
    // Unknown model.
    assert_eq!(
        call(&server, &key, "models/download", r#"{"model":77}"#).status,
        404
    );
    // Unknown image download.
    assert_eq!(
        call(&server, &key, "data/download", r#"{"ids":[123]}"#).status,
        404
    );
    // Bad query shape.
    assert_eq!(
        call(&server, &key, "data/search", r#"{"query":{"Bogus":1}}"#).status,
        400
    );
    // Devise with no data.
    let scheme = call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"s","labels":["a","b"]}"#,
    )
    .body["scheme"]
        .as_u64()
        .unwrap();
    let r = call(
        &server,
        &key,
        "models/devise",
        &format!(
            r#"{{"name":"m","scheme":{scheme},"feature_kind":"Cnn","algorithm":"NaiveBayes"}}"#
        ),
    );
    assert_eq!(r.status, 400);
    // A degenerate label vocabulary: a refused request, not a panic and
    // not a storage fault.
    for labels in [r#"[]"#, r#"["a","a"]"#] {
        let body = format!(r#"{{"name":"degenerate","labels":{labels}}}"#);
        let r = call(&server, &key, "schemes/register", &body);
        assert_eq!(r.status, 400, "{labels}: {r:?}");
        assert!(r.body["error"].as_str().unwrap().contains("vocabulary"));
    }
    // An annotation whose confidence is out of range or not a number.
    let image = call(&server, &key, "data/add", &add_body(0, 0, 34.0)).body["image"]
        .as_u64()
        .unwrap();
    for confidence in ["1.5", "-0.25", "1e39"] {
        let body =
            format!(r#"{{"image":{image},"scheme":{scheme},"label":0,"confidence":{confidence}}}"#);
        let r = call(&server, &key, "annotations/add", &body);
        assert_eq!(r.status, 400, "{confidence}: {r:?}");
    }
    assert_eq!(platform.stats().annotations, 0);
    let h = call(&server, &key, "health", "");
    assert_eq!(h.body["state"].as_str(), Some("ok"));
    assert_eq!(h.body["write_faults"].as_u64(), Some(0));
    // Impossible dispatch.
    let r = call(
        &server,
        &key,
        "edge/dispatch",
        r#"{"device":"rpi","max_latency_ms":0.01}"#,
    );
    assert_eq!(r.status, 409);
    // Unknown device.
    let r = call(
        &server,
        &key,
        "edge/dispatch",
        r#"{"device":"toaster","max_latency_ms":100.0}"#,
    );
    assert_eq!(r.status, 400);
}

/// A server with twelve labelled uploads under a fresh binary scheme.
fn trained_server() -> (ApiServer, String, u64) {
    let platform = fast_platform();
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 10_000,
            per_second: 10_000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);
    let scheme = call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"binary","labels":["red","blue"]}"#,
    )
    .body["scheme"]
        .as_u64()
        .unwrap();
    for i in 0..12 {
        let class = i % 2;
        let r = call(
            &server,
            &key,
            "data/add",
            &add_body(class, i, 34.0 + i as f64 * 1e-4),
        );
        let id = r.body["image"].as_u64().unwrap();
        call(
            &server,
            &key,
            "annotations/add",
            &format!(r#"{{"image":{id},"scheme":{scheme},"label":{class}}}"#),
        );
    }
    (server, key, scheme)
}

fn upload_body(scheme: u64, input_dim: usize, weights: &str) -> String {
    format!(
        concat!(
            r#"{{"name":"uploaded-copy","scheme":{},"feature_kind":"Cnn","#,
            r#""input_dim":{},"weights":{}}}"#
        ),
        scheme, input_dim, weights
    )
}

#[test]
fn model_weights_download_and_upload_roundtrip() {
    use tvdp_ml::{Classifier, SerializableModel};

    let (server, key, scheme) = trained_server();
    let download = |model: u64| {
        let r = call(
            &server,
            &key,
            "models/download",
            &format!(r#"{{"model":{model},"include_weights":true}}"#),
        );
        assert!(r.is_ok(), "{r:?}");
        r
    };
    let probe_features = {
        let img = scene(0, 77);
        let r = call(
            &server,
            &key,
            "features/extract",
            &format!(
                r#"{{"width":{},"height":{},"pixels":"{}"}}"#,
                img.width(),
                img.height(),
                codec::hex_encode(img.raw())
            ),
        );
        let feats = r.body["features"].as_array().unwrap();
        let cnn = feats
            .iter()
            .find(|f| f["kind"].as_str() == Some("Cnn"))
            .unwrap();
        cnn["vector"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect::<Vec<f32>>()
    };
    let img_id = call(&server, &key, "data/add", &add_body(1, 88, 34.01)).body["image"]
        .as_u64()
        .unwrap();

    // Every algorithm the platform can train leaves and re-enters it.
    for algorithm in [
        r#"{"Knn":3}"#,
        r#""DecisionTree""#,
        r#""NaiveBayes""#,
        r#"{"RandomForest":5}"#,
        r#""Svm""#,
        r#""LogisticRegression""#,
        r#""Mlp""#,
    ] {
        let r = call(
            &server,
            &key,
            "models/devise",
            &format!(
                r#"{{"name":"m","scheme":{scheme},"feature_kind":"Cnn","algorithm":{algorithm}}}"#
            ),
        );
        assert!(r.is_ok(), "{algorithm}: {r:?}");
        let model = r.body["model"].as_u64().unwrap();

        // Edge device downloads the weights and runs them off-platform.
        let r = download(model);
        let weights = r.body["weights"].clone();
        let input_dim = r.body["interface"]["input_dim"].as_u64().unwrap() as usize;
        assert_eq!(probe_features.len(), input_dim);
        let local = SerializableModel::from_value(&weights, input_dim).unwrap();
        assert_eq!(local.predict_one(&probe_features), 0, "{algorithm}");

        // A collaborator uploads the same weights as a new shared model.
        let r = call(
            &server,
            &key,
            "models/upload",
            &upload_body(scheme, input_dim, &weights.render()),
        );
        assert!(r.is_ok(), "{algorithm}: {r:?}");
        let uploaded = r.body["model"].as_u64().unwrap();
        assert_ne!(uploaded, model);

        // The copy carries the same bits: same export, same scores.
        let again = download(uploaded).body["weights"].clone();
        assert_eq!(again, weights, "{algorithm}");
        let copy = SerializableModel::from_value(&again, input_dim).unwrap();
        let bits = |m: &SerializableModel| {
            let scores = m.decision_scores(&probe_features);
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&copy), bits(&local), "{algorithm}");

        // ...and predicts identically through the API.
        let apply = |m: u64| {
            call(
                &server,
                &key,
                "models/apply",
                &format!(r#"{{"model":{m},"images":[{img_id}]}}"#),
            )
            .body["predictions"][0]
                .clone()
        };
        assert_eq!(apply(model), apply(uploaded), "{algorithm}");
    }
}

/// `models/upload` takes weights from outside the platform: every
/// malformed body is a 400 with a reason, never a panic.
#[test]
fn hostile_model_uploads_are_rejected_with_400() {
    let (server, key, scheme) = trained_server();
    let deep_split = {
        let depth = codec::MAX_DEPTH;
        let open =
            r#"{"Split":{"feature":0,"threshold":0.5,"right":{"Leaf":{"dist":[1,0]}},"left":"#;
        format!(
            r#"{{"DecisionTree":{{"params":{{"max_depth":12,"min_samples_split":4,"max_thresholds":24,"features_per_split":null}},"seed":0,"n_classes":2,"root":{}{}{}}}}}"#,
            open.repeat(depth),
            r#"{"Leaf":{"dist":[1,0]}}"#,
            "}}".repeat(depth)
        )
    };
    let svm = |weights: &str| {
        format!(
            r#"{{"Svm":{{"inner":{{"params":{{"lambda":1e-5,"epochs":1,"seed":0}},"weights":{weights}}},"scaler":null}}}}"#
        )
    };
    let tree = |root: &str| {
        format!(
            r#"{{"DecisionTree":{{"params":{{"max_depth":12,"min_samples_split":4,"max_thresholds":24,"features_per_split":null}},"seed":0,"n_classes":2,"root":{root}}}}}"#
        )
    };
    let cases: Vec<(&str, String)> = vec![
        ("truncated", r#"{"NaiveBayes":{"classes":["#.into()),
        ("wrong variant tag", r#"{"Bogus":1}"#.into()),
        ("no variant tag", r#"[1,2,3]"#.into()),
        ("two variant tags", r#"{"Svm":1,"Mlp":2}"#.into()),
        ("missing field", r#"{"NaiveBayes":{"classes":[]}}"#.into()),
        ("mistyped field", svm(r#""heavy""#)),
        ("mistyped number", svm(r#"[["a","b","c"]]"#)),
        ("non-finite number", svm("[[1e999,0,0]]")),
        ("negative count", svm("[[0,0,0]]").replace(r#""epochs":1"#, r#""epochs":-1"#)),
        ("overflowing count", svm("[[0,0,0]]").replace(r#""seed":0"#, r#""seed":99999999999999999999"#)),
        ("weight row shorter than input_dim", svm("[[0.5,0.25]]")),
        ("ragged weight rows", svm("[[0,0,0],[0,0,0,0]]")),
        ("empty weight row", svm("[[]]")),
        ("split on a feature outside the row", tree(r#"{"Split":{"feature":2,"threshold":0.5,"left":{"Leaf":{"dist":[1,0]}},"right":{"Leaf":{"dist":[0,1]}}}}"#)),
        ("leaf distribution of the wrong length", tree(r#"{"Leaf":{"dist":[1,0,0]}}"#)),
        ("neither leaf nor split", tree(r#"{"Twig":{}}"#)),
        ("split nesting beyond MAX_DEPTH", deep_split),
        (
            "knn label outside n_classes",
            r#"{"Knn":{"inner":{"k":1,"weighted":false,"x":[[0,0]],"y":[5],"n_classes":2},"scaler":null}}"#.into(),
        ),
        (
            "scaler of the wrong width",
            r#"{"Knn":{"inner":{"k":1,"weighted":false,"x":[[0,0]],"y":[0],"n_classes":2},"scaler":{"mean":[0],"std":[1]}}}"#.into(),
        ),
        (
            "mlp layer sizes disagree",
            r#"{"Mlp":{"inner":{"params":{"hidden":4,"epochs":1,"learning_rate":0.01,"l2":0,"seed":0},"dim":2,"n_classes":2,"w1":[0,0,0],"b1":[0,0,0,0],"w2":[0,0,0,0,0,0,0,0],"b2":[0,0]},"scaler":null}}"#.into(),
        ),
        (
            "mlp layer size overflows",
            r#"{"Mlp":{"inner":{"params":{"hidden":18446744073709551615,"epochs":1,"learning_rate":0.01,"l2":0,"seed":0},"dim":2,"n_classes":2,"w1":[],"b1":[],"w2":[],"b2":[]},"scaler":null}}"#.into(),
        ),
    ];
    for (what, weights) in cases {
        let r = call(
            &server,
            &key,
            "models/upload",
            &upload_body(scheme, 2, &weights),
        );
        assert_eq!(r.status, 400, "{what}: {r:?}");
        let reason = r.body["error"].as_str().unwrap_or_default();
        assert!(!reason.is_empty(), "{what}: no reason given");
    }
    // The same shapes at the declared width are accepted.
    let ok = call(
        &server,
        &key,
        "models/upload",
        &upload_body(scheme, 2, &svm("[[0,0,0],[1,1,1]]")),
    );
    assert!(ok.is_ok(), "{ok:?}");
}

/// A model whose declared width is not the stored features' is refused
/// on `models/apply` with a reason, and the server keeps serving.
#[test]
fn applying_a_model_of_another_width_is_a_400_not_a_panic() {
    let (server, key, scheme) = trained_server();
    let svm = r#"{"Svm":{"inner":{"params":{"lambda":1e-5,"epochs":1,"seed":0},"weights":[[0,0,0],[1,1,1]]},"scaler":null}}"#;
    let r = call(&server, &key, "models/upload", &upload_body(scheme, 2, svm));
    assert!(r.is_ok(), "{r:?}");
    let model = r.body["model"].as_u64().unwrap();
    let image = call(&server, &key, "data/add", &add_body(0, 99, 34.02)).body["image"]
        .as_u64()
        .unwrap();
    let annotations = |server: &ApiServer| {
        call(server, &key, "stats", "{}").body["annotations"]
            .as_u64()
            .unwrap()
    };
    let before = annotations(&server);

    let r = call(
        &server,
        &key,
        "models/apply",
        &format!(r#"{{"model":{model},"images":[{image}]}}"#),
    );
    assert_eq!(r.status, 400, "{r:?}");
    let reason = r.body["error"].as_str().unwrap_or_default();
    assert!(reason.contains("2-dim"), "{reason}");
    assert!(reason.contains(&format!("img-{image}")), "{reason}");
    assert_eq!(annotations(&server), before, "nothing was stored");

    // The request thread survived: the next request is served.
    let r = call(
        &server,
        &key,
        "data/download",
        &format!(r#"{{"ids":[{image}]}}"#),
    );
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn batched_uploads_through_the_api() {
    let platform = fast_platform();
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 1000,
            per_second: 1000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);

    // A keyless batch lands every upload and replays none.
    let body = format!(
        r#"{{"uploads":[{},{},{}]}}"#,
        add_body(0, 1, 34.01),
        add_body(1, 2, 34.04),
        add_body(0, 3, 34.07),
    );
    let r = call(&server, &key, "data/add_batch", &body);
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body["count"].as_u64(), Some(3));
    let first = r.body["images"][0].as_u64().unwrap();
    assert_eq!(r.body["replayed"][0].as_bool(), Some(false));
    assert_eq!(r.body["replayed"][2].as_bool(), Some(false));
    assert_eq!(platform.stats().images, 3);

    // A keyed batch with a duplicate key replays instead of re-ingesting,
    // both within the batch and across a retry of the whole batch.
    let keyed = |seed: usize, k: &str| {
        let b = add_body(1, seed, 34.10);
        format!(r#"{},"idempotency_key":"{k}"}}"#, &b[..b.len() - 1])
    };
    let body = format!(
        r#"{{"uploads":[{},{},{}]}}"#,
        keyed(10, "cam-a"),
        keyed(11, "cam-b"),
        keyed(10, "cam-a"),
    );
    let r = call(&server, &key, "data/add_batch", &body);
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body["replayed"][0].as_bool(), Some(false));
    assert_eq!(r.body["replayed"][2].as_bool(), Some(true));
    assert_eq!(r.body["images"][0].as_u64(), r.body["images"][2].as_u64());
    assert_eq!(platform.stats().images, 5);

    let retry = call(&server, &key, "data/add_batch", &body);
    assert!(retry.is_ok(), "{retry:?}");
    assert_eq!(retry.body["replayed"][0].as_bool(), Some(true));
    assert_eq!(retry.body["replayed"][1].as_bool(), Some(true));
    assert_eq!(
        retry.body["images"][0].as_u64(),
        r.body["images"][0].as_u64()
    );
    assert_eq!(platform.stats().images, 5);

    // A mixed keyed/keyless batch lands both; a retry of the batch
    // replays only the keyed upload.
    let body = format!(
        r#"{{"uploads":[{},{}]}}"#,
        add_body(0, 20, 34.01),
        keyed(21, "cam-c"),
    );
    let r = call(&server, &key, "data/add_batch", &body);
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(platform.stats().images, 7);
    let retry = call(&server, &key, "data/add_batch", &body);
    assert_eq!(retry.body["replayed"][0].as_bool(), Some(false));
    assert_eq!(retry.body["replayed"][1].as_bool(), Some(true));
    assert_eq!(
        retry.body["images"][1].as_u64(),
        r.body["images"][1].as_u64()
    );
    assert_eq!(platform.stats().images, 8);

    // A malformed element pinpoints its index.
    let r = call(
        &server,
        &key,
        "data/add_batch",
        r#"{"uploads":[{"width":1}]}"#,
    );
    assert_eq!(r.status, 400);

    // The batch ids are real: batched uploads are searchable by keyword.
    let g = call(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"Any"}}}"#,
    );
    assert!(g.is_ok(), "{g:?}");
    let hits: Vec<u64> = (0..5)
        .filter_map(|i| g.body["results"][i]["image"].as_u64())
        .collect();
    assert!(hits.contains(&first), "batched upload missing from search");
}

/// What a hostile client can put in a numeric field of an upload body.
const HOSTILE_NUMBERS: [&str; 14] = [
    "0",
    "-1",
    "1e308",
    "-1e308",
    "NaN",
    "1e999",
    "-1e999",
    "Infinity",
    "4294967296",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "6148914691236517206",
    "-0",
];

/// One route's valid body, as a template whose `#` marks are slots, and
/// the values that make it valid.
struct HostileBody {
    route: &'static str,
    parts: Vec<String>,
    valid: Vec<String>,
}

impl HostileBody {
    fn new(route: &'static str, template: &str, valid: Vec<String>) -> Self {
        let parts: Vec<String> = template.split('#').map(String::from).collect();
        assert_eq!(parts.len(), valid.len() + 1, "{route}: one value per slot");
        HostileBody {
            route,
            parts,
            valid,
        }
    }

    /// The JSON field a slot fills: the key just before its mark.
    fn field(&self, slot: usize) -> &str {
        self.parts[slot].rsplit('"').nth(1).unwrap_or("?")
    }

    /// Slots holding numbers (every slot but the hex pixels).
    fn numeric_slots(&self) -> Vec<usize> {
        (0..self.valid.len())
            .filter(|&s| self.field(s) != ":")
            .collect()
    }

    /// Calls `each` with every numeric slot replaced by each hostile
    /// number in turn, then with `pairs` seeded pairs of replacements,
    /// each time with a note of what was replaced.
    fn substitutions(&self, pairs: u64, mut each: impl FnMut(&[String], &str)) {
        let numeric = self.numeric_slots();
        for &slot in &numeric {
            for hostile in HOSTILE_NUMBERS {
                let mut values = self.valid.clone();
                values[slot] = hostile.to_string();
                each(&values, &format!("{} = {hostile}", self.field(slot)));
            }
        }
        for_each_case(pairs, |_, rng| {
            let a = numeric[rng.gen_range(0..numeric.len())];
            let b = numeric[rng.gen_range(0..numeric.len())];
            let (x, y) = (
                HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())],
                HOSTILE_NUMBERS[rng.gen_range(0..HOSTILE_NUMBERS.len())],
            );
            let mut values = self.valid.clone();
            values[a] = x.to_string();
            values[b] = y.to_string();
            each(
                &values,
                &format!("{} = {x}, {} = {y}", self.field(a), self.field(b)),
            );
        });
    }

    fn render(&self, values: &[String]) -> String {
        let mut out = self.parts[0].clone();
        for (value, part) in values.iter().zip(&self.parts[1..]) {
            out.push_str(value);
            out.push_str(part);
        }
        out
    }
}

/// Numbers a client chooses reach `Image` and `Fov` constructors that
/// assert: every substitution, alone and in seeded pairs, is answered
/// with 200 or 4xx, and `stats` counts exactly the images the 200s
/// stored. The width/height/pixel shapes at the end are the ones whose
/// product is zero or wraps to the buffer length.
#[test]
fn hostile_numbers_in_upload_bodies_are_answered_not_panicked() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let platform = fast_platform();
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 100_000,
            per_second: 100_000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);

    const UPLOAD: &str = concat!(
        r##"{"width":#,"height":#,"pixels":"#","lat":#,"lon":#,"##,
        r##""fov":{"heading_deg":#,"angle_deg":#,"radius_m":#},"##,
        r##""captured_at":#,"uploaded_at":#,"keywords":["street"]}"##
    );
    let img = scene(0, 1);
    let pixels = codec::hex_encode(img.raw());
    let upload: Vec<String> = [
        "24", "24", &pixels, "34.0", "-118.25", "90.0", "60.0", "80.0", "1000", "1100",
    ]
    .iter()
    .map(|v| v.to_string())
    .collect();
    let bodies = [
        HostileBody::new("data/add", UPLOAD, upload.clone()),
        HostileBody::new(
            "data/add_batch",
            // Two copies of the upload template.
            concat!(
                r##"{"uploads":[{"width":#,"height":#,"pixels":"#","lat":#,"lon":#,"##,
                r##""fov":{"heading_deg":#,"angle_deg":#,"radius_m":#},"##,
                r##""captured_at":#,"uploaded_at":#,"keywords":["street"]},"##,
                r##"{"width":#,"height":#,"pixels":"#","lat":#,"lon":#,"##,
                r##""fov":{"heading_deg":#,"angle_deg":#,"radius_m":#},"##,
                r##""captured_at":#,"uploaded_at":#,"keywords":["street"]}]}"##
            ),
            [upload.clone(), upload.clone()].concat(),
        ),
        HostileBody::new(
            "features/extract",
            r##"{"width":#,"height":#,"pixels":"#"}"##,
            upload[..3].to_vec(),
        ),
    ];
    // (width, height, pixels) whose product is zero, or wraps past
    // `usize` onto the buffer's length in a release build.
    let shapes = [
        ("0", "0", ""),
        ("0", "5", ""),
        ("6148914691236517206", "1", "0102"),
        ("1", "6148914691236517206", "0102"),
        ("18446744073709551615", "18446744073709551615", "0a0b0c"),
    ];

    let mut stored = 0u64;
    let mut send = |body: &HostileBody, values: &[String], what: &str| {
        let text = body.render(values);
        let r = catch_unwind(AssertUnwindSafe(|| call(&server, &key, body.route, &text)))
            .unwrap_or_else(|_| panic!("{} panicked on {what}", body.route));
        assert!(
            r.status == 200 || (400..500).contains(&r.status),
            "{} answered {} on {what}: {r:?}",
            body.route,
            r.status
        );
        if r.status == 200 {
            stored += match body.route {
                "data/add" => 1,
                "data/add_batch" => r.body["count"].as_u64().unwrap(),
                _ => 0,
            };
        }
        let images = call(&server, &key, "stats", "{}").body["images"].as_u64();
        assert_eq!(images, Some(stored), "{} on {what}", body.route);
    };

    for body in &bodies {
        send(body, &body.valid, "the valid body");
        body.substitutions(48, |values, what| send(body, values, what));
        for (width, height, pixels) in shapes {
            let mut values = body.valid.clone();
            values[..3].clone_from_slice(&[width.into(), height.into(), pixels.into()]);
            let what = format!("{width} x {height} over {} pixel bytes", pixels.len() / 2);
            send(body, &values, &what);
        }
    }
    assert!(stored > 0, "the valid bodies were stored");
}

/// Numbers a client chooses reach the query layer's trees, heaps and
/// geometry: on a platform with sealed segments, every substitution
/// into every numeric field of every query family, `And` and `Or`
/// included, alone and in seeded pairs, is answered with 200 or 4xx.
#[test]
fn hostile_numbers_in_search_bodies_are_answered_not_panicked() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Seal cap 2: the uploads below leave sealed segments behind, so
    // the segment trees answer the spatial and visual leaves.
    let platform = Arc::new(Tvdp::new(PlatformConfig {
        seal_cap: 2,
        ..fast_config()
    }));
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 100_000,
            per_second: 100_000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);
    for i in 0..7 {
        let r = call(
            &server,
            &key,
            "data/add",
            &add_body(i % 2, i, 34.0 + i as f64 * 1e-4),
        );
        assert!(r.is_ok(), "{r:?}");
    }
    let r = call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"s","labels":["a","b"]}"#,
    );
    assert!(r.is_ok(), "{r:?}");

    // A visual example as wide as the indexed CNN rows; its first
    // element is a slot.
    let img = scene(0, 3);
    let r = call(
        &server,
        &key,
        "features/extract",
        &format!(
            r#"{{"width":24,"height":24,"pixels":"{}"}}"#,
            codec::hex_encode(img.raw())
        ),
    );
    let cnn = (0..2)
        .map(|i| &r.body["features"][i])
        .find(|f| f["kind"].as_str() == Some("Cnn"))
        .unwrap();
    let example: Vec<String> = cnn["vector"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_string())
        .collect();
    let (first, rest) = (example[0].clone(), example[1..].join(","));

    let leaves: Vec<(String, Vec<&str>)> = vec![
        (
            r#"{"Spatial":{"Range":{"min_lat":#,"min_lon":#,"max_lat":#,"max_lon":#}}}"#.into(),
            vec!["33.9", "-118.3", "34.1", "-118.2"],
        ),
        (
            r#"{"Spatial":{"Nearest":{"point":{"lat":#,"lon":#},"k":#}}}"#.into(),
            vec!["34.0", "-118.25", "3"],
        ),
        (
            r#"{"Spatial":{"Covering":{"lat":#,"lon":#}}}"#.into(),
            vec!["34.0", "-118.2495"],
        ),
        (
            concat!(
                r#"{"Spatial":{"Within":{"vertices":[{"lat":#,"lon":#},"#,
                r#"{"lat":#,"lon":#},{"lat":#,"lon":#}]}}}"#
            )
            .into(),
            vec!["33.9", "-118.3", "34.1", "-118.3", "34.0", "-118.2"],
        ),
        (
            concat!(
                r#"{"Spatial":{"Directed":{"region":{"min_lat":#,"min_lon":#,"max_lat":#,"#,
                r#""max_lon":#},"directions":{"start":#,"width":#}}}}"#
            )
            .into(),
            vec!["33.9", "-118.3", "34.1", "-118.2", "60.0", "60.0"],
        ),
        (
            format!(r#"{{"Visual":{{"example":[#,{rest}],"kind":"Cnn","mode":{{"TopK":#}}}}}}"#),
            vec![&first, "3"],
        ),
        (
            format!(
                r#"{{"Visual":{{"example":[#,{rest}],"kind":"Cnn","mode":{{"Threshold":#}}}}}}"#
            ),
            vec![&first, "5.0"],
        ),
        (
            r#"{"Categorical":{"scheme":#,"label":#,"min_confidence":#}}"#.into(),
            vec!["0", "1", "0.5"],
        ),
        (
            r#"{"Textual":{"text":"street","mode":{"Ranked":#}}}"#.into(),
            vec!["3"],
        ),
        (
            r#"{"Temporal":{"field":"Captured","from":#,"to":#}}"#.into(),
            vec!["1000", "1005"],
        ),
    ];
    let body = |query: &str, valid: &[&str]| {
        HostileBody::new(
            "data/search",
            &format!(r#"{{"query":{query}}}"#),
            valid.iter().map(|v| v.to_string()).collect(),
        )
    };
    let mut bodies: Vec<HostileBody> = leaves.iter().map(|(q, v)| body(q, v)).collect();
    // The hybrid pair and a disjunction over the other families: the
    // planner splits the first and gathers the second.
    for (op, picks) in [("And", [1, 6, 9]), ("Or", [3, 7, 8])] {
        let subs: Vec<&str> = picks.iter().map(|&i| leaves[i].0.as_str()).collect();
        let valid: Vec<&str> = picks.iter().flat_map(|&i| leaves[i].1.clone()).collect();
        bodies.push(body(&format!(r#"{{"{op}":[{}]}}"#, subs.join(",")), &valid));
    }

    let send = |body: &HostileBody, values: &[String], what: &str| {
        let text = body.render(values);
        let r = catch_unwind(AssertUnwindSafe(|| call(&server, &key, body.route, &text)))
            .unwrap_or_else(|_| panic!("search panicked on {what}: {text}"));
        assert!(
            r.status == 200 || (400..500).contains(&r.status),
            "search answered {} on {what}: {r:?}",
            r.status
        );
        r.status
    };
    for body in &bodies {
        assert_eq!(send(body, &body.valid, "the valid body"), 200);
        body.substitutions(24, |values, what| {
            send(body, values, what);
        });
    }
}

/// `"explain": true` on `data/search` adds the planner's counts beside
/// the same rows; without it the body carries no `explain` field.
#[test]
fn a_search_with_explain_adds_the_planner_counts_and_nothing_else() {
    // Seal cap 2: seven uploads leave three sealed segments and a tail.
    let platform = Arc::new(Tvdp::new(PlatformConfig {
        seal_cap: 2,
        ..fast_config()
    }));
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(
        Arc::clone(&platform),
        RateLimitConfig {
            burst: 1000,
            per_second: 1000.0,
            ..Default::default()
        },
    );
    let key = server.issue_key(gov);
    for i in 0..7 {
        let r = call(
            &server,
            &key,
            "data/add",
            &add_body(i % 2, i, 34.0 + i as f64 * 1e-4),
        );
        assert!(r.is_ok(), "{r:?}");
    }
    let query = concat!(
        r#"{"And":[{"Textual":{"text":"red","mode":"All"}},"#,
        r#"{"Spatial":{"Range":{"min_lat":33.9,"min_lon":-119.0,"#,
        r#""max_lat":34.1,"max_lon":-118.0}}}]}"#
    );
    let plain = call(
        &server,
        &key,
        "data/search",
        &format!(r#"{{"query":{query}}}"#),
    );
    assert!(plain.is_ok(), "{plain:?}");
    assert!(plain.body.get("explain").is_none(), "{plain:?}");
    let off = format!(r#"{{"query":{query},"explain":false}}"#);
    assert_eq!(call(&server, &key, "data/search", &off).body, plain.body);

    let on = format!(r#"{{"query":{query},"explain":true}}"#);
    let explained = call(&server, &key, "data/search", &on);
    assert!(explained.is_ok(), "{explained:?}");
    assert_eq!(explained.body["count"], plain.body["count"]);
    assert_eq!(explained.body["results"], plain.body["results"]);
    let trace = &explained.body["explain"];
    // Each leg scatters over the three segments and the tail.
    assert_eq!(trace["segments_visited"].as_u64(), Some(6), "{trace:?}");
    assert_eq!(trace["units_dispatched"].as_u64(), Some(8), "{trace:?}");
    let leaves = trace["leaves"].as_array().unwrap();
    assert_eq!(leaves.len(), 2, "{trace:?}");
    assert_eq!(leaves[0]["kind"].as_str(), Some("textual.all"));
    assert_eq!(leaves[0]["drove"].as_bool(), Some(true));
    assert_eq!(leaves[0]["actual"], plain.body["count"]);
    assert_eq!(leaves[1]["kind"].as_str(), Some("spatial.range"));
    assert_eq!(leaves[1]["drove"].as_bool(), Some(false));
    assert_eq!(leaves[1]["path"][0].as_u64(), Some(1));
    assert_eq!(leaves[1]["actual"].as_u64(), Some(7));
}

/// A durable directory reopened under another CNN configuration
/// answers an upload of the narrower features with a 400 naming both
/// widths, for one upload and for a batch, and keeps serving.
#[test]
fn an_upload_of_another_feature_width_is_a_400_not_a_panic() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("tvdp-api-flow-width-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let limit = RateLimitConfig {
        burst: 1000,
        per_second: 1000.0,
        ..Default::default()
    };
    let wide = PlatformConfig {
        seal_cap: 4,
        ..fast_config()
    };
    {
        let platform = Arc::new(Tvdp::open(&dir, wide).unwrap().0);
        let gov = platform.register_user("LASAN", Role::Government);
        let server = ApiServer::with_rate_limit(Arc::clone(&platform), limit);
        let key = server.issue_key(gov);
        for i in 0..3 {
            let r = call(&server, &key, "data/add", &add_body(i % 2, i, 34.0));
            assert!(r.is_ok(), "{r:?}");
        }
    }
    let mut narrower = PlatformConfig {
        seal_cap: 4,
        ..fast_config()
    };
    narrower.cnn.stage_channels = vec![4, 4];
    let platform = Arc::new(Tvdp::open(&dir, narrower).unwrap().0);
    let gov = platform.register_user("LASAN", Role::Government);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), limit);
    let key = server.issue_key(gov);
    let r = call(&server, &key, "data/add", &add_body(0, 7, 34.0));
    assert_eq!(r.status, 400, "{r:?}");
    let msg = r.body["error"].as_str().unwrap_or_default().to_string();
    assert!(msg.contains("Cnn") && msg.contains("-dim"), "{msg}");
    let batch = format!(
        r#"{{"uploads":[{},{}]}}"#,
        add_body(0, 8, 34.0),
        add_body(1, 9, 34.0)
    );
    let r = call(&server, &key, "data/add_batch", &batch);
    assert_eq!(r.status, 400, "{r:?}");
    let r = call(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
    );
    assert_eq!(r.body["count"].as_u64(), Some(3), "{r:?}");
    std::fs::remove_dir_all(&dir).ok();
}
