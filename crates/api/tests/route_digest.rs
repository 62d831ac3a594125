//! Every route's bytes, pinned.
//!
//! One fixed script drives `ApiServer::handle` on an in-memory and on a
//! durable platform and covers every endpoint: a valid body, a
//! malformed one and an unknown id for each, a bad key, a throttled
//! key, a shed request, and a search that trips its deadline beside
//! searches that carry none. Each response's status and rendered body
//! fold into one FNV-64, compared with a constant; a per-route digest
//! beside it names the first route that moved.
//!
//! A change that moves the constant says why in CHANGES.md, with the
//! old and the new digest.

use std::sync::Arc;

use tvdp_api::{ApiRequest, ApiResponse, ApiServer, RateLimitConfig};
use tvdp_core::{AdmissionConfig, PlatformConfig, Role, Tvdp};
use tvdp_storage::codec;
use tvdp_storage::UserId;
use tvdp_vision::{CnnConfig, Image};

/// The whole script's digest.
const TOTAL: u64 = 0x4bfe_a84d_267f_08b8;

/// Each route's digest, in the order the script first calls it.
const ROUTES: &[(&str, u64)] = &[
    ("schemes/register", 0x46be_606e_05f4_6ab5),
    ("data/add", 0x4e18_c832_8ff2_1e65),
    ("data/add_batch", 0xcf49_978e_17b1_2115),
    ("annotations/add", 0xddbe_7293_39cd_2553),
    ("features/extract", 0xe270_1c31_1432_18a5),
    ("data/search", 0x4890_7917_b779_d469),
    ("data/download", 0x3878_2216_fd00_f41d),
    ("models/devise", 0x580e_ef6d_dd12_3295),
    ("models/download", 0x34f3_3852_e906_604b),
    ("models/upload", 0x6011_b2f4_7f86_07f5),
    ("models/apply", 0xf51c_04b0_ed34_a4c5),
    ("edge/dispatch", 0xfd15_e9ab_f7ff_50c3),
    ("health", 0xe690_27a7_2d64_bd0a),
    ("stats", 0xa83c_5e7f_d957_cb2d),
    ("nope/nope", 0x71fc_1717_835d_4ce1),
];

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The script's responses, each under the route it exercised.
#[derive(Default)]
struct Transcript {
    steps: Vec<(String, u16, String)>,
}

impl Transcript {
    fn send(&mut self, server: &ApiServer, request: &ApiRequest, now_ms: i64) -> ApiResponse {
        let r = server.handle(request, now_ms);
        self.steps
            .push((request.endpoint.clone(), r.status, r.render_body()));
        r
    }

    fn call(&mut self, server: &ApiServer, key: &str, endpoint: &str, body: &str) -> ApiResponse {
        self.send(server, &ApiRequest::new(key, endpoint, body), 0)
    }

    fn fold(h: u64, (route, status, body): &(String, u16, String)) -> u64 {
        let h = fnv(h, route.as_bytes());
        let h = fnv(h, &status.to_le_bytes());
        fnv(h, body.as_bytes())
    }

    fn total(&self) -> u64 {
        self.steps.iter().fold(FNV_OFFSET, Self::fold)
    }

    fn routes(&self) -> Vec<(String, u64)> {
        let mut routes: Vec<(String, u64)> = Vec::new();
        for step in &self.steps {
            match routes.iter_mut().find(|(r, _)| *r == step.0) {
                Some((_, h)) => *h = Self::fold(*h, step),
                None => routes.push((step.0.clone(), Self::fold(FNV_OFFSET, step))),
            }
        }
        routes
    }
}

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

fn open_limit() -> RateLimitConfig {
    RateLimitConfig {
        burst: 100_000,
        per_second: 100_000.0,
        ..Default::default()
    }
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

fn pixels(img: &Image) -> String {
    format!(
        r#""width":{},"height":{},"pixels":"{}""#,
        img.width(),
        img.height(),
        codec::hex_encode(img.raw())
    )
}

fn add_body(class: usize, seed: usize) -> String {
    format!(
        concat!(
            r#"{{{},"lat":{},"lon":-118.25,"#,
            r#""fov":{{"heading_deg":90.0,"angle_deg":60.0,"radius_m":80.0}},"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":["street","{}"]}}"#
        ),
        pixels(&scene(class, seed)),
        34.0 + seed as f64 * 1e-3,
        1000 + seed,
        1100 + seed,
        if class == 0 { "red" } else { "blue" },
    )
}

/// The per-endpoint script on `platform`: every route with a valid
/// body, a malformed body and an unknown id, then a bad key and a
/// throttled key.
fn drive(platform: &Arc<Tvdp>, t: &mut Transcript) {
    let server = ApiServer::with_rate_limit(Arc::clone(platform), open_limit());
    let key = server.issue_key(platform.register_user("LASAN", Role::Government));
    // Valid key, but its user was never registered.
    let ghost = server.issue_key(UserId(999));

    // schemes/register
    let scheme = t.call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"binary","labels":["red","blue"]}"#,
    );
    let scheme = scheme.body["scheme"].as_u64().unwrap();
    let empty = t.call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"empty","labels":["x","y"]}"#,
    );
    let empty = empty.body["scheme"].as_u64().unwrap();
    t.call(&server, &key, "schemes/register", r#"{"name":1}"#);
    t.call(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"dup","labels":["a","a"]}"#,
    );

    // data/add
    let mut ids = Vec::new();
    for i in 0..12 {
        let r = t.call(&server, &key, "data/add", &add_body(i % 2, i));
        ids.push(r.body["image"].as_u64().unwrap());
    }
    t.call(&server, &key, "data/add", r#"{"width":4}"#);
    t.call(&server, &key, "data/add", "{not json");
    t.call(&server, &ghost, "data/add", &add_body(0, 40));
    let mut keyed = ApiRequest::new(&key, "data/add", add_body(1, 41));
    keyed.idempotency_key = Some("retry-1".into());
    t.send(&server, &keyed, 0);
    t.send(&server, &keyed, 0);

    // data/add_batch
    let uploads = format!(
        r#"{{"uploads":[{},{},{}]}}"#,
        add_body(0, 50),
        add_body(1, 51).replacen('{', r#"{"idempotency_key":"b-1","#, 1),
        add_body(1, 51).replacen('{', r#"{"idempotency_key":"b-1","#, 1),
    );
    t.call(&server, &key, "data/add_batch", &uploads);
    t.call(&server, &key, "data/add_batch", r#"{"uploads":5}"#);
    t.call(
        &server,
        &key,
        "data/add_batch",
        r#"{"uploads":[{"width":4}]}"#,
    );
    t.call(
        &server,
        &ghost,
        "data/add_batch",
        &format!(r#"{{"uploads":[{}]}}"#, add_body(0, 52)),
    );

    // annotations/add
    for (i, id) in ids.iter().enumerate() {
        let label = i % 2;
        t.call(
            &server,
            &key,
            "annotations/add",
            &format!(r#"{{"image":{id},"scheme":{scheme},"label":{label}}}"#),
        );
    }
    t.call(
        &server,
        &key,
        "annotations/add",
        &format!(
            r#"{{"image":{},"scheme":{scheme},"label":1,"confidence":0.5}}"#,
            ids[0]
        ),
    );
    t.call(&server, &key, "annotations/add", r#"{"image":"x"}"#);
    t.call(
        &server,
        &key,
        "annotations/add",
        &format!(r#"{{"image":9999,"scheme":{scheme},"label":0}}"#),
    );
    t.call(
        &server,
        &key,
        "annotations/add",
        &format!(r#"{{"image":{},"scheme":4242,"label":0}}"#, ids[0]),
    );

    // features/extract
    let probe = scene(0, 77);
    let features = t.call(
        &server,
        &key,
        "features/extract",
        &format!("{{{}}}", pixels(&probe)),
    );
    let example = features.body["features"][1]["vector"].render();
    t.call(&server, &key, "features/extract", r#"{"width":2}"#);
    t.call(
        &server,
        &key,
        "features/extract",
        r#"{"width":4,"height":4,"pixels":"0000"}"#,
    );

    // data/search: every family, with no deadline.
    let visual =
        format!(r#"{{"Visual":{{"example":{example},"kind":"Cnn","mode":{{"TopK":4}}}}}}"#);
    let range = r#"{"Spatial":{"Range":{"min_lat":33.9,"min_lon":-118.3,"max_lat":34.006,"max_lon":-118.2}}}"#;
    for query in [
        r#"{"Textual":{"text":"red","mode":"All"}}"#.to_string(),
        r#"{"Textual":{"text":"street blue","mode":"Any"}}"#.to_string(),
        r#"{"Textual":{"text":"street red","mode":{"Ranked":5}}}"#.to_string(),
        r#"{"Temporal":{"field":"Captured","from":1002,"to":1007}}"#.to_string(),
        r#"{"Temporal":{"field":"Uploaded","from":1100,"to":1103}}"#.to_string(),
        range.to_string(),
        r#"{"Spatial":{"Nearest":{"point":{"lat":34.004,"lon":-118.25},"k":3}}}"#.to_string(),
        r#"{"Spatial":{"Covering":{"lat":34.0,"lon":-118.2497}}}"#.to_string(),
        r#"{"Spatial":{"Within":{"vertices":[{"lat":33.9,"lon":-118.3},{"lat":34.2,"lon":-118.3},{"lat":34.2,"lon":-118.2}]}}}"#.to_string(),
        r#"{"Spatial":{"Directed":{"region":{"min_lat":33.9,"min_lon":-118.3,"max_lat":34.2,"max_lon":-118.2},"directions":{"start":45.0,"width":90.0}}}}"#.to_string(),
        visual.clone(),
        format!(r#"{{"Visual":{{"example":{example},"kind":"Cnn","mode":{{"Threshold":0.5}}}}}}"#),
        format!(r#"{{"Categorical":{{"scheme":{scheme},"label":1,"min_confidence":0.9}}}}"#),
        format!(r#"{{"And":[{range},{visual}]}}"#),
        format!(r#"{{"Or":[{range},{{"Textual":{{"text":"blue","mode":"All"}}}}]}}"#),
        // An unknown scheme matches nothing.
        r#"{"Categorical":{"scheme":4242,"label":0,"min_confidence":0.0}}"#.to_string(),
    ] {
        t.call(&server, &key, "data/search", &format!(r#"{{"query":{query}}}"#));
    }
    t.call(&server, &key, "data/search", r#"{"query":{"Bogus":1}}"#);
    t.call(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Visual":{"example":[0.5,0.5],"kind":"Cnn","mode":{"TopK":3}}}}"#,
    );
    // The same search under a deadline it meets, and one it has
    // already passed on arrival.
    let mut deadlined = ApiRequest::new(
        &key,
        "data/search",
        format!(r#"{{"query":{{"And":[{range},{visual}]}}}}"#),
    );
    deadlined.deadline_ms = Some(50);
    t.send(&server, &deadlined, 0);
    t.send(&server, &deadlined, 60);

    // data/download
    t.call(
        &server,
        &key,
        "data/download",
        &format!(r#"{{"ids":[{},{}]}}"#, ids[0], ids[3]),
    );
    t.call(
        &server,
        &key,
        "data/download",
        &format!(r#"{{"ids":[{}],"include_pixels":true}}"#, ids[1]),
    );
    t.call(&server, &key, "data/download", r#"{"ids":"x"}"#);
    t.call(&server, &key, "data/download", r#"{"ids":[123456]}"#);

    // models/devise
    let svm = t.call(
        &server,
        &key,
        "models/devise",
        &format!(r#"{{"name":"svm","scheme":{scheme},"feature_kind":"Cnn","algorithm":"Svm"}}"#),
    );
    let svm = svm.body["model"].as_u64().unwrap();
    t.call(
        &server,
        &key,
        "models/devise",
        &format!(
            r#"{{"name":"knn","scheme":{scheme},"feature_kind":"ColorHistogram","algorithm":{{"Knn":3}}}}"#
        ),
    );
    t.call(&server, &key, "models/devise", r#"{"name":"m"}"#);
    t.call(
        &server,
        &key,
        "models/devise",
        r#"{"name":"m","scheme":4242,"feature_kind":"Cnn","algorithm":"Svm"}"#,
    );
    t.call(
        &server,
        &key,
        "models/devise",
        &format!(
            r#"{{"name":"m","scheme":{empty},"feature_kind":"Cnn","algorithm":"NaiveBayes"}}"#
        ),
    );

    // models/download
    let download = t.call(
        &server,
        &key,
        "models/download",
        &format!(r#"{{"model":{svm},"include_weights":true}}"#),
    );
    let weights = download.body["weights"].render();
    let input_dim = download.body["interface"]["input_dim"].as_u64().unwrap();
    t.call(
        &server,
        &key,
        "models/download",
        &format!(r#"{{"model":{svm}}}"#),
    );
    t.call(&server, &key, "models/download", r#"{"model":"x"}"#);
    t.call(&server, &key, "models/download", r#"{"model":77}"#);

    // models/upload
    let upload = |scheme: u64, weights: &str| {
        format!(
            concat!(
                r#"{{"name":"copy","scheme":{},"feature_kind":"Cnn","#,
                r#""input_dim":{},"weights":{}}}"#
            ),
            scheme, input_dim, weights
        )
    };
    let copy = t.call(&server, &key, "models/upload", &upload(scheme, &weights));
    let copy = copy.body["model"].as_u64().unwrap();
    t.call(&server, &key, "models/upload", r#"{"name":"copy"}"#);
    t.call(&server, &key, "models/upload", &upload(4242, &weights));
    t.call(
        &server,
        &key,
        "models/upload",
        &upload(scheme, r#"{"Svm":1}"#),
    );

    // models/apply
    for model in [svm, copy] {
        t.call(
            &server,
            &key,
            "models/apply",
            &format!(r#"{{"model":{model},"images":[{},{}]}}"#, ids[4], ids[5]),
        );
    }
    t.call(&server, &key, "models/apply", r#"{"model":1,"images":7}"#);
    t.call(
        &server,
        &key,
        "models/apply",
        &format!(r#"{{"model":77,"images":[{}]}}"#, ids[0]),
    );
    t.call(
        &server,
        &key,
        "models/apply",
        &format!(r#"{{"model":{svm},"images":[123456]}}"#),
    );

    // edge/dispatch
    for body in [
        r#"{"device":"desktop","max_latency_ms":1000.0}"#,
        r#"{"device":"phone","max_latency_ms":500.0,"min_accuracy":0.7}"#,
        r#"{"device":"rpi","max_latency_ms":5000.0,"min_inferences_per_charge":10}"#,
        r#"{"device":"rpi","max_latency_ms":0.01}"#,
        r#"{"device":3}"#,
        r#"{"device":"toaster","max_latency_ms":100.0}"#,
    ] {
        t.call(&server, &key, "edge/dispatch", body);
    }

    t.call(&server, &key, "health", "");
    t.call(&server, &key, "stats", "");
    t.call(&server, &key, "nope/nope", "{}");

    // A bad key, then a key throttled by a two-token bucket.
    t.call(&server, "not-a-key", "stats", "");
    let tight = ApiServer::with_rate_limit(
        Arc::clone(platform),
        RateLimitConfig {
            burst: 2,
            per_second: 1.0,
            ..Default::default()
        },
    );
    let throttled = tight.issue_key(UserId(0));
    for _ in 0..3 {
        t.call(&tight, &throttled, "stats", "");
    }
}

/// Admission control on `platform`: uploads until one is shed, the
/// health body's counters, a query served and a dispatch shed inside
/// the remaining backlog.
fn drive_admission(platform: &Arc<Tvdp>, t: &mut Transcript) {
    let server = ApiServer::with_admission(
        Arc::clone(platform),
        open_limit(),
        AdmissionConfig {
            capacity_units_per_sec: 1_000,
            dispatch_max_delay_ms: 4,
            query_max_delay_ms: 20,
            ingest_max_delay_ms: 40,
        },
    );
    let key = server.issue_key(platform.register_user("ops", Role::Government));
    for i in 0..7 {
        let request = ApiRequest::new(&key, "data/add", add_body(i % 2, 60 + i));
        t.send(&server, &request, 1_000);
    }
    t.send(&server, &ApiRequest::new(&key, "health", ""), 1_000);
    let search = ApiRequest::new(
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
    );
    t.send(&server, &search, 1_030);
    let dispatch = ApiRequest::new(
        &key,
        "edge/dispatch",
        r#"{"device":"desktop","max_latency_ms":1000.0}"#,
    );
    t.send(&server, &dispatch, 1_030);
    t.send(&server, &ApiRequest::new(&key, "health", ""), 1_030);
}

#[test]
fn every_route_answers_the_pinned_bytes() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("tvdp-route-digest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let durable = Arc::new(Tvdp::open(&dir, fast_config()).unwrap().0);
    let mut t = Transcript::default();
    for platform in [Arc::new(Tvdp::new(fast_config())), durable] {
        drive(&platform, &mut t);
        drive_admission(&platform, &mut t);
    }
    std::fs::remove_dir_all(&dir).ok();

    let routes = t.routes();
    let table: String = routes
        .iter()
        .map(|(route, h)| format!("    ({route:?}, 0x{h:016x}),\n"))
        .collect();
    let report = format!("TOTAL = 0x{:016x}\nROUTES = [\n{table}]", t.total());
    if let Some((route, h)) = routes
        .iter()
        .find(|(route, h)| !ROUTES.contains(&(route.as_str(), *h)))
    {
        panic!("route {route} answers other bytes (digest 0x{h:016x})\n{report}");
    }
    assert_eq!(routes.len(), ROUTES.len(), "{report}");
    assert_eq!(t.total(), TOTAL, "the script's order moved\n{report}");
}
