//! Overload and degraded-mode behavior of the API surface.
//!
//! Three serving properties under stress, all deterministic on the
//! virtual clock:
//!
//! * malformed queries — including hybrid `And` trees with a bad leg —
//!   come back as structured 400 bodies, never panics;
//! * an admission-controlled server sheds with 503 + `retry_after_ms`
//!   once the modeled backlog passes a class's delay bound, and the
//!   hint is honest: retrying after exactly that long is admitted;
//! * a WAL write fault during live traffic flips the platform
//!   read-only (mutations 503, reads still 200), the `health` endpoint
//!   narrates ReadOnly → Degraded → Ok, and clearing the fault heals
//!   the platform without a restart;
//! * a request is one physical journal write, so a write fault at any
//!   byte of it stores none of the request.

use std::path::PathBuf;
use std::sync::Arc;

use tvdp_api::{ApiRequest, ApiServer, RateLimitConfig};
use tvdp_core::{AdmissionConfig, PlatformConfig, Role, Tvdp};
use tvdp_storage::store::first_difference;
use tvdp_storage::{codec, VisualStore, WalOp, WriteFaultPlan};
use tvdp_vision::{CnnConfig, FeatureKind, Image};

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

fn scene(seed: usize) -> Image {
    Image::from_fn(24, 24, |x, y| {
        let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
        [200, v, v]
    })
}

fn add_body(seed: usize) -> String {
    let img = scene(seed);
    format!(
        concat!(
            r#"{{"width":{},"height":{},"pixels":"{}","lat":34.05,"lon":-118.25,"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":["street"]}}"#
        ),
        img.width(),
        img.height(),
        codec::hex_encode(img.raw()),
        1000 + seed,
        1100 + seed,
    )
}

fn call_at(
    server: &ApiServer,
    key: &str,
    endpoint: &str,
    body: &str,
    now_ms: i64,
) -> tvdp_api::ApiResponse {
    server.handle(&ApiRequest::new(key, endpoint, body), now_ms)
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tvdp-api-resilience-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

// ---------------------------------------------------------------------
// Malformed queries: structured 400s, never panics.
// ---------------------------------------------------------------------

/// `And[Range, Visual]` whose example is of the indexed family (CNN)
/// but two floats long.
const BAD_HYBRID: &str = concat!(
    r#"{"query":{"And":["#,
    r#"{"Spatial":{"Range":{"min_lat":33.0,"min_lon":-119.0,"max_lat":35.0,"max_lon":-118.0}}},"#,
    r#"{"Visual":{"example":[0.25,0.5],"kind":"Cnn","mode":{"TopK":3}}}"#,
    r#"]}}"#,
);

#[test]
fn malformed_hybrid_query_is_a_structured_400_not_a_panic() {
    let platform = Arc::new(Tvdp::new(fast_config()));
    let user = platform.register_user("analyst", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
    let key = server.issue_key(user);

    // Seed one image so the visual index has rows to mismatch against.
    let r = call_at(&server, &key, "data/add", &add_body(0), 0);
    assert!(r.is_ok(), "{r:?}");

    // A hybrid query whose visual leg carries a wrong-dimension
    // example of the indexed family: the structured try_execute path
    // reports it as a 400 (regression: the index asserts on the length
    // and the scan kernel would score the common prefix).
    let r = call_at(&server, &key, "data/search", BAD_HYBRID, 0);
    assert_eq!(r.status, 400, "{r:?}");
    let msg = r.body["error"].as_str().unwrap();
    assert!(msg.contains("dimension"), "{msg}");

    // Structurally broken bodies and unknown query heads also land on
    // 400 with an explanatory error.
    for body in [
        r#"{"query":{"And":"not-an-array"}}"#,
        r#"{"query":{"Mystery":{}}}"#,
        r#"{"query"#,
    ] {
        let r = call_at(&server, &key, "data/search", body, 0);
        assert_eq!(r.status, 400, "{body} -> {r:?}");
        assert!(!r.body["error"].is_null(), "{body} -> {r:?}");
    }
}

/// The wrong-length example is a 400 naming the dimension whether the
/// rows it would have been compared with sit in the engine's tail (linear
/// scan) or in sealed segments (bounded segment scan), alone or inside
/// a hybrid tree, and the server keeps answering afterwards.
#[test]
fn wrong_dimension_example_is_a_400_over_tail_rows_and_sealed_segments() {
    const BAD_VISUAL: &str =
        r#"{"query":{"Visual":{"example":[0.25,0.5],"kind":"Cnn","mode":{"Threshold":9.0}}}}"#;
    const RANGE: &str = r#"{"query":{"Spatial":{"Range":{"min_lat":33.0,"min_lon":-119.0,"max_lat":35.0,"max_lon":-118.0}}}}"#;
    for seal_cap in [tvdp_query::DEFAULT_SEAL_CAP, 1] {
        let platform = Arc::new(Tvdp::new(PlatformConfig {
            seal_cap,
            ..fast_config()
        }));
        let user = platform.register_user("analyst", Role::Researcher);
        let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
        let key = server.issue_key(user);
        for seed in 0..3 {
            let r = call_at(&server, &key, "data/add", &add_body(seed), 0);
            assert!(r.is_ok(), "{r:?}");
        }
        let store = platform.store();
        let dim = store
            .feature(store.image_ids()[0], FeatureKind::Cnn)
            .expect("an extracted CNN row")
            .len();
        for body in [BAD_VISUAL, BAD_HYBRID] {
            let r = call_at(&server, &key, "data/search", body, 0);
            assert_eq!(r.status, 400, "seal_cap {seal_cap}: {body} -> {r:?}");
            let msg = r.body["error"].as_str().unwrap();
            assert!(
                msg.contains("dimension") && msg.contains(&dim.to_string()),
                "seal_cap {seal_cap}: {msg}"
            );
        }
        let r = call_at(&server, &key, "data/search", RANGE, 0);
        assert!(r.is_ok(), "seal_cap {seal_cap}: {r:?}");
        assert_eq!(r.body["count"].as_u64(), Some(3), "{r:?}");
    }
}

// ---------------------------------------------------------------------
// Admission control: 503 + honest retry_after_ms, dispatch sheds first.
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_503_with_honest_retry_hint() {
    let platform = Arc::new(Tvdp::new(fast_config()));
    let user = platform.register_user("city", Role::Government);
    // 1k units/s == 1 unit/virtual-ms: a handful of uploads saturates.
    let server = ApiServer::with_admission(
        Arc::clone(&platform),
        open_limit(),
        AdmissionConfig {
            capacity_units_per_sec: 1_000,
            dispatch_max_delay_ms: 4,
            query_max_delay_ms: 20,
            ingest_max_delay_ms: 40,
        },
    );
    let key = server.issue_key(user);

    // Uploads cost 8 units == 8 ms of backlog each; the ingest bound
    // (40 ms) admits the first six and sheds the seventh at delay 48.
    let mut shed_response = None;
    for i in 0..7 {
        let r = call_at(&server, &key, "data/add", &add_body(i), 0);
        if i < 6 {
            assert!(r.is_ok(), "upload {i}: {r:?}");
        } else {
            shed_response = Some(r);
        }
    }
    let shed = shed_response.unwrap();
    assert_eq!(shed.status, 503, "{shed:?}");
    assert!(shed.body["error"].as_str().unwrap().contains("overloaded"));
    let retry_after = shed.body["retry_after_ms"].as_i64().unwrap();
    assert!(retry_after > 0);

    let adm = call_at(&server, &key, "health", "", 0).body["admission"].clone();
    assert_eq!(adm["admitted"].as_u64().unwrap(), 6);
    assert_eq!(adm["shed"].as_u64().unwrap(), 1);
    assert_eq!(adm["per_class"][2]["class"].as_str().unwrap(), "ingest");
    assert_eq!(adm["per_class"][2]["shed"].as_u64().unwrap(), 1);

    // The retry hint is honest: replaying the shed upload exactly
    // retry_after_ms later is admitted.
    let r = call_at(&server, &key, "data/add", &add_body(6), retry_after);
    assert!(r.is_ok(), "{r:?}");

    // Priority shedding: pick a probe time where the remaining backlog
    // is inside the query bound (20 ms) but past the dispatch bound
    // (4 ms) — the interactive query is served while the cheap-to-retry
    // dispatch is shed.
    let health = call_at(&server, &key, "health", "", 0);
    let backlog = health.body["admission"]["backlog_ms"].as_i64().unwrap();
    let probe_at = backlog - 10;
    let q = call_at(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
        probe_at,
    );
    assert!(q.is_ok(), "{q:?}");
    let d = call_at(
        &server,
        &key,
        "edge/dispatch",
        r#"{"device":"desktop","max_latency_ms":1000.0}"#,
        probe_at,
    );
    assert_eq!(d.status, 503, "{d:?}");
}

#[test]
fn health_endpoint_reports_state_and_admission_counters() {
    let platform = Arc::new(Tvdp::new(fast_config()));
    let user = platform.register_user("ops", Role::Government);
    let server = ApiServer::with_admission(
        Arc::clone(&platform),
        open_limit(),
        AdmissionConfig::default(),
    );
    let key = server.issue_key(user);

    let r = call_at(&server, &key, "data/add", &add_body(0), 0);
    assert!(r.is_ok(), "{r:?}");

    let h = call_at(&server, &key, "health", "", 0);
    assert!(h.is_ok(), "{h:?}");
    assert_eq!(h.body["state"].as_str().unwrap(), "ok");
    assert!(!h.body["durable"].as_bool().unwrap());
    assert!(h.body["last_error"].is_null());
    assert_eq!(h.body["write_faults"].as_u64().unwrap(), 0);
    let adm = &h.body["admission"];
    assert_eq!(adm["admitted"].as_u64().unwrap(), 1);
    assert_eq!(adm["shed"].as_u64().unwrap(), 0);
    // Per-class rows render in shed-first order with stable names.
    let classes: Vec<&str> = (0..3)
        .map(|i| adm["per_class"][i]["class"].as_str().unwrap())
        .collect();
    assert_eq!(classes, ["dispatch", "query", "ingest"]);
}

/// `edge/dispatch` decodes its body before it asks for admission, as
/// every other priced route does: a malformed body is a 400 that neither
/// counts as admitted nor advances the modeled backlog.
#[test]
fn a_malformed_dispatch_body_is_refused_before_admission() {
    let platform = Arc::new(Tvdp::new(fast_config()));
    let user = platform.register_user("ops", Role::Government);
    let server = ApiServer::with_admission(
        Arc::clone(&platform),
        open_limit(),
        AdmissionConfig {
            capacity_units_per_sec: 1_000,
            ..AdmissionConfig::default()
        },
    );
    let key = server.issue_key(user);
    let r = call_at(&server, &key, "data/add", &add_body(0), 0);
    assert!(r.is_ok(), "{r:?}");
    let admission = || call_at(&server, &key, "health", "", 0).body["admission"].clone();
    let before = admission();
    assert!(before["backlog_ms"].as_i64().unwrap() > 0, "{before:?}");

    for body in [
        r#"{"max_latency_ms":1000.0}"#,
        r#"{"device":"desktop"}"#,
        r#"{"device":7,"max_latency_ms":1000.0}"#,
        r#"{"device":"desktop","max_latency_ms":1000.0,"min_accuracy":"high"}"#,
        r#"{"device":"toaster","max_latency_ms":1000.0}"#,
    ] {
        let r = call_at(&server, &key, "edge/dispatch", body, 0);
        assert_eq!(r.status, 400, "{body} -> {r:?}");
        assert_eq!(admission(), before, "{body} moved the admission counters");
    }

    // A well-formed dispatch is admitted and charged.
    let r = call_at(
        &server,
        &key,
        "edge/dispatch",
        r#"{"device":"desktop","max_latency_ms":1000.0}"#,
        0,
    );
    assert!(r.is_ok(), "{r:?}");
    let after = admission();
    assert_eq!(after["per_class"][0]["admitted"].as_u64(), Some(1));
    assert!(after["backlog_ms"].as_i64() > before["backlog_ms"].as_i64());
}

// ---------------------------------------------------------------------
// Degraded mode: WAL fault under live traffic, observed via the API.
// ---------------------------------------------------------------------

#[test]
fn write_fault_flips_read_only_and_heals_through_the_api() {
    let dir = temp_dir("degrade");
    let (platform, _report) = Tvdp::open(&dir, fast_config()).unwrap();
    let platform = Arc::new(platform);
    let user = platform.register_user("field", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
    let key = server.issue_key(user);

    // Nominal traffic: uploads land, health is Ok.
    for i in 0..3 {
        let r = call_at(&server, &key, "data/add", &add_body(i), i as i64);
        assert!(r.is_ok(), "{r:?}");
    }
    let h = call_at(&server, &key, "health", "", 10);
    assert_eq!(h.body["state"].as_str().unwrap(), "ok");
    assert!(h.body["durable"].as_bool().unwrap());

    // The volume fills mid-append: the next WAL write takes a 3-byte
    // torn prefix and fails with ENOSPC, then stays full.
    let plan = Arc::new(WriteFaultPlan::new());
    platform
        .set_write_fault_plan(Some(Arc::clone(&plan)))
        .unwrap();
    plan.arm_enospc(3);

    // The faulted upload is refused with 503 — not a panic, not a
    // silent drop.
    let refused = call_at(&server, &key, "data/add", &add_body(10), 20);
    assert_eq!(refused.status, 503, "{refused:?}");

    // The store is now read-only: mutations 503, queries still 200.
    let still_refused = call_at(&server, &key, "data/add", &add_body(11), 21);
    assert_eq!(still_refused.status, 503, "{still_refused:?}");
    assert!(still_refused.body["error"]
        .as_str()
        .unwrap()
        .contains("read-only"));
    let q = call_at(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
        22,
    );
    assert!(q.is_ok(), "{q:?}");
    assert_eq!(q.body["count"].as_u64().unwrap(), 3);
    let h = call_at(&server, &key, "health", "", 23);
    assert_eq!(h.body["state"].as_str().unwrap(), "read_only");
    assert!(h.body["write_faults"].as_u64().unwrap() >= 1);
    assert!(!h.body["last_error"].is_null());

    // The disk frees up: the next mutation repairs the torn tail and
    // succeeds. A scheme registration journals exactly one commit, so
    // the intermediate Degraded state (healing but not yet proven) is
    // observable through the health endpoint before the next write
    // returns the platform to Ok. No restart involved.
    plan.clear();
    let healed = call_at(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"binary","labels":["clean","dirty"]}"#,
        30,
    );
    assert!(healed.is_ok(), "{healed:?}");
    let h = call_at(&server, &key, "health", "", 31);
    assert_eq!(h.body["state"].as_str().unwrap(), "degraded");
    // The next commit that lands confirms the write path: the platform
    // is Ok again by the time the upload returns.
    let confirmed = call_at(&server, &key, "data/add", &add_body(13), 32);
    assert!(confirmed.is_ok(), "{confirmed:?}");
    let h = call_at(&server, &key, "health", "", 33);
    assert_eq!(h.body["state"].as_str().unwrap(), "ok");
    assert!(h.body["last_error"].is_null());

    // Everything acked survived; nothing shed was resurrected. A
    // reopen replays to exactly the four acked images.
    let q = call_at(
        &server,
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
        40,
    );
    assert_eq!(q.body["count"].as_u64().unwrap(), 4);
    drop(server);
    drop(platform);
    let (reopened, _r) = Tvdp::open(&dir, fast_config()).unwrap();
    assert_eq!(reopened.stats().images, 4);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// One request, one write: a fault at any byte stores none of it.
// ---------------------------------------------------------------------

/// A small two-class upload: frames of a few hundred bytes keep an
/// every-byte sweep cheap.
fn tiny_add_body(class: usize, seed: usize) -> String {
    let img = Image::from_fn(2, 2, |x, y| {
        let v = ((x + 2 * y + seed) % 5) as u8 * 40;
        if class == 0 {
            [200, v, v]
        } else {
            [v, v, 220]
        }
    });
    format!(
        concat!(
            r#"{{"width":2,"height":2,"pixels":"{}","lat":34.05,"lon":-118.25,"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":["street"]}}"#
        ),
        codec::hex_encode(img.raw()),
        1000 + seed,
        1100 + seed,
    )
}

#[test]
fn a_write_fault_at_any_byte_of_an_upload_stores_none_of_it() {
    let dir = temp_dir("upload-cuts");
    let platform = Arc::new(Tvdp::open(&dir, fast_config()).unwrap().0);
    let user = platform.register_user("field", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
    let key = server.issue_key(user);

    // A clean upload measures the one composite record a `data/add`
    // journals. Records are fixed-width in the ids they carry, so every
    // later one is as long; a budget of the whole length lets every
    // byte land and fails the write all the same.
    let r = call_at(&server, &key, "data/add", &tiny_add_body(0, 0), 0);
    assert!(r.is_ok(), "{r:?}");
    let frames_len = std::fs::metadata(dir.join("wal-0.log")).unwrap().len() as usize;
    let mut acked = 1;
    let dump = |store: &VisualStore| -> Vec<WalOp> { store.snapshot().into_ops() };
    let mut acked_state = dump(platform.store());

    let plan = WriteFaultPlan::new();
    platform
        .set_write_fault_plan(Some(Arc::clone(&plan)))
        .unwrap();
    for budget in 0..=frames_len {
        let body = tiny_add_body(0, budget);
        plan.arm_enospc(budget);
        let cut = call_at(&server, &key, "data/add", &body, 1);
        assert_eq!(cut.status, 503, "budget {budget}: {cut:?}");
        assert_eq!(platform.stats().images, acked, "budget {budget}");
        assert_eq!(
            first_difference(&dump(platform.store()), &acked_state),
            None,
            "budget {budget}: part of the refused upload was stored"
        );
        plan.clear();
        let retry = call_at(&server, &key, "data/add", &body, 2);
        assert!(retry.is_ok(), "budget {budget}: {retry:?}");
        acked += 1;
        acked_state = dump(platform.store());
    }
    drop(server);
    drop(platform);

    // Exactly the acked uploads, each whole.
    let (reopened, _) = Tvdp::open(&dir, fast_config()).unwrap();
    assert_eq!(reopened.stats().images, acked);
    assert_eq!(
        first_difference(&dump(reopened.store()), &acked_state),
        None
    );
    assert_eq!(
        reopened.store().images_with_feature(FeatureKind::Cnn).len(),
        acked
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_write_fault_at_any_byte_of_a_model_application_stores_no_annotation() {
    const K: usize = 4;
    let dir = temp_dir("apply-cuts");
    let platform = Arc::new(Tvdp::open(&dir, fast_config()).unwrap().0);
    let user = platform.register_user("analyst", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
    let key = server.issue_key(user);

    // Twelve labelled uploads and a model devised from them.
    let scheme = call_at(
        &server,
        &key,
        "schemes/register",
        r#"{"name":"binary","labels":["red","blue"]}"#,
        0,
    )
    .body["scheme"]
        .as_u64()
        .unwrap();
    let mut images = Vec::new();
    for i in 0..12 {
        let r = call_at(&server, &key, "data/add", &tiny_add_body(i % 2, i), 0);
        let id = r.body["image"].as_u64().unwrap();
        let label = format!(r#"{{"image":{id},"scheme":{scheme},"label":{}}}"#, i % 2);
        assert!(call_at(&server, &key, "annotations/add", &label, 0).is_ok());
        images.push(id.to_string());
    }
    let devise = format!(
        r#"{{"name":"m","scheme":{scheme},"feature_kind":"Cnn","algorithm":"NaiveBayes"}}"#
    );
    let model = call_at(&server, &key, "models/devise", &devise, 0);
    assert!(model.is_ok(), "{model:?}");
    let apply = format!(
        r#"{{"model":{},"images":[{}]}}"#,
        model.body["model"].as_u64().unwrap(),
        images[..K].join(",")
    );

    // A clean application measures its K `Annotate` frames: one write.
    let wal = dir.join("wal-0.log");
    let before = std::fs::metadata(&wal).unwrap().len();
    let r = call_at(&server, &key, "models/apply", &apply, 1);
    assert!(r.is_ok(), "{r:?}");
    let frames_len = (std::fs::metadata(&wal).unwrap().len() - before) as usize;
    let mut annotations = 12 + K;
    assert_eq!(platform.stats().annotations, annotations);

    // Wherever the write is cut — inside the first frame or after it —
    // no prediction of the refused request is stored. The plan is
    // re-armed without healing in between: every attempt first repairs
    // the tail its predecessor tore.
    let plan = WriteFaultPlan::new();
    platform
        .set_write_fault_plan(Some(Arc::clone(&plan)))
        .unwrap();
    for budget in 0..=frames_len {
        plan.arm_enospc(budget);
        let cut = call_at(&server, &key, "models/apply", &apply, 2);
        assert_eq!(cut.status, 503, "budget {budget}: {cut:?}");
        assert_eq!(platform.stats().annotations, annotations, "budget {budget}");
    }
    plan.clear();
    let r = call_at(&server, &key, "models/apply", &apply, 3);
    assert!(r.is_ok(), "{r:?}");
    annotations += K;
    drop(server);
    drop(platform);

    let (reopened, _) = Tvdp::open(&dir, fast_config()).unwrap();
    assert_eq!(reopened.stats().annotations, annotations);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Deadlines: a tight virtual-clock budget surfaces as 504.
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_surfaces_as_504() {
    let platform = Arc::new(Tvdp::new(fast_config()));
    let user = platform.register_user("analyst", Role::Researcher);
    let server = ApiServer::with_rate_limit(Arc::clone(&platform), open_limit());
    let key = server.issue_key(user);
    let r = call_at(&server, &key, "data/add", &add_body(0), 0);
    assert!(r.is_ok(), "{r:?}");

    let request = ApiRequest::new(
        &key,
        "data/search",
        r#"{"query":{"Textual":{"text":"street","mode":"All"}}}"#,
    )
    .with_deadline(5);
    // Plenty of budget: identical results to an undeadlined search.
    let ok = server.handle(&request, 0);
    assert!(ok.is_ok(), "{ok:?}");
    assert_eq!(ok.body["count"].as_u64().unwrap(), 1);
    // Already expired on arrival: 504 with the modeled clock in the
    // error, and the decision does not depend on pool width.
    let expired = server.handle(&request, 10);
    assert_eq!(expired.status, 504, "{expired:?}");
    assert!(expired.body["error"]
        .as_str()
        .unwrap()
        .contains("deadline exceeded"));
}
