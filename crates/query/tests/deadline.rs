//! Deadline propagation through the platform's engine: a query that fits
//! its virtual-clock budget returns byte-identical results to the
//! undeadlined path, one that does not trips a typed
//! [`QueryError::DeadlineExceeded`] — and whether it trips is a pure
//! function of the snapshot and query, identical across pool widths.

use std::sync::Arc;

use tvdp_kernel::rng::Rng;

use tvdp_geo::{BBox, GeoPoint};
use tvdp_kernel::Pool;
use tvdp_query::{
    EngineConfig, Query, QueryEngine, QueryError, ShardedEngine, SpatialQuery, TemporalField,
    TextualMode, VisualMode,
};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, ImageId, ImageMeta, ImageOrigin,
    UserId, VisualStore, WalOp,
};
use tvdp_vision::FeatureKind;

const DIM: usize = 8;

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    const WORDS: [&str; 4] = ["street", "tent", "trash", "corner"];
    for i in 0..n {
        let gps = GeoPoint::new(
            34.0 + rng.gen_range(0.0..0.05),
            -118.3 + rng.gen_range(0.0..0.05),
        );
        let captured = 1_000 + rng.gen_range(0..10_000);
        let meta = ImageMeta {
            uploader: UserId(0),
            gps,
            fov: None,
            captured_at: captured,
            uploaded_at: captured + 10,
            keywords: vec![WORDS[i % WORDS.len()].to_string()],
        };
        let feature: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        ops.push(WalOp::IngestUpload {
            marker: None,
            id: ImageId(i as u64),
            meta,
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![(FeatureKind::Cnn, feature)],
        });
    }
    let store = VisualStore::new();
    store.apply_batch(ops).unwrap();
    Arc::new(store)
}

/// An engine over `rows` rows sealed `cap` at a time. A small cap
/// forces many segments, so the deadline walk crosses real segment-scan
/// boundaries; a cap above `rows` leaves every row in the tail.
fn engine(rows: usize, cap: usize) -> ShardedEngine {
    ShardedEngine::with_seal_cap(vec![build_store(rows, 42)], EngineConfig::default(), cap)
}

/// Seal caps from one row per segment to every row in the tail.
const SEAL_CAPS: [usize; 5] = [1, 7, 32, 128, 1000];

fn workload() -> Vec<Query> {
    let example: Vec<f32> = (0..DIM).map(|d| d as f32 * 0.1).collect();
    vec![
        Query::Visual {
            example: example.clone(),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(10),
        },
        Query::Textual {
            text: "street trash".into(),
            mode: TextualMode::Ranked(15),
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 2_000,
            to: 9_000,
        },
        Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
            Query::Visual {
                example,
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(5),
            },
        ]),
    ]
}

#[test]
fn generous_deadline_matches_undeadlined_results_exactly() {
    for cap in SEAL_CAPS {
        let eng = engine(300, cap);
        for threads in [1, 8] {
            let pool = Pool::new(threads);
            for q in workload() {
                let plain = eng.try_execute_with_pool(&q, &pool).unwrap();
                let deadlined = eng
                    .try_execute_with_deadline(&q, &pool, 1_000, i64::MAX)
                    .unwrap();
                assert_eq!(
                    plain, deadlined,
                    "seal cap {cap} x {threads} threads: {q:?}"
                );
            }
        }
    }
}

#[test]
fn already_expired_deadline_fails_before_any_scatter() {
    let eng = engine(100, 32);
    let pool = Pool::serial();
    for q in workload() {
        let err = eng
            .try_execute_with_deadline(&q, &pool, 5_000, 4_999)
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::DeadlineExceeded {
                    deadline_ms: 4_999,
                    ..
                }
            ),
            "query {q:?} returned {err:?}"
        );
    }
}

#[test]
fn deadline_trip_is_identical_across_pool_widths() {
    let serial = Pool::serial();
    let wide = Pool::new(8);
    for cap in SEAL_CAPS {
        let eng = engine(600, cap);
        // Sweep budgets from "nothing fits" to "everything fits"; at
        // every budget the serial and 8-wide pools must agree exactly —
        // same trip/no-trip decision, same error payload, same result
        // bytes.
        let mut executions = 0usize;
        let mut trips = 0usize;
        for budget in 0..40 {
            let deadline = 1_000 + budget;
            for q in workload() {
                let a = eng.try_execute_with_deadline(&q, &serial, 1_000, deadline);
                let b = eng.try_execute_with_deadline(&q, &wide, 1_000, deadline);
                assert_eq!(a, b, "seal cap {cap}, budget {budget} ms, query {q:?}");
                executions += 2;
                trips += usize::from(a.is_err());
            }
        }
        // Some budget trips at every cap. From a cap of 7 up the sweep
        // also reaches budgets that fit (600 rows are 16 scatter units
        // at cap 7: ten folded segments of 56, five small of 7 and a
        // tail; 5 at caps 32 and 128; 1 at 1000), so fewer than every
        // (budget, query) pair trips. At cap 1 they fold into 75
        // segments of 8, more units than the widest 39 ms budget can
        // charge, and every pair trips.
        assert!(trips > 0, "seal cap {cap}: the sweep never tripped");
        if cap == 1 {
            assert_eq!(trips, executions / 2, "seal cap 1");
        } else {
            assert!(
                trips < executions / 2,
                "seal cap {cap}: {trips} trips over {executions} executions"
            );
        }
    }
}

#[test]
fn tight_budget_trips_and_reports_the_modeled_clock() {
    let eng = engine(600, 32);
    let pool = Pool::serial();
    // Each scatter unit charges at least 1 virtual ms; 600 rows sealed
    // at 32 give 5 units (two folded segments of 256, two small of 32
    // and a 24-row tail), so a 2 ms budget cannot fit a full scatter.
    let err = eng
        .try_execute_with_deadline(&workload()[0], &pool, 0, 2)
        .unwrap_err();
    match err {
        QueryError::DeadlineExceeded {
            deadline_ms,
            now_ms,
        } => {
            assert_eq!(deadline_ms, 2);
            assert!(now_ms > deadline_ms, "clock must have passed the deadline");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn estimate_units_is_deterministic_and_scales_with_corpus() {
    let small = engine(40, 32);
    let big = engine(800, 32);
    for q in workload() {
        let a = small.estimate_query_units(&q);
        let b = small.estimate_query_units(&q);
        assert_eq!(a, b, "estimate must be a pure function of the snapshot");
        assert!(a >= 1, "every query costs at least one unit");
        assert!(
            big.estimate_query_units(&q) > a,
            "a 20x corpus must price higher: {q:?}"
        );
    }
}

/// A label's count is the store's, so the segments price their shares
/// of it: 200 labelled rows of 2,000 at seal cap 128 sit in a folded
/// segment of 1,024 rows (102.4 of them), seven of 128 (12.8 each) and
/// an 80-row tail a scan reads whole: 102 + 7 * 12 + 80 = 266 rows, not
/// the count again in every segment (200 + 7 * 128 + 80 = 1,176).
#[test]
fn a_categorical_leaf_is_priced_at_its_label_count_once() {
    let store = build_store(2_000, 42);
    let scheme = ClassificationId(0);
    let mut ops = vec![WalOp::RegisterScheme {
        id: scheme,
        name: "tents".into(),
        labels: vec!["none".into(), "tent".into()],
    }];
    let labelled = store.image_ids().into_iter().step_by(10);
    ops.extend(labelled.enumerate().map(|(i, image)| {
        WalOp::Annotate(Annotation {
            id: AnnotationId(i as u64),
            image,
            classification: scheme,
            label: 1,
            confidence: 0.9,
            source: AnnotationSource::Human(UserId(0)),
            region: None,
        })
    }));
    store.apply_batch(ops).unwrap();
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 128);
    let tents = Query::Categorical {
        scheme,
        label: 1,
        min_confidence: 0.5,
    };
    let (rows, trace) = engine
        .try_explain(&tents, &Pool::serial(), 0, i64::MAX)
        .unwrap();
    assert_eq!(rows.len(), 200);
    assert_eq!(trace.leaves.len(), 1);
    assert_eq!(trace.leaves[0].estimate, 266);
    // Admission adds a unit for the query and one per segment.
    assert_eq!(engine.estimate_query_units(&tents), 1 + 8 + 266);
}

/// `data/add` accepts any `i64` capture time, so a segment's temporal
/// span can be the whole of `i64`: wider than an `i64` can hold. Pricing
/// a temporal leaf over it must neither overflow (a debug panic) nor
/// take the wrapped span for an empty one (every row "matches").
#[test]
fn temporal_estimate_survives_a_span_wider_than_i64() {
    let store = VisualStore::new();
    let rows = [i64::MIN, i64::MAX].into_iter().enumerate();
    let rows = rows.map(|(i, captured_at)| WalOp::AddImage {
        id: ImageId(i as u64),
        meta: ImageMeta {
            uploader: UserId(0),
            gps: GeoPoint::new(34.0, -118.3),
            fov: None,
            captured_at,
            uploaded_at: 0,
            keywords: Vec::new(),
        },
        origin: ImageOrigin::Original,
        pixels: None,
    });
    store.apply_batch(rows.collect()).unwrap();
    let store = Arc::new(store);
    let captured = |from, to| Query::Temporal {
        field: TemporalField::Captured,
        from,
        to,
    };
    let (narrow, whole) = (captured(0, 10), captured(i64::MIN, i64::MAX));

    let single = QueryEngine::build(Arc::clone(&store), EngineConfig::default());
    assert!(single.estimated_cardinality(&narrow) < 1e-9);
    assert_eq!(single.estimated_cardinality(&whole), 2.0);
    assert!(single.try_execute(&narrow).unwrap().is_empty());
    assert_eq!(single.try_execute(&whole).unwrap().len(), 2);

    // Seal cap 2: both rows sit in one sealed segment, the tail is
    // empty. One unit for the query, one for the segment, then the
    // segment's estimated rows.
    let sharded = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 2);
    assert_eq!(sharded.estimate_query_units(&narrow), 2);
    assert_eq!(sharded.estimate_query_units(&whole), 4);
    // The conjunction runs both legs over the same span.
    let both = Query::And(vec![narrow, whole]);
    assert!(sharded
        .try_execute_with_pool(&both, tvdp_kernel::Pool::global())
        .unwrap()
        .is_empty());
}
