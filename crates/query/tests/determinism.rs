//! Lint rule L2 end-to-end: a mixed hybrid + visual + inverted-index
//! workload must produce byte-identical serialized results no matter how
//! many pool threads execute it.
//!
//! The comparison serializes every result row with `Debug` formatting
//! (exact decimal rendering of `f64` scores), so any nondeterminism —
//! hash-order iteration, thread-dependent reduction order, floating-point
//! reassociation — shows up as a byte difference.

use std::sync::Arc;

use tvdp_kernel::rng::Rng;

use tvdp_geo::{BBox, Fov, GeoPoint};
use tvdp_kernel::Pool;
use tvdp_query::{
    EngineConfig, LinearExecutor, Query, QueryEngine, QueryResult, ShardedEngine, SpatialQuery,
    TemporalField, TextualMode, VisualMode, FOLD,
};
use tvdp_storage::{AnnotationSource, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp};
use tvdp_vision::FeatureKind;

const DIM: usize = 8;

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let store = VisualStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let cls = store
        .register_scheme("cleanliness", vec!["clean".into(), "dirty".into()])
        .unwrap();
    const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];
    for i in 0..n {
        let lat = 34.0 + rng.gen_range(0.0..0.05);
        let lon = -118.3 + rng.gen_range(0.0..0.05);
        let gps = GeoPoint::new(lat, lon);
        let fov = rng.gen_bool(0.8).then(|| {
            Fov::new(
                gps,
                rng.gen_range(0.0..360.0),
                rng.gen_range(40.0..80.0),
                rng.gen_range(50.0..150.0),
            )
        });
        let captured = 1_000 + rng.gen_range(0..10_000);
        let n_words = rng.gen_range(1..4);
        let keywords: Vec<String> = (0..n_words)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())].to_string())
            .collect();
        let meta = ImageMeta {
            uploader: UserId(rng.gen_range(0..5)),
            gps,
            fov,
            captured_at: captured,
            uploaded_at: captured + rng.gen_range(1..500),
            keywords,
        };
        let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
        let class = i % 2;
        let feature: Vec<f32> = (0..DIM)
            .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
            .collect();
        store.put_feature(id, FeatureKind::Cnn, feature).unwrap();
        store
            .annotate(
                id,
                cls,
                class,
                rng.gen_range(0.5..1.0),
                AnnotationSource::Human(UserId(0)),
                None,
            )
            .unwrap();
    }
    Arc::new(store)
}

/// The mixed workload: exact hybrid visual, textual (boolean + ranked),
/// spatial, temporal, and conjunctive/disjunctive combinations.
fn workload() -> Vec<Query> {
    let example: Vec<f32> = (0..DIM)
        .map(|d| if d % 2 == 0 { 0.1 } else { 1.9 })
        .collect();
    vec![
        Query::Visual {
            example: example.clone(),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(10),
        },
        Query::Visual {
            example: example.clone(),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.5),
        },
        Query::Textual {
            text: "street trash".into(),
            mode: TextualMode::Any,
        },
        Query::Textual {
            text: "downtown tent".into(),
            mode: TextualMode::Ranked(15),
        },
        Query::Spatial(SpatialQuery::Range(BBox::new(
            34.01, -118.29, 34.04, -118.26,
        ))),
        Query::Temporal {
            field: TemporalField::Captured,
            from: 2_000,
            to: 9_000,
        },
        Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
            Query::Textual {
                text: "street".into(),
                mode: TextualMode::All,
            },
        ]),
        Query::Or(vec![
            Query::Textual {
                text: "alley".into(),
                mode: TextualMode::Any,
            },
            Query::Visual {
                example,
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(5),
            },
        ]),
    ]
}

/// Serializes one batch result to bytes. `Debug` prints `f64` scores with
/// exact round-trip precision, so this is a faithful byte-level witness.
fn serialize(results: &[Vec<QueryResult>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (qi, rows) in results.iter().enumerate() {
        out.extend_from_slice(format!("query {qi}:\n").as_bytes());
        for r in rows {
            out.extend_from_slice(format!("  {} {:?}\n", r.image.raw(), r.score).as_bytes());
        }
    }
    out
}

fn run_with_threads(config: &EngineConfig, threads: usize) -> Vec<u8> {
    let store = build_store(300, 42);
    let engine = QueryEngine::build(Arc::clone(&store), config.clone());
    let pool = Pool::new(threads);
    let results = pool.map(&workload(), |_, q| {
        engine.try_execute(q).expect("workload matches the index")
    });
    serialize(&results)
}

#[test]
fn exact_engine_is_thread_count_invariant() {
    let config = EngineConfig::default();
    let serial = run_with_threads(&config, 1);
    let pooled = run_with_threads(&config, 8);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, pooled,
        "exact hybrid workload differs between 1 and 8 pool threads"
    );
}

#[test]
fn rebuilt_engine_reproduces_identical_bytes() {
    // Same store seed, fresh engine + pool: the whole pipeline (ingest,
    // index build, batch execution) must be a pure function of the seed.
    let config = EngineConfig::default();
    let a = run_with_threads(&config, 4);
    let b = run_with_threads(&config, 4);
    assert_eq!(a, b, "identical builds produced different bytes");
}

// ---------------------------------------------------------------------
// Partition axis: cutting the corpus into segments must not change a
// single byte.
// ---------------------------------------------------------------------

/// A fresh store carrying `source`'s classification scheme.
fn empty_like(source: &VisualStore) -> Arc<VisualStore> {
    let scheme = source
        .scheme_by_name("cleanliness")
        .expect("reference scheme");
    let store = VisualStore::new();
    store
        .apply_batch(vec![WalOp::RegisterScheme {
            id: scheme.id,
            name: scheme.name.clone(),
            labels: scheme.labels.clone(),
        }])
        .unwrap();
    Arc::new(store)
}

/// Copies the rows `ids` of `source` into `store`, preserving their ids.
fn copy_rows(source: &VisualStore, ids: &[ImageId], store: &VisualStore) {
    for &id in ids {
        let rec = source.image(id).expect("listed id");
        let mut ops = vec![
            WalOp::AddImage {
                id,
                meta: rec.meta.clone(),
                origin: rec.origin.clone(),
                pixels: None,
            },
            WalOp::PutFeature {
                image: id,
                kind: FeatureKind::Cnn,
                vector: source.feature(id, FeatureKind::Cnn).expect("cnn feature"),
            },
        ];
        ops.extend(source.annotations_of(id).into_iter().map(WalOp::Annotate));
        store.apply_batch(ops).unwrap();
    }
}

fn run_sharded(cap: usize, threads: usize) -> Vec<u8> {
    let store = build_store(300, 42);
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), cap);
    let pool = Pool::new(threads);
    let results = engine
        .try_execute_batch_with_pool(&workload(), &pool)
        .expect("cnn-only workload");
    serialize(&results)
}

#[test]
fn sharded_engine_is_shard_and_thread_count_invariant() {
    // Seal caps from one row per segment to all 300 rows in the tail.
    let reference = run_sharded(1, 1);
    assert!(!reference.is_empty());
    for cap in [1, 7, 32, 128, 1000] {
        for threads in [1, 8] {
            assert_eq!(
                run_sharded(cap, threads),
                reference,
                "seal cap {cap} x {threads} threads diverged from seal cap 1 x 1 thread"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Construction axis: rebuilding over a populated store in bulk must be
// indistinguishable from having indexed the same rows one at a time.
// ---------------------------------------------------------------------

/// What an engine answers and how it prices the workload: the
/// result bytes plus each query's admission units, which count one per
/// segment and one per tail row and so pin the segment boundaries too.
fn witness(engine: &ShardedEngine, pool: &Pool) -> Vec<u8> {
    let queries = workload();
    let results = engine
        .try_execute_batch_with_pool(&queries, pool)
        .expect("cnn-only workload");
    let mut out = serialize(&results);
    out.extend_from_slice(format!("len {}\n", engine.len()).as_bytes());
    for q in &queries {
        out.extend_from_slice(format!("units {}\n", engine.estimate_query_units(q)).as_bytes());
    }
    out
}

/// The admission units of a query no row matches over `rows` rows
/// sealed `cap` at a time: one for the query, one per segment of the
/// layout rule (folded segments of `FOLD · cap` rows, then fewer than
/// `FOLD` small ones of `cap`), and one per tail row.
fn layout_units(rows: usize, cap: usize) -> u64 {
    let fold = FOLD * cap;
    let segments = rows / fold + rows % fold / cap;
    (1 + segments + rows % cap) as u64
}

/// A temporal leaf before every capture time: estimated at 0 rows in
/// every segment.
fn matches_nothing() -> Query {
    Query::Temporal {
        field: TemporalField::Captured,
        from: -2,
        to: -1,
    }
}

#[test]
fn bulk_rebuild_is_indistinguishable_from_incremental_indexing() {
    // (seal cap, folded-segment multiple k): corpora of k·F, k·F − 1,
    // k·F + 1 and 0 rows, F = FOLD·cap being a folded segment's size,
    // each later grown by F + 1 rows, so that both paths seal and fold
    // on the way and the bulk path starts from a fold boundary, a row
    // short of one (seven small segments and a tail a row short of a
    // seal) and a row past one.
    const CASES: [(usize, usize); 3] = [(1, 5), (7, 2), (128, 1)];
    let source = build_store(2 * (FOLD * 128 + 1), 42);
    let ids = source.image_ids();
    for (cap, k) in CASES {
        let fold = FOLD * cap;
        for rows in [k * fold, k * fold - 1, k * fold + 1, 0] {
            for width in [1usize, 2, 8] {
                let pool = Pool::new(width);
                let case = format!("cap {cap} rows {rows} width {width}");
                let store = empty_like(&source);
                let incremental = ShardedEngine::with_seal_cap_with_pool(
                    vec![Arc::clone(&store)],
                    EngineConfig::default(),
                    cap,
                    &pool,
                );
                copy_rows(&source, &ids[..rows], &store);
                for &id in &ids[..rows] {
                    incremental.index_image(0, id);
                }
                let bulk = ShardedEngine::with_seal_cap_with_pool(
                    vec![Arc::clone(&store)],
                    EngineConfig::default(),
                    cap,
                    &pool,
                );
                assert_eq!(bulk.len(), rows, "{case}");
                assert_eq!(
                    bulk.estimate_query_units(&matches_nothing()),
                    layout_units(rows, cap),
                    "{case}: the bulk layout"
                );
                assert_eq!(
                    witness(&bulk, &pool),
                    witness(&incremental, &pool),
                    "{case}: bulk rebuild diverged from incremental indexing"
                );

                // Both keep ingesting from the state they were left in:
                // the bulk path seeded its pending tail and its
                // idempotency set like the incremental one.
                let more = &ids[rows..rows + fold + 1];
                copy_rows(&source, more, &store);
                for &id in more {
                    incremental.index_image(0, id);
                    bulk.index_image(0, id);
                }
                for id in store.image_ids() {
                    bulk.index_image(0, id);
                }
                assert_eq!(bulk.len(), rows + fold + 1, "{case}: re-indexed a row");
                assert_eq!(
                    incremental.estimate_query_units(&matches_nothing()),
                    layout_units(rows + fold + 1, cap),
                    "{case}: the incremental layout"
                );
                assert_eq!(
                    witness(&bulk, &pool),
                    witness(&incremental, &pool),
                    "{case}: engines diverged after further ingest"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The planner's EXPLAIN: counts that hold across pool widths, and a
// record per leaf that counts what the oracle returns for it.
// ---------------------------------------------------------------------

/// The workload plus the shapes whose leaves are recorded differently:
/// a region-restricted visual leaf with a leg after it, a nearest
/// search and a categorical leaf.
fn explained_workload() -> Vec<Query> {
    let example: Vec<f32> = (0..DIM).map(|d| (d % 3) as f32 * 0.7).collect();
    let scheme = tvdp_storage::ClassificationId(0);
    let mut queries = workload();
    queries.extend([
        Query::And(vec![
            Query::Temporal {
                field: TemporalField::Uploaded,
                from: 1_500,
                to: 8_000,
            },
            Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.03, -118.27))),
            Query::Visual {
                example,
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(12),
            },
        ]),
        Query::Spatial(SpatialQuery::Nearest {
            point: tvdp_geo::GeoPoint::new(34.02, -118.28),
            k: 9,
        }),
        Query::Categorical {
            scheme,
            label: 1,
            min_confidence: 0.7,
        },
    ]);
    queries
}

#[test]
fn the_trace_is_pool_invariant_and_each_leaf_counts_what_the_oracle_returns() {
    let store = build_store(300, 42);
    let oracle = LinearExecutor::new(Arc::clone(&store));
    let queries = explained_workload();
    for cap in [1, 7, 32, 128, 1000] {
        let engine =
            ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), cap);
        for q in &queries {
            let explain = |width| {
                let pool = Pool::new(width);
                engine
                    .try_explain(q, &pool, 0, i64::MAX)
                    .expect("valid query")
            };
            let (rows, trace) = explain(1);
            for width in [4, 8] {
                assert_eq!(
                    explain(width),
                    (rows.clone(), trace.clone()),
                    "cap {cap}: {q:?}"
                );
            }
            assert_eq!(rows, engine.try_execute(q).unwrap(), "cap {cap}: {q:?}");
            assert!(!trace.leaves.is_empty(), "cap {cap}: {q:?}");
            for leaf in &trace.leaves {
                let alone = oracle.execute(&leaf.query(q));
                assert_eq!(
                    leaf.actual,
                    alone.len() as u64,
                    "cap {cap}: {leaf:?} of {q:?}"
                );
            }
        }
    }

    // The counts themselves, at 300 rows sealed 32 at a time: one
    // folded segment of 256 rows, one small one of 32 and a 12-row
    // tail.
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 32);
    let explain = |q: &Query| {
        engine
            .try_explain(q, &Pool::serial(), 0, i64::MAX)
            .unwrap()
            .1
    };
    let temporal = explain(&queries[5]);
    assert_eq!(
        (temporal.segments_visited, temporal.units_dispatched),
        (2, 3)
    );
    assert_eq!((temporal.rows_scored, temporal.nodes_touched), (0, 0));
    assert_eq!(temporal.leaves[0].kind, "temporal");
    assert!(temporal.leaves[0].drove);
    // 300 rows fill no arena chunk, so no row has a projected bound:
    // a top-k runs no bound phase and scores every row at full width.
    let top = explain(&queries[0]);
    assert_eq!((top.segments_visited, top.units_dispatched), (2, 3));
    assert_eq!((top.rows_bounded, top.rows_scored), (0, 300), "{top:?}");
    // The hybrid conjunction is one leaf driven by the visual scan,
    // whose region walks the scene trees; the temporal leg filters.
    let hybrid = explain(&queries[8]);
    let kinds: Vec<(&str, bool, &[usize])> = (hybrid.leaves.iter())
        .map(|l| (l.kind, l.drove, &l.path[..]))
        .collect();
    assert_eq!(
        kinds,
        [
            ("hybrid.topk", true, &[][..]),
            ("temporal", false, &[0][..])
        ]
    );
    assert!(hybrid.nodes_touched >= 2, "{hybrid:?}");
}
