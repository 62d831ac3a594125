//! Lint rule L2 end-to-end: a mixed hybrid + LSH + inverted-index
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
    EngineConfig, Query, QueryEngine, QueryResult, ShardedEngine, SpatialQuery, TemporalField,
    TextualMode, VisualMode,
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

#[test]
fn bulk_rebuild_is_indistinguishable_from_incremental_indexing() {
    // (seal cap, full-segment multiple k): corpora of k·cap, k·cap − 1
    // and 0 rows, each later grown by 2·cap rows.
    const CASES: [(usize, usize); 3] = [(1, 40), (7, 6), (128, 2)];
    let source = build_store(2 * 128 + 2 * 128, 42);
    let ids = source.image_ids();
    for (cap, k) in CASES {
        for rows in [k * cap, k * cap - 1, 0] {
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
                    witness(&bulk, &pool),
                    witness(&incremental, &pool),
                    "{case}: bulk rebuild diverged from incremental indexing"
                );

                // Both keep ingesting from the state they were left in:
                // the bulk path seeded its pending tail and its
                // idempotency set like the incremental one.
                let more = &ids[rows..rows + 2 * cap];
                copy_rows(&source, more, &store);
                for &id in more {
                    incremental.index_image(0, id);
                    bulk.index_image(0, id);
                }
                for id in store.image_ids() {
                    bulk.index_image(0, id);
                }
                assert_eq!(bulk.len(), rows + 2 * cap, "{case}: re-indexed a row");
                assert_eq!(
                    witness(&bulk, &pool),
                    witness(&incremental, &pool),
                    "{case}: engines diverged after further ingest"
                );
            }
        }
    }
}
