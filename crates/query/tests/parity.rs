//! Randomized parity suite for the query planner.
//!
//! Two guarantees are exercised here, both stronger than the per-family
//! agreement checks in `engine_vs_linear.rs`:
//!
//! 1. **Score-exact parity with the reference.** For seeded random
//!    query trees mixing every leaf family under `And`/`Or`, the engine
//!    must return the same image set as [`LinearExecutor`] with
//!    *bit-identical* scores (compared via `f64::to_bits`), not merely
//!    the same ids.
//! 2. **Pool-width determinism.** Batch execution must produce
//!    byte-identical output under a 1-thread and an 8-thread pool.
//! 3. **Partition invariance.** The same corpus cut into segments at
//!    every seal cap from one row per segment to all rows in the tail
//!    (small segments folded into larger ones wherever the corpus holds
//!    `FOLD` of them) must match the linear reference score-for-score,
//!    and batch output must be byte-identical across every (seal cap,
//!    pool width) combination.
//!
//! Plus regression tests for the conjunction fast path that used to
//! silently drop a second visual leaf of a different [`FeatureKind`].

use std::sync::Arc;

use tvdp_kernel::rng::Rng;

use tvdp_geo::{AngularRange, BBox, Fov, GeoError, GeoPoint, GeoPolygon};
use tvdp_kernel::Pool;
use tvdp_query::{
    EngineConfig, LinearExecutor, Query, QueryEngine, QueryError, QueryResult, ShardedEngine,
    SpatialQuery, TemporalField, TextualMode, VisualMode, FOLD,
};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, ImageId, ImageMeta, ImageOrigin,
    UserId, VisualStore, WalOp,
};
use tvdp_vision::FeatureKind;

const DIM: usize = 8;
const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];

fn build_store(n: usize, seed: u64) -> (Arc<VisualStore>, ClassificationId) {
    let mut rng = Rng::seed_from_u64(seed);
    let cls = ClassificationId(0);
    let mut ops = vec![WalOp::RegisterScheme {
        id: cls,
        name: "cleanliness".into(),
        labels: vec!["clean".into(), "dirty".into(), "encampment".into()],
    }];
    for i in 0..n {
        let lat = 34.0 + rng.gen_range(0.0..0.05);
        let lon = -118.3 + rng.gen_range(0.0..0.05);
        let gps = GeoPoint::new(lat, lon);
        let fov = if rng.gen_bool(0.8) {
            Some(Fov::new(
                gps,
                rng.gen_range(0.0..360.0),
                rng.gen_range(40.0..80.0),
                rng.gen_range(50.0..150.0),
            ))
        } else {
            None
        };
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
        let id = ImageId(i as u64);
        // Clustered features: class c centred at 2c, so random examples
        // drawn the same way produce well-separated distances (no ties).
        let class = i % 3;
        let feature: Vec<f32> = (0..DIM)
            .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
            .collect();
        ops.push(WalOp::IngestUpload {
            marker: None,
            id,
            meta,
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![(FeatureKind::Cnn, feature)],
        });
        ops.push(WalOp::Annotate(Annotation {
            id: AnnotationId(i as u64),
            image: id,
            classification: cls,
            label: class,
            confidence: rng.gen_range(0.5..1.0),
            source: AnnotationSource::Human(UserId(0)),
            region: None,
        }));
    }
    let store = VisualStore::new();
    store.apply_batch(ops).unwrap();
    (Arc::new(store), cls)
}

/// Each query's rows from `engine`, run one after another on a pool of
/// `threads`.
fn answers(engine: &ShardedEngine, queries: &[Query], threads: usize) -> Vec<Vec<QueryResult>> {
    let pool = Pool::new(threads);
    let rows = queries
        .iter()
        .map(|q| engine.try_execute_with_pool(q, &pool));
    rows.collect::<Result<_, _>>().expect("cnn-only trees")
}

/// A query example drawn from the same clustered distribution as the
/// stored features.
fn random_example(rng: &mut Rng) -> Vec<f32> {
    let class = rng.gen_range(0..3usize);
    (0..DIM)
        .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
        .collect()
}

fn random_text(rng: &mut Rng) -> String {
    let n = rng.gen_range(1..3);
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn random_leaf(rng: &mut Rng, cls: ClassificationId) -> Query {
    match rng.gen_range(0..11u32) {
        0 => {
            let from = 1_000 + rng.gen_range(0..8_000);
            Query::Temporal {
                field: if rng.gen_bool(0.5) {
                    TemporalField::Captured
                } else {
                    TemporalField::Uploaded
                },
                from,
                to: from + rng.gen_range(500..4_000),
            }
        }
        1 => Query::Textual {
            text: random_text(rng),
            mode: if rng.gen_bool(0.5) {
                TextualMode::All
            } else {
                TextualMode::Any
            },
        },
        2 => Query::Textual {
            text: random_text(rng),
            mode: TextualMode::Ranked(rng.gen_range(3..25)),
        },
        3 => Query::Categorical {
            scheme: cls,
            label: rng.gen_range(0..3),
            min_confidence: rng.gen_range(0.4..0.9),
        },
        4 => {
            let lat = 34.0 + rng.gen_range(0.0..0.04);
            let lon = -118.3 + rng.gen_range(0.0..0.04);
            let side = rng.gen_range(0.005..0.03);
            Query::Spatial(SpatialQuery::Range(BBox::new(
                lat,
                lon,
                lat + side,
                lon + side,
            )))
        }
        5 => {
            let a = GeoPoint::new(
                34.0 + rng.gen_range(0.0..0.03),
                -118.3 + rng.gen_range(0.0..0.03),
            );
            Query::Spatial(SpatialQuery::Within(GeoPolygon::new(vec![
                a,
                a.destination(90.0, rng.gen_range(1_000.0..4_000.0)),
                a.destination(0.0, rng.gen_range(1_000.0..4_000.0)),
            ])))
        }
        6 => Query::Spatial(SpatialQuery::Nearest {
            point: GeoPoint::new(
                34.0 + rng.gen_range(0.0..0.05),
                -118.3 + rng.gen_range(0.0..0.05),
            ),
            k: rng.gen_range(1..30),
        }),
        7 => Query::Spatial(SpatialQuery::Covering(GeoPoint::new(
            34.0 + rng.gen_range(0.0..0.05),
            -118.3 + rng.gen_range(0.0..0.05),
        ))),
        8 => Query::Spatial(SpatialQuery::Directed {
            region: BBox::new(34.0, -118.3, 34.05, -118.25),
            directions: AngularRange::centered(rng.gen_range(0.0..360.0), 90.0),
        }),
        9 => Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(rng.gen_range(1..40)),
        },
        _ => Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(rng.gen_range(0.8..4.0)),
        },
    }
}

fn random_query(rng: &mut Rng, depth: usize, cls: ClassificationId) -> Query {
    if depth == 0 {
        return random_leaf(rng, cls);
    }
    match rng.gen_range(0..3u32) {
        0 => {
            let subs = (0..rng.gen_range(2..4))
                .map(|_| random_query(rng, depth - 1, cls))
                .collect();
            Query::And(subs)
        }
        1 => {
            let subs = (0..rng.gen_range(2..4))
                .map(|_| random_query(rng, depth - 1, cls))
                .collect();
            Query::Or(subs)
        }
        _ => random_leaf(rng, cls),
    }
}

/// Canonical form: `(id, score bits)` sorted, so leaf families whose
/// output order is unspecified (e.g. tree-order range scans) compare
/// set-wise while scores still have to match bit for bit.
fn canonical(results: &[QueryResult]) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = results
        .iter()
        .map(|r| (r.image.raw(), r.score.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn randomized_trees_match_linear_scan() {
    for store_seed in 0..25u64 {
        let (store, cls) = build_store(140, 1_000 + store_seed);
        let engine = QueryEngine::build(Arc::clone(&store), Default::default());
        let linear = LinearExecutor::new(store);
        let mut rng = Rng::seed_from_u64(store_seed * 7 + 3);
        for _ in 0..6 {
            let q = random_query(&mut rng, 2, cls);
            let e = engine.try_execute(&q).expect("cnn-only tree");
            let l = linear.execute(&q);
            assert_eq!(canonical(&e), canonical(&l), "mismatch on {q:?}");
        }
    }
}

#[test]
fn batch_output_bytes_identical_across_pool_widths() {
    let (store, cls) = build_store(160, 99);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let mut rng = Rng::seed_from_u64(4_242);
    let queries: Vec<Query> = (0..24).map(|_| random_query(&mut rng, 2, cls)).collect();
    let run = |pool: Pool| {
        pool.map(&queries, |_, q| {
            engine.try_execute(q).expect("cnn-only tree")
        })
    };
    let one = run(Pool::new(1));
    let eight = run(Pool::new(8));
    assert_eq!(format!("{one:?}"), format!("{eight:?}"));
}

/// Regression: the conjunction fast path used to treat "one range + one
/// visual leaf" as its trigger but then filtered the *rest* by kind, so
/// a second visual leaf of a different [`FeatureKind`] was silently
/// dropped from the conjunction. It must now be rejected up front.
#[test]
fn second_visual_leaf_of_other_kind_is_rejected() {
    let (store, _) = build_store(60, 7);
    let engine = QueryEngine::build(store, Default::default());
    let q = Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
        Query::Visual {
            example: vec![0.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(5),
        },
        Query::Visual {
            example: vec![0.0; DIM],
            kind: FeatureKind::ColorHistogram,
            mode: VisualMode::TopK(5),
        },
    ]);
    assert_eq!(
        engine.try_execute(&q),
        Err(QueryError::KindMismatch {
            indexed: FeatureKind::Cnn,
            queried: FeatureKind::ColorHistogram,
        })
    );
}

#[test]
fn standalone_wrong_kind_visual_is_rejected() {
    let (store, _) = build_store(40, 8);
    let engine = QueryEngine::build(store, Default::default());
    let q = Query::Visual {
        example: vec![0.0; DIM],
        kind: FeatureKind::SiftBow,
        mode: VisualMode::Threshold(1.0),
    };
    assert_eq!(
        engine.try_execute(&q),
        Err(QueryError::KindMismatch {
            indexed: FeatureKind::Cnn,
            queried: FeatureKind::SiftBow,
        })
    );
}

/// Two visual leaves of the *indexed* kind are legal; the conjunction
/// must route them through the general plan and still match the
/// reference exactly.
#[test]
fn two_same_kind_visual_leaves_take_general_plan_and_agree() {
    let (store, _) = build_store(130, 11);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let q = Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
        Query::Visual {
            example: vec![0.2; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(40),
        },
        Query::Visual {
            example: vec![0.1; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(3.0),
        },
    ]);
    let e = engine.try_execute(&q).expect("cnn-only tree");
    let l = linear.execute(&q);
    assert!(!e.is_empty());
    assert_eq!(canonical(&e), canonical(&l));
}

// ---------------------------------------------------------------------
// Partition axis: the same corpus cut into segments and a tail at every
// seal cap, scattered on 1 or 8 threads, must be indistinguishable from
// the reference.
// ---------------------------------------------------------------------

/// Seal caps from one row per segment to every row in the tail.
const SEAL_CAPS: [usize; 5] = [1, 7, 32, 128, 1000];

/// Pool widths a scatter runs on.
const POOLS: [usize; 2] = [1, 8];

#[test]
fn sharded_engine_matches_linear_scan_across_shard_counts() {
    for store_seed in 0..6u64 {
        // 140 rows fold at caps 1 and 7 (segments of 8 and 56 rows); the
        // first corpus also folds at caps 32 and 128 (256 and 1,024).
        let rows = if store_seed == 0 {
            FOLD * 128 + 77
        } else {
            140
        };
        let (store, cls) = build_store(rows, 3_000 + store_seed);
        let linear = LinearExecutor::new(Arc::clone(&store));
        for cap in SEAL_CAPS {
            let engine = ShardedEngine::with_seal_cap(
                vec![Arc::clone(&store)],
                EngineConfig::default(),
                cap,
            );
            for threads in POOLS {
                let pool = Pool::new(threads);
                let mut rng = Rng::seed_from_u64(store_seed * 11 + 5);
                for _ in 0..6 {
                    let q = random_query(&mut rng, 2, cls);
                    let sharded = engine
                        .try_execute_with_pool(&q, &pool)
                        .expect("cnn-only tree");
                    let reference = linear.execute(&q);
                    assert_eq!(
                        canonical(&sharded),
                        canonical(&reference),
                        "seal cap {cap} x {threads} threads diverged from linear scan on {q:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_batch_bytes_identical_across_shard_counts_and_pool_widths() {
    let (store, cls) = build_store(160, 4_242);
    let mut rng = Rng::seed_from_u64(4_243);
    let queries: Vec<Query> = (0..24).map(|_| random_query(&mut rng, 2, cls)).collect();
    let mut reference: Option<String> = None;
    for cap in SEAL_CAPS {
        let engine =
            ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), cap);
        for threads in POOLS {
            let bytes = format!("{:?}", answers(&engine, &queries, threads));
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(
                    &bytes, want,
                    "seal cap {cap} x {threads} threads diverged from seal cap 1 x 1 thread"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multi-chunk axis: the exact top-k over a corpus whose arena has frozen
// several chunks must equal the linear scan row for row, and serialise
// to the same bytes however the corpus is cut and scattered.
// ---------------------------------------------------------------------

/// A corpus large enough that the feature arena freezes multiple chunks
/// (1024 rows each), so the tree resolves rows across chunk boundaries.
const MULTI_CHUNK_CORPUS: usize = 2_600;

/// Visual and spatial+visual top-k trees over the clustered corpus.
/// Features are continuous random draws, so distances are tie-free and
/// result order — not just the result set — must agree.
fn topk_workload(rng: &mut Rng) -> Vec<Query> {
    let mut queries = Vec::new();
    for k in [1usize, 10, 40] {
        queries.push(Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(k),
        });
        let lat = 34.0 + rng.gen_range(0.0..0.03);
        let lon = -118.3 + rng.gen_range(0.0..0.03);
        queries.push(Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(
                lat,
                lon,
                lat + rng.gen_range(0.01..0.03),
                lon + rng.gen_range(0.01..0.03),
            ))),
            Query::Visual {
                example: random_example(rng),
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(k),
            },
        ]));
    }
    queries
}

#[test]
fn exact_topk_equals_linear_scan_across_shard_counts_and_pool_widths() {
    let (store, _) = build_store(MULTI_CHUNK_CORPUS, 77);
    let mut rng = Rng::seed_from_u64(909);
    let queries = topk_workload(&mut rng);
    let linear = LinearExecutor::new(Arc::clone(&store));
    let reference: Vec<Vec<QueryResult>> = queries.iter().map(|q| linear.execute(q)).collect();
    assert!(reference.iter().all(|rows| !rows.is_empty()));
    // `Debug` prints the shortest text that round-trips an `f64`, so
    // equal bytes mean equal order, ids and score bits.
    let want = format!("{reference:?}");

    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let single: Vec<Vec<QueryResult>> = queries
        .iter()
        .map(|q| engine.try_execute(q).expect("cnn-only tree"))
        .collect();
    assert_eq!(format!("{single:?}"), want, "single engine diverged");

    for cap in SEAL_CAPS {
        let sharded =
            ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), cap);
        for threads in POOLS {
            assert_eq!(
                format!("{:?}", answers(&sharded, &queries, threads)),
                want,
                "seal cap {cap} x {threads} threads diverged"
            );
        }
    }
}

/// The top-k cut inside a tie. 2,300 rows at one point draw their
/// features from five vectors, so every visual distance is shared by
/// 460 rows and every `Nearest` distance by all of them. The rows fill
/// two arena chunks, whose projected columns (fitted to five distinct
/// rows) bound every tied row alike, and part of a third. A `k` that
/// falls inside such a run has one right answer, the `k` lowest rows
/// under the reported `(score, id)` order, and it may not depend on how
/// the rows are cut into segments and a tail: each partition has to
/// keep *its* `k` lowest under that order (a tree whose heap breaks
/// distance ties by shape, or a scan cut on a finer key, keeps others).
#[test]
fn a_topk_cut_inside_a_tie_is_the_same_cut_for_every_partitioning() {
    let mut rng = Rng::seed_from_u64(2_200);
    let pool: Vec<Vec<f32>> = (0..5).map(|_| random_example(&mut rng)).collect();
    let here = GeoPoint::new(34.02, -118.28);
    let store = Arc::new(VisualStore::new());
    let rows = (0..2_300).map(|i| WalOp::IngestUpload {
        marker: None,
        id: ImageId(i as u64),
        meta: ImageMeta {
            uploader: UserId(1),
            gps: here,
            fov: None,
            captured_at: 5_000,
            uploaded_at: 5_100,
            keywords: vec!["tie".into()],
        },
        origin: ImageOrigin::Original,
        pixels: None,
        features: vec![(FeatureKind::Cnn, pool[i % pool.len()].clone())],
    });
    store.apply_batch(rows.collect()).unwrap();

    let around = BBox::new(34.0, -118.3, 34.05, -118.25);
    let mut queries = Vec::new();
    for k in [1usize, 3, 45, 130] {
        for example in [pool[0].clone(), random_example(&mut rng)] {
            let visual = Query::Visual {
                example,
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(k),
            };
            queries.push(visual.clone());
            queries.push(Query::And(vec![
                Query::Spatial(SpatialQuery::Range(around)),
                visual,
            ]));
        }
        queries.push(Query::Spatial(SpatialQuery::Nearest {
            point: GeoPoint::new(34.03, -118.27),
            k,
        }));
    }
    let linear = LinearExecutor::new(Arc::clone(&store));
    let want: Vec<_> = queries
        .iter()
        .map(|q| canonical(&linear.execute(q)))
        .collect();
    // The oracle's own cut is the lowest ids of the nearest run.
    assert_eq!(want[0], vec![(0, 0f64.to_bits())]);
    assert_eq!(
        want[9].iter().map(|row| row.0).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "Nearest {{ k: 3 }}"
    );

    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    for (q, want) in queries.iter().zip(&want) {
        assert_eq!(&canonical(&engine.try_execute(q).unwrap()), want, "{q:?}");
    }
    for cap in [1usize, 7, 16, 32, 64, 128, 1000] {
        let sharded =
            ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), cap);
        for threads in POOLS {
            let pool = Pool::new(threads);
            for (q, want) in queries.iter().zip(&want) {
                assert_eq!(
                    &canonical(&sharded.try_execute_with_pool(q, &pool).unwrap()),
                    want,
                    "seal cap {cap}, {threads} threads: {q:?}"
                );
            }
        }
    }
}

/// Textual leaves over keywords whose lowercasing is not ASCII's, with
/// matching rows both in sealed segments (answered from the inverted
/// index, which tokenizes at index time) and in the tail (answered by
/// the scan's in-place matcher): both must agree with `tokenize`.
#[test]
fn non_ascii_keywords_match_the_same_in_segments_and_tail() {
    const KEYWORDS: [&[&str]; 5] = [
        &["Straße", "Nord-Süd"],
        &["İstanbul café"],
        &["ǅ", "route_66"],
        &["STRASSE", "istanbul"],
        &["ΟΔΟΣ 7", "straße"],
    ];
    let store = Arc::new(VisualStore::new());
    let rows = (0..15).map(|i| WalOp::AddImage {
        id: ImageId(i as u64),
        meta: ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0 + i as f64 * 1e-3, -118.28),
            fov: None,
            captured_at: 5_000,
            uploaded_at: 5_100,
            keywords: KEYWORDS[i % 5].iter().map(|k| k.to_string()).collect(),
        },
        origin: ImageOrigin::Original,
        pixels: None,
    });
    store.apply_batch(rows.collect()).unwrap();
    // Two sealed segments of six rows and a tail of three: every keyword
    // list sits in a segment and, for lists 2..5, in the tail as well.
    let sharded = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 6);
    let linear = LinearExecutor::new(Arc::clone(&store));
    let tokenize = tvdp_index::inverted::tokenize;
    for text in [
        "straße",
        "STRASSE",
        "İstanbul",
        "istanbul",
        "ǆ",
        "66 route",
        "café İSTANBUL",
        "οδος",
        "süd nord",
        "Ǆ 7",
    ] {
        let terms = tokenize(text);
        for mode in [TextualMode::All, TextualMode::Any] {
            let expected: Vec<u64> = (0..15u64)
                .filter(|&i| {
                    let tokens = tokenize(&KEYWORDS[i as usize % 5].join(" "));
                    let has = |t: &String| tokens.contains(t);
                    match mode {
                        TextualMode::All => terms.iter().all(has),
                        _ => terms.iter().any(has),
                    }
                })
                .collect();
            let q = Query::Textual {
                text: text.into(),
                mode,
            };
            let ids = |rows: Vec<QueryResult>| -> Vec<u64> {
                canonical(&rows).into_iter().map(|row| row.0).collect()
            };
            assert_eq!(ids(linear.execute(&q)), expected, "oracle on {q:?}");
            assert_eq!(
                ids(sharded
                    .try_execute_with_pool(&q, tvdp_kernel::Pool::global())
                    .unwrap()),
                expected,
                "{q:?}"
            );
        }
    }
}

/// Rows that mix FOV and FOV-less rows (some sharing one point), with
/// hostile keywords (none, repeats, mixed case, non-ASCII, empty and
/// space-only strings, a list longer than any inline width), answer
/// every spatial family, boolean text and `And[Range, Visual]` as the
/// linear reference does, score for score, at seal caps {1, 128} x
/// pools {1, 4}: each segment's one tree holds a FOV-less row under the
/// empty arc, and its text index numbers each keyword string once.
#[test]
fn one_tree_and_interned_keywords_answer_as_the_linear_scan() {
    let long: Vec<&str> = (0..40)
        .map(|i| ["Tent", "tent", "TRASH", "Straße"][i % 4])
        .collect();
    let lists: [&[&str]; 7] = [
        &[],
        &["Street", "street", "STREET", "Street"],
        &["Straße", "İstanbul café", "ΟΔΟΣ 7"],
        &["", "  ", "alley-corner"],
        &long,
        &["STRASSE", "istanbul", "trash"],
        &["downtown"],
    ];
    let mut rng = Rng::seed_from_u64(49);
    let shared = GeoPoint::new(34.02, -118.28);
    let rows: Vec<WalOp> = (0..300u64)
        .map(|i| {
            // Rows 0-3 of every ten share a point; row 3 has no FOV.
            let gps = match i % 10 {
                0..=3 => shared,
                _ => GeoPoint::new(
                    34.0 + rng.gen_range(0.0..0.05),
                    -118.3 + rng.gen_range(0.0..0.05),
                ),
            };
            let fov = (i % 5 < 3).then(|| {
                let heading = rng.gen_range(0.0..360.0);
                Fov::new(
                    gps,
                    heading,
                    rng.gen_range(40.0..80.0),
                    rng.gen_range(50.0..150.0),
                )
            });
            let class = (i % 3) as f32;
            let feature: Vec<f32> = (0..DIM)
                .map(|_| class * 2.0 + rng.gen_range(-0.3..0.3))
                .collect();
            WalOp::IngestUpload {
                marker: None,
                id: ImageId(i),
                meta: ImageMeta {
                    uploader: UserId(1),
                    gps,
                    fov,
                    captured_at: 1_000 + i as i64,
                    uploaded_at: 2_000,
                    keywords: lists[i as usize % lists.len()]
                        .iter()
                        .map(|k| k.to_string())
                        .collect(),
                },
                origin: ImageOrigin::Original,
                pixels: None,
                features: vec![(FeatureKind::Cnn, feature)],
            }
        })
        .collect();
    let store = Arc::new(VisualStore::new());
    store.apply_batch(rows).unwrap();

    let mut queries = Vec::new();
    for _ in 0..4 {
        let lat = 34.0 + rng.gen_range(0.0..0.04);
        let lon = -118.3 + rng.gen_range(0.0..0.04);
        let side = rng.gen_range(0.005..0.03);
        let region = BBox::new(lat, lon, lat + side, lon + side);
        let a = GeoPoint::new(lat, lon);
        let point = GeoPoint::new(lat + side / 2.0, lon + side / 2.0);
        queries.extend([
            Query::Spatial(SpatialQuery::Range(region)),
            Query::Spatial(SpatialQuery::Nearest {
                point,
                k: rng.gen_range(1..40),
            }),
            Query::Spatial(SpatialQuery::Within(GeoPolygon::new(vec![
                a,
                a.destination(90.0, rng.gen_range(1_000.0..4_000.0)),
                a.destination(0.0, rng.gen_range(1_000.0..4_000.0)),
            ]))),
            Query::Spatial(SpatialQuery::Covering(point)),
            Query::Spatial(SpatialQuery::Directed {
                region,
                directions: AngularRange::centered(rng.gen_range(0.0..360.0), 90.0),
            }),
            Query::And(vec![
                Query::Spatial(SpatialQuery::Range(region)),
                Query::Visual {
                    example: random_example(&mut rng),
                    kind: FeatureKind::Cnn,
                    mode: VisualMode::TopK(rng.gen_range(1..20)),
                },
            ]),
            Query::And(vec![
                Query::Spatial(SpatialQuery::Range(region)),
                Query::Visual {
                    example: random_example(&mut rng),
                    kind: FeatureKind::Cnn,
                    mode: VisualMode::Threshold(rng.gen_range(0.8..4.0)),
                },
            ]),
        ]);
    }
    queries.push(Query::Spatial(SpatialQuery::Covering(shared)));
    queries.push(Query::Spatial(SpatialQuery::Nearest {
        point: shared,
        k: 45,
    }));
    for text in [
        "street",
        "STRASSE",
        "istanbul café",
        "tent trash",
        "οδος",
        "alley",
        "",
        "  ",
    ] {
        for mode in [TextualMode::All, TextualMode::Any] {
            queries.push(Query::Textual {
                text: text.into(),
                mode,
            });
        }
    }

    let linear = LinearExecutor::new(Arc::clone(&store));
    let expected: Vec<_> = queries
        .iter()
        .map(|q| canonical(&linear.execute(q)))
        .collect();
    // The shared point is covered by its 30 FOV-less rows, at least.
    let covering = linear.execute(&Query::Spatial(SpatialQuery::Covering(shared)));
    let ids: Vec<u64> = covering.iter().map(|r| r.image.raw()).collect();
    assert!((3..300).step_by(10).all(|i| ids.contains(&i)), "{ids:?}");
    for cap in [1, 128] {
        let engine =
            ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), cap);
        for threads in [1, 4] {
            let got = answers(&engine, &queries, threads);
            for ((q, rows), want) in queries.iter().zip(got).zip(&expected) {
                assert_eq!(
                    &canonical(&rows),
                    want,
                    "seal cap {cap} x {threads} threads diverged on {q:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Spatial-region validation: boxes that wrap the antimeridian (or carry
// out-of-range latitudes) must be rejected with a typed error, not
// silently matched against nothing.
// ---------------------------------------------------------------------

/// Struct-literal construction bypasses the `BBox::new` assertions the
/// same way an untrusted deserialized query would.
fn wrapped_bbox() -> BBox {
    BBox {
        min_lat: 10.0,
        min_lon: 170.0,
        max_lat: 20.0,
        max_lon: -170.0,
    }
}

#[test]
fn engine_rejects_antimeridian_wrapping_region() {
    let (store, _) = build_store(40, 6_060);
    let engine = QueryEngine::build(store, Default::default());
    let q = Query::Spatial(SpatialQuery::Range(wrapped_bbox()));
    assert_eq!(
        engine.try_execute(&q),
        Err(QueryError::Geo(GeoError::AntimeridianSpan {
            min_lon: 170.0,
            max_lon: -170.0,
        }))
    );
}

#[test]
fn sharded_engine_rejects_antimeridian_wrapping_region() {
    let (store, _) = build_store(40, 6_061);
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 16);
    let q = Query::Spatial(SpatialQuery::Directed {
        region: wrapped_bbox(),
        directions: AngularRange::centered(90.0, 45.0),
    });
    assert_eq!(
        engine.try_execute_with_pool(&q, tvdp_kernel::Pool::global()),
        Err(QueryError::Geo(GeoError::AntimeridianSpan {
            min_lon: 170.0,
            max_lon: -170.0,
        }))
    );
}

#[test]
fn sharded_engine_rejects_wrong_kind_visual() {
    let (store, _) = build_store(40, 5_050);
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 16);
    let q = Query::Visual {
        example: vec![0.0; DIM],
        kind: FeatureKind::ColorHistogram,
        mode: VisualMode::TopK(3),
    };
    assert_eq!(
        engine.try_execute_with_pool(&q, tvdp_kernel::Pool::global()),
        Err(QueryError::KindMismatch {
            indexed: FeatureKind::Cnn,
            queried: FeatureKind::ColorHistogram,
        })
    );
}

/// A visual leaf holding a NaN or an infinity, or a NaN threshold, is
/// refused with a typed error before anything runs, alone or inside a
/// tree, by both engines: a distance to it ranks nothing and no bound
/// holds for it.
#[test]
fn non_finite_visual_numbers_are_refused() {
    let (store, _) = build_store(40, 5_051);
    let sharded =
        ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], EngineConfig::default(), 16);
    let single = QueryEngine::build(store, EngineConfig::default());
    let visual = |example: Vec<f32>, mode| Query::Visual {
        example,
        kind: FeatureKind::Cnn,
        mode,
    };
    let mut nan = vec![0.5; DIM];
    nan[3] = f32::NAN;
    let mut inf = vec![0.5; DIM];
    inf[DIM - 1] = f32::NEG_INFINITY;
    let cases = [
        (
            visual(nan.clone(), VisualMode::TopK(5)),
            QueryError::NonFiniteExample { index: 3 },
        ),
        (
            visual(inf.clone(), VisualMode::TopK(5)),
            QueryError::NonFiniteExample { index: DIM - 1 },
        ),
        (
            visual(inf, VisualMode::Threshold(1.0)),
            QueryError::NonFiniteExample { index: DIM - 1 },
        ),
        (
            visual(vec![0.5; DIM], VisualMode::Threshold(f32::NAN)),
            QueryError::NanThreshold,
        ),
        (
            Query::Or(vec![
                Query::Temporal {
                    field: TemporalField::Captured,
                    from: 0,
                    to: 1,
                },
                Query::And(vec![
                    Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.1, -118.2))),
                    visual(nan, VisualMode::TopK(5)),
                ]),
            ]),
            QueryError::NonFiniteExample { index: 3 },
        ),
    ];
    for (q, err) in &cases {
        assert_eq!(
            sharded.try_execute_with_pool(q, tvdp_kernel::Pool::global()),
            Err(*err),
            "{q:?}"
        );
        assert_eq!(single.try_execute(q), Err(*err), "{q:?}");
    }
    // An infinite threshold is a number: it matches every row.
    let all = visual(vec![0.5; DIM], VisualMode::Threshold(f32::INFINITY));
    assert_eq!(
        sharded
            .try_execute_with_pool(&all, tvdp_kernel::Pool::global())
            .unwrap()
            .len(),
        40
    );
}

/// The engine indexes one store: a second one is refused at
/// construction rather than scattered over with overlapping ids.
#[test]
#[should_panic(expected = "indexes exactly one store")]
fn sharded_engine_refuses_a_second_store() {
    let (a, _) = build_store(10, 7_070);
    let (b, _) = build_store(10, 7_071);
    ShardedEngine::with_seal_cap(vec![a, b], EngineConfig::default(), 16);
}
