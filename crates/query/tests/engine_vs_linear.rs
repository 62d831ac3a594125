//! The index-backed engine must agree with the linear-scan reference on
//! every query family.

use std::sync::Arc;

use tvdp_kernel::rng::{for_each_case, Rng};

use tvdp_geo::{AngularRange, BBox, Fov, GeoPoint};
use tvdp_query::{
    LinearExecutor, Query, QueryEngine, QueryError, QueryResult, ShardedEngine, SpatialQuery,
    TemporalField, TextualMode, VisualMode,
};
use tvdp_storage::{AnnotationSource, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore};
use tvdp_vision::FeatureKind;

const DIM: usize = 8;

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let store = VisualStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let cls = store
        .register_scheme(
            "cleanliness",
            vec!["clean".into(), "dirty".into(), "encampment".into()],
        )
        .unwrap();
    const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];
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
        let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
        // Clustered features: class c centred at 2c.
        let class = i % 3;
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

fn sorted_ids(results: &[QueryResult]) -> Vec<u64> {
    let mut ids: Vec<u64> = results.iter().map(|r| r.image.raw()).collect();
    ids.sort_unstable();
    ids
}

/// Runs a query the test knows to be valid for `engine`.
fn run(engine: &QueryEngine, query: &Query) -> Vec<QueryResult> {
    engine.try_execute(query).expect("valid query")
}

fn check_agreement(query: &Query, n: usize, seed: u64) {
    let store = build_store(n, seed);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let e = run(&engine, query);
    let l = linear.execute(query);
    assert_eq!(sorted_ids(&e), sorted_ids(&l), "mismatch on {query:?}");
}

#[test]
fn spatial_range_agrees() {
    let q = Query::Spatial(SpatialQuery::Range(BBox::new(
        34.01, -118.29, 34.03, -118.27,
    )));
    check_agreement(&q, 150, 1);
}

#[test]
fn spatial_covering_agrees() {
    let q = Query::Spatial(SpatialQuery::Covering(GeoPoint::new(34.02, -118.28)));
    check_agreement(&q, 200, 2);
}

#[test]
fn spatial_directed_agrees() {
    let q = Query::Spatial(SpatialQuery::Directed {
        region: BBox::new(34.0, -118.3, 34.05, -118.25),
        directions: AngularRange::centered(90.0, 60.0),
    });
    check_agreement(&q, 150, 3);
}

#[test]
fn spatial_nearest_matches_distances() {
    let store = build_store(120, 4);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let q = Query::Spatial(SpatialQuery::Nearest {
        point: GeoPoint::new(34.025, -118.275),
        k: 7,
    });
    let e = run(&engine, &q);
    let l = linear.execute(&q);
    assert_eq!(e.len(), 7);
    for (a, b) in e.iter().zip(&l) {
        assert!(
            (a.score - b.score).abs() < 1e-6,
            "{} vs {}",
            a.score,
            b.score
        );
    }
}

#[test]
fn visual_threshold_agrees() {
    let q = Query::Visual {
        example: vec![2.0; DIM],
        kind: FeatureKind::Cnn,
        mode: VisualMode::Threshold(1.5),
    };
    check_agreement(&q, 150, 5);
}

#[test]
fn visual_topk_matches_distances() {
    let store = build_store(150, 6);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let q = Query::Visual {
        example: vec![0.0; DIM],
        kind: FeatureKind::Cnn,
        mode: VisualMode::TopK(10),
    };
    let e = run(&engine, &q);
    let l = linear.execute(&q);
    assert_eq!(e.len(), 10);
    for (a, b) in e.iter().zip(&l) {
        assert!(
            (a.score - b.score).abs() < 1e-5,
            "{} vs {}",
            a.score,
            b.score
        );
    }
}

#[test]
fn categorical_agrees() {
    let store = build_store(100, 7);
    let scheme = store.scheme_by_name("cleanliness").unwrap().id;
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let q = Query::Categorical {
        scheme,
        label: 2,
        min_confidence: 0.7,
    };
    assert_eq!(
        sorted_ids(&run(&engine, &q)),
        sorted_ids(&linear.execute(&q))
    );
    assert!(!run(&engine, &q).is_empty());
}

#[test]
fn textual_modes_agree() {
    for mode in [TextualMode::All, TextualMode::Any] {
        let q = Query::Textual {
            text: "tent street".into(),
            mode,
        };
        check_agreement(&q, 150, 8);
    }
    // Ranked mode: same membership at large k.
    let store = build_store(150, 8);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let q = Query::Textual {
        text: "tent".into(),
        mode: TextualMode::Ranked(1000),
    };
    assert_eq!(
        sorted_ids(&run(&engine, &q)),
        sorted_ids(&linear.execute(&q))
    );
}

#[test]
fn temporal_agrees_for_both_fields() {
    for field in [TemporalField::Captured, TemporalField::Uploaded] {
        let q = Query::Temporal {
            field,
            from: 3_000,
            to: 7_000,
        };
        check_agreement(&q, 150, 9);
    }
}

#[test]
fn hybrid_spatial_visual_agrees() {
    let q = Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.03, -118.26))),
        Query::Visual {
            example: vec![2.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.2),
        },
    ]);
    check_agreement(&q, 200, 10);
}

#[test]
fn hybrid_spatial_textual_agrees() {
    let q = Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.04, -118.25))),
        Query::Textual {
            text: "trash".into(),
            mode: TextualMode::Any,
        },
    ]);
    check_agreement(&q, 200, 11);
}

#[test]
fn triple_hybrid_agrees() {
    let q = Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
        Query::Visual {
            example: vec![4.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.5),
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 1_000,
            to: 9_000,
        },
    ]);
    check_agreement(&q, 200, 12);
}

#[test]
fn empty_and_returns_nothing() {
    let store = build_store(20, 13);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    assert!(run(&engine, &Query::And(vec![])).is_empty());
}

/// The live-ingest path: an image added after the build is indexed
/// into the tail beside a sealed segment, once.
#[test]
fn incremental_indexing_picks_up_new_images() {
    let store = build_store(50, 15);
    let engine = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 50);
    let before = engine.len();
    let gps = GeoPoint::new(34.02, -118.28);
    let id = store
        .add_image(
            ImageMeta {
                uploader: UserId(1),
                gps,
                fov: None,
                captured_at: 5_000,
                uploaded_at: 5_100,
                keywords: vec!["uniquekeyword".into()],
            },
            ImageOrigin::Original,
            None,
        )
        .unwrap();
    store
        .put_feature(id, FeatureKind::Cnn, vec![9.0; DIM])
        .unwrap();
    engine.index_image(0, id);
    assert_eq!(engine.len(), before + 1);
    let hits = engine
        .try_execute(&Query::Textual {
            text: "uniquekeyword".into(),
            mode: TextualMode::All,
        })
        .unwrap();
    let ids: Vec<_> = hits.iter().map(|r| r.image).collect();
    assert_eq!(ids, vec![id]);
    // Re-indexing is idempotent.
    engine.index_image(0, id);
    assert_eq!(engine.len(), before + 1);
}

/// A temporal leaf against a filter over the `(timestamp, id)` facts
/// themselves: duplicate stamps, the two ends of `i64` as stamps and as
/// bounds, and `from > to`. The segment finds its rows through a time
/// order; the gather reports a score-0 leaf in id order, as every
/// platform search does.
#[test]
fn temporal_ranges_answer_the_stamps_in_range_in_id_order() {
    for_each_case(32, |case, rng| {
        let stamp = |rng: &mut Rng| match rng.gen_range(0..12) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.gen_range(-40i64..40),
        };
        let store = Arc::new(VisualStore::new());
        let mut facts: Vec<(ImageId, i64, i64)> = Vec::new();
        for _ in 0..rng.gen_range(1..80) {
            let (captured_at, uploaded_at) = (stamp(rng), stamp(rng));
            let meta = ImageMeta {
                uploader: UserId(1),
                gps: GeoPoint::new(34.02, -118.28),
                fov: None,
                captured_at,
                uploaded_at,
                keywords: vec![],
            };
            let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
            facts.push((id, captured_at, uploaded_at));
        }
        let built = QueryEngine::build(Arc::clone(&store), Default::default());
        for _ in 0..8 {
            let (from, to) = (stamp(rng), stamp(rng));
            for field in [TemporalField::Captured, TemporalField::Uploaded] {
                let want: Vec<QueryResult> = facts
                    .iter()
                    .map(|&(id, c, u)| match field {
                        TemporalField::Captured => (c, id),
                        TemporalField::Uploaded => (u, id),
                    })
                    .filter(|&(t, _)| t >= from && t <= to)
                    .map(|(_, id)| QueryResult::new(id, 0.0))
                    .collect();
                let q = Query::Temporal { field, from, to };
                assert_eq!(run(&built, &q), want, "case {case}: {q:?}");
            }
        }
    });
}

#[test]
fn or_union_agrees_and_keeps_best_score() {
    let q = Query::Or(vec![
        Query::Textual {
            text: "tent".into(),
            mode: TextualMode::Any,
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 2_000,
            to: 4_000,
        },
        Query::Visual {
            example: vec![0.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(0.8),
        },
    ]);
    check_agreement(&q, 200, 16);

    // Union semantics: no sub-query result is lost.
    let store = build_store(200, 16);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let union = run(&engine, &q);
    for sub in [
        Query::Textual {
            text: "tent".into(),
            mode: TextualMode::Any,
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 2_000,
            to: 4_000,
        },
    ] {
        for r in run(&engine, &sub) {
            assert!(
                union.iter().any(|u| u.image == r.image),
                "lost {:?}",
                r.image
            );
        }
    }
    // Ordered by score.
    for w in union.windows(2) {
        assert!(w[0].score <= w[1].score);
    }
}

#[test]
fn nested_and_or_composition() {
    // (tent OR trash) AND in-region.
    let q = Query::And(vec![
        Query::Or(vec![
            Query::Textual {
                text: "tent".into(),
                mode: TextualMode::Any,
            },
            Query::Textual {
                text: "trash".into(),
                mode: TextualMode::Any,
            },
        ]),
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.04, -118.26))),
    ]);
    check_agreement(&q, 250, 17);
}

#[test]
fn pooled_execution_matches_per_query_and_linear() {
    let store = build_store(200, 19);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(store);
    let queries = vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.03, -118.26))),
        Query::Visual {
            example: vec![2.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.5),
        },
        Query::Visual {
            example: vec![0.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(10),
        },
        Query::Textual {
            text: "tent street".into(),
            mode: TextualMode::Any,
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 3_000,
            to: 7_000,
        },
        Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.04, -118.25))),
            Query::Visual {
                example: vec![4.0; DIM],
                kind: FeatureKind::Cnn,
                mode: VisualMode::Threshold(1.2),
            },
        ]),
    ];
    let singles: Vec<Vec<QueryResult>> = queries.iter().map(|q| run(&engine, q)).collect();
    for (q, single) in queries.iter().zip(&singles) {
        // The engine agrees with the linear-scan reference on membership
        // (top-k boundary ties may legitimately differ, so skip those).
        if !matches!(
            q,
            Query::Visual {
                mode: VisualMode::TopK(_),
                ..
            }
        ) {
            assert_eq!(
                sorted_ids(single),
                sorted_ids(&linear.execute(q)),
                "linear mismatch on {q:?}"
            );
        }
    }
    // The engine is read-only during execution, so queries fanned out
    // over a pool share every index: same rows, scores and order as one
    // at a time, and thread count is a latency knob only.
    for threads in [1, 4] {
        let pooled = tvdp_kernel::Pool::new(threads).map(&queries, |_, q| run(&engine, q));
        assert_eq!(pooled, singles, "{threads} threads");
    }
}

#[test]
fn polygon_within_agrees() {
    use tvdp_geo::GeoPolygon;
    // A triangular district over the data region.
    let a = GeoPoint::new(34.0, -118.3);
    let polygon = GeoPolygon::new(vec![
        a,
        a.destination(90.0, 4_000.0),
        a.destination(0.0, 4_000.0),
    ]);
    let q = Query::Spatial(SpatialQuery::Within(polygon));
    check_agreement(&q, 250, 18);
    // The polygon must select a proper, non-empty subset of its bbox.
    let store = build_store(250, 18);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let tri = match &q {
        Query::Spatial(SpatialQuery::Within(p)) => p.clone(),
        _ => unreachable!(),
    };
    let in_tri = run(&engine, &q).len();
    let in_box = run(&engine, &Query::Spatial(SpatialQuery::Range(tri.bbox()))).len();
    assert!(in_tri > 0);
    assert!(
        in_tri < in_box,
        "triangle ({in_tri}) must prune vs its bbox ({in_box})"
    );
}

/// Two rows whose squared distances differ but whose reported `f32`
/// roots are equal, stored so that the *farther* one has the lower id:
/// ranking on `d_sq` and ordering by `(score, id)` disagree about them,
/// and every executor must report the latter.
#[test]
fn rows_tying_on_the_reported_score_come_out_in_id_order_everywhere() {
    let example = vec![0.0f32, 0.0];
    let near = vec![2.0f32, 0.0];
    let far = vec![2.0f32, 2.0f32.powf(-10.5)];
    let (d_near, d_far) = (
        tvdp_kernel::l2_sq(&near, &example),
        tvdp_kernel::l2_sq(&far, &example),
    );
    assert!(d_near < d_far, "distinct squared distances");
    assert_eq!(d_near.sqrt(), d_far.sqrt(), "one reported score");

    let store = Arc::new(VisualStore::new());
    let mut ids = Vec::new();
    for feature in [far, near, vec![9.0, 9.0]] {
        let gps = GeoPoint::new(34.02, -118.28);
        let meta = ImageMeta {
            uploader: UserId(1),
            gps,
            fov: None,
            captured_at: 5_000,
            uploaded_at: 5_100,
            keywords: vec!["tie".into()],
        };
        let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
        store.put_feature(id, FeatureKind::Cnn, feature).unwrap();
        ids.push(id);
    }
    let want = [
        QueryResult::new(ids[0], f64::from(d_far.sqrt())),
        QueryResult::new(ids[1], f64::from(d_near.sqrt())),
    ];

    let linear = LinearExecutor::new(Arc::clone(&store));
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    // Seal cap 1: each row is its own sealed segment; the default cap
    // leaves all three in the linear-scanned tail.
    let sealed = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 1);
    let tail = ShardedEngine::build(vec![Arc::clone(&store)], Default::default());
    let visual = |mode| Query::Visual {
        example: example.clone(),
        kind: FeatureKind::Cnn,
        mode,
    };
    let world = Query::Spatial(SpatialQuery::Range(BBox::new(-90.0, -180.0, 90.0, 180.0)));
    // `TopK(1)` cuts between the two rows that share a root: the one
    // kept is the lower id, not the lower squared distance.
    for (mode, want) in [
        (VisualMode::TopK(2), &want[..]),
        (VisualMode::Threshold(3.0), &want[..]),
        (VisualMode::TopK(1), &want[..1]),
    ] {
        for q in [visual(mode), Query::And(vec![world.clone(), visual(mode)])] {
            assert_eq!(linear.execute(&q), want, "linear on {q:?}");
            assert_eq!(run(&engine, &q), want, "engine on {q:?}");
            assert_eq!(sealed.try_execute(&q).unwrap(), want, "segments on {q:?}");
            assert_eq!(tail.try_execute(&q).unwrap(), want, "tail on {q:?}");
        }
    }
}

/// An example of the indexed family but the wrong length has no distance
/// to any row: every executor entry point rejects it with a typed error
/// wherever the leaf sits, over sealed segments (whose tree asserts on
/// the length) and over tail rows (whose scan kernel would score the
/// common prefix) alike. With no visual row there is nothing to compare
/// against, so any length is accepted and matches nothing.
#[test]
fn wrong_length_example_is_rejected_wherever_the_leaf_sits() {
    let store = build_store(40, 23);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    // Seal cap 1: every row sealed; the default cap leaves all 40 in the
    // tail, so the dimension has to come from the store.
    let sealed = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 1);
    let tail = ShardedEngine::build(vec![Arc::clone(&store)], Default::default());
    let err = QueryError::DimMismatch {
        indexed: DIM,
        queried: 2,
    };
    let pool = tvdp_kernel::Pool::global();
    let range = Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25)));
    for mode in [VisualMode::TopK(3), VisualMode::Threshold(1.0)] {
        let visual = |len: usize| Query::Visual {
            example: vec![0.0; len],
            kind: FeatureKind::Cnn,
            mode,
        };
        for q in [
            visual(2),
            Query::Or(vec![range.clone(), visual(2)]),
            Query::And(vec![range.clone(), visual(2)]),
            Query::And(vec![visual(DIM), visual(2)]),
        ] {
            assert_eq!(engine.try_execute(&q), Err(err), "engine on {q:?}");
            assert_eq!(sealed.try_execute(&q), Err(err), "segments on {q:?}");
            assert_eq!(tail.try_execute(&q), Err(err), "tail on {q:?}");
            assert_eq!(
                tail.try_execute_batch_with_pool(&[visual(DIM), q.clone()], pool),
                Err(err),
                "batch on {q:?}"
            );
            assert_eq!(
                sealed.try_execute_with_deadline(&q, pool, 0, i64::MAX),
                Err(err),
                "deadline on {q:?}"
            );
        }
        assert!(engine.try_execute(&visual(DIM)).is_ok());
        assert!(sealed.try_execute(&visual(DIM)).is_ok());
        assert!(tail.try_execute(&visual(DIM)).is_ok());

        let empty = Arc::new(VisualStore::new());
        let nothing_indexed = QueryEngine::build(Arc::clone(&empty), Default::default());
        assert_eq!(nothing_indexed.try_execute(&visual(2)), Ok(Vec::new()));
        let nothing_sharded = ShardedEngine::build(vec![empty], Default::default());
        assert_eq!(nothing_sharded.try_execute(&visual(2)), Ok(Vec::new()));
    }
}
