//! A sealed segment's visual leaf is a bounded exact scan: candidates
//! from the scene R-tree when a region restricts them, each row scored
//! by `l2_sq_within` against the segment's current `k`-th root (top-k)
//! or the threshold. A top-k also runs against the planner's global cut
//! and skips a row whose projected lower bound is above it. Neither may
//! ever change an answer, so every answer here is held bit for bit
//! against [`LinearExecutor`], which scores every row in full: for the
//! single engine and for sealed segments of 1, 7 and 128 rows on pools
//! of 1 and 4 threads, at widths below one 64-float block, between
//! blocks, and at the benchmark's 480.
//!
//! The corpus holds more rows than two arena chunks: the rows of the
//! two full chunks carry a projected column, the rest sit in the
//! partial chunk and are always scored, every seal cap folds small
//! segments into larger ones (two of 1,024 rows at cap 128), and every
//! seal cap but 1 leaves a tail. The planner's trace of each query is
//! the same on every pool.
//!
//! The corpus puts a top-k cut inside a tie: `K + 3` identical rows sit
//! at the `K`-th distance behind `K - 2` nearer ones, so the rows kept
//! are the lowest ids of the tie. The tied rows differ from the example
//! only in their first block, so once a segment's heap holds the tie,
//! the partial sum a tied row is checked at lands exactly on the
//! limit, and the row must still be ranked.

use std::sync::Arc;

use tvdp_geo::{BBox, GeoPoint};
use tvdp_kernel::rng::Rng;
use tvdp_kernel::{l2, l2_sq, l2_sq_within, Pool, ROWS_PER_CHUNK};
use tvdp_query::{
    EngineConfig, LinearExecutor, Query, QueryEngine, QueryResult, ShardedEngine, SpatialQuery,
    TemporalField, VisualMode,
};
use tvdp_storage::{ImageMeta, ImageOrigin, UserId, VisualStore};
use tvdp_vision::FeatureKind;

const K: usize = 5;

/// What each row of the corpus is, relative to the example.
#[derive(Clone, Copy)]
enum Row {
    /// Closer than the tie.
    Near,
    /// One of the `K + 3` identical rows at the `K`-th distance.
    Tied,
    /// Far in its first block.
    Far,
    /// Equal to the example in its first block (below one block, in
    /// all but its last float), far after it.
    FarLate,
    /// No feature row at all.
    Bare,
}

struct Corpus {
    store: Arc<VisualStore>,
    example: Vec<f32>,
    tied: Vec<f32>,
}

fn corpus(dim: usize, seed: u64) -> Corpus {
    let mut rng = Rng::seed_from_u64(seed);
    let example: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut tied = example.clone();
    tied[0] += 1.0;
    tied[dim.min(64) - 1] -= 0.5;

    let mut kinds = vec![Row::Near; K - 2];
    kinds.extend([Row::Tied; K + 3]);
    kinds.extend([Row::Far; 2 * ROWS_PER_CHUNK + 100]);
    kinds.extend([Row::FarLate; 10]);
    kinds.extend([Row::Bare; 6]);
    // Shuffle so the tie and the near rows spread over ids and
    // segments.
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }

    let store = VisualStore::new();
    let near_scale = 0.2 / (dim as f32).sqrt();
    let n = kinds.len();
    for (i, kind) in kinds.into_iter().enumerate() {
        // Latitude falls as ids rise, so a scene tree ordered by place
        // meets a region's higher ids first.
        let meta = ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0 + (n - i) as f64 * 2e-4, -118.3),
            fov: None,
            captured_at: 1_000 + i as i64,
            uploaded_at: 2_000,
            keywords: vec!["scan".into()],
        };
        let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
        let feature: Vec<f32> = match kind {
            Row::Near => (example.iter())
                .map(|&x| x + rng.gen_range(-near_scale..near_scale))
                .collect(),
            Row::Tied => tied.clone(),
            Row::Far => (example.iter())
                .map(|&x| x + rng.gen_range(2.0f32..3.0))
                .collect(),
            Row::FarLate => {
                let mut row = example.clone();
                for x in row.iter_mut().skip(64.min(dim - 1)) {
                    *x += rng.gen_range(2.0f32..3.0);
                }
                row
            }
            Row::Bare => continue,
        };
        store.put_feature(id, FeatureKind::Cnn, feature).unwrap();
    }
    Corpus {
        store: Arc::new(store),
        example,
        tied,
    }
}

fn visual(example: &[f32], mode: VisualMode) -> Query {
    Query::Visual {
        example: example.to_vec(),
        kind: FeatureKind::Cnn,
        mode,
    }
}

/// Every answer in reported order, scores as bits.
fn bits(results: &[QueryResult]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|r| (r.image.raw(), r.score.to_bits()))
        .collect()
}

#[test]
fn a_bounded_segment_scan_answers_as_the_full_linear_scan() {
    for (dim, seed) in [(4usize, 1u64), (50, 2), (480, 3)] {
        let Corpus {
            store,
            example,
            tied,
        } = corpus(dim, seed);
        let tie = l2(&tied, &example);
        if dim >= 64 {
            // The far rows are abandoned at the tie's root, and a tied
            // row's first-block partial sum is its whole distance.
            assert_eq!(
                l2_sq_within(&tied, &example, tie),
                Some(l2_sq(&tied, &example))
            );
            let mut far_late = example.clone();
            far_late[64] += 2.0;
            assert_eq!(l2_sq_within(&far_late, &example, tie), None);
        }
        let south = BBox::new(33.99, -118.31, 34.02, -118.29);
        let mut queries = Vec::new();
        for mode in [
            VisualMode::TopK(1),
            VisualMode::TopK(K),
            VisualMode::TopK(K + 1),
            VisualMode::TopK(K + 20),
            VisualMode::Threshold(tie),
            VisualMode::Threshold(tie * 0.5),
            VisualMode::Threshold(f32::from_bits(tie.to_bits() - 1)),
        ] {
            let leaf = visual(&example, mode);
            queries.push((format!("{mode:?}"), leaf.clone()));
            queries.push((
                format!("{mode:?} in a region"),
                Query::And(vec![
                    Query::Spatial(SpatialQuery::Range(south)),
                    leaf.clone(),
                ]),
            ));
            // A threshold here is pushed down as a per-candidate filter
            // over the candidates the temporal leg materializes.
            queries.push((
                format!("{mode:?} in a time window"),
                Query::And(vec![
                    leaf,
                    Query::Temporal {
                        field: TemporalField::Captured,
                        from: 1_010,
                        to: 1_090,
                    },
                ]),
            ));
        }
        let linear = LinearExecutor::new(Arc::clone(&store));
        let want: Vec<_> = queries
            .iter()
            .map(|(_, q)| bits(&linear.execute(q)))
            .collect();
        // The cut falls inside the tie: `K - 2` near rows, then the two
        // lowest ids of the tie.
        assert_eq!(want[3].len(), K, "dim {dim}");
        assert_eq!(want[3][K - 1].1, f64::from(tie).to_bits(), "dim {dim}");
        assert_eq!(
            want[12].len(),
            2 * K + 1,
            "dim {dim}: the threshold keeps the tie"
        );

        let single = QueryEngine::build(Arc::clone(&store), EngineConfig::default());
        for ((name, q), want) in queries.iter().zip(&want) {
            assert_eq!(
                &bits(&single.try_execute(q).unwrap()),
                want,
                "dim {dim}, one engine: {name}"
            );
        }
        for cap in [1usize, 7, 128] {
            let sealed = ShardedEngine::with_seal_cap(
                vec![Arc::clone(&store)],
                EngineConfig::default(),
                cap,
            );
            let explain =
                |q: &Query, pool: &Pool| sealed.try_explain(q, pool, 0, i64::MAX).unwrap();
            let traces: Vec<_> = (queries.iter())
                .map(|(_, q)| explain(q, &Pool::serial()).1)
                .collect();
            // Every cap folds: 2,175 rows hold two folded segments of
            // 1,024 at cap 128, and bound rows in their frozen chunks.
            assert!(traces[3].rows_bounded > 0, "dim {dim}, seal cap {cap}");
            for threads in [1, 4] {
                let pool = Pool::new(threads);
                for (((name, q), want), trace) in queries.iter().zip(&want).zip(&traces) {
                    assert_eq!(
                        &bits(&sealed.try_execute_with_pool(q, &pool).unwrap()),
                        want,
                        "dim {dim}, seal cap {cap}, {threads} threads: {name}"
                    );
                    assert_eq!(
                        &explain(q, &pool).1,
                        trace,
                        "dim {dim}, seal cap {cap}, {threads} threads: {name}"
                    );
                }
            }
        }
    }
}
