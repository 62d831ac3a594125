//! The platform's query engine: one store, indexed as sealed segments
//! plus a pending tail, read through lock-free snapshots.
//!
//! A [`ShardedEngine`] indexes one [`VisualStore`] (and therefore one
//! feature arena) in two places:
//!
//! * **sealed segments** — immutable [`QueryEngine`]s built over a
//!   fixed id set ([`QueryEngine::build_over`]): a tail seals into a
//!   small segment of `seal_cap` ids, and every [`FOLD`] small
//!   segments fold into one of `FOLD · seal_cap` ids that never folds
//!   again, and
//! * a **tail** — the ids indexed since the last seal: a linear segment
//!   ([`crate::linear`]), the reference executor's own scan run over
//!   that id list, so a tail row is matched and scored by the code the
//!   oracle matches and scores it by.
//!
//! Every mutation republishes the `(segments, tail)` pair as an
//! immutable *generation* through a [`GenCell`], so queries never block
//! on ingest: a request loads the current generation exactly once up
//! front (one consistent snapshot for the whole tree) and runs against
//! frozen state while the writer keeps appending behind it.
//!
//! A request runs through the planner (`plan::View`): it
//! scatters every leaf over the segments and the tail on a
//! [`tvdp_kernel::Pool`] and gathers with deterministic merges, so the
//! same corpus at any seal cap, queried on 1 thread or M, yields
//! byte-identical results.

use std::sync::Arc;

use tvdp_kernel::sync::Mutex;
use tvdp_kernel::{GenCell, Pool};
use tvdp_storage::{ImageId, VisualStore};

use crate::engine::{EngineConfig, QueryEngine};
use crate::plan::{DeadlineCtx, Trace, View};
use crate::types::{Query, QueryError, QueryResult};

/// Default number of pending images the engine accumulates before
/// sealing them into an immutable segment. The cap bounds the tail,
/// which every query scans linearly, and the cost of a seal on the
/// request path; [`FOLD`] small segments then fold into one of
/// `FOLD · seal_cap` ids, 1,024 at this cap (one arena chunk), so a
/// 24,000-row store scatters over 26 segments and a tail, not 187.
pub const DEFAULT_SEAL_CAP: usize = 128;

/// How many trailing small segments fold into one. A folded segment
/// never folds again, so a scan keeps enough units to spread over the
/// pool; DESIGN.md §11 records the bake-off that chose 8 over 4 and
/// 16.
pub const FOLD: usize = 8;

/// One published generation: sealed segments plus the pending tail.
/// Immutable from the moment it is stored in the [`GenCell`].
#[derive(Default)]
struct Generation {
    segments: Vec<Arc<QueryEngine>>,
    tail: Arc<Vec<ImageId>>,
}

/// Writer-side state, guarded by the ingest mutex. Readers go through
/// the published generation and never touch this lock.
#[derive(Default)]
struct WriterState {
    segments: Vec<Arc<QueryEngine>>,
    /// How many of `segments`, at its end, are small (`seal_cap` ids,
    /// not yet folded): always below [`FOLD`].
    small: usize,
    /// Pending ids, kept sorted ascending so segment document order
    /// (and therefore ranked-text tie-breaking) is id order regardless
    /// of ingest interleaving.
    pending: Vec<ImageId>,
    /// Everything ever indexed, ascending (idempotency guard). Ids
    /// mostly arrive above every indexed one, so an insert appends.
    indexed: Vec<ImageId>,
}

/// Segmented query executor over one store with lock-free snapshot
/// reads.
///
/// Readers are lock-free: [`ShardedEngine::try_execute_with_deadline`]
/// loads the published generation (an `Arc` clone) and never blocks on
/// concurrent [`ShardedEngine::index_image`] calls; writers contend only
/// with each other.
pub struct ShardedEngine {
    store: Arc<VisualStore>,
    writer: Mutex<WriterState>,
    published: GenCell<Generation>,
    config: EngineConfig,
    seal_cap: usize,
}

impl ShardedEngine {
    /// Builds the engine over `stores`, which holds the one store it
    /// indexes, indexing every image currently present, with segment
    /// seal threshold `seal_cap` (clamped to at least 1; the platform
    /// default is [`DEFAULT_SEAL_CAP`]). Small caps seal aggressively —
    /// useful in tests to force many segments.
    ///
    /// # Panics
    ///
    /// Panics unless `stores` holds exactly one store.
    pub fn with_seal_cap(
        stores: Vec<Arc<VisualStore>>,
        config: EngineConfig,
        seal_cap: usize,
    ) -> Self {
        Self::with_seal_cap_with_pool(stores, config, seal_cap, Pool::global())
    }

    /// [`ShardedEngine::with_seal_cap`] building the sealed segments on
    /// the given pool.
    ///
    /// A populated store is indexed in bulk: its ascending ids are cut
    /// into folded runs of `FOLD · seal_cap` ids, what is left into
    /// small runs of `seal_cap` (fewer than [`FOLD`]), and the remainder
    /// becomes the pending tail; every run is built as one sealed
    /// segment (the runs fan out over the pool) and the engine
    /// publishes once. Those are exactly the segments, in the order and
    /// over the ids, that feeding the same ids through
    /// [`ShardedEngine::index_image`] arrives at: the layout is a pure
    /// function of the id count.
    ///
    /// # Panics
    ///
    /// Panics unless `stores` holds exactly one store.
    pub fn with_seal_cap_with_pool(
        stores: Vec<Arc<VisualStore>>,
        config: EngineConfig,
        seal_cap: usize,
        pool: &Pool,
    ) -> Self {
        assert_eq!(stores.len(), 1, "a ShardedEngine indexes exactly one store");
        let store = Arc::clone(&stores[0]);
        let seal_cap = seal_cap.max(1);
        let ids = store.image_ids();
        let folded = ids.chunks_exact(seal_cap.saturating_mul(FOLD));
        let small = folded.remainder().chunks_exact(seal_cap);
        let pending = small.remainder().to_vec();
        let small_runs = small.len();
        let runs: Vec<&[ImageId]> = folded.chain(small).collect();
        let segments = pool.map(&runs, |_, run| {
            Arc::new(QueryEngine::build_over(
                Arc::clone(&store),
                config.clone(),
                run,
            ))
        });
        Self {
            published: GenCell::new(Arc::new(Generation {
                segments: segments.clone(),
                tail: Arc::new(pending.clone()),
            })),
            writer: Mutex::new(WriterState {
                segments,
                small: small_runs,
                pending,
                indexed: ids,
            }),
            store,
            config,
            seal_cap,
        }
    }

    /// Total indexed images in the published generation.
    #[expect(
        clippy::len_without_is_empty,
        reason = "nothing asks whether an engine is empty"
    )]
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-check's shard protocol counts the published rows through it")
    pub fn len(&self) -> usize {
        let g = self.published.load();
        g.segments.iter().map(|e| e.len()).sum::<usize>() + g.tail.len()
    }

    /// Indexes one image of the store, publishing a new generation.
    /// Idempotent per id; ids absent from the store are ignored. When
    /// the pending tail reaches the seal threshold it is frozen into an
    /// immutable small segment first, unless [`FOLD`] − 1 small
    /// segments already trail: then the tail and those segments are
    /// built as one folded segment in their place. In-flight queries
    /// keep the generation they loaded.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not 0, the one store's index.
    pub fn index_image(&self, shard: usize, id: ImageId) {
        assert_eq!(shard, 0, "a ShardedEngine indexes one store, shard 0");
        if !self.store.contains(id) {
            return;
        }
        let mut w = self.writer.lock();
        let Err(at) = w.indexed.binary_search(&id) else {
            return;
        };
        w.indexed.insert(at, id);
        let pos = w.pending.partition_point(|&p| p < id);
        w.pending.insert(pos, id);
        if w.pending.len() >= self.seal_cap {
            let mut run = std::mem::take(&mut w.pending);
            if w.small + 1 == FOLD {
                let start = w.segments.len() - w.small;
                for small in w.segments.drain(start..) {
                    run.extend_from_slice(small.ids());
                }
                w.small = 0;
            } else {
                w.small += 1;
            }
            let segment =
                QueryEngine::build_over(Arc::clone(&self.store), self.config.clone(), &run);
            w.segments.push(Arc::new(segment));
        }
        self.published.store(Arc::new(Generation {
            segments: w.segments.clone(),
            tail: Arc::new(w.pending.clone()),
        }));
    }

    /// The view a request runs against over the generation `gen`,
    /// having validated its query ([`Query::validate`]) against the
    /// configured feature family and the row length that generation
    /// indexes.
    fn admit<'a>(&'a self, gen: &'a Generation, query: &Query) -> Result<View<'a>, QueryError> {
        let view = View {
            store: &self.store,
            segments: gen.segments.iter().map(|seg| &**seg).collect(),
            tail: &gen.tail,
        };
        let kind = self.config.visual_kind;
        query.validate(kind, view.visual_dim(kind))?;
        Ok(view)
    }

    /// Executes a query: scatter across the published generation on
    /// `pool`, gather deterministically. A visual leaf whose feature
    /// family or example length differs from the indexed rows is
    /// rejected with [`QueryError::KindMismatch`] /
    /// [`QueryError::DimMismatch`].
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-query's parity, determinism and deadline suites scatter through it on chosen pools")
    pub fn try_execute_with_pool(
        &self,
        query: &Query,
        pool: &Pool,
    ) -> Result<Vec<QueryResult>, QueryError> {
        self.try_execute_with_deadline(query, pool, 0, i64::MAX)
    }

    /// [`ShardedEngine::try_execute_with_pool`] under a virtual-clock
    /// deadline: execution is charged against a modeled clock starting
    /// at `now_ms`, checked at scatter/gather and segment-scan
    /// boundaries, and aborted with [`QueryError::DeadlineExceeded`]
    /// once the clock passes `deadline_ms`. The trip decision is a pure
    /// function of the snapshot and the query — identical across pool
    /// widths — and a query that completes returns the same bytes
    /// whatever its deadline; one at `i64::MAX` never trips.
    pub fn try_execute_with_deadline(
        &self,
        query: &Query,
        pool: &Pool,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let gen = self.published.load();
        let view = self.admit(&gen, query)?;
        let dl = DeadlineCtx::new(now_ms, deadline_ms);
        view.run(query, pool, &dl, &mut Trace::default())
    }

    /// [`ShardedEngine::try_execute_with_deadline`] with its EXPLAIN:
    /// the same rows, and a [`Trace`] of the work the planner did for
    /// them, in counts, with every leaf record's estimate filled from
    /// the same generation. The trace is a pure function of that
    /// generation and the query: identical at any pool width.
    pub fn try_explain(
        &self,
        query: &Query,
        pool: &Pool,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<(Vec<QueryResult>, Trace), QueryError> {
        let gen = self.published.load();
        let view = self.admit(&gen, query)?;
        let mut trace = Trace::default();
        let rows = view.run(
            query,
            pool,
            &DeadlineCtx::new(now_ms, deadline_ms),
            &mut trace,
        )?;
        for leaf in &mut trace.leaves {
            leaf.estimate = view.estimate_rows(&leaf.query(query));
        }
        Ok((rows, trace))
    }

    /// Prices `query` in admission work units against the published
    /// generation: one unit per scatter unit dispatched, plus each
    /// segment's estimated result cardinality and the tail rows a
    /// linear scan must touch. Deterministic — a pure function of the
    /// published snapshot — and read-only.
    pub fn estimate_query_units(&self, query: &Query) -> u64 {
        let gen = self.published.load();
        let view = View {
            store: &self.store,
            segments: gen.segments.iter().map(|seg| &**seg).collect(),
            tail: &gen.tail,
        };
        1 + gen.segments.len() as u64 + view.estimate_rows(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VisualMode;
    use tvdp_geo::GeoPoint;
    use tvdp_storage::{ImageId, ImageMeta, ImageOrigin, UserId, WalOp};
    use tvdp_vision::FeatureKind;

    /// `n` featured rows in one store: far fewer than a chunk, so the
    /// whole slab is one partial tail chunk.
    fn store_of(n: usize) -> Arc<VisualStore> {
        let store = VisualStore::new();
        for i in 0..n {
            let meta = ImageMeta {
                uploader: UserId(1),
                gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
                fov: None,
                captured_at: 100,
                uploaded_at: 110,
                keywords: vec!["row".into()],
            };
            commit_row(&store, meta, i);
        }
        Arc::new(store)
    }

    /// Commits a row at the store's next id with a CNN feature of `i`s.
    fn commit_row(store: &VisualStore, meta: ImageMeta, i: usize) -> ImageId {
        let id = store.peek_next_image_id();
        let row = WalOp::IngestUpload {
            marker: None,
            id,
            meta,
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![(FeatureKind::Cnn, vec![i as f32; 4])],
        };
        store.apply_batch(vec![row]).unwrap();
        id
    }

    fn segments(engine: &ShardedEngine) -> Vec<Arc<QueryEngine>> {
        engine.published.load().segments.clone()
    }

    /// Appends one more featured row to a [`store_of`] store.
    fn add_row(store: &VisualStore, i: usize) -> ImageId {
        let meta = ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
            fov: None,
            captured_at: 100 + i as i64,
            uploaded_at: 110,
            keywords: vec!["row".into(), format!("r{}", i % 3)],
        };
        commit_row(store, meta, i)
    }

    /// Every query family over one generation, as result bytes.
    fn answers(engine: &ShardedEngine, gen: &Generation) -> String {
        let view = View {
            store: &engine.store,
            segments: gen.segments.iter().map(|seg| &**seg).collect(),
            tail: &gen.tail,
        };
        let queries = [
            Query::Visual {
                example: vec![3.5; 4],
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(5),
            },
            Query::Visual {
                example: vec![0.0; 4],
                kind: FeatureKind::Cnn,
                mode: VisualMode::Threshold(1e6),
            },
            Query::Textual {
                text: "row r1".into(),
                mode: crate::types::TextualMode::Ranked(7),
            },
            Query::Spatial(crate::types::SpatialQuery::Nearest {
                point: GeoPoint::new(34.0, -118.25),
                k: 4,
            }),
        ];
        let mut out = String::new();
        for q in &queries {
            let dl = DeadlineCtx::new(0, i64::MAX);
            let rows = view.run(q, &Pool::serial(), &dl, &mut Trace::default());
            out.push_str(&format!("{rows:?}\n"));
        }
        out
    }

    /// A fold replaces the small segments in the generation it
    /// publishes and touches nothing an earlier generation holds: a
    /// reader that loaded the generation before the fold gets the same
    /// bytes from it after the fold has published, and the folded
    /// generation answers as the same rows re-indexed in bulk.
    #[test]
    fn a_reader_holding_the_pre_fold_generation_answers_as_before() {
        for cap in [1usize, 7, 128] {
            let rows = FOLD * cap - 1;
            let store = store_of(0);
            for i in 0..rows {
                add_row(&store, i);
            }
            let engine =
                ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), cap);
            let before = engine.published.load();
            assert_eq!(before.segments.len(), FOLD - 1, "cap {cap}");
            assert_eq!(before.tail.len(), cap - 1, "cap {cap}");
            let want = answers(&engine, &before);

            engine.index_image(0, add_row(&store, rows));
            let folded = engine.published.load();
            assert_eq!(folded.segments.len(), 1, "cap {cap}: one folded segment");
            assert_eq!(folded.segments[0].len(), FOLD * cap, "cap {cap}");
            assert!(folded.tail.is_empty(), "cap {cap}");
            assert_eq!(
                answers(&engine, &before),
                want,
                "cap {cap}: the old generation moved"
            );

            let bulk =
                ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), cap);
            assert_eq!(
                answers(&engine, &folded),
                answers(&bulk, &bulk.published.load()),
                "cap {cap}: the fold answers as a bulk build"
            );
        }
    }

    /// A seal cap so large that a folded segment's size does not fit a
    /// `usize` leaves every row in the tail instead of overflowing.
    #[test]
    fn the_largest_seal_cap_keeps_every_row_in_the_tail() {
        let engine =
            ShardedEngine::with_seal_cap(vec![store_of(5)], Default::default(), usize::MAX);
        let gen = engine.published.load();
        assert!(gen.segments.is_empty());
        assert_eq!(gen.tail.len(), 5);
    }

    #[test]
    fn every_segment_resolves_rows_through_the_stores_one_view() {
        let store = store_of(40);
        let engine = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 8);
        let hits = engine
            .try_execute_with_pool(
                &Query::Visual {
                    example: vec![0.0; 4],
                    kind: FeatureKind::Cnn,
                    mode: VisualMode::Threshold(1e6),
                },
                Pool::global(),
            )
            .unwrap();
        assert_eq!(hits.len(), 40, "the query went through every segment");
        let shared = store.slab_view(FeatureKind::Cnn, 4, 0);
        let segments = segments(&engine);
        assert_eq!(segments.len(), 5);
        for segment in &segments {
            assert!(
                Arc::ptr_eq(&segment.visual_view(), &shared),
                "a segment holds a view (and a tail copy) of its own"
            );
        }
    }
}
