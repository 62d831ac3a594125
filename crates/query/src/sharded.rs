//! The platform's query engine: one store, indexed as sealed segments
//! plus a pending tail, read through lock-free snapshots.
//!
//! A [`ShardedEngine`] indexes one [`VisualStore`] (and therefore one
//! feature arena) in two places:
//!
//! * **sealed segments** — immutable [`QueryEngine`]s built over a
//!   fixed id set ([`QueryEngine::build_over`]), and
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

use std::collections::BTreeSet;
use std::sync::Arc;

use tvdp_kernel::sync::Mutex;
use tvdp_kernel::{GenCell, Pool};
use tvdp_storage::{ImageId, VisualStore};

use crate::engine::{EngineConfig, QueryEngine};
use crate::plan::{DeadlineCtx, View};
use crate::types::{Query, QueryError, QueryResult};

/// Default number of pending images the engine accumulates before
/// sealing them into an immutable segment. The cap trades the two read
/// costs against each other: tail rows are scanned linearly by every
/// query, sealed segments answer through log-scale indexes — so a
/// smaller cap bounds the linear part tighter at the price of more
/// segments per scatter. 128 sits at the measured knee for mixed
/// workloads.
pub const DEFAULT_SEAL_CAP: usize = 128;

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
    /// Pending ids, kept sorted ascending so segment document order
    /// (and therefore ranked-text tie-breaking) is id order regardless
    /// of ingest interleaving.
    pending: Vec<ImageId>,
    /// Everything ever indexed (idempotency guard).
    indexed: BTreeSet<ImageId>,
}

/// Segmented query executor over one store with lock-free snapshot
/// reads.
///
/// Readers are lock-free: [`ShardedEngine::try_execute`] loads the
/// published generation (an `Arc` clone) and never blocks on concurrent
/// [`ShardedEngine::index_image`] calls; writers contend only with each
/// other.
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
    /// into `seal_cap` runs, every full run is built as one sealed
    /// segment (the runs fan out over the pool), the remainder becomes
    /// the pending tail, and the engine publishes once. Those are
    /// exactly the segments, in the order and over the ids, that feeding
    /// the same ids through [`ShardedEngine::index_image`] arrives at.
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
        let runs = ids.chunks_exact(seal_cap);
        let pending = runs.remainder().to_vec();
        let runs: Vec<&[ImageId]> = runs.collect();
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
                pending,
                indexed: ids.into_iter().collect(),
            }),
            store,
            config,
            seal_cap,
        }
    }

    /// Total indexed images in the published generation.
    pub fn len(&self) -> usize {
        let g = self.published.load();
        g.segments.iter().map(|e| e.len()).sum::<usize>() + g.tail.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexes one image of the store, publishing a new generation.
    /// Idempotent per id; ids absent from the store are ignored. When
    /// the pending tail reaches the seal threshold it is frozen into an
    /// immutable segment first. In-flight queries keep the generation
    /// they loaded.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not 0, the one store's index.
    pub fn index_image(&self, shard: usize, id: ImageId) {
        assert_eq!(shard, 0, "a ShardedEngine indexes one store, shard 0");
        if self.store.image(id).is_none() {
            return;
        }
        let mut w = self.writer.lock();
        if !w.indexed.insert(id) {
            return;
        }
        let pos = w.pending.partition_point(|&p| p < id);
        w.pending.insert(pos, id);
        if w.pending.len() >= self.seal_cap {
            let segment = Arc::new(QueryEngine::build_over(
                Arc::clone(&self.store),
                self.config.clone(),
                &w.pending,
            ));
            w.segments.push(segment);
            w.pending.clear();
        }
        self.published.store(Arc::new(Generation {
            segments: w.segments.clone(),
            tail: Arc::new(w.pending.clone()),
        }));
    }

    /// The view a request runs against over the generation `gen`,
    /// having validated its queries ([`Query::validate`]) against the
    /// configured feature family and the row length that generation
    /// indexes.
    fn admit<'a, 'q>(
        &'a self,
        gen: &'a Generation,
        queries: impl IntoIterator<Item = &'q Query>,
    ) -> Result<View<'a>, QueryError> {
        let view = View {
            store: &self.store,
            segments: gen.segments.iter().map(|seg| &**seg).collect(),
            tail: &gen.tail,
        };
        let kind = self.config.visual_kind;
        let dim = view.visual_dim(kind);
        for q in queries {
            q.validate(kind, dim)?;
        }
        Ok(view)
    }

    /// Executes a query: scatter across the published generation on the
    /// global pool, gather deterministically. A visual leaf whose
    /// feature family or example length differs from the indexed rows
    /// is rejected with [`QueryError::KindMismatch`] /
    /// [`QueryError::DimMismatch`].
    pub fn try_execute(&self, query: &Query) -> Result<Vec<QueryResult>, QueryError> {
        self.try_execute_with_pool(query, Pool::global())
    }

    /// [`ShardedEngine::try_execute`] scattering on the given pool.
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
        let mut answers = self.execute(std::slice::from_ref(query), pool, now_ms, deadline_ms)?;
        Ok(answers.remove(0))
    }

    /// Prices `query` in admission work units against the published
    /// generation: one unit per scatter unit dispatched, plus each
    /// segment's estimated result cardinality and the tail rows a
    /// linear scan must touch. Deterministic — a pure function of the
    /// published snapshot — and read-only.
    pub fn estimate_query_units(&self, query: &Query) -> u64 {
        let gen = self.published.load();
        let sealed: u64 = gen
            .segments
            .iter()
            .map(|seg| {
                let est = seg.estimated_cardinality(query);
                1 + est.max(0.0).min(seg.len() as f64) as u64
            })
            .sum();
        1 + sealed + gen.tail.len() as u64
    }

    /// Executes a batch of independent queries, fanning the *queries*
    /// out across the pool (each query then scatters serially, bounding
    /// total thread count). All queries see one snapshot; results are
    /// in input order and identical to per-query execution.
    pub fn try_execute_batch_with_pool(
        &self,
        queries: &[Query],
        pool: &Pool,
    ) -> Result<Vec<Vec<QueryResult>>, QueryError> {
        self.execute(queries, pool, 0, i64::MAX)
    }

    /// The one body of every entry point: validates `queries` against
    /// one snapshot, then runs each under its own deadline clock from
    /// `now_ms` to `deadline_ms`. One query scatters over `pool`; a
    /// batch fans its queries out over it and each scatters serially.
    fn execute(
        &self,
        queries: &[Query],
        pool: &Pool,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<Vec<Vec<QueryResult>>, QueryError> {
        let gen = self.published.load();
        let view = self.admit(&gen, queries)?;
        let run = |query: &Query, pool: &Pool| {
            view.run(query, pool, &DeadlineCtx::new(now_ms, deadline_ms))
        };
        match queries {
            [query] => Ok(vec![run(query, pool)?]),
            _ => pool
                .map(queries, |_, query| run(query, &Pool::serial()))
                .into_iter()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VisualMode;
    use tvdp_geo::GeoPoint;
    use tvdp_storage::{ImageMeta, ImageOrigin, UserId};
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
            let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
            store
                .put_feature(id, FeatureKind::Cnn, vec![i as f32; 4])
                .unwrap();
        }
        Arc::new(store)
    }

    fn segments(engine: &ShardedEngine) -> Vec<Arc<QueryEngine>> {
        engine.published.load().segments.clone()
    }

    #[test]
    fn every_segment_resolves_rows_through_the_stores_one_view() {
        let store = store_of(40);
        let engine = ShardedEngine::with_seal_cap(vec![Arc::clone(&store)], Default::default(), 8);
        let hits = engine
            .try_execute(&Query::Visual {
                example: vec![0.0; 4],
                kind: FeatureKind::Cnn,
                mode: VisualMode::Threshold(1e6),
            })
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
