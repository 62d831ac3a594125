//! Sharded scatter/gather execution with lock-free snapshot reads.
//!
//! A [`ShardedEngine`] partitions the corpus across N *shards*, each
//! backed by its own [`VisualStore`] (and therefore its own feature
//! arena). Inside a shard, indexed images live in two places:
//!
//! * **sealed segments** — immutable [`QueryEngine`]s built over a
//!   fixed id set ([`QueryEngine::build_over`]), and
//! * a **tail** — the ids ingested since the last seal: a linear
//!   segment ([`crate::linear`]), the reference executor's own scan run
//!   over that id list, so a tail row is matched and scored by the code
//!   the oracle matches and scores it by.
//!
//! Every mutation republishes the shard's `(segments, tail)` pair as an
//! immutable *generation* through a [`GenCell`], so queries never block
//! on ingest: a query loads each shard's current generation exactly
//! once up front (one consistent snapshot for the whole tree) and runs
//! against frozen state while writers keep appending behind it.
//!
//! Queries **scatter** over every segment and tail — fanned out on a
//! [`tvdp_kernel::Pool`] — and **gather** with deterministic merges:
//!
//! * score-0 filter leaves concatenate and sort by image id (shards
//!   partition the id space, so no dedup is needed),
//! * top-k leaves (visual top-k, spatial nearest): every partition
//!   reports its own `k` lowest rows under the reported `(score, id)`
//!   order, whichever rows tie, and the gather's sort-and-truncate under
//!   that order is the one place a global cut is made,
//! * ranked text runs in two phases: gather corpus-global document
//!   frequencies first, then score each partition against the global
//!   statistics ([`tvdp_index::ranked_term_contribution`] is a pure
//!   function of those numbers, so the floats are bit-identical to one
//!   big index),
//! * conjunctions keep the planner's hybrid fast path — one spatial
//!   range plus one visual leaf scatters as a single restricted index
//!   traversal per segment; that split, `Or`, `Categorical` and the
//!   general conjunction are [`crate::plan`]'s, shared with the other
//!   executors.
//!
//! Merge order never depends on shard count or worker count: the same
//! corpus sharded 1 way or N ways, queried on 1 thread or M, yields
//! byte-identical results, at any seal cap.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tvdp_index::inverted::{ranked_term_contribution, tokenize};
use tvdp_kernel::sync::Mutex;
use tvdp_kernel::{GenCell, Pool, TopK, TotalF64};
use tvdp_storage::{ImageId, VisualStore};
use tvdp_vision::FeatureKind;

use crate::engine::{EngineConfig, QueryEngine};
use crate::linear::{LinearSegment, RowTerms};
use crate::plan;
use crate::types::{
    sort_ranked, Query, QueryError, QueryResult, SpatialQuery, TextualMode, VisualMode,
};

/// Default number of pending images a shard accumulates before sealing
/// them into an immutable segment. The cap trades the two read costs
/// against each other: tail rows are scanned linearly by every query,
/// sealed segments answer through log-scale indexes — so a smaller cap
/// bounds the linear part tighter at the price of more segments per
/// scatter. 128 sits at the measured knee for mixed workloads.
pub const DEFAULT_SEAL_CAP: usize = 128;

/// One shard's published generation: sealed segments plus the pending
/// tail. Immutable from the moment it is stored in the shard's
/// [`GenCell`].
#[derive(Default)]
struct ShardGen {
    segments: Vec<Arc<QueryEngine>>,
    tail: Arc<Vec<ImageId>>,
}

/// Writer-side state, guarded by the shard's ingest mutex. Only
/// same-shard writers contend on it; readers go through the published
/// generation and never touch this lock.
#[derive(Default)]
struct WriterState {
    segments: Vec<Arc<QueryEngine>>,
    /// Pending ids, kept sorted ascending so segment document order
    /// (and therefore ranked-text tie-breaking) is id order regardless
    /// of ingest interleaving.
    pending: Vec<ImageId>,
    /// Everything ever indexed into this shard (idempotency guard).
    indexed: BTreeSet<ImageId>,
}

struct Shard {
    store: Arc<VisualStore>,
    writer: Mutex<WriterState>,
    published: GenCell<ShardGen>,
}

/// A per-query snapshot: every shard's store and generation, loaded
/// once so the whole query tree sees one consistent corpus.
struct Snapshot {
    shards: Vec<ShardView>,
}

struct ShardView {
    store: Arc<VisualStore>,
    gen: Arc<ShardGen>,
}

impl ShardView {
    /// The pending tail as the linear segment it is.
    fn tail(&self) -> LinearSegment<'_> {
        LinearSegment {
            store: &self.store,
            ids: &self.gen.tail,
        }
    }
}

impl Snapshot {
    /// Length of the indexed family's feature rows: what any sealed
    /// segment recorded, else — while every row is still in a tail —
    /// what the store holds for a tail row. `None` when no visual row
    /// exists yet.
    fn visual_dim(&self, kind: FeatureKind) -> Option<usize> {
        let sealed = self
            .shards
            .iter()
            .flat_map(|sv| &sv.gen.segments)
            .find_map(|seg| seg.visual_dim());
        sealed.or_else(|| {
            self.shards.iter().find_map(|sv| {
                sv.gen.tail.iter().find_map(|&id| {
                    sv.store
                        .feature_handle(id, kind)
                        .filter(|h| h.dim > 0)
                        .map(|h| h.dim as usize)
                })
            })
        })
    }
}

/// A unit of scatter work: one sealed segment, or one shard's tail.
enum Unit<'a> {
    Seg(&'a QueryEngine),
    Tail(&'a ShardView),
}

impl Unit<'_> {
    /// Rows a scan of this unit touches — the input to the modeled
    /// per-unit cost.
    fn rows(&self) -> usize {
        match self {
            Unit::Seg(engine) => engine.len(),
            Unit::Tail(sv) => sv.gen.tail.len(),
        }
    }
}

/// Modeled virtual cost of scanning one scatter unit, in
/// virtual-clock milliseconds: a fixed dispatch charge plus a
/// per-row term. The constants only shape *when* a deadline trips,
/// never result bytes, but they must stay a pure function of the
/// unit so expiry decisions are identical across pool widths.
fn unit_cost_ms(rows: usize) -> i64 {
    1 + (rows as i64) / 4096
}

/// Virtual-clock deadline accounting for one query execution.
///
/// All charging happens on the coordinating thread, in the
/// deterministic unit order of [`units_of`], *before* any real pool
/// work is dispatched — so whether a query trips its deadline is a
/// pure function of `(snapshot, query, now, deadline)`, byte-identical
/// across pool widths.
struct DeadlineCtx {
    deadline_ms: i64,
    clock_ms: Cell<i64>,
}

impl DeadlineCtx {
    fn charge(&self, cost_ms: i64) {
        self.clock_ms.set(self.clock_ms.get() + cost_ms);
    }

    /// Errors once the modeled clock has passed the deadline.
    fn check(&self) -> Result<(), QueryError> {
        if self.clock_ms.get() > self.deadline_ms {
            Err(QueryError::DeadlineExceeded {
                deadline_ms: self.deadline_ms,
                now_ms: self.clock_ms.get(),
            })
        } else {
            Ok(())
        }
    }

    /// Charges every unit of an upcoming scatter, checking at each
    /// segment-scan boundary, so an over-deadline scatter aborts
    /// before any pool time is burned.
    fn walk_units(&self, units: &[Unit<'_>]) -> Result<(), QueryError> {
        for unit in units {
            self.charge(unit_cost_ms(unit.rows()));
            self.check()?;
        }
        Ok(())
    }
}

/// Scatter/gather query executor over spatially sharded stores.
///
/// Readers are lock-free: [`ShardedEngine::try_execute`] loads each
/// shard's published generation (an `Arc` clone) and never blocks on
/// concurrent [`ShardedEngine::index_image`] calls. Writers contend
/// only with writers of the same shard.
pub struct ShardedEngine {
    shards: Vec<Shard>,
    config: EngineConfig,
    seal_cap: usize,
}

impl ShardedEngine {
    /// Builds a sharded engine over the given stores (one shard per
    /// store), indexing every image currently present, with the
    /// default segment seal threshold.
    ///
    /// # Panics
    ///
    /// Panics when `stores` is empty.
    pub fn build(stores: Vec<Arc<VisualStore>>, config: EngineConfig) -> Self {
        Self::with_seal_cap(stores, config, DEFAULT_SEAL_CAP)
    }

    /// [`ShardedEngine::build`] with an explicit seal threshold
    /// (clamped to at least 1). Small caps seal aggressively — useful
    /// in tests to force multi-segment shards.
    ///
    /// # Panics
    ///
    /// Panics when `stores` is empty.
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
    /// A populated store is indexed in bulk: each shard's ascending ids
    /// are cut into `seal_cap` runs, every full run is built as one
    /// sealed segment (the runs fan out over the pool), the remainder
    /// becomes the pending tail, and the shard publishes once. Those are
    /// exactly the segments, in the order and over the ids, that feeding
    /// the same ids through [`ShardedEngine::index_image`] arrives at.
    ///
    /// # Panics
    ///
    /// Panics when `stores` is empty.
    pub fn with_seal_cap_with_pool(
        stores: Vec<Arc<VisualStore>>,
        config: EngineConfig,
        seal_cap: usize,
        pool: &Pool,
    ) -> Self {
        assert!(
            !stores.is_empty(),
            "a sharded engine needs at least one shard"
        );
        let seal_cap = seal_cap.max(1);
        let shards = stores
            .into_iter()
            .map(|store| {
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
                Shard {
                    published: GenCell::new(Arc::new(ShardGen {
                        segments: segments.clone(),
                        tail: Arc::new(pending.clone()),
                    })),
                    writer: Mutex::new(WriterState {
                        segments,
                        pending,
                        indexed: ids.into_iter().collect(),
                    }),
                    store,
                }
            })
            .collect();
        Self {
            shards,
            config,
            seal_cap,
        }
    }

    /// Total indexed images across all published generations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let g = s.published.load();
                g.segments.iter().map(|e| e.len()).sum::<usize>() + g.tail.len()
            })
            .sum()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexes one image of `shard`'s store, publishing a new
    /// generation. Idempotent per id; ids absent from the shard's store
    /// are ignored. When the pending tail reaches the seal threshold it
    /// is frozen into an immutable segment first.
    ///
    /// Concurrent callers targeting *different* shards do not contend;
    /// in-flight queries keep the generation they loaded.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn index_image(&self, shard: usize, id: ImageId) {
        let s = &self.shards[shard];
        if s.store.image(id).is_none() {
            return;
        }
        let mut w = s.writer.lock();
        if !w.indexed.insert(id) {
            return;
        }
        let pos = w.pending.partition_point(|&p| p < id);
        w.pending.insert(pos, id);
        if w.pending.len() >= self.seal_cap {
            let segment = Arc::new(QueryEngine::build_over(
                Arc::clone(&s.store),
                self.config.clone(),
                &w.pending,
            ));
            w.segments.push(segment);
            w.pending.clear();
        }
        s.published.store(Arc::new(ShardGen {
            segments: w.segments.clone(),
            tail: Arc::new(w.pending.clone()),
        }));
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardView {
                    store: Arc::clone(&s.store),
                    gen: s.published.load(),
                })
                .collect(),
        }
    }

    /// Loads the snapshot a request runs against, having validated its
    /// queries ([`Query::validate`]) against the configured feature
    /// family and the row length that snapshot indexes.
    fn admit<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q Query>,
    ) -> Result<Snapshot, QueryError> {
        let snap = self.snapshot();
        let kind = self.config.visual_kind;
        let dim = snap.visual_dim(kind);
        for q in queries {
            q.validate(kind, dim)?;
        }
        Ok(snap)
    }

    /// Executes a query: scatter across every shard's published
    /// generation on the global pool, gather deterministically. A
    /// visual leaf whose feature family or example length differs from
    /// the indexed rows is rejected with [`QueryError::KindMismatch`] /
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
        let snap = self.admit([query])?;
        self.run_on(&snap, query, pool, None)
    }

    /// [`ShardedEngine::try_execute_with_pool`] under a virtual-clock
    /// deadline: execution is charged against a modeled clock starting
    /// at `now_ms`, checked at scatter/gather and segment-scan
    /// boundaries, and aborted with [`QueryError::DeadlineExceeded`]
    /// once the clock passes `deadline_ms`. The trip decision is a pure
    /// function of the snapshot and the query — identical across pool
    /// widths — and a query that completes returns exactly the bytes
    /// the undeadlined path would.
    pub fn try_execute_with_deadline(
        &self,
        query: &Query,
        pool: &Pool,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let snap = self.admit([query])?;
        let dl = DeadlineCtx {
            deadline_ms,
            clock_ms: Cell::new(now_ms),
        };
        self.run_on(&snap, query, pool, Some(&dl))
    }

    /// Prices `query` in admission work units against the current
    /// published generations: one unit per scatter unit dispatched,
    /// plus the planner's estimated per-segment result cardinality and
    /// the tail rows a linear scan must touch. Deterministic — a pure
    /// function of the published snapshot — and read-only.
    pub fn estimate_query_units(&self, query: &Query) -> u64 {
        let snap = self.snapshot();
        let mut units = 1u64;
        for sv in &snap.shards {
            for seg in &sv.gen.segments {
                let est = seg.estimated_cardinality(query);
                units += 1 + est.max(0.0).min(seg.len() as f64) as u64;
            }
            units += sv.gen.tail.len() as u64;
        }
        units
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
        let snap = self.admit(queries)?;
        pool.map(queries, |_, q| {
            let serial = Pool::serial();
            self.run_on(&snap, q, &serial, None)
        })
        .into_iter()
        .collect()
    }

    /// Post-validation dispatch over one snapshot. `dl` carries the
    /// optional deadline accounting; `None` never errors.
    fn run_on(
        &self,
        snap: &Snapshot,
        query: &Query,
        pool: &Pool,
        dl: Option<&DeadlineCtx>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        if let Some(dl) = dl {
            dl.check()?;
        }
        match query {
            Query::And(subs) => self.and_on(snap, subs, pool, dl),
            Query::Or(subs) => self.or_on(snap, subs, pool, dl),
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => {
                if let Some(dl) = dl {
                    // One dispatch charge per shard-store scan.
                    dl.charge(snap.shards.len() as i64);
                    dl.check()?;
                }
                let stores = snap.shards.iter().map(|sv| &*sv.store);
                Ok(plan::categorical(stores, *scheme, *label, *min_confidence))
            }
            Query::Textual {
                text,
                mode: TextualMode::Ranked(k),
            } => self.ranked_on(snap, text, *k, pool, dl),
            leaf => self.scatter_leaf(snap, leaf, pool, dl),
        }
    }

    /// Scatters a single-modal leaf over every segment and tail, then
    /// merges with the leaf's deterministic gather rule.
    fn scatter_leaf(
        &self,
        snap: &Snapshot,
        leaf: &Query,
        pool: &Pool,
        dl: Option<&DeadlineCtx>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let units = units_of(snap);
        if let Some(dl) = dl {
            dl.walk_units(&units)?;
        }
        let partials = pool.map(&units, |_, unit| match unit {
            Unit::Seg(engine) => engine.run(leaf),
            Unit::Tail(sv) => sv.tail().leaf(leaf),
        });
        Ok(match leaf {
            Query::Spatial(SpatialQuery::Nearest { k, .. }) => gather_ranked(partials, Some(*k)),
            Query::Visual { mode, .. } => gather_ranked(partials, top_k(*mode)),
            // Score-0 filters: partitions are disjoint, so the union is
            // just a sort by id.
            _ => {
                let mut all: Vec<QueryResult> = partials.into_iter().flatten().collect();
                all.sort_by_key(|r| r.image);
                all
            }
        })
    }

    /// Two-phase distributed tf-idf. Phase 1 gathers corpus-global
    /// statistics (total document count, per-term document
    /// frequencies); phase 2 scores every partition against those
    /// numbers, so each document's score is bit-identical to a single
    /// index over the whole corpus. Gather re-ranks by
    /// `(descending score, ascending id)` and truncates to `k`.
    fn ranked_on(
        &self,
        snap: &Snapshot,
        text: &str,
        k: usize,
        pool: &Pool,
        dl: Option<&DeadlineCtx>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        if let Some(dl) = dl {
            // Both phases walk every unit; charge the full scatter up
            // front so an over-deadline ranked query aborts before the
            // statistics gather starts.
            dl.walk_units(&units_of(snap))?;
        }
        let terms = tokenize(text);
        let tail_docs: Vec<RowTerms> = snap
            .shards
            .iter()
            .flat_map(|sv| sv.tail().term_stats(&terms))
            .collect();
        let n_total: usize = snap
            .shards
            .iter()
            .map(|sv| sv.gen.segments.iter().map(|e| e.len()).sum::<usize>())
            .sum::<usize>()
            + tail_docs.len();
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        for (i, term) in terms.iter().enumerate() {
            if df.contains_key(term) {
                continue;
            }
            let mut n = 0usize;
            for sv in &snap.shards {
                for seg in &sv.gen.segments {
                    n += seg.term_df(term);
                }
            }
            n += tail_docs.iter().filter(|d| d.tf[i] > 0).count();
            df.insert(term.clone(), n);
        }
        if let Some(dl) = dl {
            // Gather boundary between the statistics and scoring phases.
            dl.check()?;
        }

        let segments: Vec<&QueryEngine> = snap
            .shards
            .iter()
            .flat_map(|sv| sv.gen.segments.iter().map(|a| &**a))
            .collect();
        let mut candidates: Vec<(f64, ImageId)> = pool
            .map(&segments, |_, seg| {
                seg.ranked_with_stats(text, k, n_total, &df)
            })
            .into_iter()
            .flatten()
            .collect();
        for doc in &tail_docs {
            let mut score = 0.0f64;
            let mut matched = false;
            // Accumulate in query-term order (duplicates included),
            // matching the reference index's float summation order.
            for (i, term) in terms.iter().enumerate() {
                let tf = doc.tf[i];
                if tf == 0 {
                    continue;
                }
                matched = true;
                // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                score += ranked_term_contribution(tf, doc.len, n_total, df[term]);
            }
            if matched {
                candidates.push((score, doc.id));
            }
        }

        let mut top = TopK::new(k);
        top.extend(
            candidates
                .into_iter()
                .map(|(s, id)| (Reverse(TotalF64(s)), id)),
        );
        Ok(top
            .into_sorted_vec()
            .into_iter()
            .map(|(Reverse(TotalF64(s)), id)| QueryResult::new(id, s))
            .collect())
    }

    /// Disjunction: union keeping each image's best (lowest) score,
    /// ordered by `(score, id)` — the engine's documented semantics.
    fn or_on(
        &self,
        snap: &Snapshot,
        subs: &[Query],
        pool: &Pool,
        dl: Option<&DeadlineCtx>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let mut rows = Vec::new();
        for q in subs {
            rows.extend(self.run_on(snap, q, pool, dl)?);
        }
        Ok(plan::or_fold(rows))
    }

    /// Conjunction. The hybrid fast path — exactly one spatial range
    /// plus one visual leaf — scatters as a single region-restricted
    /// visual traversal per segment (with any extra legs intersected
    /// afterwards); everything else materializes each leg globally and
    /// intersects, scoring survivors from the first leg.
    fn and_on(
        &self,
        snap: &Snapshot,
        subs: &[Query],
        pool: &Pool,
        dl: Option<&DeadlineCtx>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let Some(pair) = plan::hybrid_pair(subs) else {
            let legs: Result<Vec<_>, _> = subs
                .iter()
                .map(|q| self.run_on(snap, q, pool, dl))
                .collect();
            return Ok(plan::intersect_legs(legs?));
        };
        let units = units_of(snap);
        if let Some(dl) = dl {
            dl.walk_units(&units)?;
        }
        let partials = pool.map(&units, |_, unit| match unit {
            Unit::Seg(engine) => engine.execute_visual(pair.example, pair.mode, Some(pair.region)),
            Unit::Tail(sv) => {
                sv.tail()
                    .visual(pair.example, pair.kind, pair.mode, Some(pair.region))
            }
        });
        let mut results = gather_ranked(partials, top_k(pair.mode));
        for q in pair.rest {
            if results.is_empty() {
                break;
            }
            plan::retain_in(&mut results, &self.run_on(snap, q, pool, dl)?);
        }
        Ok(results)
    }
}

/// The gather of a ranked scatter: every partition reports its rows in
/// `(score, id)` order (a top-k leaf its own `k` lowest), so the global
/// answer is their merge under the same order, and this truncation is
/// the one place a global top-k cut is made.
fn gather_ranked(partials: Vec<Vec<QueryResult>>, k: Option<usize>) -> Vec<QueryResult> {
    let mut all: Vec<QueryResult> = partials.into_iter().flatten().collect();
    sort_ranked(&mut all);
    if let Some(k) = k {
        all.truncate(k);
    }
    all
}

fn top_k(mode: VisualMode) -> Option<usize> {
    match mode {
        VisualMode::TopK(k) => Some(k),
        VisualMode::Threshold(_) => None,
    }
}

/// Flattens a snapshot into scatter units in deterministic order:
/// shard 0's segments then tail, shard 1's, … Empty tails are skipped.
fn units_of(snap: &Snapshot) -> Vec<Unit<'_>> {
    let mut units = Vec::new();
    for sv in &snap.shards {
        for seg in &sv.gen.segments {
            units.push(Unit::Seg(seg));
        }
        if !sv.gen.tail.is_empty() {
            units.push(Unit::Tail(sv));
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_storage::{ImageMeta, ImageOrigin, UserId};

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
        engine.shards[0].published.load().segments.clone()
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
