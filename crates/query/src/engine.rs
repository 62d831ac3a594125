//! A sealed segment: the index-backed executor of one fixed id set.
//!
//! A [`QueryEngine`] is built once over a final id list
//! ([`QueryEngine::build_over`]) and never changes: its trees are packed
//! and its columns written once. It answers the single-modal leaves —
//! spatial, visual, temporal, keyword filters — from its indexes. `And`,
//! `Or`, `Categorical` and ranked text belong to the planner
//! (`plan::View`), which scatters leaves over segments and
//! gathers them; a standalone engine's [`QueryEngine::try_execute`] is
//! that planner over this one segment with no tail.
//!
//! Visual features live in the store's shared [feature
//! arena](tvdp_kernel::arena): the engine indexes `u32` row handles and
//! resolves rows through the store's one `Arc`-shared [`SlabView`]
//! snapshot ([`VisualStore::slab_view`]) — no feature vector is cloned,
//! and no engine owns arena memory.

use std::collections::BTreeMap;
use std::sync::Arc;

use tvdp_geo::{BBox, Fov};
use tvdp_index::inverted::{tokenize, IndexBuilder};
use tvdp_index::{InvertedIndex, OrientedRTree};
use tvdp_kernel::{l2_sq_within, Pool, ProjectedQuery, RowSource, SlabView, TopK, TotalF32};
use tvdp_storage::{FeatureHandle, ImageId, ImageRow, VisualStore};
use tvdp_vision::FeatureKind;

use crate::plan::{Cut, DeadlineCtx, Trace, View};
use crate::types::{
    sort_ranked, Query, QueryError, QueryResult, SpatialQuery, TemporalField, TextualMode,
    VisualMode,
};

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which feature family the visual indexes are built over.
    pub visual_kind: FeatureKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            visual_kind: FeatureKind::Cnn,
        }
    }
}

/// The `rows` slot of a doc with no feature row of the indexed family.
const NO_ROW: u32 = u32::MAX;

/// A permutation of doc handles in `(timestamp, doc)` order over one
/// timestamp column: a temporal range is the run between two binary
/// searches, ties in doc (so id) order.
fn time_order(stamps: &[i64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..stamps.len() as u32).collect();
    order.sort_unstable_by_key(|&doc| (stamps[doc as usize], doc));
    order
}

/// The distance of `row` from `example` when it is within `max_dist`:
/// compared squared, as the linear scan compares, the root taken only
/// of a hit. Every threshold the engine evaluates goes through here.
fn within(row: &[f32], example: &[f32], max_dist: f32) -> Option<f32> {
    l2_sq_within(row, example, max_dist)
        .filter(|&d_sq| d_sq <= max_dist * max_dist)
        .map(f32::sqrt)
}

/// An index-backed, write-once segment over a fixed set of a
/// [`VisualStore`]'s images.
pub struct QueryEngine {
    store: Arc<VisualStore>,
    config: EngineConfig,
    /// The segment's one spatial tree: every doc under its scene box,
    /// with its FOV if it has one, keyed by doc handle.
    tree: OrientedRTree<u32>,
    text: InvertedIndex,
    /// Dense doc handle -> image id, ascending: the indexed set.
    docs: Vec<ImageId>,
    /// Per-doc columns, parallel to `docs`: capture/upload timestamps
    /// and the arena row of the indexed family ([`NO_ROW`] when it holds
    /// none), recorded at index time so per-candidate predicates never
    /// take the store lock.
    captured_at: Vec<i64>,
    uploaded_at: Vec<i64>,
    rows: Vec<u32>,
    /// The docs in `(captured_at, doc)` and `(uploaded_at, doc)` order.
    captured_order: Vec<u32>,
    uploaded_order: Vec<u32>,
    /// Length of the indexed feature rows (fixed by the first one);
    /// `None` until a visual row is indexed.
    visual_dim: Option<usize>,
    /// One past the highest arena row `rows` references; the view a
    /// query resolves rows through must cover this many.
    rows_hi: u32,
    /// Union of all indexed scene boxes (spatial cardinality estimate).
    extent: Option<BBox>,
}

impl QueryEngine {
    /// Builds the engine, indexing every image currently in `store`;
    /// images added to the store later are not seen.
    pub fn build(store: Arc<VisualStore>, config: EngineConfig) -> Self {
        let ids = store.image_ids();
        Self::build_over(store, config, &ids)
    }

    /// Builds an engine indexing only the given image ids (in any order,
    /// repeats counted once; ids absent from the store are ignored).
    /// This is how a segment is sealed: a small immutable engine over
    /// exactly the rows the segment owns, sharing the store's feature
    /// arena zero-copy.
    ///
    /// The id list is final, so everything is built write-once: the
    /// tree is packed from its entry list (each node summary computed
    /// once), each postings list is laid down at its size, each
    /// keyword string is tokenized once however many rows hold it, and
    /// each time order is one sort. No feature value is read: a visual
    /// leaf scans the `rows` column.
    pub fn build_over(store: Arc<VisualStore>, config: EngineConfig, ids: &[ImageId]) -> Self {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut engine = Self {
            store: Arc::clone(&store),
            config,
            tree: OrientedRTree::new(),
            text: InvertedIndex::default(),
            docs: Vec::with_capacity(ids.len()),
            captured_at: Vec::with_capacity(ids.len()),
            uploaded_at: Vec::with_capacity(ids.len()),
            rows: Vec::with_capacity(ids.len()),
            captured_order: Vec::new(),
            uploaded_order: Vec::new(),
            visual_dim: None,
            rows_hi: 0,
            extent: None,
        };
        let mut entries: Vec<(BBox, Option<Fov>, u32)> = Vec::with_capacity(ids.len());
        let mut text = IndexBuilder::default();
        // The term numbers of each keyword string, by its store-wide
        // number: tokenized on its first row in this build.
        let mut terms_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut doc_terms = Vec::new();
        store.with_image_rows(&ids, engine.config.visual_kind, |row, handle| {
            doc_terms.clear();
            for (&number, word) in row.keyword_numbers().iter().zip(row.keywords()) {
                let terms = terms_of.entry(number).or_insert_with(|| text.terms(word));
                doc_terms.extend_from_slice(terms);
            }
            text.push_doc(&doc_terms);
            let doc = engine.docs.len() as u32;
            entries.push((engine.index_row(row, handle), row.fov, doc));
        });
        engine.captured_order = time_order(&engine.captured_at);
        engine.uploaded_order = time_order(&engine.uploaded_at);
        engine.tree = OrientedRTree::build(entries);
        engine.text = text.finish();
        engine
    }

    /// The indexed image ids, ascending.
    pub(crate) fn ids(&self) -> &[ImageId] {
        &self.docs
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Appends the per-doc columns of one image above every indexed id,
    /// read from its store `row` and the arena `handle` of its row of
    /// the indexed family (if it holds one), and returns the scene box
    /// the tree keys it by.
    ///
    /// # Panics
    ///
    /// Panics when the row's length differs from the first indexed
    /// row's.
    fn index_row(&mut self, row: ImageRow<'_>, handle: Option<FeatureHandle>) -> BBox {
        let id = row.id;
        debug_assert!(self.docs.last().is_none_or(|&last| last < id));
        if let Some(handle) = handle {
            let dim = *self.visual_dim.get_or_insert(handle.dim as usize);
            assert_eq!(handle.dim as usize, dim, "feature dimension mismatch");
        }
        let scene = row.scene_location();
        self.docs.push(id);
        self.captured_at.push(row.captured_at);
        self.uploaded_at.push(row.uploaded_at);
        self.extent = Some(self.extent.map_or(scene, |e| e.union(&scene)));
        self.rows.push(handle.map_or(NO_ROW, |h| h.row));
        if let Some(handle) = handle {
            self.rows_hi = self.rows_hi.max(handle.row.saturating_add(1));
        }
        scene
    }

    /// The docs whose `field` timestamp lies in `[from, to]`, in
    /// `(timestamp, doc)` order.
    fn time_range(&self, field: TemporalField, from: i64, to: i64) -> &[u32] {
        let (order, stamps) = self.time_column(field);
        let lo = order.partition_point(|&d| stamps[d as usize] < from);
        let hi = order.partition_point(|&d| stamps[d as usize] <= to);
        &order[lo..hi.max(lo)]
    }

    /// One timestamp column with its time order.
    fn time_column(&self, field: TemporalField) -> (&[u32], &[i64]) {
        match field {
            TemporalField::Captured => (&self.captured_order, &self.captured_at),
            TemporalField::Uploaded => (&self.uploaded_order, &self.uploaded_at),
        }
    }

    /// The arena snapshot every visual query path reads rows from: the
    /// store's shared view, which already covers this engine's rows in
    /// the steady state (one `Arc` clone, no allocation, no table lock).
    pub(crate) fn visual_view(&self) -> Arc<SlabView> {
        self.store.slab_view(
            self.config.visual_kind,
            self.visual_dim().unwrap_or(1),
            self.rows_hi as usize,
        )
    }

    /// Dimensionality of the indexed feature rows (fixed by the first
    /// one); `None` until a visual row is indexed.
    pub(crate) fn visual_dim(&self) -> Option<usize> {
        self.visual_dim
    }

    /// Executes a query, rejecting invalid ones with a typed error (see
    /// [`Query::validate`]): a visual leaf anywhere in the tree whose
    /// feature family or example length differs from the indexed rows
    /// yields [`QueryError::KindMismatch`] / [`QueryError::DimMismatch`]
    /// instead of silently wrong (or silently dropped) results.
    ///
    /// The tree runs through the platform's planner with this engine as
    /// its one segment, no tail, a serial pool and a deadline at
    /// `i64::MAX`, which never trips.
    pub fn try_execute(&self, query: &Query) -> Result<Vec<QueryResult>, QueryError> {
        query.validate(self.config.visual_kind, self.visual_dim())?;
        let view = View {
            store: &self.store,
            segments: vec![self],
            tail: &[],
        };
        let dl = DeadlineCtx::new(0, i64::MAX);
        view.run(query, &Pool::serial(), &dl, &mut Trace::default())
    }

    /// Answers a single-modal leaf from this segment's indexes. `And`,
    /// `Or`, `Categorical` and ranked text are answered above the
    /// segment, by the planner, and match nothing here; so do visual
    /// leaves, which the planner sends to
    /// [`QueryEngine::execute_visual`] with its cut. Tree nodes the
    /// leaf's descent enters are counted into `trace`.
    pub(crate) fn run(&self, leaf: &Query, trace: &mut Trace) -> Vec<QueryResult> {
        let docs = |docs: Vec<usize>| -> Vec<QueryResult> {
            docs.into_iter()
                .map(|doc| QueryResult::new(self.docs[doc], 0.0))
                .collect()
        };
        match leaf {
            Query::Spatial(sq) => self.execute_spatial(sq, &mut trace.nodes_touched),
            Query::Textual {
                text,
                mode: TextualMode::All,
            } => docs(self.text.search_and(text)),
            Query::Textual {
                text,
                mode: TextualMode::Any,
            } => docs(self.text.search_or(text)),
            Query::Temporal { field, from, to } => self
                .time_range(*field, *from, *to)
                .iter()
                .map(|&doc| QueryResult::new(self.docs[doc as usize], 0.0))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Document frequency of a (lowercased) term in this engine's text
    /// index — one addend of a partitioned corpus's global df.
    pub(crate) fn term_df(&self, term: &str) -> usize {
        self.text.doc_frequency(term)
    }

    /// Ranked textual retrieval scored against corpus-global statistics
    /// (`n_docs` documents, per-term document frequencies `df`), mapped
    /// to image ids. The planner's phase-2 scoring: identical
    /// floats to one big index holding the whole corpus (see
    /// [`tvdp_index::InvertedIndex::search_ranked_with_stats`]).
    pub(crate) fn ranked_with_stats(
        &self,
        text: &str,
        k: usize,
        n_docs: usize,
        df: &BTreeMap<String, usize>,
    ) -> Vec<(f64, ImageId)> {
        self.text
            .search_ranked_with_stats(text, k, n_docs, |term, local| {
                df.get(term).copied().unwrap_or(local)
            })
            .into_iter()
            .map(|(score, doc)| (score, self.docs[doc]))
            .collect()
    }

    /// A spatial leaf from the tree, counting the nodes its descents
    /// enter into `nodes`. Range, nearest, within and covering go by
    /// box alone, so they find rows without an FOV; directed goes by
    /// box and arc, which prunes them.
    fn execute_spatial(&self, sq: &SpatialQuery, nodes: &mut u64) -> Vec<QueryResult> {
        let hit = |doc: &u32, score: f64| QueryResult::new(self.docs[*doc as usize], score);
        let mut out = Vec::new();
        match sq {
            SpatialQuery::Range(bbox) => {
                self.tree
                    .visit_range(bbox, nodes, |_, doc| out.push(hit(doc, 0.0)));
            }
            SpatialQuery::Nearest { point, k } => {
                let nearest = self.tree.knn(point, *k, nodes);
                out.extend(nearest.into_iter().map(|(d, doc)| hit(doc, d)));
            }
            SpatialQuery::Within(polygon) => {
                // Index pre-filter on the polygon's bounding box, then the
                // exact polygon-rectangle test on the index-time scene.
                self.tree.visit_range(&polygon.bbox(), nodes, |scene, doc| {
                    if polygon.intersects_bbox(scene) {
                        out.push(hit(doc, 0.0));
                    }
                });
            }
            SpatialQuery::Covering(p) => {
                // FOVs that see `p`, and rows without one whose box
                // holds it: one descent.
                let mut docs = self.tree.covering_point(p, nodes);
                docs.sort_unstable();
                out.extend(docs.into_iter().map(|doc| hit(doc, 0.0)));
            }
            SpatialQuery::Directed { region, directions } => {
                let hits = self.tree.range_directed(region, directions, nodes);
                out.extend(hits.into_iter().map(|(_, doc)| hit(doc, 0.0)));
            }
        }
        out
    }

    /// Visual query, optionally restricted to a spatial region (the
    /// hybrid spatial-visual plan, which the planner scatters as one
    /// leaf per segment): the candidates are every doc, or the
    /// tree's hits by box for `region`, and each candidate's row is read
    /// in place from the shared arena snapshot and scored by
    /// [`l2_sq_within`]. A threshold is the limit of every row. A top-k
    /// row is limited by the smaller of this segment's current `k`-th
    /// root and the planner's global `cut`, and a row whose projected
    /// bound is above the cut is rejected before its full width is
    /// read; only a row strictly worse than either is dropped, so a tie
    /// at the cut is still ranked by id. Nothing is cloned per query.
    /// Rows bounded and scored, and tree nodes entered, are counted
    /// into `trace`.
    pub(crate) fn execute_visual(
        &self,
        example: &[f32],
        mode: VisualMode,
        region: Option<&BBox>,
        cut: Option<&Cut>,
        trace: &mut Trace,
    ) -> Vec<QueryResult> {
        if self.visual_dim.is_none() {
            return Vec::new();
        }
        let view = self.visual_view();
        let mut out = Vec::new();
        match mode {
            VisualMode::Threshold(max_dist) => {
                let mut scored = 0;
                self.visual_rows(region, &mut trace.nodes_touched, |id, row| {
                    scored += 1;
                    if let Some(d) = within(view.row(row), example, max_dist) {
                        out.push(QueryResult::new(id, f64::from(d)));
                    }
                });
                trace.rows_scored += scored;
            }
            VisualMode::TopK(k) => {
                let mut top = TopK::new(k);
                let at = cut.map_or(f32::INFINITY, |cut| cut.at);
                let (mut bounded, mut scored) = (0, 0);
                self.visual_rows(region, &mut trace.nodes_touched, |id, row| {
                    if let Some(cut) = cut {
                        let bound = view.lower_bound(&cut.projected, row);
                        bounded += u64::from(bound.is_some());
                        if bound.is_some_and(|b| b > cut.at) {
                            return;
                        }
                    }
                    scored += 1;
                    let limit = top.threshold().map_or(at, |&(TotalF32(d), _)| d.min(at));
                    if let Some(d_sq) = l2_sq_within(view.row(row), example, limit) {
                        top.push((TotalF32(d_sq.sqrt()), id));
                    }
                });
                let kept = top.into_sorted_vec().into_iter();
                out.extend(kept.map(|(TotalF32(d), id)| QueryResult::new(id, f64::from(d))));
                trace.rows_bounded += bounded;
                trace.rows_scored += scored;
            }
        }
        // A threshold's hits come in candidate order, and two squared
        // distances can round to one reported root: rows are ordered by
        // `(score, id)` like everywhere else.
        sort_ranked(&mut out);
        out
    }

    /// Phase 1 of a planned top-k: this segment's `k` candidates
    /// with the lowest projected bounds, as `(bound, id)` in ascending
    /// order. Rows without a projected column (in the arena's partial
    /// chunk) have no bound to rank by and are left out. Rows bounded
    /// and tree nodes entered are counted into `trace`.
    pub(crate) fn visual_bounds(
        &self,
        projected: &ProjectedQuery,
        k: usize,
        region: Option<&BBox>,
        trace: &mut Trace,
    ) -> Vec<(TotalF32, ImageId)> {
        if self.visual_dim.is_none() {
            return Vec::new();
        }
        let view = self.visual_view();
        let mut top = TopK::new(k);
        self.visual_rows(region, &mut trace.nodes_touched, |id, row| {
            if let Some(bound) = view.lower_bound(projected, row) {
                trace.rows_bounded += 1;
                top.push((TotalF32(bound), id));
            }
        });
        top.into_sorted_vec()
    }

    /// Calls `f` with the id and arena row handle of every doc holding
    /// a row of the indexed family, or with `region`, of every tree hit
    /// by box holding one (counting the tree nodes entered into
    /// `nodes`).
    fn visual_rows(&self, region: Option<&BBox>, nodes: &mut u64, mut f: impl FnMut(ImageId, u32)) {
        let mut visit = |doc: usize| {
            let row = self.rows[doc];
            if row != NO_ROW {
                f(self.docs[doc], row);
            }
        };
        match region {
            None => (0..self.docs.len()).for_each(&mut visit),
            Some(region) => self
                .tree
                .visit_range(region, nodes, |_, &doc| visit(doc as usize)),
        }
    }

    /// Cardinality estimate for `q` over this segment, from the
    /// segment's summary statistics, so the admission controller can
    /// price a query in work units before running it. A pure function
    /// of the segment's indexes: deterministic across runs and pool
    /// widths.
    pub fn estimated_cardinality(&self, q: &Query) -> f64 {
        self.estimate(q)
    }

    /// Estimated result cardinality of a leaf, from per-index summary
    /// statistics: temporal range width over the indexed span, term
    /// posting-list lengths, incremental annotation label counts, and
    /// query-box area against the union of indexed scene boxes.
    /// Estimates price work, they never change results.
    fn estimate(&self, q: &Query) -> f64 {
        let n = self.docs.len() as f64;
        match q {
            Query::Temporal { field, from, to } => {
                let (order, stamps) = self.time_column(*field);
                let span = order.first().zip(order.last());
                match span.map(|(&lo, &hi)| (stamps[lo as usize], stamps[hi as usize])) {
                    None => 0.0,
                    Some((lo, hi)) => {
                        // In `f64`: the two ends of `i64` are valid
                        // stamps, and their difference is not an `i64`.
                        let span = hi as f64 - lo as f64 + 1.0;
                        let overlap =
                            ((*to).min(hi) as f64 - (*from).max(lo) as f64 + 1.0).max(0.0);
                        n * (overlap / span).clamp(0.0, 1.0)
                    }
                }
            }
            Query::Textual { text, mode } => {
                let terms = tokenize(text);
                match mode {
                    TextualMode::All => terms
                        .iter()
                        .map(|t| self.text.doc_frequency(t))
                        .min()
                        .unwrap_or(0) as f64,
                    TextualMode::Any => (terms
                        .iter()
                        .map(|t| self.text.doc_frequency(t))
                        .sum::<usize>() as f64)
                        .min(n),
                    TextualMode::Ranked(k) => (*k as f64).min(n),
                }
            }
            // The store counts a label over all its rows, and a segment
            // holds only some of them: each segment takes its share by
            // size, so the segments of a store together price the count
            // once, not once each.
            Query::Categorical { scheme, label, .. } => match self.store.len() {
                0 => 0.0,
                rows => self.store.label_count(*scheme, *label) as f64 * n / rows as f64,
            },
            Query::Spatial(SpatialQuery::Range(b)) => self.spatial_fraction(b) * n,
            Query::Spatial(SpatialQuery::Within(p)) => self.spatial_fraction(&p.bbox()) * n,
            Query::Spatial(SpatialQuery::Nearest { k, .. }) => (*k as f64).min(n),
            Query::Spatial(_) => n,
            Query::Visual {
                mode: VisualMode::TopK(k),
                ..
            } => (*k as f64).min(n),
            Query::Visual { .. } => n,
            Query::And(subs) => subs.iter().map(|s| self.estimate(s)).fold(n, f64::min),
            // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
            Query::Or(subs) => subs.iter().map(|s| self.estimate(s)).sum::<f64>().min(n),
        }
    }

    /// Fraction of the indexed spatial extent a query box covers
    /// (clamped to `[0, 1]`; degenerate extents count as full overlap
    /// when they intersect at all).
    fn spatial_fraction(&self, q: &BBox) -> f64 {
        match &self.extent {
            None => 0.0,
            Some(extent) => match extent.intersection(q) {
                None => 0.0,
                Some(overlap) => {
                    let total = extent.area_deg2();
                    if total <= 0.0 {
                        1.0
                    } else {
                        (overlap.area_deg2() / total).clamp(0.0, 1.0)
                    }
                }
            },
        }
    }
}
