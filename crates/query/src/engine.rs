//! The index-backed query engine.
//!
//! Visual features live in the store's shared [feature
//! arena](tvdp_kernel::arena): the engine indexes `u32` row handles,
//! inserts run against the live slab under the store's read lock, and
//! queries resolve rows through the store's one `Arc`-shared
//! [`SlabView`] snapshot ([`VisualStore::slab_view`]) — no feature
//! vector is cloned on either path, and no engine owns arena memory.
//!
//! Conjunctions are planned by selectivity (see
//! [`QueryEngine::try_execute`]): exact-membership leaves (temporal
//! ranges, keyword filters, annotation labels, spatial boxes, visual
//! thresholds) are evaluated per candidate instead of materialized,
//! and candidate sets travel as one sorted `Vec<ImageId>` narrowed by
//! galloping intersection.

use std::collections::BTreeMap;
use std::sync::Arc;

use tvdp_geo::{BBox, Fov, GeoPolygon};
use tvdp_index::{inverted::tokenize, InvertedIndex, OrientedRTree, RTree};
use tvdp_kernel::{l2_sq_within, RowSource, SlabView, TopK, TotalF32};
use tvdp_storage::{ClassificationId, FeatureHandle, ImageId, ImageRecord, VisualStore};
use tvdp_vision::FeatureKind;

use crate::plan;
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

/// Why [`QueryEngine::index_image`] refused an id: an engine's ids
/// ascend (its doc handles, and every column indexed by them, are in id
/// order), so an id may only be appended above the highest one indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The refused id.
    pub id: ImageId,
    /// The highest id the engine indexes.
    pub highest: ImageId,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} is below {}, the highest id this engine indexes, and is not indexed: an engine only appends",
            self.id, self.highest
        )
    }
}

impl std::error::Error for OutOfOrder {}

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

/// A conjunction leaf evaluated per candidate image (an exact
/// membership predicate) instead of being materialized. Top-k-like
/// leaves can never take this form: their result sets depend on the
/// whole corpus, not on one image at a time.
enum Filter<'q> {
    Temporal {
        field: TemporalField,
        from: i64,
        to: i64,
    },
    Textual {
        terms: Vec<String>,
        all: bool,
    },
    Categorical {
        scheme: ClassificationId,
        label: usize,
        min_confidence: f32,
    },
    Range(&'q BBox),
    Within(&'q GeoPolygon),
    VisualThreshold {
        example: &'q [f32],
        max_dist: f32,
    },
}

/// An index-backed executor over a [`VisualStore`] snapshot.
///
/// Built once from the store; images ingested afterwards are indexed via
/// [`QueryEngine::index_image`], above the highest id already indexed.
pub struct QueryEngine {
    store: Arc<VisualStore>,
    config: EngineConfig,
    scene_tree: RTree<ImageId>,
    fov_tree: OrientedRTree<ImageId>,
    text: InvertedIndex,
    /// Dense doc handle -> image id, ascending: the indexed set, and
    /// (by binary search) image id -> doc handle.
    docs: Vec<ImageId>,
    /// Per-doc columns, parallel to `docs`: capture/upload timestamps,
    /// scene boxes, whether the row carries an FOV and its arena row of
    /// the indexed family ([`NO_ROW`] when it holds none), recorded at
    /// index time so per-candidate predicates never take the store lock.
    captured_at: Vec<i64>,
    uploaded_at: Vec<i64>,
    scenes: Vec<BBox>,
    has_fov: Vec<bool>,
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
    /// Union of all indexed scene boxes (spatial selectivity model).
    extent: Option<BBox>,
}

impl QueryEngine {
    /// Builds the engine, indexing every image currently in `store`.
    pub fn build(store: Arc<VisualStore>, config: EngineConfig) -> Self {
        let ids = store.image_ids();
        Self::build_over(store, config, &ids)
    }

    /// Builds an engine indexing only the given image ids (in any order,
    /// repeats counted once; ids absent from the store are ignored).
    /// This is how a shard seals a segment: a small immutable engine
    /// over exactly the rows the segment owns, sharing the store's
    /// feature arena zero-copy like [`QueryEngine::build`].
    ///
    /// Answers as [`QueryEngine::index_image`] over the same ids in
    /// ascending order would, but the id list is final, so it is built
    /// write-once: the two trees are packed from their entry lists
    /// (each node summary computed once) and each time order is one
    /// sort. No feature value is read: a visual leaf scans the `rows`
    /// column.
    pub fn build_over(store: Arc<VisualStore>, config: EngineConfig, ids: &[ImageId]) -> Self {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut engine = Self::build_empty(Arc::clone(&store), config);
        let mut scenes: Vec<(BBox, ImageId)> = Vec::new();
        let mut fovs: Vec<(BBox, Fov, ImageId)> = Vec::new();
        for &id in &ids {
            store.with_image_row(id, engine.config.visual_kind, |record, handle| {
                let (scene, fov) = engine.index_row(id, record, handle);
                scenes.push((scene, id));
                fovs.extend(fov.map(|fov| (scene, fov, id)));
            });
        }
        engine.captured_order = time_order(&engine.captured_at);
        engine.uploaded_order = time_order(&engine.uploaded_at);
        engine.scene_tree = RTree::build(scenes);
        engine.fov_tree = OrientedRTree::build(fovs);
        engine
    }

    fn build_empty(store: Arc<VisualStore>, config: EngineConfig) -> Self {
        Self {
            store,
            config,
            scene_tree: RTree::new(),
            fov_tree: OrientedRTree::new(),
            text: InvertedIndex::new(),
            docs: Vec::new(),
            captured_at: Vec::new(),
            uploaded_at: Vec::new(),
            scenes: Vec::new(),
            has_fov: Vec::new(),
            rows: Vec::new(),
            captured_order: Vec::new(),
            uploaded_order: Vec::new(),
            visual_dim: None,
            rows_hi: 0,
            extent: None,
        }
    }

    /// The doc handle of `id`, if indexed.
    fn doc_of(&self, id: ImageId) -> Option<usize> {
        self.docs.binary_search(&id).ok()
    }

    /// The underlying store.
    pub fn store(&self) -> &VisualStore {
        &self.store
    }

    /// Number of indexed images.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Indexes one image from the store into every applicable index,
    /// appending it above the highest id indexed so far; unknown ids are
    /// ignored. An id at or below the highest is a no-op when already
    /// indexed and refused with [`OutOfOrder`], the engine unchanged,
    /// when not. One read-lock acquisition per row: the record is read
    /// in place, and of its feature row only the `u32` handle is kept.
    pub fn index_image(&mut self, id: ImageId) -> Result<(), OutOfOrder> {
        if let Some(&highest) = self.docs.last() {
            if id <= highest {
                return match self.doc_of(id) {
                    Some(_) => Ok(()),
                    None => Err(OutOfOrder { id, highest }),
                };
            }
        }
        let store = Arc::clone(&self.store);
        store.with_image_row(id, self.config.visual_kind, |record, handle| {
            let (scene, fov) = self.index_row(id, record, handle);
            // The new doc is the highest, so it goes after every doc
            // sharing its timestamp.
            let doc = (self.docs.len() - 1) as u32;
            for (order, stamps) in [
                (&mut self.captured_order, &self.captured_at),
                (&mut self.uploaded_order, &self.uploaded_at),
            ] {
                let t = stamps[doc as usize];
                let at = order.partition_point(|&d| stamps[d as usize] <= t);
                order.insert(at, doc);
            }
            self.scene_tree.insert(scene, id);
            if let Some(fov) = fov {
                self.fov_tree.insert(scene, fov, id);
            }
        });
        Ok(())
    }

    /// Appends the per-doc columns of one image above every indexed id,
    /// read from its store `record` and the arena `handle` of its row of
    /// the indexed family (if it holds one), and returns what the trees
    /// key it by: its scene box and its FOV.
    ///
    /// # Panics
    ///
    /// Panics when the row's length differs from the first indexed
    /// row's.
    fn index_row(
        &mut self,
        id: ImageId,
        record: &ImageRecord,
        handle: Option<FeatureHandle>,
    ) -> (BBox, Option<Fov>) {
        debug_assert!(self.docs.last().is_none_or(|&last| last < id));
        if let Some(handle) = handle {
            let dim = *self.visual_dim.get_or_insert(handle.dim as usize);
            assert_eq!(handle.dim as usize, dim, "feature dimension mismatch");
        }
        let scene = record.scene_location;
        let doc = self.docs.len();
        self.docs.push(id);
        self.text
            .index_document(doc, &record.meta.keywords.join(" "));
        self.captured_at.push(record.meta.captured_at);
        self.uploaded_at.push(record.meta.uploaded_at);
        self.scenes.push(scene);
        self.has_fov.push(record.meta.fov.is_some());
        self.extent = Some(self.extent.map_or(scene, |e| e.union(&scene)));
        self.rows.push(handle.map_or(NO_ROW, |h| h.row));
        if let Some(handle) = handle {
            self.rows_hi = self.rows_hi.max(handle.row.saturating_add(1));
        }
        (scene, record.meta.fov)
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

    /// The arena row of `id`, if indexed with a feature row.
    fn row_of(&self, id: ImageId) -> Option<u32> {
        self.doc_of(id)
            .map(|doc| self.rows[doc])
            .filter(|&row| row != NO_ROW)
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
    pub fn try_execute(&self, query: &Query) -> Result<Vec<QueryResult>, QueryError> {
        query.validate(self.config.visual_kind, self.visual_dim())?;
        Ok(self.run(query))
    }

    /// Dispatch after validation. Recursive planner paths (and the
    /// sharded scatter executor) call this directly so a tree is only
    /// validated once.
    pub(crate) fn run(&self, query: &Query) -> Vec<QueryResult> {
        match query {
            Query::Spatial(sq) => self.execute_spatial(sq),
            Query::Visual { example, mode, .. } => self.execute_visual(example, *mode, None),
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => plan::categorical([&*self.store], *scheme, *label, *min_confidence),
            Query::Textual { text, mode } => self.execute_textual(text, *mode),
            Query::Temporal { field, from, to } => self
                .time_range(*field, *from, *to)
                .iter()
                .map(|&doc| QueryResult::new(self.docs[doc as usize], 0.0))
                .collect(),
            Query::And(subs) => self.execute_and(subs),
            Query::Or(subs) => plan::or_fold(subs.iter().flat_map(|q| self.run(q)).collect()),
        }
    }

    /// Document frequency of a (lowercased) term in this engine's text
    /// index — one addend of a partitioned corpus's global df.
    pub(crate) fn term_df(&self, term: &str) -> usize {
        self.text.doc_frequency(term)
    }

    /// Ranked textual retrieval scored against corpus-global statistics
    /// (`n_docs` documents, per-term document frequencies `df`), mapped
    /// to image ids. The sharded executor's phase-2 scoring: identical
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

    fn execute_spatial(&self, sq: &SpatialQuery) -> Vec<QueryResult> {
        match sq {
            SpatialQuery::Range(bbox) => self
                .scene_tree
                .range(bbox)
                .into_iter()
                .map(|id| QueryResult::new(*id, 0.0))
                .collect(),
            SpatialQuery::Nearest { point, k } => self
                .scene_tree
                .knn(point, *k)
                .into_iter()
                .map(|(d, id)| QueryResult::new(*id, d))
                .collect(),
            SpatialQuery::Within(polygon) => {
                // Index pre-filter on the polygon's bounding box, then the
                // exact polygon-rectangle test on the index-time scene.
                self.scene_tree
                    .range(&polygon.bbox())
                    .into_iter()
                    .filter(|id| {
                        self.doc_of(**id)
                            .is_some_and(|doc| polygon.intersects_bbox(&self.scenes[doc]))
                    })
                    .map(|id| QueryResult::new(*id, 0.0))
                    .collect()
            }
            SpatialQuery::Covering(p) => {
                // FOV-backed visibility plus degenerate matches from
                // images without direction metadata.
                let mut ids: Vec<ImageId> = self
                    .fov_tree
                    .covering_point(p, None)
                    .into_iter()
                    .map(|(_, id)| *id)
                    .collect();
                for id in self.scene_tree.containing(p) {
                    if self.doc_of(*id).is_some_and(|doc| !self.has_fov[doc]) {
                        ids.push(*id);
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                ids.into_iter()
                    .map(|id| QueryResult::new(id, 0.0))
                    .collect()
            }
            SpatialQuery::Directed { region, directions } => self
                .fov_tree
                .range_directed(region, directions)
                .into_iter()
                .map(|(_, id)| QueryResult::new(*id, 0.0))
                .collect(),
        }
    }

    /// Visual query, optionally restricted to a spatial region (the
    /// hybrid spatial-visual plan, which the sharded executor scatters
    /// as one leaf per segment): the candidates are every doc, or the
    /// scene tree's hits for `region`, and each candidate's row is read
    /// in place from the shared arena snapshot and scored by
    /// [`l2_sq_within`]. A threshold is the limit of every row; a top-k
    /// row is limited by this segment's current `k`-th root, so only a
    /// row strictly worse than it is abandoned and a tie at the cut is
    /// still ranked by id. Nothing is cloned per query, and nothing is
    /// shared with other segments: the work depends only on this
    /// segment and the query.
    pub(crate) fn execute_visual(
        &self,
        example: &[f32],
        mode: VisualMode,
        region: Option<&BBox>,
    ) -> Vec<QueryResult> {
        if self.visual_dim.is_none() {
            return Vec::new();
        }
        let mut out = Vec::new();
        match mode {
            VisualMode::Threshold(max_dist) => {
                self.visual_rows(region, |id, row| {
                    if let Some(d) = within(row, example, max_dist) {
                        out.push(QueryResult::new(id, f64::from(d)));
                    }
                });
            }
            VisualMode::TopK(k) => {
                let mut top = TopK::new(k);
                self.visual_rows(region, |id, row| {
                    let limit = top.threshold().map_or(f32::INFINITY, |&(TotalF32(d), _)| d);
                    if let Some(d_sq) = l2_sq_within(row, example, limit) {
                        top.push((TotalF32(d_sq.sqrt()), id));
                    }
                });
                let kept = top.into_sorted_vec().into_iter();
                out.extend(kept.map(|(TotalF32(d), id)| QueryResult::new(id, f64::from(d))));
            }
        }
        // A threshold's hits come in candidate order, and two squared
        // distances can round to one reported root: rows are ordered by
        // `(score, id)` like everywhere else.
        sort_ranked(&mut out);
        out
    }

    /// Calls `f` with the id and feature row of every doc holding a
    /// row of the indexed family, or with `region`, of every scene tree
    /// hit holding one; rows are read from the shared arena snapshot.
    fn visual_rows(&self, region: Option<&BBox>, mut f: impl FnMut(ImageId, &[f32])) {
        let view = self.visual_view();
        let mut visit = |doc: usize| {
            let row = self.rows[doc];
            if row != NO_ROW {
                f(self.docs[doc], view.row(row));
            }
        };
        match region {
            None => (0..self.docs.len()).for_each(&mut visit),
            Some(region) => {
                for id in self.scene_tree.range(region) {
                    if let Some(doc) = self.doc_of(*id) {
                        visit(doc);
                    }
                }
            }
        }
    }

    fn execute_textual(&self, text: &str, mode: TextualMode) -> Vec<QueryResult> {
        match mode {
            TextualMode::All => self
                .text
                .search_and(text)
                .into_iter()
                .map(|doc| QueryResult::new(self.docs[doc], 0.0))
                .collect(),
            TextualMode::Any => self
                .text
                .search_or(text)
                .into_iter()
                .map(|doc| QueryResult::new(self.docs[doc], 0.0))
                .collect(),
            TextualMode::Ranked(k) => self
                .text
                .search_ranked(text, k)
                .into_iter()
                .map(|(score, doc)| QueryResult::new(self.docs[doc], score))
                .collect(),
        }
    }

    /// Classifies a conjunction leaf as a per-candidate membership
    /// predicate, returning it with a rough unit cost per test (used to
    /// order the filter chain cheapest-first). `None` means the leaf
    /// must be materialized: top-k-like modes (visual top-k, nearest,
    /// ranked text), coverage/direction queries, and nested trees.
    fn pushdown<'q>(&self, q: &'q Query) -> Option<(Filter<'q>, u32)> {
        match q {
            Query::Temporal { field, from, to } => Some((
                Filter::Temporal {
                    field: *field,
                    from: *from,
                    to: *to,
                },
                1,
            )),
            Query::Spatial(SpatialQuery::Range(b)) => Some((Filter::Range(b), 2)),
            Query::Textual { text, mode } => match mode {
                TextualMode::All => Some((
                    Filter::Textual {
                        terms: tokenize(text),
                        all: true,
                    },
                    3,
                )),
                TextualMode::Any => Some((
                    Filter::Textual {
                        terms: tokenize(text),
                        all: false,
                    },
                    3,
                )),
                TextualMode::Ranked(_) => None,
            },
            Query::Spatial(SpatialQuery::Within(p)) => Some((Filter::Within(p), 4)),
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => Some((
                Filter::Categorical {
                    scheme: *scheme,
                    label: *label,
                    min_confidence: *min_confidence,
                },
                5,
            )),
            // Validation pinned the example to the indexed length.
            Query::Visual {
                example,
                mode: VisualMode::Threshold(t),
                ..
            } if self.visual_dim.is_some() => Some((
                Filter::VisualThreshold {
                    example,
                    max_dist: *t,
                },
                8,
            )),
            _ => None,
        }
    }

    /// Whether candidate `id` satisfies a pushed-down predicate.
    /// Exactly the membership test of the corresponding materialized
    /// leaf: doc-side lookups use the values recorded at index time,
    /// and the visual threshold is [`within`] on the same arena row
    /// the materialized leaf would score.
    fn filter_matches(&self, f: &Filter, id: ImageId, view: Option<&SlabView>) -> bool {
        match f {
            Filter::Temporal { field, from, to } => self.doc_of(id).is_some_and(|doc| {
                let t = self.time_column(*field).1[doc];
                t >= *from && t <= *to
            }),
            Filter::Textual { terms, all } => self.doc_of(id).is_some_and(|doc| {
                if *all {
                    self.text.doc_matches_all(doc, terms)
                } else {
                    self.text.doc_matches_any(doc, terms)
                }
            }),
            Filter::Categorical {
                scheme,
                label,
                min_confidence,
            } => self
                .store
                .has_annotation(id, *scheme, *label, *min_confidence),
            Filter::Range(b) => self
                .doc_of(id)
                .is_some_and(|doc| self.scenes[doc].intersects(b)),
            Filter::Within(p) => self.doc_of(id).is_some_and(|doc| {
                let scene = &self.scenes[doc];
                scene.intersects(&p.bbox()) && p.intersects_bbox(scene)
            }),
            Filter::VisualThreshold { example, max_dist } => self
                .row_of(id)
                .zip(view)
                .is_some_and(|(row, v)| within(v.row(row), example, *max_dist).is_some()),
        }
    }

    /// The score a pushed-down leaf would have reported for `id` had it
    /// been materialized: `0.0` for pure filters, the feature distance
    /// for a visual threshold.
    fn filter_score(&self, f: &Filter, id: ImageId, view: Option<&SlabView>) -> f64 {
        match f {
            Filter::VisualThreshold { example, max_dist } => self
                .row_of(id)
                .zip(view)
                .and_then(|(row, v)| within(v.row(row), example, *max_dist))
                .map_or(0.0, f64::from),
            _ => 0.0,
        }
    }

    /// Planner cardinality estimate for `q` over this segment — the
    /// same summary statistics the conjunction planner orders work by,
    /// exposed so the admission controller can price a query in work
    /// units before running it. A pure function of the segment's
    /// indexes: deterministic across runs, pool widths, and shard
    /// counts.
    pub fn estimated_cardinality(&self, q: &Query) -> f64 {
        self.estimate(q)
    }

    /// Estimated result cardinality of a leaf, from per-index summary
    /// statistics: temporal range width over the indexed span, term
    /// posting-list lengths, incremental annotation label counts, and
    /// query-box area against the union of indexed scene boxes. Used to
    /// pick the cheapest driver leaf of a conjunction; estimates order
    /// work, they never change results.
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
            Query::Categorical { scheme, label, .. } => {
                self.store.label_count(*scheme, *label) as f64
            }
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

    /// Conjunction planner.
    ///
    /// The spatial-range + visual pattern runs as one visual leaf over
    /// the scene tree's hits for the region, with every remaining leaf
    /// applied to the (small) visual candidate list — predicates per candidate, anything
    /// top-k-like via one sorted-id intersection.
    ///
    /// The general plan materializes only what it must: leaves with
    /// whole-corpus semantics execute on their indexes and intersect as
    /// sorted id vectors (galloping, smallest first), while every
    /// exact-membership leaf is pushed down as a per-candidate filter,
    /// cheapest first. When nothing requires materialization, the leaf
    /// with the lowest selectivity estimate is materialized as the
    /// candidate driver. Scores keep the engine's documented semantics:
    /// each surviving image reports the score of the first sub-query,
    /// output ordered by (score, id).
    fn execute_and(&self, subs: &[Query]) -> Vec<QueryResult> {
        if subs.is_empty() {
            return Vec::new();
        }
        // Hybrid fast path: exactly one spatial range + one visual leaf,
        // the remaining predicates streamed over the visual candidates.
        if let Some(pair) = plan::hybrid_pair(subs) {
            let mut results = self.execute_visual(pair.example, pair.mode, Some(pair.region));
            let mut filters: Vec<(Filter, u32, usize)> = Vec::new();
            let mut materialize: Vec<&Query> = Vec::new();
            for (i, q) in pair.rest.into_iter().enumerate() {
                match self.pushdown(q) {
                    Some((f, cost)) => filters.push((f, cost, i)),
                    None => materialize.push(q),
                }
            }
            filters.sort_by_key(|&(_, cost, i)| (cost, i));
            for (f, _, _) in &filters {
                if results.is_empty() {
                    return results;
                }
                // No visual leaf can appear in `rest`, so no view is
                // ever needed here.
                results.retain(|r| self.filter_matches(f, r.image, None));
            }
            for q in materialize {
                if results.is_empty() {
                    return results;
                }
                plan::retain_in(&mut results, &self.run(q));
            }
            return results;
        }

        // General plan: split into per-candidate predicates and
        // must-materialize legs.
        let mut filters: Vec<(Filter, u32, usize)> = Vec::new();
        let mut mat_idx: Vec<usize> = Vec::new();
        for (i, q) in subs.iter().enumerate() {
            match self.pushdown(q) {
                Some((f, cost)) => filters.push((f, cost, i)),
                None => mat_idx.push(i),
            }
        }
        let view = filters
            .iter()
            .any(|(f, ..)| matches!(f, Filter::VisualThreshold { .. }))
            .then(|| self.visual_view());

        let mut materialized: Vec<(usize, Vec<QueryResult>)> = mat_idx
            .into_iter()
            .map(|i| (i, self.run(&subs[i])))
            .collect();

        let mut candidates: Vec<ImageId>;
        if materialized.is_empty() {
            // Every leaf is a predicate: materialize the one with the
            // smallest estimated cardinality as the candidate driver.
            let mut driver = 0usize;
            let mut best = f64::INFINITY;
            for (pos, &(_, _, i)) in filters.iter().enumerate() {
                let est = self.estimate(&subs[i]);
                if est < best {
                    best = est;
                    driver = pos;
                }
            }
            let (_, _, driver_sub) = filters.remove(driver);
            candidates = plan::sorted_ids(&self.run(&subs[driver_sub]));
        } else {
            // Intersect actual result sets, smallest first, galloping
            // through the larger lists.
            materialized.sort_by_key(|&(i, ref r)| (r.len(), i));
            candidates = plan::sorted_ids(&materialized[0].1);
            for (_, r) in &materialized[1..] {
                if candidates.is_empty() {
                    break;
                }
                plan::intersect_sorted(&mut candidates, &plan::sorted_ids(r));
            }
        }

        // Narrow by the remaining predicates, cheapest per test first.
        filters.sort_by_key(|&(_, cost, i)| (cost, i));
        for (f, _, _) in &filters {
            if candidates.is_empty() {
                break;
            }
            candidates.retain(|&id| self.filter_matches(f, id, view.as_deref()));
        }
        if candidates.is_empty() {
            return Vec::new();
        }

        // Every survivor belongs to the first sub-query's result set;
        // its score comes from there (0.0 / distance for predicates).
        let first_scores: Option<Vec<(ImageId, f64)>> = materialized
            .iter()
            .find(|(i, _)| *i == 0)
            .map(|(_, results)| {
                let mut table: Vec<(ImageId, f64)> =
                    results.iter().map(|r| (r.image, r.score)).collect();
                table.sort_by_key(|&(id, _)| id);
                table
            });
        let first_filter = first_scores.is_none().then(|| self.pushdown(&subs[0]));
        let mut out: Vec<QueryResult> = candidates
            .into_iter()
            .map(|id| {
                let score = match (&first_scores, &first_filter) {
                    (Some(table), _) => table
                        .binary_search_by_key(&id, |&(i, _)| i)
                        .map_or(0.0, |pos| table[pos].1),
                    (None, Some(Some((f, _)))) => self.filter_score(f, id, view.as_deref()),
                    _ => 0.0,
                };
                QueryResult::new(id, score)
            })
            .collect();
        sort_ranked(&mut out);
        out
    }
}
