//! The planner: the one code that walks a query tree for indexed
//! execution, and the combinators it shares with the reference scan.
//!
//! A `View` is one consistent corpus, borrowed for one request: a
//! store, the sealed segments built over it and its pending tail. A
//! query tree runs against it by **scatter** and **gather**: every
//! single-modal leaf is answered by each segment ([`QueryEngine`]) and
//! by the tail (a `LinearSegment`, the reference executor's own scan
//! over that id list) — fanned out on a [`Pool`] — then merged by a
//! deterministic rule:
//!
//! * score-0 filter leaves concatenate and sort by image id (segments
//!   and tail hold disjoint ids of one store, so no dedup is needed),
//! * top-k leaves (visual top-k, spatial nearest): every unit reports
//!   its own `k` lowest rows under the reported `(score, id)` order,
//!   whichever rows tie, and the gather's sort-and-truncate under that
//!   order is the one place the answer is cut,
//! * a visual top-k runs in two phases: every segment first reports
//!   its `k` lowest projected bounds ([`tvdp_kernel::ProjectedQuery`]), the
//!   coordinator scores the `k` lowest of those at full width, and the
//!   largest of their distances is a global cut `U` no answer exceeds;
//!   then every unit scores only the candidates whose bound is at most
//!   `U`, so no segment pays for rows the corpus has already beaten,
//! * ranked text runs in two phases: gather corpus-global document
//!   frequencies first, then score each segment against the global
//!   statistics ([`tvdp_index::inverted::ranked_term_contribution`] is a pure
//!   function of those numbers, so the floats are bit-identical to one
//!   big index),
//! * a conjunction of one spatial range and one visual leaf scatters as
//!   one region-restricted visual leaf per unit; any other conjunction
//!   materialises each leg and intersects, `Or` min-folds, and
//!   `Categorical` reads the store's annotations.
//!
//! Merge order never depends on how the corpus is cut into segments or
//! on the pool width: any seal cap, on 1 thread or M, yields
//! byte-identical results. Nor does the [`Trace`] a walk counts its
//! work into: each scatter unit counts its own, and the gather adds
//! them up in unit order. A [`crate::ShardedEngine`] runs every request
//! over a view of its published generation, and a standalone
//! [`QueryEngine::try_execute`] over itself as the one segment with no
//! tail. [`crate::LinearExecutor`], the oracle, walks trees on its own
//! with the same combinators.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BTreeMap;

use tvdp_geo::BBox;
use tvdp_index::inverted::{ranked_term_contribution, tokenize};
use tvdp_kernel::{Pool, ProjectedQuery, TopK, TotalF64};
use tvdp_storage::{ClassificationId, ImageId, VisualStore};
use tvdp_vision::FeatureKind;

use crate::engine::QueryEngine;
use crate::linear::{LinearSegment, RowTerms};
use crate::types::{
    sort_ranked, Query, QueryError, QueryResult, SpatialQuery, TextualMode, VisualMode,
};

/// The `Categorical` leaf: images annotated `label` of `scheme` at or
/// above `min_confidence`, ascending by id. Annotations are store-level
/// state, not index state, so every executor answers this leaf from the
/// store (a sealed segment never sees it: each would report the whole
/// store).
pub(crate) fn categorical(
    store: &VisualStore,
    scheme: ClassificationId,
    label: usize,
    min_confidence: f32,
) -> Vec<QueryResult> {
    let mut ids: Vec<ImageId> = store
        .annotations_with_label(scheme, label)
        .into_iter()
        .filter(|a| a.confidence >= min_confidence)
        .map(|a| a.image)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| QueryResult::new(id, 0.0))
        .collect()
}

/// Disjunction over the concatenated results of every branch: each
/// image keeps its best (lowest) score, output ordered by `(score, id)`.
pub(crate) fn or_fold(mut rows: Vec<QueryResult>) -> Vec<QueryResult> {
    rows.sort_by_key(|r| r.image);
    let mut out: Vec<QueryResult> = Vec::new();
    for r in rows {
        match out.last_mut() {
            Some(last) if last.image == r.image => last.score = last.score.min(r.score),
            _ => out.push(r),
        }
    }
    sort_ranked(&mut out);
    out
}

/// A conjunction holding exactly one spatial range and one visual leaf:
/// "visual search restricted to the region", answered by one
/// region-restricted visual pass whose rows are then filtered by `rest`.
pub(crate) struct HybridPair<'q> {
    pub region: &'q BBox,
    pub example: &'q [f32],
    pub kind: FeatureKind,
    pub mode: VisualMode,
    /// Every other leg with its index among the conjunction's legs, in
    /// query order.
    pub rest: Vec<(usize, &'q Query)>,
}

/// Splits `subs` into its [`HybridPair`], or `None` when it is not one.
/// Every visual leaf counts, so a second one forces the general plan
/// and the post-filter over `rest` never drops one silently.
pub(crate) fn hybrid_pair(subs: &[Query]) -> Option<HybridPair<'_>> {
    let (mut region, mut visual, mut rest) = (None, None, Vec::new());
    for (i, q) in subs.iter().enumerate() {
        let repeated = match q {
            Query::Spatial(SpatialQuery::Range(b)) => region.replace(b).is_some(),
            Query::Visual {
                example,
                kind,
                mode,
            } => visual.replace((example, *kind, *mode)).is_some(),
            other => {
                rest.push((i, other));
                false
            }
        };
        if repeated {
            return None;
        }
    }
    let (example, kind, mode) = visual?;
    Some(HybridPair {
        region: region?,
        example,
        kind,
        mode,
        rest,
    })
}

/// The general conjunction over materialised legs: the rows of the
/// first leg (and so its scores) that every other leg also holds,
/// ordered by `(score, id)`.
pub(crate) fn intersect_legs(legs: Vec<Vec<QueryResult>>) -> Vec<QueryResult> {
    let mut legs = legs.into_iter();
    let mut out = legs.next().unwrap_or_default();
    for leg in legs {
        retain_in(&mut out, &leg);
    }
    sort_ranked(&mut out);
    out
}

/// Keeps the rows of `results` whose image `leg` also holds, in order.
/// Result rows never repeat an image (every executor dedups per leaf),
/// so `leg`'s ids need a sort and no dedup.
pub(crate) fn retain_in(results: &mut Vec<QueryResult>, leg: &[QueryResult]) {
    let mut ids: Vec<ImageId> = leg.iter().map(|r| r.image).collect();
    ids.sort_unstable();
    results.retain(|r| ids.binary_search(&r.image).is_ok());
}

/// What one query's indexed execution did, in counts: the planner's
/// EXPLAIN. Every count is a pure function of the published generation
/// and the query, so a trace is identical at any pool width: each
/// scatter unit counts its own work and the gather adds the units up in
/// unit order. Nothing here is a clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Sealed segments a leaf's scatter reached, summed over leaves.
    pub segments_visited: u64,
    /// Tasks handed to the pool: every scatter unit of every phase.
    pub units_dispatched: u64,
    /// Rows whose projected lower bound was read.
    pub rows_bounded: u64,
    /// Rows scored at full width.
    pub rows_scored: u64,
    /// Index tree nodes a descent entered.
    pub nodes_touched: u64,
    /// One record per leaf the planner answered, in the order it walked
    /// them.
    pub leaves: Vec<LeafTrace>,
}

impl Trace {
    /// Adds a scatter unit's counts (and any leaves it recorded) to
    /// these.
    fn absorb(&mut self, unit: Trace) {
        self.segments_visited += unit.segments_visited;
        self.units_dispatched += unit.units_dispatched;
        self.rows_bounded += unit.rows_bounded;
        self.rows_scored += unit.rows_scored;
        self.nodes_touched += unit.nodes_touched;
        self.leaves.extend(unit.leaves);
    }

    /// The merged results of a scatter's units, their traces absorbed
    /// in unit order.
    fn gather<T>(&mut self, partials: Vec<(T, Trace)>) -> Vec<T> {
        partials
            .into_iter()
            .map(|(rows, unit)| {
                self.absorb(unit);
                rows
            })
            .collect()
    }
}

/// One leaf the planner answered: a single-modal leaf, or a spatial
/// range and a visual leaf answered together as one region-restricted
/// visual leaf (kind `hybrid.*`, recorded at their conjunction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafTrace {
    /// The leaf's family and mode, e.g. `spatial.range`, `visual.topk`.
    pub kind: &'static str,
    /// Child indexes from the root query down to the leaf (to the
    /// conjunction, for a `hybrid.*` leaf).
    pub path: Vec<usize>,
    /// Whether the query's answer is drawn from this leaf's rows: every
    /// leaf on a path that takes only first legs of conjunctions (and
    /// the region-restricted leaf of one), as opposed to a leg that
    /// only filters another's rows.
    pub drove: bool,
    /// The planner's estimate of the leaf's rows: each sealed
    /// segment's cardinality estimate plus every tail row (what
    /// admission prices the leaf at, less the dispatch units). Filled
    /// by [`crate::ShardedEngine::try_explain`].
    pub estimate: u64,
    /// The rows the leaf's gather returned.
    pub actual: u64,
}

impl LeafTrace {
    /// The query this record answered, resolved in `root`, the query
    /// it was traced under: the leaf at its path, or for a `hybrid.*`
    /// record the conjunction of its spatial range and its visual leaf.
    pub fn query(&self, root: &Query) -> Query {
        let mut node = root;
        for &i in &self.path {
            node = match node {
                Query::And(subs) | Query::Or(subs) => &subs[i],
                leaf => leaf,
            };
        }
        match node {
            Query::And(subs) => match hybrid_pair(subs) {
                Some(pair) => Query::And(vec![
                    Query::Spatial(SpatialQuery::Range(*pair.region)),
                    Query::Visual {
                        example: pair.example.to_vec(),
                        kind: pair.kind,
                        mode: pair.mode,
                    },
                ]),
                None => node.clone(),
            },
            leaf => leaf.clone(),
        }
    }
}

/// The `kind` of a leaf's trace record.
fn leaf_kind(leaf: &Query) -> &'static str {
    match leaf {
        Query::Spatial(SpatialQuery::Range(_)) => "spatial.range",
        Query::Spatial(SpatialQuery::Within(_)) => "spatial.within",
        Query::Spatial(SpatialQuery::Nearest { .. }) => "spatial.nearest",
        Query::Spatial(SpatialQuery::Covering(_)) => "spatial.covering",
        Query::Spatial(SpatialQuery::Directed { .. }) => "spatial.directed",
        Query::Temporal { .. } => "temporal",
        Query::Textual { mode, .. } => match mode {
            TextualMode::All => "textual.all",
            TextualMode::Any => "textual.any",
            TextualMode::Ranked(_) => "textual.ranked",
        },
        Query::Visual { mode, .. } => match mode {
            VisualMode::TopK(_) => "visual.topk",
            VisualMode::Threshold(_) => "visual.threshold",
        },
        Query::Categorical { .. } => "categorical",
        Query::And(_) => "and",
        Query::Or(_) => "or",
    }
}

/// Where the planner's walk is in the query tree: the child indexes
/// from the root, and whether the node's rows are the ones the answer
/// is drawn from ([`LeafTrace::drove`]).
struct Site<'p> {
    path: &'p mut Vec<usize>,
    drives: bool,
}

impl Site<'_> {
    /// Runs `f` at child `i` of this node, which drives when this node
    /// does and `leads` holds.
    fn child<T>(&mut self, i: usize, leads: bool, f: impl FnOnce(&mut Site<'_>) -> T) -> T {
        self.path.push(i);
        let out = f(&mut Site {
            path: self.path,
            drives: self.drives && leads,
        });
        self.path.pop();
        out
    }

    /// Records the leaf answered here as `kind`, returning its rows.
    fn record(
        &self,
        trace: &mut Trace,
        kind: &'static str,
        rows: Vec<QueryResult>,
    ) -> Vec<QueryResult> {
        trace.leaves.push(LeafTrace {
            kind,
            path: self.path.clone(),
            drove: self.drives,
            estimate: 0,
            actual: rows.len() as u64,
        });
        rows
    }
}

/// A visual top-k's global cut: the example projected, and a distance
/// the `k`-th answer is known not to exceed (the largest distance of
/// `k` real candidates). A row whose projected bound is above `at` is
/// strictly worse than `k` rows, so it is not an answer.
pub(crate) struct Cut {
    pub projected: ProjectedQuery,
    pub at: f32,
}

/// One consistent corpus a query tree runs against, borrowed for one
/// request: a store, the sealed segments built over it, and the pending
/// tail — the store's ids no segment holds yet, ascending.
pub(crate) struct View<'a> {
    pub store: &'a VisualStore,
    pub segments: Vec<&'a QueryEngine>,
    pub tail: &'a [ImageId],
}

/// A unit of scatter work: one sealed segment, or the tail.
enum Unit<'a> {
    Seg(&'a QueryEngine),
    Tail(LinearSegment<'a>),
}

impl Unit<'_> {
    /// Rows a scan of this unit touches — the input to the modeled
    /// per-unit cost.
    fn rows(&self) -> usize {
        match self {
            Unit::Seg(engine) => engine.len(),
            Unit::Tail(tail) => tail.ids.len(),
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
/// deterministic unit order of [`View::units`], *before* any real pool
/// work is dispatched — so whether a query trips its deadline is a
/// pure function of `(view, query, now, deadline)`, byte-identical
/// across pool widths.
pub(crate) struct DeadlineCtx {
    deadline_ms: i64,
    clock_ms: Cell<i64>,
}

impl DeadlineCtx {
    /// A modeled clock at `now_ms` that trips past `deadline_ms`.
    pub(crate) fn new(now_ms: i64, deadline_ms: i64) -> Self {
        Self {
            deadline_ms,
            clock_ms: Cell::new(now_ms),
        }
    }

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

impl<'a> View<'a> {
    /// The pending tail as the linear segment it is.
    fn tail(&self) -> LinearSegment<'a> {
        LinearSegment {
            store: self.store,
            ids: self.tail,
        }
    }

    /// Length of the indexed family's feature rows: what any sealed
    /// segment recorded, else — while every row is still in the tail —
    /// what the store holds for a tail row. `None` when no visual row
    /// exists yet.
    pub(crate) fn visual_dim(&self, kind: FeatureKind) -> Option<usize> {
        let sealed = self.segments.iter().find_map(|seg| seg.visual_dim());
        sealed.or_else(|| {
            self.tail.iter().find_map(|&id| {
                self.store
                    .feature_handle(id, kind)
                    .filter(|h| h.dim > 0)
                    .map(|h| h.dim as usize)
            })
        })
    }

    /// The rows `query` is estimated to return: each sealed segment's
    /// cardinality estimate, clamped to its size, plus every tail row
    /// (the tail has no statistics; a scan touches all of it).
    pub(crate) fn estimate_rows(&self, query: &Query) -> u64 {
        let mut rows = self.tail.len() as u64;
        for seg in &self.segments {
            let estimate = seg.estimated_cardinality(query);
            rows += estimate.max(0.0).min(seg.len() as f64) as u64;
        }
        rows
    }

    /// The scatter units in deterministic order: every segment, then
    /// the tail unless it is empty.
    fn units(&self) -> Vec<Unit<'a>> {
        let mut units: Vec<Unit<'a>> = self.segments.iter().map(|&seg| Unit::Seg(seg)).collect();
        if !self.tail.is_empty() {
            units.push(Unit::Tail(self.tail()));
        }
        units
    }

    /// Counts a scatter over `units` into `trace`: every segment among
    /// them visited, every unit dispatched.
    fn count_scatter(&self, units: usize, trace: &mut Trace) {
        trace.segments_visited += self.segments.len() as u64;
        trace.units_dispatched += units as u64;
    }

    /// Runs a validated query tree ([`Query::validate`]) under the
    /// deadline accounting `dl` (a request without a deadline carries
    /// one at `i64::MAX`, which never trips), counting its work into
    /// `trace` and recording every leaf it answers there.
    pub(crate) fn run(
        &self,
        query: &Query,
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let mut path = Vec::new();
        let mut site = Site {
            path: &mut path,
            drives: true,
        };
        self.walk(query, pool, dl, trace, &mut site)
    }

    /// [`View::run`] at `site` in the query tree.
    fn walk(
        &self,
        query: &Query,
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
        site: &mut Site<'_>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        dl.check()?;
        match query {
            Query::And(subs) => self.and(subs, pool, dl, trace, site),
            Query::Or(subs) => {
                let mut rows = Vec::new();
                for (i, q) in subs.iter().enumerate() {
                    rows.extend(site.child(i, true, |at| self.walk(q, pool, dl, trace, at))?);
                }
                Ok(or_fold(rows))
            }
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => {
                // One dispatch charge for the store scan.
                dl.charge(1);
                dl.check()?;
                let rows = categorical(self.store, *scheme, *label, *min_confidence);
                Ok(site.record(trace, leaf_kind(query), rows))
            }
            Query::Textual {
                text,
                mode: TextualMode::Ranked(k),
            } => {
                let rows = self.ranked(text, *k, pool, dl, trace)?;
                Ok(site.record(trace, leaf_kind(query), rows))
            }
            leaf => {
                let rows = self.scatter_leaf(leaf, pool, dl, trace)?;
                Ok(site.record(trace, leaf_kind(leaf), rows))
            }
        }
    }

    /// Scatters a single-modal leaf over every segment and the tail,
    /// then merges with the leaf's deterministic gather rule.
    fn scatter_leaf(
        &self,
        leaf: &Query,
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
    ) -> Result<Vec<QueryResult>, QueryError> {
        if let Query::Visual {
            example,
            kind,
            mode,
        } = leaf
        {
            return self.visual(example, *kind, *mode, None, pool, dl, trace);
        }
        let units = self.units();
        dl.walk_units(&units)?;
        self.count_scatter(units.len(), trace);
        let partials = trace.gather(pool.map(&units, |_, unit| {
            let mut counts = Trace::default();
            let rows = match unit {
                Unit::Seg(engine) => engine.run(leaf, &mut counts),
                Unit::Tail(tail) => tail.leaf(leaf),
            };
            (rows, counts)
        }));
        Ok(match leaf {
            Query::Spatial(SpatialQuery::Nearest { k, .. }) => gather_ranked(partials, Some(*k)),
            // Score-0 filters: units are disjoint, so the union is just
            // a sort by id.
            _ => {
                let mut all: Vec<QueryResult> = partials.into_iter().flatten().collect();
                all.sort_by_key(|r| r.image);
                all
            }
        })
    }

    /// Two-phase distributed tf-idf. Phase 1 gathers corpus-global
    /// statistics (total document count, per-term document
    /// frequencies); phase 2 scores every unit against those numbers,
    /// so each document's score is bit-identical to a single index over
    /// the whole corpus. Gather re-ranks by `(descending score,
    /// ascending id)` and truncates to `k`.
    fn ranked(
        &self,
        text: &str,
        k: usize,
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
    ) -> Result<Vec<QueryResult>, QueryError> {
        // Both phases walk every unit; charge the full scatter up front
        // so an over-deadline ranked query aborts before the statistics
        // gather starts.
        dl.walk_units(&self.units())?;
        let terms = tokenize(text);
        let tail_docs: Vec<RowTerms> = self.tail().term_stats(&terms);
        let n_total = self.segments.iter().map(|seg| seg.len()).sum::<usize>() + tail_docs.len();
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        for (i, term) in terms.iter().enumerate() {
            if df.contains_key(term) {
                continue;
            }
            let sealed: usize = self.segments.iter().map(|seg| seg.term_df(term)).sum();
            let pending = tail_docs.iter().filter(|d| d.tf[i] > 0).count();
            df.insert(term.clone(), sealed + pending);
        }
        // Gather boundary between the statistics and scoring phases.
        dl.check()?;

        // Phase 2 dispatches the segments; the coordinator scores the
        // tail from the statistics it already read.
        self.count_scatter(self.segments.len(), trace);
        let mut candidates: Vec<(f64, ImageId)> = pool
            .map(&self.segments, |_, seg| {
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

    /// A visual leaf, optionally restricted to `region`, scattered over
    /// every unit. A threshold is one phase: each unit reports its rows
    /// within it. A top-k is two ([`View::cut`], then every unit scores
    /// against the cut); both phases are pure functions of the view and
    /// the query, so the work is the same at any pool width, and the
    /// deadline is charged once, up front, for the whole scatter.
    #[allow(clippy::too_many_arguments)]
    fn visual(
        &self,
        example: &[f32],
        kind: FeatureKind,
        mode: VisualMode,
        region: Option<&BBox>,
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let units = self.units();
        dl.walk_units(&units)?;
        let cut = match mode {
            VisualMode::TopK(k) => self.cut(example, kind, k, region, pool, trace),
            VisualMode::Threshold(_) => None,
        };
        self.count_scatter(units.len(), trace);
        let partials = trace.gather(pool.map(&units, |_, unit| {
            let mut counts = Trace::default();
            let rows = match unit {
                Unit::Seg(engine) => {
                    engine.execute_visual(example, mode, region, cut.as_ref(), &mut counts)
                }
                Unit::Tail(tail) => {
                    tail.visual(example, kind, mode, region, &mut counts.rows_scored)
                }
            };
            (rows, counts)
        }));
        Ok(gather_ranked(partials, top_k(mode)))
    }

    /// Phase 1 of a visual top-k: the `k` candidates with the lowest
    /// projected bounds over every segment, scored at full width; the
    /// largest of their distances is the cut. `None` (no cut) while
    /// the arena has no projected column or fewer than `k` candidates
    /// have one. Tail rows and the arena's partial chunk have no
    /// column: they take no part here and are always scored.
    fn cut(
        &self,
        example: &[f32],
        kind: FeatureKind,
        k: usize,
        region: Option<&BBox>,
        pool: &Pool,
        trace: &mut Trace,
    ) -> Option<Cut> {
        let indexed = self
            .segments
            .iter()
            .find(|seg| seg.visual_dim().is_some())?;
        let projected = indexed.visual_view().projected(example)?;
        trace.units_dispatched += self.segments.len() as u64;
        let mut lowest = TopK::new(k);
        for bounds in trace.gather(pool.map(&self.segments, |_, seg| {
            let mut counts = Trace::default();
            let bounds = seg.visual_bounds(&projected, k, region, &mut counts);
            (bounds, counts)
        })) {
            lowest.extend(bounds);
        }
        let mut ids: Vec<ImageId> = lowest
            .into_sorted_vec()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        if ids.len() < k {
            return None;
        }
        ids.sort_unstable();
        let scored = LinearSegment {
            store: self.store,
            ids: &ids,
        }
        .visual(
            example,
            kind,
            VisualMode::TopK(k),
            None,
            &mut trace.rows_scored,
        );
        let at = scored.last()?.score as f32;
        Some(Cut { projected, at })
    }

    /// Conjunction. The hybrid fast path — exactly one spatial range
    /// plus one visual leaf — scatters as one region-restricted visual
    /// leaf per unit (with any extra legs intersected afterwards);
    /// everything else materializes each leg and intersects, scoring
    /// survivors from the first leg.
    fn and(
        &self,
        subs: &[Query],
        pool: &Pool,
        dl: &DeadlineCtx,
        trace: &mut Trace,
        site: &mut Site<'_>,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let Some(pair) = hybrid_pair(subs) else {
            let mut legs = Vec::with_capacity(subs.len());
            for (i, q) in subs.iter().enumerate() {
                legs.push(site.child(i, i == 0, |at| self.walk(q, pool, dl, trace, at))?);
            }
            return Ok(intersect_legs(legs));
        };
        let region = Some(pair.region);
        let rows = self.visual(pair.example, pair.kind, pair.mode, region, pool, dl, trace)?;
        let kind = match pair.mode {
            VisualMode::TopK(_) => "hybrid.topk",
            VisualMode::Threshold(_) => "hybrid.threshold",
        };
        let mut results = site.record(trace, kind, rows);
        for (i, q) in pair.rest {
            if results.is_empty() {
                break;
            }
            let leg = site.child(i, false, |at| self.walk(q, pool, dl, trace, at))?;
            retain_in(&mut results, &leg);
        }
        Ok(results)
    }
}

/// The gather of a ranked scatter: every unit reports its rows in
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
