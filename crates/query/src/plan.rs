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
//! byte-identical results. A [`crate::ShardedEngine`] runs every request
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
    /// Every other leg, in query order.
    pub rest: Vec<&'q Query>,
}

/// Splits `subs` into its [`HybridPair`], or `None` when it is not one.
/// Every visual leaf counts, so a second one forces the general plan
/// and the post-filter over `rest` never drops one silently.
pub(crate) fn hybrid_pair(subs: &[Query]) -> Option<HybridPair<'_>> {
    let (mut region, mut visual, mut rest) = (None, None, Vec::new());
    for q in subs {
        let repeated = match q {
            Query::Spatial(SpatialQuery::Range(b)) => region.replace(b).is_some(),
            Query::Visual {
                example,
                kind,
                mode,
            } => visual.replace((example, *kind, *mode)).is_some(),
            other => {
                rest.push(other);
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

    /// The scatter units in deterministic order: every segment, then
    /// the tail unless it is empty.
    fn units(&self) -> Vec<Unit<'a>> {
        let mut units: Vec<Unit<'a>> = self.segments.iter().map(|&seg| Unit::Seg(seg)).collect();
        if !self.tail.is_empty() {
            units.push(Unit::Tail(self.tail()));
        }
        units
    }

    /// Runs a validated query tree ([`Query::validate`]) under the
    /// deadline accounting `dl` (a request without a deadline carries
    /// one at `i64::MAX`, which never trips).
    pub(crate) fn run(
        &self,
        query: &Query,
        pool: &Pool,
        dl: &DeadlineCtx,
    ) -> Result<Vec<QueryResult>, QueryError> {
        dl.check()?;
        match query {
            Query::And(subs) => self.and(subs, pool, dl),
            Query::Or(subs) => {
                let mut rows = Vec::new();
                for q in subs {
                    rows.extend(self.run(q, pool, dl)?);
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
                Ok(categorical(self.store, *scheme, *label, *min_confidence))
            }
            Query::Textual {
                text,
                mode: TextualMode::Ranked(k),
            } => self.ranked(text, *k, pool, dl),
            leaf => self.scatter_leaf(leaf, pool, dl),
        }
    }

    /// Scatters a single-modal leaf over every segment and the tail,
    /// then merges with the leaf's deterministic gather rule.
    fn scatter_leaf(
        &self,
        leaf: &Query,
        pool: &Pool,
        dl: &DeadlineCtx,
    ) -> Result<Vec<QueryResult>, QueryError> {
        if let Query::Visual {
            example,
            kind,
            mode,
        } = leaf
        {
            return self.visual(example, *kind, *mode, None, pool, dl);
        }
        let units = self.units();
        dl.walk_units(&units)?;
        let partials = pool.map(&units, |_, unit| match unit {
            Unit::Seg(engine) => engine.run(leaf),
            Unit::Tail(tail) => tail.leaf(leaf),
        });
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
    fn visual(
        &self,
        example: &[f32],
        kind: FeatureKind,
        mode: VisualMode,
        region: Option<&BBox>,
        pool: &Pool,
        dl: &DeadlineCtx,
    ) -> Result<Vec<QueryResult>, QueryError> {
        let units = self.units();
        dl.walk_units(&units)?;
        let cut = match mode {
            VisualMode::TopK(k) => self.cut(example, kind, k, region, pool),
            VisualMode::Threshold(_) => None,
        };
        let partials = pool.map(&units, |_, unit| match unit {
            Unit::Seg(engine) => engine.execute_visual(example, mode, region, cut.as_ref()),
            Unit::Tail(tail) => tail.visual(example, kind, mode, region),
        });
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
    ) -> Option<Cut> {
        let indexed = self
            .segments
            .iter()
            .find(|seg| seg.visual_dim().is_some())?;
        let projected = indexed.visual_view().projected(example)?;
        let mut lowest = TopK::new(k);
        for bounds in pool.map(&self.segments, |_, seg| {
            seg.visual_bounds(&projected, k, region)
        }) {
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
        .visual(example, kind, VisualMode::TopK(k), None);
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
    ) -> Result<Vec<QueryResult>, QueryError> {
        let Some(pair) = hybrid_pair(subs) else {
            let legs: Result<Vec<_>, _> = subs.iter().map(|q| self.run(q, pool, dl)).collect();
            return Ok(intersect_legs(legs?));
        };
        let region = Some(pair.region);
        let mut results = self.visual(pair.example, pair.kind, pair.mode, region, pool, dl)?;
        for q in pair.rest {
            if results.is_empty() {
                break;
            }
            retain_in(&mut results, &self.run(q, pool, dl)?);
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
