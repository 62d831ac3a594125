//! The linear segment, and the brute-force reference executor over it.
//!
//! A `LinearSegment` answers the single-modal leaves of the [`Query`]
//! language by scanning an id list of one store in place: records and
//! feature rows are visited by reference under one store read-lock
//! acquisition per pass, never cloned. It is what the planner's pending
//! tail is (`plan::View`, ids = the rows not yet sealed) and what
//! [`LinearExecutor`] runs over the whole store — the reference the
//! index-backed engines are verified against and the baseline in the
//! index benchmarks. The indexes it is compared with share no predicate
//! with it.

use std::sync::Arc;

use tvdp_geo::BBox;
use tvdp_index::inverted::{tokenize, tokens};
use tvdp_kernel::{l2, l2_sq, TopK, TotalF32, TotalF64};
use tvdp_storage::{ImageId, ImageRecord, VisualStore};
use tvdp_vision::FeatureKind;

use crate::plan;
use crate::types::{
    sort_ranked, Query, QueryResult, SpatialQuery, TemporalField, TextualMode, VisualMode,
};

/// The rows `ids` of `store` (ascending), answered by scanning them.
pub(crate) struct LinearSegment<'a> {
    pub store: &'a VisualStore,
    pub ids: &'a [ImageId],
}

/// One row's ranked-text statistics against a list of query terms:
/// `tf[i]` is the term frequency of `terms[i]` (duplicate query terms
/// get duplicate slots, like the reference scorer's term loop) and
/// `len` the row's token count.
pub(crate) struct RowTerms {
    pub id: ImageId,
    pub tf: Vec<u32>,
    pub len: u32,
}

impl LinearSegment<'_> {
    /// Evaluates a single-modal leaf. `And`, `Or`, `Categorical` and
    /// ranked text are answered above the segment and match nothing
    /// here. Each arm is one pass; this is the loop every query runs
    /// over every pending row, so it allocates nothing per record.
    pub(crate) fn leaf(&self, leaf: &Query) -> Vec<QueryResult> {
        match leaf {
            Query::Spatial(SpatialQuery::Nearest { point, k }) => {
                let mut top = TopK::new(*k);
                self.store.with_images(self.ids, |r| {
                    top.push((TotalF64(r.scene_location().min_distance_m(point)), r.id));
                });
                top.into_sorted_vec()
                    .into_iter()
                    .map(|(TotalF64(d), id)| QueryResult::new(id, d))
                    .collect()
            }
            Query::Spatial(sq) => self.filter(|r| match sq {
                SpatialQuery::Range(bbox) => r.scene_location().intersects(bbox),
                SpatialQuery::Within(polygon) => polygon.intersects_bbox(&r.scene_location()),
                SpatialQuery::Covering(p) => match &r.meta.fov {
                    Some(fov) => fov.contains(p),
                    None => r.scene_location().contains(p),
                },
                // A record's scene box is its FOV's scene location.
                SpatialQuery::Directed { region, directions } => {
                    r.meta.fov.as_ref().is_some_and(|fov| {
                        r.scene_location().intersects(region)
                            && fov.direction_range().overlaps(directions)
                    })
                }
                SpatialQuery::Nearest { .. } => false,
            }),
            Query::Temporal { field, from, to } => self.filter(|r| {
                let t = match field {
                    TemporalField::Captured => r.meta.captured_at,
                    TemporalField::Uploaded => r.meta.uploaded_at,
                };
                t >= *from && t <= *to
            }),
            Query::Textual {
                text,
                mode: mode @ (TextualMode::All | TextualMode::Any),
            } => {
                let terms = tokenize(text);
                if terms.is_empty() {
                    return Vec::new();
                }
                self.filter(|r| {
                    let has = |term: &String| {
                        let mut words = r.meta.keywords.iter().flat_map(|k| tokens(k));
                        words.any(|t| token_eq(t, term))
                    };
                    match mode {
                        TextualMode::All => terms.iter().all(has),
                        _ => terms.iter().any(has),
                    }
                })
            }
            Query::Visual {
                example,
                kind,
                mode,
            } => self.visual(example, *kind, *mode, None, &mut 0),
            _ => Vec::new(),
        }
    }

    fn filter(&self, mut hit: impl FnMut(&ImageRecord) -> bool) -> Vec<QueryResult> {
        let mut out = Vec::new();
        self.store.with_images(self.ids, |r| {
            if hit(r) {
                out.push(QueryResult::new(r.id, 0.0));
            }
        });
        out
    }

    /// Visual scan, optionally restricted to rows whose scene meets
    /// `region`: one pass over `(record, feature)` pairs, features read
    /// in place from the arena. Rows come out in reported order, and a
    /// top-k is cut in that order too: the bounded heap is keyed on the
    /// reported root (distinct squared distances can share one), so the
    /// `k` rows kept are the `k` a sort of every row would put first.
    /// Every row scored is counted into `scored`.
    pub(crate) fn visual(
        &self,
        example: &[f32],
        kind: FeatureKind,
        mode: VisualMode,
        region: Option<&BBox>,
        scored: &mut u64,
    ) -> Vec<QueryResult> {
        let mut out = Vec::new();
        match mode {
            VisualMode::TopK(k) => {
                let mut top = TopK::new(k);
                self.features_in(kind, region, |id, row| {
                    *scored += 1;
                    top.push((TotalF32(l2(row, example)), id));
                });
                let kept = top.into_sorted_vec().into_iter();
                out.extend(kept.map(|(TotalF32(d), id)| QueryResult::new(id, f64::from(d))));
            }
            VisualMode::Threshold(t) => {
                // Compared squared, as the indexes compare; the root is
                // taken only for rows that are reported.
                self.features_in(kind, region, |id, row| {
                    *scored += 1;
                    let d_sq = l2_sq(row, example);
                    if d_sq <= t * t {
                        out.push(QueryResult::new(id, f64::from(d_sq.sqrt())));
                    }
                });
                sort_ranked(&mut out);
            }
        }
        out
    }

    fn features_in(
        &self,
        kind: FeatureKind,
        region: Option<&BBox>,
        mut f: impl FnMut(ImageId, &[f32]),
    ) {
        self.store.with_image_features(self.ids, kind, |r, row| {
            if region.is_none_or(|b| r.scene_location().intersects(b)) {
                f(r.id, row);
            }
        });
    }

    /// Per-row term statistics for two-phase ranked text, in id order.
    pub(crate) fn term_stats(&self, terms: &[String]) -> Vec<RowTerms> {
        let mut out = Vec::with_capacity(self.ids.len());
        self.store.with_images(self.ids, |r| {
            let mut len = 0u32;
            let mut tf = vec![0u32; terms.len()];
            for tok in r.meta.keywords.iter().flat_map(|k| tokens(k)) {
                len += 1;
                for (slot, term) in tf.iter_mut().zip(terms) {
                    if token_eq(tok, term) {
                        *slot += 1;
                    }
                }
            }
            out.push(RowTerms { id: r.id, tf, len });
        });
        out
    }
}

/// Whether `token` lowercases to the (already lowercased) query `term`
/// — allocation-free equivalent of `tokenize(token).contains(term)`
/// for a single token. Non-ASCII tokens fall back to the exact
/// `str::to_lowercase` the index tokenizer uses.
fn token_eq(token: &str, term: &str) -> bool {
    if token.is_ascii() && term.is_ascii() {
        token.eq_ignore_ascii_case(term)
    } else {
        token.to_lowercase() == *term
    }
}

/// Linear-scan executor over a store: the whole store as one
/// `LinearSegment`, with the combinators of [`crate::plan`] above it.
pub struct LinearExecutor {
    store: Arc<VisualStore>,
}

impl LinearExecutor {
    /// Creates the executor.
    pub fn new(store: Arc<VisualStore>) -> Self {
        Self { store }
    }

    /// Executes a query by scanning.
    pub fn execute(&self, query: &Query) -> Vec<QueryResult> {
        self.run(&self.store.image_ids(), query)
    }

    fn run(&self, ids: &[ImageId], query: &Query) -> Vec<QueryResult> {
        let segment = LinearSegment {
            store: &self.store,
            ids,
        };
        match query {
            Query::And(subs) => match plan::hybrid_pair(subs) {
                Some(pair) => {
                    let region = Some(pair.region);
                    let mut results =
                        segment.visual(pair.example, pair.kind, pair.mode, region, &mut 0);
                    for (_, q) in pair.rest {
                        plan::retain_in(&mut results, &self.run(ids, q));
                    }
                    results
                }
                None => plan::intersect_legs(subs.iter().map(|q| self.run(ids, q)).collect()),
            },
            Query::Or(subs) => plan::or_fold(subs.iter().flat_map(|q| self.run(ids, q)).collect()),
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => plan::categorical(&self.store, *scheme, *label, *min_confidence),
            Query::Textual {
                text,
                mode: TextualMode::Ranked(k),
            } => {
                // Brute-force tf-idf: one index over the whole corpus,
                // what the engines' two-phase scoring is checked against.
                let mut idx = tvdp_index::InvertedIndex::new();
                let mut docs = Vec::with_capacity(ids.len());
                self.store.with_images(ids, |r| {
                    idx.index_document(docs.len(), &r.meta.keywords.join(" "));
                    docs.push(r.id);
                });
                idx.search_ranked(text, *k)
                    .into_iter()
                    .map(|(s, doc)| QueryResult::new(docs[doc], s))
                    .collect()
            }
            leaf => segment.leaf(leaf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_kernel::rng::for_each_case;

    /// The in-place matcher is `tokenize(keyword).contains(term)`: same
    /// token boundaries, same lowercasing, for ASCII and for the
    /// non-ASCII cases where lowercasing changes length, is
    /// context-sensitive or maps one cased form onto another.
    #[test]
    fn in_place_matcher_agrees_with_the_index_tokenizer() {
        const WORDS: [&str; 12] = [
            "Street",
            "CLEAN",
            "graffiti",
            "Straße",
            "STRASSE",
            "İstanbul",
            "istanbul",
            "ǅ",
            "ǆ",
            "ΟΔΟΣ",
            "2019",
            "K9",
        ];
        const GLUE: [&str; 6] = [" ", "--", "_", "... ", "\u{307}", "/"];
        for_each_case(400, |case, rng| {
            let mut keyword = String::new();
            for _ in 0..rng.gen_range(1..5usize) {
                keyword.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
                keyword.push_str(GLUE[rng.gen_range(0..GLUE.len())]);
            }
            let reference = tokenize(&keyword);
            // Query terms reach the matcher tokenized, so lowercased.
            let mut terms = reference.clone();
            terms.extend(WORDS.iter().flat_map(|w| tokenize(w)));
            for term in &terms {
                assert_eq!(
                    tokens(&keyword).any(|t| token_eq(t, term)),
                    reference.contains(term),
                    "case {case}: keyword {keyword:?}, term {term:?}"
                );
            }
            assert_eq!(tokens(&keyword).count(), reference.len(), "case {case}");
        });
    }
}
