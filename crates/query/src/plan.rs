//! What every executor does the same way, written once: the
//! `Categorical` leaf, the `Or` min-fold, the hybrid-pair split of a
//! conjunction, the materialise-and-intersect conjunction, and the
//! sorted-id set primitives under them.
//!
//! Conjunction candidates travel as one sorted `Vec<ImageId>` narrowed
//! in place. Intersection with another sorted id list uses *galloping*
//! (exponential probe + binary search), so the cost is
//! `O(|small| · log |large|)` rather than the `O(|a| + |b|)` of a merge
//! or the allocation churn of `BTreeSet` intersection — the regime
//! hybrid queries live in, where a selective leaf yields few candidates
//! and the other legs are broad.

use tvdp_geo::BBox;
use tvdp_storage::{ClassificationId, ImageId, VisualStore};
use tvdp_vision::FeatureKind;

use crate::types::{sort_ranked, Query, QueryResult, SpatialQuery, VisualMode};

/// The `Categorical` leaf: images annotated `label` of `scheme` at or
/// above `min_confidence`, ascending by id. Annotations are store-level
/// state, not index state, so every executor answers this leaf from its
/// stores (a sealed segment must never see it: each would report its
/// whole shard).
pub(crate) fn categorical<'a>(
    stores: impl IntoIterator<Item = &'a VisualStore>,
    scheme: ClassificationId,
    label: usize,
    min_confidence: f32,
) -> Vec<QueryResult> {
    let mut ids: Vec<ImageId> = stores
        .into_iter()
        .flat_map(|store| store.annotations_with_label(scheme, label))
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
pub(crate) fn retain_in(results: &mut Vec<QueryResult>, leg: &[QueryResult]) {
    let ids = sorted_ids(leg);
    results.retain(|r| contains_sorted(&ids, r.image));
}

/// The ids of `results`, sorted ascending. Result rows never repeat an
/// image (every executor dedups per leaf), so no `dedup` pass is
/// needed.
pub(crate) fn sorted_ids(results: &[QueryResult]) -> Vec<ImageId> {
    let mut ids: Vec<ImageId> = results.iter().map(|r| r.image).collect();
    ids.sort_unstable();
    ids
}

/// Narrows sorted `cands` to the elements also present in sorted
/// `other`, galloping through `other` with a cursor that only moves
/// forward.
pub(crate) fn intersect_sorted(cands: &mut Vec<ImageId>, other: &[ImageId]) {
    let mut cursor = 0usize;
    cands.retain(|&id| {
        if cursor >= other.len() {
            return false;
        }
        if other[cursor] < id {
            // Exponential probe: double the step until we overshoot,
            // then binary-search the last uncovered window.
            // Invariant: other[lo] < id.
            let mut step = 1usize;
            let mut lo = cursor;
            loop {
                let probe = lo.saturating_add(step).min(other.len());
                if probe == other.len() || other[probe - 1] >= id {
                    // First element >= id (if any) lies in (lo, probe).
                    cursor = lo + 1 + other[lo + 1..probe].partition_point(|&x| x < id);
                    break;
                }
                lo = probe - 1;
                step <<= 1;
            }
        }
        cursor < other.len() && other[cursor] == id
    });
}

/// Binary membership test in a sorted id list (for candidate streams
/// that must keep a non-id order, e.g. distance-ranked visual results).
fn contains_sorted(sorted: &[ImageId], id: ImageId) -> bool {
    sorted.binary_search(&id).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u64]) -> Vec<ImageId> {
        raw.iter().map(|&v| ImageId(v)).collect()
    }

    #[test]
    fn intersect_matches_naive_on_random_sets() {
        // Deterministic LCG-driven random sorted sets of varied shapes.
        let mut state = 0x9e37_79b9u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..200 {
            let na = (next(60) + 1) as usize;
            let nb = (next(600) + 1) as usize;
            let mut a: Vec<u64> = (0..na).map(|_| next(500)).collect();
            let mut b: Vec<u64> = (0..nb).map(|_| next(500)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expected: Vec<ImageId> = a
                .iter()
                .filter(|x| b.binary_search(x).is_ok())
                .map(|&v| ImageId(v))
                .collect();
            let mut got = ids(&a);
            intersect_sorted(&mut got, &ids(&b));
            assert_eq!(got, expected, "trial {trial} a={a:?} b={b:?}");
        }
    }

    #[test]
    fn intersect_edge_cases() {
        let mut empty = ids(&[]);
        intersect_sorted(&mut empty, &ids(&[1, 2, 3]));
        assert!(empty.is_empty());

        let mut full = ids(&[1, 2, 3]);
        intersect_sorted(&mut full, &ids(&[]));
        assert!(full.is_empty());

        let mut same = ids(&[1, 5, 9]);
        intersect_sorted(&mut same, &ids(&[1, 5, 9]));
        assert_eq!(same, ids(&[1, 5, 9]));

        // `other` far larger than the candidate list: galloping must
        // skip across the gaps.
        let big: Vec<u64> = (0..10_000).map(|i| i * 2).collect();
        let mut cands = ids(&[0, 3, 4444, 19_998, 20_001]);
        intersect_sorted(&mut cands, &ids(&big));
        assert_eq!(cands, ids(&[0, 4444, 19_998]));

        // Candidate beyond the end of `other`.
        let mut tail = ids(&[7, 50]);
        intersect_sorted(&mut tail, &ids(&[1, 7]));
        assert_eq!(tail, ids(&[7]));
    }

    #[test]
    fn contains_sorted_is_membership() {
        let set = ids(&[2, 4, 8]);
        assert!(contains_sorted(&set, ImageId(4)));
        assert!(!contains_sorted(&set, ImageId(5)));
        assert!(!contains_sorted(&set, ImageId(9)));
    }
}
