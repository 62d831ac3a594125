//! Streaming set primitives for the conjunction planner.
//!
//! The planner carries conjunction candidates as a single sorted
//! `Vec<ImageId>` and narrows it in place. Intersection with another
//! sorted id list uses *galloping* (exponential probe + binary search)
//! so the cost is `O(|small| · log |large|)` rather than the
//! `O(|a| + |b|)` of a merge or the allocation churn of `BTreeSet`
//! intersection — exactly the regime hybrid queries live in, where a
//! selective leaf yields few candidates and the other legs are broad.

use tvdp_storage::ImageId;

use crate::types::QueryResult;

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
pub(crate) fn contains_sorted(sorted: &[ImageId], id: ImageId) -> bool {
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
