//! Ordered index over timestamps.
//!
//! The TVDP data model keeps two temporal descriptors per image —
//! capture time and upload time — and serves temporal range filters
//! (paper Section IV). Timestamps are Unix seconds (`i64`).

use std::collections::BTreeSet;

/// A secondary index from timestamp to document handles: one ordered
/// set of `(timestamp, doc)` pairs, so a fact costs its 16 bytes plus
/// its share of a B-tree node rather than a map entry and a `Vec` of
/// its own. Multiple documents may share a timestamp; they come out in
/// doc order, which is insertion order for a caller that hands out
/// ascending doc handles.
#[derive(Debug, Clone, Default)]
pub struct TemporalIndex {
    by_time: BTreeSet<(i64, usize)>,
}

impl TemporalIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.by_time.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.by_time.is_empty()
    }

    /// Indexes `doc` at `timestamp`.
    pub fn insert(&mut self, timestamp: i64, doc: usize) {
        self.by_time.insert((timestamp, doc));
    }

    /// Documents with timestamps in `[from, to]` (inclusive), in time
    /// order (ties in doc order).
    pub fn range(&self, from: i64, to: i64) -> Vec<usize> {
        if from > to {
            return Vec::new();
        }
        self.by_time
            .range((from, usize::MIN)..=(to, usize::MAX))
            .map(|&(_, doc)| doc)
            .collect()
    }

    /// Documents strictly before `t`, in time order.
    pub fn before(&self, t: i64) -> Vec<usize> {
        self.by_time
            .range(..(t, usize::MIN))
            .map(|&(_, doc)| doc)
            .collect()
    }

    /// Documents at or after `t`, in time order.
    pub fn since(&self, t: i64) -> Vec<usize> {
        self.by_time
            .range((t, usize::MIN)..)
            .map(|&(_, doc)| doc)
            .collect()
    }

    /// Earliest and latest indexed timestamps.
    pub fn span(&self) -> Option<(i64, i64)> {
        Some((self.by_time.first()?.0, self.by_time.last()?.0))
    }

    /// The `k` most recent documents, newest first.
    pub fn most_recent(&self, k: usize) -> Vec<usize> {
        self.by_time
            .iter()
            .rev()
            .take(k)
            .map(|&(_, doc)| doc)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TemporalIndex {
        let mut idx = TemporalIndex::new();
        idx.insert(100, 0);
        idx.insert(200, 1);
        idx.insert(200, 2);
        idx.insert(300, 3);
        idx.insert(50, 4);
        idx
    }

    #[test]
    fn range_inclusive_both_ends() {
        let idx = sample();
        assert_eq!(idx.range(100, 200), vec![0, 1, 2]);
        assert_eq!(idx.range(200, 200), vec![1, 2]);
        assert_eq!(idx.range(301, 400), Vec::<usize>::new());
        assert_eq!(idx.range(300, 100), Vec::<usize>::new());
    }

    #[test]
    fn before_and_since() {
        let idx = sample();
        assert_eq!(idx.before(200), vec![4, 0]);
        assert_eq!(idx.since(200), vec![1, 2, 3]);
        assert!(idx.before(0).is_empty());
    }

    #[test]
    fn span_and_len() {
        let idx = sample();
        assert_eq!(idx.span(), Some((50, 300)));
        assert_eq!(idx.len(), 5);
        assert_eq!(TemporalIndex::new().span(), None);
    }

    #[test]
    fn most_recent_newest_first() {
        let idx = sample();
        assert_eq!(idx.most_recent(3), vec![3, 2, 1]);
        assert_eq!(idx.most_recent(0), Vec::<usize>::new());
        assert_eq!(idx.most_recent(100).len(), 5);
    }

    #[test]
    fn negative_timestamps_supported() {
        let mut idx = TemporalIndex::new();
        idx.insert(-100, 0);
        idx.insert(0, 1);
        assert_eq!(idx.range(-200, -1), vec![0]);
        assert_eq!(idx.span(), Some((-100, 0)));
    }
}
