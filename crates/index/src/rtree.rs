//! An R*-style spatial tree over geographic bounding boxes.
//!
//! Supports rectangle insertion, range queries, point queries, and
//! best-first k-nearest-neighbour search. Splits use the R* axis/margin
//! heuristics (Beckmann et al.) without forced reinsertion, which keeps
//! the structure simple while preserving good query fan-out.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use tvdp_geo::{BBox, GeoPoint};
use tvdp_kernel::TotalF64;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { entries: Vec<(BBox, T)> },
    Internal { children: Vec<(BBox, Box<Node<T>>)> },
}

impl<T> Node<T> {
    fn mbr(&self) -> Option<BBox> {
        match self {
            Node::Leaf { entries } => {
                let mut it = entries.iter().map(|(b, _)| *b);
                let first = it.next()?;
                Some(it.fold(first, |acc, b| acc.union(&b)))
            }
            Node::Internal { children } => {
                let mut it = children.iter().map(|(b, _)| *b);
                let first = it.next()?;
                Some(it.fold(first, |acc, b| acc.union(&b)))
            }
        }
    }
}

/// A spatial index mapping bounding boxes to payloads.
///
/// ```
/// use tvdp_index::RTree;
/// use tvdp_geo::{BBox, GeoPoint};
///
/// let mut tree = RTree::new();
/// tree.insert_point(GeoPoint::new(34.05, -118.25), "city hall");
/// tree.insert_point(GeoPoint::new(34.02, -118.29), "campus");
/// let downtown = BBox::new(34.04, -118.26, 34.06, -118.24);
/// assert_eq!(tree.range(&downtown), vec![&"city hall"]);
/// let nearest = tree.knn(&GeoPoint::new(34.021, -118.288), 1);
/// assert_eq!(*nearest[0].1, "campus");
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
    height: usize,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
            height: 1,
        }
    }

    /// Bulk construction by repeated insertion (baseline; prefer
    /// [`RTree::bulk_load`] for large static sets).
    pub fn bulk(items: impl IntoIterator<Item = (BBox, T)>) -> Self {
        let mut t = Self::new();
        for (b, v) in items {
            t.insert(b, v);
        }
        t
    }

    /// Sort-Tile-Recursive (STR) bulk loading: packs entries into fully
    /// occupied leaves by sorting on latitude then tiling on longitude,
    /// then builds the upper levels the same way. Produces a tighter,
    /// shallower tree than repeated insertion and is much faster to
    /// construct.
    pub fn bulk_load(items: Vec<(BBox, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // Pack the leaf level.
        let mut leaves: Vec<Node<T>> = str_tiles(items, |e| e.0)
            .into_iter()
            .map(|entries| Node::Leaf { entries })
            .collect();
        let mut height = 1;
        // Build upper levels until one root remains.
        while leaves.len() > 1 {
            let children: Vec<(BBox, Box<Node<T>>)> = leaves
                .into_iter()
                // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                .map(|n| (n.mbr().expect("packed node non-empty"), Box::new(n)))
                .collect();
            leaves = str_tiles(children, |c| c.0)
                .into_iter()
                .map(|children| Node::Internal { children })
                .collect();
            height += 1;
        }
        Self {
            // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
            root: leaves.pop().expect("one root remains"),
            len,
            height,
        }
    }

    /// Removes one entry matching `bbox` whose payload satisfies `pred`.
    /// Returns the removed payload, or `None` when nothing matched.
    /// Under-full nodes along the path are dissolved and their remaining
    /// entries re-inserted (the classic R-tree condense step).
    pub fn remove(&mut self, bbox: &BBox, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut orphans: Vec<(BBox, T)> = Vec::new();
        let removed = Self::remove_rec(&mut self.root, bbox, &mut pred, &mut orphans, true);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root with a single internal child.
            loop {
                let replace = match &mut self.root {
                    Node::Internal { children } if children.len() == 1 => {
                        // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                        Some(*children.pop().expect("one child").1)
                    }
                    _ => None,
                };
                match replace {
                    Some(child) => {
                        self.root = child;
                        self.height -= 1;
                    }
                    None => break,
                }
            }
            let reinserts = orphans.len();
            for (b, v) in orphans {
                self.insert(b, v);
            }
            // `insert` bumped len for each orphan, but they were already
            // counted before removal.
            self.len -= reinserts;
        }
        removed
    }

    fn remove_rec(
        node: &mut Node<T>,
        bbox: &BBox,
        pred: &mut impl FnMut(&T) -> bool,
        orphans: &mut Vec<(BBox, T)>,
        is_root: bool,
    ) -> Option<T> {
        match node {
            Node::Leaf { entries } => {
                let pos = entries.iter().position(|(b, v)| b == bbox && pred(v))?;
                Some(entries.remove(pos).1)
            }
            Node::Internal { children } => {
                for i in 0..children.len() {
                    if !children[i].0.intersects(bbox) {
                        continue;
                    }
                    if let Some(v) =
                        Self::remove_rec(&mut children[i].1, bbox, pred, orphans, false)
                    {
                        let child_len = match children[i].1.as_ref() {
                            Node::Leaf { entries } => entries.len(),
                            Node::Internal { children } => children.len(),
                        };
                        if child_len < MIN_ENTRIES && (!is_root || children.len() > 1) {
                            // Dissolve the under-full child; re-insert its
                            // entries from the top.
                            let (_, child) = children.remove(i);
                            collect_entries(*child, orphans);
                        } else if child_len > 0 {
                            // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                            children[i].0 = children[i].1.mbr().expect("non-empty child");
                        }
                        return Some(v);
                    }
                }
                None
            }
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (leaf level = 1); a balance diagnostic.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Inserts a rectangle with payload.
    pub fn insert(&mut self, bbox: BBox, value: T) {
        self.len += 1;
        if let Some((left, right)) = Self::insert_rec(&mut self.root, bbox, value) {
            // Root split: grow the tree by one level.
            let old = std::mem::replace(
                &mut self.root,
                Node::Internal {
                    children: Vec::new(),
                },
            );
            drop(old);
            self.root = Node::Internal {
                children: vec![
                    // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                    (left.mbr().expect("split node non-empty"), Box::new(left)),
                    // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                    (right.mbr().expect("split node non-empty"), Box::new(right)),
                ],
            };
            self.height += 1;
        }
    }

    /// Inserts a point (degenerate rectangle).
    pub fn insert_point(&mut self, p: GeoPoint, value: T) {
        self.insert(BBox::from_point(p), value);
    }

    fn insert_rec(node: &mut Node<T>, bbox: BBox, value: T) -> Option<(Node<T>, Node<T>)> {
        match node {
            Node::Leaf { entries } => {
                entries.push((bbox, value));
                if entries.len() > MAX_ENTRIES {
                    let (a, b) = split_entries(std::mem::take(entries));
                    return Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }));
                }
                None
            }
            Node::Internal { children } => {
                let idx = choose_subtree(children, &bbox);
                match Self::insert_rec(&mut children[idx].1, bbox, value) {
                    None => {
                        // Refresh the child's MBR after insertion.
                        // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                        children[idx].0 = children[idx].1.mbr().expect("child non-empty");
                    }
                    Some((left, right)) => {
                        // The old child was drained by the split; replace it.
                        // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                        children[idx] = (left.mbr().expect("split node non-empty"), Box::new(left));
                        children
                            // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                            .push((right.mbr().expect("split node non-empty"), Box::new(right)));
                        if children.len() > MAX_ENTRIES {
                            let (a, b) = split_entries(std::mem::take(children));
                            return Some((
                                Node::Internal { children: a },
                                Node::Internal { children: b },
                            ));
                        }
                    }
                }
                None
            }
        }
    }

    /// All payloads whose rectangle intersects `query`.
    pub fn range(&self, query: &BBox) -> Vec<&T> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, query, &mut out);
        out
    }

    fn range_rec<'a>(node: &'a Node<T>, query: &BBox, out: &mut Vec<&'a T>) {
        match node {
            Node::Leaf { entries } => {
                for (b, v) in entries {
                    if b.intersects(query) {
                        out.push(v);
                    }
                }
            }
            Node::Internal { children } => {
                for (b, child) in children {
                    if b.intersects(query) {
                        Self::range_rec(child, query, out);
                    }
                }
            }
        }
    }

    /// All payloads whose rectangle contains the point `p`.
    pub fn containing(&self, p: &GeoPoint) -> Vec<&T> {
        self.range(&BBox::from_point(*p))
    }

    /// The `k` entries nearest to `p` by box min-distance, closest first
    /// and by payload among entries at one distance, whatever the
    /// tree's shape (the order of `Frontier`). Returns `(distance_m, payload)`
    /// pairs.
    pub fn knn(&self, p: &GeoPoint, k: usize) -> Vec<(f64, &T)>
    where
        T: Ord,
    {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Frontier::Node(TotalF64(0.0), &self.root)));
        let mut out = Vec::with_capacity(k);
        while let Some(Reverse(item)) = heap.pop() {
            if out.len() == k {
                break;
            }
            match item {
                Frontier::Entry(TotalF64(d), v) => out.push((d, v)),
                Frontier::Node(_, Node::Leaf { entries }) => {
                    heap.extend(
                        entries.iter().map(|(b, v)| {
                            Reverse(Frontier::Entry(TotalF64(b.min_distance_m(p)), v))
                        }),
                    );
                }
                Frontier::Node(_, Node::Internal { children }) => {
                    heap.extend(children.iter().map(|(b, child)| {
                        Reverse(Frontier::Node(TotalF64(b.min_distance_m(p)), &**child))
                    }));
                }
            }
        }
        out
    }

    /// Visits every entry (diagnostics / verification).
    pub fn for_each(&self, mut f: impl FnMut(&BBox, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&BBox, &T)) {
            match node {
                Node::Leaf { entries } => {
                    for (b, v) in entries {
                        f(b, v);
                    }
                }
                Node::Internal { children } => {
                    for (_, c) in children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Verifies structural invariants (tests/debugging): MBRs cover their
    /// subtrees and node occupancy respects the branching bounds.
    pub fn check_invariants(&self) {
        fn walk<T>(node: &Node<T>, is_root: bool, depth: usize, leaf_depth: &mut Option<usize>) {
            match node {
                Node::Leaf { entries } => {
                    assert!(
                        is_root || entries.len() >= MIN_ENTRIES.min(1),
                        "underfull leaf"
                    );
                    assert!(entries.len() <= MAX_ENTRIES, "overfull leaf");
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                    }
                }
                Node::Internal { children } => {
                    assert!(!children.is_empty(), "empty internal node");
                    assert!(children.len() <= MAX_ENTRIES, "overfull internal node");
                    for (b, c) in children {
                        // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
                        let child_mbr = c.mbr().expect("child non-empty");
                        assert!(
                            b.contains_bbox(&child_mbr),
                            "stored MBR does not cover child"
                        );
                        walk(c, false, depth + 1, leaf_depth);
                    }
                }
            }
        }
        let mut leaf_depth = None;
        walk(&self.root, true, 0, &mut leaf_depth);
    }
}

/// Picks the child whose MBR needs least area enlargement (ties: least
/// area) to absorb `bbox`.
pub(crate) fn choose_subtree<E: HasBBox>(children: &[E], bbox: &BBox) -> usize {
    let mut best = 0;
    let mut best_enlarge = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in children.iter().enumerate() {
        let b = e.bbox();
        let area = b.area_deg2();
        let enlarge = b.union(bbox).area_deg2() - area;
        if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
            best = i;
            best_enlarge = enlarge;
            best_area = area;
        }
    }
    best
}

/// The box around a non-empty run of entries.
pub(crate) fn mbr_of<E: HasBBox>(slice: &[E]) -> BBox {
    let mut it = slice.iter().map(|e| e.bbox());
    // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
    let first = it.next().expect("non-empty slice");
    it.fold(first, |acc, b| acc.union(&b))
}

/// R* split: choose the axis with minimum total margin over candidate
/// distributions, then the distribution with least MBR overlap (ties:
/// least total area).
pub(crate) fn split_entries<E: HasBBox>(mut entries: Vec<E>) -> (Vec<E>, Vec<E>) {
    let total = entries.len();
    debug_assert!(total > MAX_ENTRIES);

    // Candidate split positions for a sorted entry list.
    let candidate_range = MIN_ENTRIES..=(total - MIN_ENTRIES);

    let mut best: Option<(usize, usize, f64, f64)> = None; // (axis, split_at, overlap, area)
    for axis in 0..2 {
        match axis {
            0 => entries.sort_by(|a, b| {
                a.bbox()
                    .min_lat
                    .total_cmp(&b.bbox().min_lat)
                    .then(a.bbox().max_lat.total_cmp(&b.bbox().max_lat))
            }),
            _ => entries.sort_by(|a, b| {
                a.bbox()
                    .min_lon
                    .total_cmp(&b.bbox().min_lon)
                    .then(a.bbox().max_lon.total_cmp(&b.bbox().max_lon))
            }),
        }
        for at in candidate_range.clone() {
            let left = mbr_of(&entries[..at]);
            let right = mbr_of(&entries[at..]);
            let overlap = left.intersection(&right).map_or(0.0, |i| i.area_deg2());
            let area = left.area_deg2() + right.area_deg2();
            if best.is_none_or(|(_, _, o, a)| overlap < o || (overlap == o && area < a)) {
                best = Some((axis, at, overlap, area));
            }
        }
    }
    // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
    let (axis, at, _, _) = best.expect("at least one candidate split");
    // Re-sort on the winning axis (entries may be sorted on the other).
    match axis {
        0 => entries.sort_by(|a, b| {
            a.bbox()
                .min_lat
                .total_cmp(&b.bbox().min_lat)
                .then(a.bbox().max_lat.total_cmp(&b.bbox().max_lat))
        }),
        _ => entries.sort_by(|a, b| {
            a.bbox()
                .min_lon
                .total_cmp(&b.bbox().min_lon)
                .then(a.bbox().max_lon.total_cmp(&b.bbox().max_lon))
        }),
    }
    let right = entries.split_off(at);
    (entries, right)
}

/// Flattens a subtree back into raw leaf entries (condense step).
fn collect_entries<T>(node: Node<T>, out: &mut Vec<(BBox, T)>) {
    match node {
        Node::Leaf { entries } => out.extend(entries),
        Node::Internal { children } => {
            for (_, child) in children {
                collect_entries(*child, out);
            }
        }
    }
}

/// Partitions `items` into STR tiles of at most `MAX_ENTRIES` each:
/// sort by latitude, cut into vertical slabs of `slab = ceil(sqrt(P))`
/// tiles, sort each slab by longitude, and chunk.
fn str_tiles<E>(mut items: Vec<E>, key: impl Fn(&E) -> BBox) -> Vec<Vec<E>> {
    let per_node = MAX_ENTRIES;
    let n_tiles = items.len().div_ceil(per_node);
    let slabs = (n_tiles as f64).sqrt().ceil() as usize;
    let per_slab = items.len().div_ceil(slabs.max(1));
    items.sort_by(|a, b| {
        let (ka, kb) = (key(a), key(b));
        (ka.min_lat + ka.max_lat).total_cmp(&(kb.min_lat + kb.max_lat))
    });
    let mut tiles = Vec::with_capacity(n_tiles);
    let mut items = items.into_iter().peekable();
    while items.peek().is_some() {
        let mut slab: Vec<E> = items.by_ref().take(per_slab).collect();
        slab.sort_by(|a, b| {
            let (ka, kb) = (key(a), key(b));
            (ka.min_lon + ka.max_lon).total_cmp(&(kb.min_lon + kb.max_lon))
        });
        let mut slab = slab.into_iter().peekable();
        while slab.peek().is_some() {
            tiles.push(slab.by_ref().take(per_node).collect());
        }
    }
    tiles
}

/// One item on a best-first search's frontier: a subtree under the lower
/// bound of what it holds, or an entry at its distance. The order is
/// distance, then a subtree before an entry (so every entry tying a
/// distance is on the frontier before the first of them is reported),
/// then entries by payload: a search reports its entries in
/// `(distance, payload)` order, and which of several entries tying the
/// k-th distance make the cut does not depend on the tree's shape.
pub(crate) enum Frontier<'a, D, N, T> {
    Node(D, &'a N),
    Entry(D, &'a T),
}

impl<D: Ord, N, T: Ord> Ord for Frontier<'_, D, N, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        use Frontier::{Entry, Node};
        match (self, other) {
            (Node(a, _), Node(b, _)) => a.cmp(b),
            (Node(a, _), Entry(b, _)) => a.cmp(b).then(Ordering::Less),
            (Entry(a, _), Node(b, _)) => a.cmp(b).then(Ordering::Greater),
            (Entry(a, x), Entry(b, y)) => a.cmp(b).then_with(|| x.cmp(y)),
        }
    }
}

impl<D: Ord, N, T: Ord> PartialOrd for Frontier<'_, D, N, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Ord, N, T: Ord> PartialEq for Frontier<'_, D, N, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<D: Ord, N, T: Ord> Eq for Frontier<'_, D, N, T> {}

/// Anything carrying a bounding box (leaf entries and internal children);
/// shared with the oriented and hybrid trees so they reuse the same split
/// machinery. The split constants are re-exported for them as well.
pub(crate) trait HasBBox {
    fn bbox(&self) -> BBox;
}

impl<T> HasBBox for (BBox, T) {
    fn bbox(&self) -> BBox {
        self.0
    }
}

pub(crate) const NODE_MAX: usize = MAX_ENTRIES;

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(GeoPoint, usize)> {
        // n x n grid of points near downtown LA.
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let lat = 34.0 + i as f64 * 0.001;
                let lon = -118.3 + j as f64 * 0.001;
                pts.push((GeoPoint::new(lat, lon), i * n + j));
            }
        }
        pts
    }

    #[test]
    fn insert_and_range_match_linear_scan() {
        let pts = grid_points(12); // 144 points forces multiple splits
        let mut tree = RTree::new();
        for (p, id) in &pts {
            tree.insert_point(*p, *id);
        }
        assert_eq!(tree.len(), 144);
        tree.check_invariants();
        let query = BBox::new(34.002, -118.297, 34.006, -118.293);
        let mut got: Vec<usize> = tree.range(&query).into_iter().copied().collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| query.contains(p))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn range_on_empty_tree() {
        let tree: RTree<u32> = RTree::new();
        assert!(tree.range(&BBox::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(tree.is_empty());
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let pts = grid_points(10);
        let tree = RTree::bulk(pts.iter().map(|(p, id)| (BBox::from_point(*p), *id)));
        let q = GeoPoint::new(34.0045, -118.2955);
        let knn = tree.knn(&q, 5);
        assert_eq!(knn.len(), 5);
        for w in knn.windows(2) {
            assert!(w[0].0 <= w[1].0, "knn not sorted");
        }
        // Verify against linear scan.
        let mut lin: Vec<(f64, usize)> = pts
            .iter()
            .map(|(p, id)| (q.fast_distance_m(p), *id))
            .collect();
        lin.sort_by(|a, b| a.0.total_cmp(&b.0));
        let got: Vec<usize> = knn.iter().map(|(_, id)| **id).collect();
        let expect: Vec<usize> = lin[..5].iter().map(|(_, id)| *id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn knn_k_exceeds_len() {
        let mut tree = RTree::new();
        tree.insert_point(GeoPoint::new(34.0, -118.0), 1u32);
        tree.insert_point(GeoPoint::new(34.1, -118.1), 2u32);
        let knn = tree.knn(&GeoPoint::new(34.0, -118.0), 10);
        assert_eq!(knn.len(), 2);
    }

    /// Entries at one distance come out by payload, so which of them a
    /// `k` inside the tie keeps is not an accident of insertion order
    /// and splits.
    #[test]
    fn knn_breaks_distance_ties_by_payload() {
        let mut tree = RTree::new();
        let here = GeoPoint::new(34.0, -118.0);
        for i in 0..200u32 {
            tree.insert_point(here, (i * 77) % 200);
        }
        tree.insert_point(GeoPoint::new(35.0, -117.0), 999);
        let knn = tree.knn(&GeoPoint::new(34.1, -118.1), 7);
        let got: Vec<u32> = knn.iter().map(|(_, id)| **id).collect();
        assert_eq!(got, (0..7).collect::<Vec<u32>>());
        assert!(tree.knn(&here, 0).is_empty());
    }

    #[test]
    fn rectangles_supported() {
        let mut tree = RTree::new();
        tree.insert(BBox::new(34.0, -118.3, 34.1, -118.2), "a");
        tree.insert(BBox::new(34.05, -118.25, 34.15, -118.15), "b");
        tree.insert(BBox::new(35.0, -117.0, 35.1, -116.9), "c");
        let q = BBox::new(34.06, -118.24, 34.07, -118.23);
        let mut hits: Vec<&str> = tree.range(&q).into_iter().copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec!["a", "b"]);
        let contains = tree.containing(&GeoPoint::new(35.05, -116.95));
        assert_eq!(contains, vec![&"c"]);
    }

    #[test]
    fn tree_grows_in_height_and_stays_balanced() {
        let mut tree = RTree::new();
        for (p, id) in grid_points(20) {
            tree.insert_point(p, id);
        }
        assert!(tree.height() >= 2, "400 entries must split the root");
        tree.check_invariants();
        let mut count = 0;
        tree.for_each(|_, _| count += 1);
        assert_eq!(count, 400);
    }

    #[test]
    fn bulk_load_equals_incremental_queries() {
        let pts = grid_points(18); // 324 entries, multiple levels
        let incremental = RTree::bulk(pts.iter().map(|(p, id)| (BBox::from_point(*p), *id)));
        let packed = RTree::bulk_load(
            pts.iter()
                .map(|(p, id)| (BBox::from_point(*p), *id))
                .collect(),
        );
        packed.check_invariants();
        assert_eq!(packed.len(), 324);
        assert!(packed.height() <= incremental.height());
        for query in [
            BBox::new(34.0, -118.3, 34.004, -118.296),
            BBox::new(34.008, -118.29, 34.016, -118.284),
            BBox::new(33.0, -119.0, 35.0, -117.0),
        ] {
            let mut a: Vec<usize> = packed.range(&query).into_iter().copied().collect();
            let mut b: Vec<usize> = incremental.range(&query).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bulk_load_handles_empty_and_tiny() {
        let empty: RTree<u8> = RTree::bulk_load(vec![]);
        assert!(empty.is_empty());
        let one = RTree::bulk_load(vec![(BBox::new(0.0, 0.0, 1.0, 1.0), 7u8)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.range(&BBox::new(0.5, 0.5, 0.6, 0.6)), vec![&7]);
    }

    #[test]
    fn remove_deletes_exactly_one_match() {
        let pts = grid_points(10);
        let mut tree = RTree::new();
        for (p, id) in &pts {
            tree.insert_point(*p, *id);
        }
        let (target_p, target_id) = pts[37];
        let removed = tree.remove(&BBox::from_point(target_p), |&id| id == target_id);
        assert_eq!(removed, Some(target_id));
        assert_eq!(tree.len(), 99);
        tree.check_invariants();
        assert!(tree.containing(&target_p).is_empty());
        // Removing again finds nothing.
        assert_eq!(
            tree.remove(&BBox::from_point(target_p), |&id| id == target_id),
            None
        );
        // Everything else is still there.
        let world = BBox::new(33.0, -119.0, 35.0, -117.0);
        assert_eq!(tree.range(&world).len(), 99);
    }

    #[test]
    fn remove_many_then_queries_stay_correct() {
        let pts = grid_points(12);
        let mut tree = RTree::new();
        for (p, id) in &pts {
            tree.insert_point(*p, *id);
        }
        // Delete every third entry.
        for (p, id) in pts.iter().filter(|(_, id)| id % 3 == 0) {
            assert!(tree.remove(&BBox::from_point(*p), |&v| v == *id).is_some());
        }
        tree.check_invariants();
        let world = BBox::new(33.0, -119.0, 35.0, -117.0);
        let mut left: Vec<usize> = tree.range(&world).into_iter().copied().collect();
        left.sort_unstable();
        let expected: Vec<usize> = pts
            .iter()
            .map(|(_, id)| *id)
            .filter(|id| id % 3 != 0)
            .collect();
        assert_eq!(left, expected);
        assert_eq!(tree.len(), expected.len());
    }

    #[test]
    fn remove_predicate_disambiguates_duplicates() {
        let mut tree = RTree::new();
        let p = GeoPoint::new(34.0, -118.0);
        for i in 0..5u32 {
            tree.insert_point(p, i);
        }
        let removed = tree.remove(&BBox::from_point(p), |&v| v == 3);
        assert_eq!(removed, Some(3));
        let mut rest: Vec<u32> = tree.containing(&p).into_iter().copied().collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1, 2, 4]);
    }

    #[test]
    fn duplicate_points_all_retrievable() {
        let mut tree = RTree::new();
        let p = GeoPoint::new(34.0, -118.0);
        for i in 0..30u32 {
            tree.insert_point(p, i);
        }
        let hits = tree.containing(&p);
        assert_eq!(hits.len(), 30);
    }
}
