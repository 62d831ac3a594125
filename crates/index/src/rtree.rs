//! R*-style trees over geographic bounding boxes: the plain spatial
//! [`RTree`], and the one tree body it shares with the oriented and the
//! hybrid tree.
//!
//! All three are "an R-tree whose child slots carry one extra summary
//! `S`": nothing here, the union of viewing arcs in
//! [`crate::oriented`], a feature-space ball in [`crate::hybrid`]. The
//! body (`Tree`) is written once over an entry type and `S`: the
//! insert descent with the R* axis/margin split (Beckmann et al.,
//! without forced reinsertion) and root growth, the write-once
//! `Tree::build`, one pruned descent, one best-first search and one
//! structural invariant walk. Where an entry lands depends on boxes
//! alone, so a tree never reads a summary to place one; an owner says
//! how a summary is computed from a node and which ones a query prunes
//! on.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use tvdp_geo::{BBox, GeoPoint};
use tvdp_kernel::TotalF64;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6;

/// Anything carrying a bounding box: leaf entries and child slots.
pub(crate) trait HasBBox {
    fn bbox(&self) -> BBox;
}

impl<T> HasBBox for (BBox, T) {
    fn bbox(&self) -> BBox {
        self.0
    }
}

/// A child slot: the box around everything beneath `node` and the
/// owner's summary of it.
#[derive(Debug, Clone)]
pub(crate) struct Child<E, S> {
    pub(crate) bbox: BBox,
    pub(crate) summary: S,
    pub(crate) node: Box<Node<E, S>>,
}

impl<E, S> HasBBox for Child<E, S> {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

impl<E: HasBBox, S> Child<E, S> {
    /// The slot holding `node`, boxed from its contents and summarised
    /// by `summary_of`.
    fn over(node: Node<E, S>, summary_of: &impl Fn(&Node<E, S>) -> S) -> Self {
        Child {
            bbox: node.mbr(),
            summary: summary_of(&node),
            node: Box::new(node),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node<E, S> {
    Leaf(Vec<E>),
    Internal(Vec<Child<E, S>>),
}

impl<E: HasBBox, S> Node<E, S> {
    /// The box around the node's immediate children/entries. The node
    /// must be non-empty.
    fn mbr(&self) -> BBox {
        match self {
            Node::Leaf(entries) => mbr_of(entries),
            Node::Internal(children) => mbr_of(children),
        }
    }

    /// How many entries (a leaf) or children the node holds.
    fn fill(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Internal(children) => children.len(),
        }
    }

    /// The spatial half of an insert: descends by box, splits what
    /// overflows and re-boxes the touched path. It never reads a
    /// summary; the slots it touches get theirs from `summary_of`.
    fn place(&mut self, entry: E, summary_of: &impl Fn(&Self) -> S) -> Option<(Self, Self)> {
        match self {
            Node::Leaf(entries) => {
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    let (a, b) = split_entries(std::mem::take(entries));
                    return Some((Node::Leaf(a), Node::Leaf(b)));
                }
            }
            Node::Internal(children) => {
                let idx = choose_subtree(children, &entry.bbox());
                match children[idx].node.place(entry, summary_of) {
                    None => {
                        let touched = &mut children[idx];
                        touched.bbox = touched.node.mbr();
                        touched.summary = summary_of(&touched.node);
                    }
                    Some((left, right)) => {
                        children[idx] = Child::over(left, summary_of);
                        children.push(Child::over(right, summary_of));
                        if children.len() > MAX_ENTRIES {
                            let (a, b) = split_entries(std::mem::take(children));
                            return Some((Node::Internal(a), Node::Internal(b)));
                        }
                    }
                }
            }
        }
        None
    }

    /// Gives every child slot beneath this node its summary, leaves
    /// first.
    fn summarise(&mut self, summary_of: &impl Fn(&Self) -> S) {
        if let Node::Internal(children) = self {
            for c in children {
                c.node.summarise(summary_of);
                c.summary = summary_of(&c.node);
            }
        }
    }

    /// The pruned descent: hands `found` every entry beneath the child
    /// slots `descend` admits, in tree order.
    pub(crate) fn visit<'a>(
        &'a self,
        descend: &impl Fn(&BBox, &S) -> bool,
        found: &mut impl FnMut(&'a E),
    ) {
        match self {
            Node::Leaf(entries) => entries.iter().for_each(found),
            Node::Internal(children) => {
                for c in children {
                    if descend(&c.bbox, &c.summary) {
                        c.node.visit(descend, found);
                    }
                }
            }
        }
    }
}

/// The tree body: entries `E` under child slots summarised by `S`.
#[derive(Debug, Clone)]
pub(crate) struct Tree<E, S> {
    root: Node<E, S>,
    len: usize,
    /// The fewest entries or children a non-root node may hold:
    /// `MIN_ENTRIES` in a tree grown by splits, `1` in an STR-packed one
    /// (a slab's last tile holds what is left).
    min_fill: usize,
}

impl<E: HasBBox, S> Tree<E, S> {
    pub(crate) fn new() -> Self {
        Self {
            root: Node::Leaf(Vec::new()),
            len: 0,
            min_fill: MIN_ENTRIES,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The pruned descent from the root ([`Node::visit`]).
    pub(crate) fn visit<'a>(
        &'a self,
        descend: &impl Fn(&BBox, &S) -> bool,
        found: &mut impl FnMut(&'a E),
    ) {
        self.root.visit(descend, found);
    }

    /// Inserts one entry; every slot on the insert path is re-summarised
    /// by `summary_of`.
    pub(crate) fn insert(&mut self, entry: E, summary_of: &impl Fn(&Node<E, S>) -> S) {
        self.len += 1;
        if let Some((left, right)) = self.root.place(entry, summary_of) {
            // Root split: grow the tree by one level.
            self.root = Node::Internal(vec![
                Child::over(left, summary_of),
                Child::over(right, summary_of),
            ]);
        }
    }

    /// The tree over `entries`, node for node and bit for bit the one
    /// [`Tree::insert`] grows from them in that order: where an entry
    /// lands depends on boxes alone and a summary is a function of the
    /// final contents of the node it covers, so every entry is placed
    /// first, under `unset` summaries nothing reads, and each summary is
    /// then computed once, leaves first.
    pub(crate) fn build(
        entries: impl IntoIterator<Item = E>,
        unset: S,
        summary_of: &impl Fn(&Node<E, S>) -> S,
    ) -> Self
    where
        S: Clone,
    {
        let mut tree = Self::new();
        for entry in entries {
            tree.insert(entry, &|_| unset.clone());
        }
        tree.root.summarise(summary_of);
        tree
    }

    /// Best-first search: the `k` entries of lowest rank, in
    /// `(rank, payload)` order whatever the tree's shape (the order of
    /// [`Frontier`]). `bound` is a lower bound on the rank of anything
    /// beneath a child slot and `rank` an entry's own rank and payload;
    /// either returns `None` for what the search must skip.
    pub(crate) fn nearest<'a, D: Ord, T: Ord>(
        &'a self,
        k: usize,
        bound: impl Fn(&BBox, &S) -> Option<D>,
        rank: impl Fn(&'a E) -> Option<(D, &'a T)>,
    ) -> Vec<(D, &'a T)> {
        let mut heap = BinaryHeap::new();
        let expand = |node: &'a Node<E, S>, heap: &mut BinaryHeap<_>| match node {
            Node::Leaf(entries) => heap.extend(
                entries
                    .iter()
                    .filter_map(&rank)
                    .map(|(d, v)| Reverse(Frontier::Entry(d, v))),
            ),
            Node::Internal(children) => heap.extend(children.iter().filter_map(|c| {
                Some(Reverse(Frontier::Node(
                    bound(&c.bbox, &c.summary)?,
                    &*c.node,
                )))
            })),
        };
        expand(&self.root, &mut heap);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            match heap.pop() {
                Some(Reverse(Frontier::Entry(d, v))) => out.push((d, v)),
                Some(Reverse(Frontier::Node(_, node))) => expand(node, &mut heap),
                None => break,
            }
        }
        out
    }

    /// Verifies the structure every owner shares: the recorded length,
    /// node occupancy within the branching bounds, all leaves at one
    /// depth, every stored box covering its subtree; `covers` then
    /// checks the owner's summary on each child slot.
    pub(crate) fn check_invariants(&self, covers: &impl Fn(&Child<E, S>)) {
        struct Walk {
            min_fill: usize,
            leaf_depth: Option<usize>,
            entries: usize,
        }
        fn walk<E: HasBBox, S>(
            node: &Node<E, S>,
            depth: usize,
            state: &mut Walk,
            covers: &impl Fn(&Child<E, S>),
        ) {
            let fill = node.fill();
            assert!(fill <= MAX_ENTRIES, "overfull node: {fill}");
            assert!(
                depth == 0 || fill >= state.min_fill,
                "underfull node: {fill} < {}",
                state.min_fill
            );
            match node {
                Node::Leaf(entries) => {
                    state.entries += entries.len();
                    let at = *state.leaf_depth.get_or_insert(depth);
                    assert_eq!(at, depth, "leaves at different depths");
                }
                Node::Internal(children) => {
                    assert!(children.len() >= 2 || depth > 0, "a root with one child");
                    for c in children {
                        walk(&c.node, depth + 1, state, covers);
                        assert!(
                            c.bbox.contains_bbox(&c.node.mbr()),
                            "stored box does not cover its subtree"
                        );
                        covers(c);
                    }
                }
            }
        }
        let mut state = Walk {
            min_fill: self.min_fill,
            leaf_depth: None,
            entries: 0,
        };
        walk(&self.root, 0, &mut state, covers);
        assert_eq!(state.entries, self.len, "length mismatch");
    }
}

/// One line of [`Tree::shape`]: a child slot or an entry at its depth,
/// every float as its bits, so equal means bit-equal.
#[cfg(test)]
#[derive(Debug, PartialEq)]
pub(crate) struct Part {
    pub(crate) depth: usize,
    slot: bool,
    bbox: [u64; 4],
    rest: Vec<u64>,
}

/// A payload as [`Part`] bits.
#[cfg(test)]
pub(crate) fn payload_bits<T: Copy + TryInto<u64>>(value: &T) -> u64 {
    (*value).try_into().ok().expect("a payload that fits u64")
}

#[cfg(test)]
impl<E: HasBBox, S> Tree<E, S> {
    /// The tree flattened depth-first: one [`Part`] per child slot
    /// (its box and `summary_bits`) and per entry (its box and
    /// `entry_bits`).
    pub(crate) fn shape(
        &self,
        summary_bits: &impl Fn(&S) -> Vec<u64>,
        entry_bits: &impl Fn(&E) -> Vec<u64>,
    ) -> Vec<Part> {
        fn part(depth: usize, slot: bool, b: BBox, rest: Vec<u64>) -> Part {
            let bbox = [b.min_lat, b.min_lon, b.max_lat, b.max_lon].map(f64::to_bits);
            Part {
                depth,
                slot,
                bbox,
                rest,
            }
        }
        fn walk<E: HasBBox, S>(
            node: &Node<E, S>,
            depth: usize,
            summary_bits: &impl Fn(&S) -> Vec<u64>,
            entry_bits: &impl Fn(&E) -> Vec<u64>,
            out: &mut Vec<Part>,
        ) {
            match node {
                Node::Leaf(entries) => out.extend(
                    entries
                        .iter()
                        .map(|e| part(depth, false, e.bbox(), entry_bits(e))),
                ),
                Node::Internal(children) => {
                    for c in children {
                        out.push(part(depth, true, c.bbox, summary_bits(&c.summary)));
                        walk(&c.node, depth + 1, summary_bits, entry_bits, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, 0, summary_bits, entry_bits, &mut out);
        out
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
    tree: Tree<(BBox, T), ()>,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self { tree: Tree::new() }
    }

    /// The tree over `items`, the one [`RTree::insert`] grows from them
    /// in that order (prefer [`RTree::bulk_load`] for large static sets
    /// whose shape nothing else has to reproduce).
    pub fn build(items: impl IntoIterator<Item = (BBox, T)>) -> Self {
        Self {
            tree: Tree::build(items, (), &|_| ()),
        }
    }

    /// Sort-Tile-Recursive (STR) bulk loading: packs entries into fully
    /// occupied leaves by sorting on latitude then tiling on longitude,
    /// then builds the upper levels the same way. Produces a tighter,
    /// shallower tree than repeated insertion and is much faster to
    /// construct.
    pub fn bulk_load(items: Vec<(BBox, T)>) -> Self {
        let len = items.len();
        let mut level: Vec<Node<(BBox, T), ()>> =
            str_tiles(items).into_iter().map(Node::Leaf).collect();
        // Build upper levels until one root remains.
        while level.len() > 1 {
            let children = level.into_iter().map(|n| Child::over(n, &|_| ())).collect();
            level = str_tiles(children)
                .into_iter()
                .map(Node::Internal)
                .collect();
        }
        Self {
            tree: Tree {
                root: level.pop().unwrap_or(Node::Leaf(Vec::new())),
                len,
                min_fill: 1,
            },
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a rectangle with payload.
    pub fn insert(&mut self, bbox: BBox, value: T) {
        self.tree.insert((bbox, value), &|_| ());
    }

    /// Inserts a point (degenerate rectangle).
    pub fn insert_point(&mut self, p: GeoPoint, value: T) {
        self.insert(BBox::from_point(p), value);
    }

    /// All payloads whose rectangle intersects `query`.
    pub fn range(&self, query: &BBox) -> Vec<&T> {
        let mut out = Vec::new();
        self.tree
            .visit(&|bbox, ()| bbox.intersects(query), &mut |(bbox, value)| {
                if bbox.intersects(query) {
                    out.push(value);
                }
            });
        out
    }

    /// All payloads whose rectangle contains the point `p`.
    pub fn containing(&self, p: &GeoPoint) -> Vec<&T> {
        self.range(&BBox::from_point(*p))
    }

    /// The `k` entries nearest to `p` by box min-distance, closest first
    /// and by payload among entries at one distance, whatever the
    /// tree's shape. Returns `(distance_m, payload)` pairs.
    pub fn knn(&self, p: &GeoPoint, k: usize) -> Vec<(f64, &T)>
    where
        T: Ord,
    {
        let distance = |bbox: &BBox| TotalF64(bbox.min_distance_m(p));
        self.tree
            .nearest(
                k,
                |bbox, ()| Some(distance(bbox)),
                |(bbox, value)| Some((distance(bbox), value)),
            )
            .into_iter()
            .map(|(TotalF64(d), value)| (d, value))
            .collect()
    }

    /// Verifies structural invariants (tests/debugging): the shared
    /// walk of `Tree::check_invariants`; a plain tree has no summary
    /// to check.
    pub fn check_invariants(&self) {
        self.tree.check_invariants(&|_| ());
    }

    #[cfg(test)]
    pub(crate) fn shape(&self) -> Vec<Part>
    where
        T: Copy + TryInto<u64>,
    {
        self.tree
            .shape(&|()| Vec::new(), &|(_, value)| vec![payload_bits(value)])
    }
}

/// Picks the child whose MBR needs least area enlargement (ties: least
/// area) to absorb `bbox`.
fn choose_subtree<E: HasBBox>(children: &[E], bbox: &BBox) -> usize {
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
fn mbr_of<E: HasBBox>(slice: &[E]) -> BBox {
    let mut it = slice.iter().map(|e| e.bbox());
    // tvdp-lint: allow(no_panic, reason = "R-tree structural invariant: the node touched here is non-empty by construction")
    let first = it.next().expect("non-empty slice");
    it.fold(first, |acc, b| acc.union(&b))
}

/// Sorts entries by their lower then upper edge along `axis` (0 =
/// latitude, 1 = longitude).
fn sort_along<E: HasBBox>(entries: &mut [E], axis: usize) {
    let edges = |e: &E| {
        let b = e.bbox();
        match axis {
            0 => (b.min_lat, b.max_lat),
            _ => (b.min_lon, b.max_lon),
        }
    };
    entries.sort_by(|a, b| {
        let ((a_lo, a_hi), (b_lo, b_hi)) = (edges(a), edges(b));
        a_lo.total_cmp(&b_lo).then(a_hi.total_cmp(&b_hi))
    });
}

/// R* split: choose the axis with minimum total margin over candidate
/// distributions, then the distribution with least MBR overlap (ties:
/// least total area).
fn split_entries<E: HasBBox>(mut entries: Vec<E>) -> (Vec<E>, Vec<E>) {
    let total = entries.len();
    debug_assert!(total > MAX_ENTRIES);

    let mut best: Option<(usize, usize, f64, f64)> = None; // (axis, split_at, overlap, area)
    for axis in 0..2 {
        sort_along(&mut entries, axis);
        for at in MIN_ENTRIES..=(total - MIN_ENTRIES) {
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
    sort_along(&mut entries, axis);
    let right = entries.split_off(at);
    (entries, right)
}

/// Partitions `items` into STR tiles of at most `MAX_ENTRIES` each:
/// sort by latitude, cut into vertical slabs of `slab = ceil(sqrt(P))`
/// tiles, sort each slab by longitude, and chunk.
fn str_tiles<E: HasBBox>(mut items: Vec<E>) -> Vec<Vec<E>> {
    let per_node = MAX_ENTRIES;
    let n_tiles = items.len().div_ceil(per_node);
    let slabs = (n_tiles as f64).sqrt().ceil() as usize;
    let per_slab = items.len().div_ceil(slabs.max(1));
    items.sort_by(|a, b| {
        let (ka, kb) = (a.bbox(), b.bbox());
        (ka.min_lat + ka.max_lat).total_cmp(&(kb.min_lat + kb.max_lat))
    });
    let mut tiles = Vec::with_capacity(n_tiles);
    let mut items = items.into_iter().peekable();
    while items.peek().is_some() {
        let mut slab: Vec<E> = items.by_ref().take(per_slab).collect();
        slab.sort_by(|a, b| {
            let (ka, kb) = (a.bbox(), b.bbox());
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
enum Frontier<'a, D, N, T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OrientedRTree, VisualRTree};
    use tvdp_geo::Fov;
    use tvdp_kernel::rng::for_each_case;
    use tvdp_kernel::{FeatureSlab, RowSource};

    /// Levels in the tree a [`Part`] list came from (a lone leaf = 1).
    fn height(shape: &[Part]) -> usize {
        shape.iter().map(|p| p.depth + 1).max().unwrap_or(1)
    }

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
        let tree = RTree::build(pts.iter().map(|(p, id)| (BBox::from_point(*p), *id)));
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
        assert!(height(&tree.shape()) >= 3, "400 entries must split twice");
        tree.check_invariants();
        let world = BBox::new(33.0, -119.0, 35.0, -117.0);
        assert_eq!(tree.range(&world).len(), 400);
    }

    #[test]
    fn bulk_load_equals_incremental_queries() {
        let pts = grid_points(18); // 324 entries, multiple levels
        let incremental = RTree::build(pts.iter().map(|(p, id)| (BBox::from_point(*p), *id)));
        let packed = RTree::bulk_load(
            pts.iter()
                .map(|(p, id)| (BBox::from_point(*p), *id))
                .collect(),
        );
        packed.check_invariants();
        assert_eq!(packed.len(), 324);
        assert!(height(&packed.shape()) <= height(&incremental.shape()));
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

    /// `built` against `grown`, two flattenings of what must be one
    /// tree: the same nodes, the same children in the same order, every
    /// box, summary and entry bit for bit, and at least `levels` levels.
    fn assert_same_tree(which: &str, n: usize, levels: usize, built: &[Part], grown: &[Part]) {
        assert!(
            height(grown) >= levels,
            "{which}, n = {n}: {} level(s)",
            height(grown)
        );
        assert!(built == grown, "{which}, n = {n}: trees differ");
    }

    /// The write-once constructor against per-row insertion, for each
    /// of the three trees over the shared body, at sizes that fit the
    /// root leaf, split it once, and split the root again. Boxes, FOVs
    /// and rows repeat, so splits meet ties.
    #[test]
    fn build_is_bit_identical_to_per_row_insertion() {
        let sizes = [(1usize, 1usize), (16, 1), (17, 2), (128, 2), (1_000, 3)];
        for_each_case(sizes.len() as u64 * 4, |case, rng| {
            let (n, levels) = sizes[case as usize % sizes.len()];
            let dim = 6;
            let mut slab = FeatureSlab::new(dim);
            let mut rows: Vec<(Fov, u32, u32)> = Vec::new();
            for id in 0..n as u32 {
                let fresh = Fov::new(
                    GeoPoint::new(rng.gen_range(33.9..34.1), rng.gen_range(-118.4..-118.2)),
                    rng.gen_range(0.0..360.0),
                    rng.gen_range(20.0..120.0),
                    rng.gen_range(20.0..200.0),
                );
                let floats: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                // One row in four repeats an earlier FOV, an earlier
                // row's floats, or both.
                let (fov, floats) = match (rows.is_empty(), rng.gen_range(0..8)) {
                    (false, 0) => (rows[rng.gen_range(0..rows.len())].0, floats),
                    (false, 1) => {
                        let earlier = rows[rng.gen_range(0..rows.len())];
                        (earlier.0, slab.row(earlier.1).to_vec())
                    }
                    _ => (fresh, floats),
                };
                rows.push((fov, slab.push(&floats), id));
            }
            // Built from a detached view, as a sealed segment is.
            let view = slab.view();
            let scenes = || rows.iter().map(|&(fov, _, id)| (fov.scene_location(), id));

            let mut grown = RTree::new();
            scenes().for_each(|(scene, id)| grown.insert(scene, id));
            let built = RTree::build(scenes());
            grown.check_invariants();
            built.check_invariants();
            assert_eq!(built.len(), n);
            assert_same_tree("plain", n, levels, &built.shape(), &grown.shape());

            let mut grown = OrientedRTree::new();
            rows.iter().for_each(|&(fov, _, id)| grown.insert(fov, id));
            let built = OrientedRTree::build(rows.iter().map(|&(fov, _, id)| (fov, id)));
            grown.check_invariants();
            built.check_invariants();
            assert_eq!(built.len(), n);
            assert_same_tree("oriented", n, levels, &built.shape(), &grown.shape());

            let mut grown = VisualRTree::new(dim);
            for (&(_, row, id), (scene, _)) in rows.iter().zip(scenes()) {
                grown.insert(&slab, scene, row, id);
            }
            let built = VisualRTree::build(
                &view,
                rows.iter()
                    .zip(scenes())
                    .map(|(&(_, row, id), (scene, _))| (scene, row, id)),
            );
            grown.check_invariants(&slab);
            built.check_invariants(&view);
            assert_eq!(built.len(), n);
            assert_eq!(built.dim(), grown.dim());
            assert_same_tree("hybrid", n, levels, &built.shape(), &grown.shape());

            let everywhere = BBox::new(33.0, -119.0, 35.0, -118.0);
            let half = BBox::new(33.9, -118.4, 34.0, -118.2);
            let bits = |hits: Vec<(f32, &u32)>| -> Vec<(u32, u32)> {
                hits.into_iter().map(|(d, id)| (d.to_bits(), *id)).collect()
            };
            for _ in 0..4 {
                let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                for region in [everywhere, half] {
                    assert_eq!(
                        bits(built.knn_visual(&view, &region, &query, 10)),
                        bits(grown.knn_visual(&slab, &region, &query, 10))
                    );
                    assert_eq!(
                        bits(built.range_visual(&view, &region, &query, 1.2)),
                        bits(grown.range_visual(&slab, &region, &query, 1.2))
                    );
                }
            }
        });
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
