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
//! `Tree::build` (Sort-Tile-Recursive packing), one pruned descent, one
//! best-first search and one structural invariant walk. Where an entry
//! lands depends on boxes alone, so a tree never reads a summary to
//! place one; an owner says how a summary is computed from a node and
//! which ones a query prunes on.

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

    /// The pruned descent: hands `found` every entry beneath the child
    /// slots `descend` admits, in tree order, and adds every node it
    /// enters, this one included, to `nodes`.
    pub(crate) fn visit<'a>(
        &'a self,
        descend: &impl Fn(&BBox, &S) -> bool,
        found: &mut impl FnMut(&'a E),
        nodes: &mut u64,
    ) {
        *nodes += 1;
        match self {
            Node::Leaf(entries) => entries.iter().for_each(found),
            Node::Internal(children) => {
                for c in children {
                    if descend(&c.bbox, &c.summary) {
                        c.node.visit(descend, found, nodes);
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
    /// `MIN_ENTRIES` in a tree grown by splits, `1` in a packed one (a
    /// level's last tile holds what is left).
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
        nodes: &mut u64,
    ) {
        self.root.visit(descend, found, nodes);
    }

    /// Hands `found` every entry whose box intersects `query`, in tree
    /// order: a descent by box alone, no summary read.
    pub(crate) fn visit_box<'a>(
        &'a self,
        query: &BBox,
        nodes: &mut u64,
        found: &mut impl FnMut(&'a E),
    ) {
        let found = &mut |e: &'a E| {
            if e.bbox().intersects(query) {
                found(e);
            }
        };
        self.visit(&|bbox, _| bbox.intersects(query), found, nodes);
    }

    /// The `k` entries nearest to `p` by box min-distance, as
    /// `(distance_m, payload)`, closest first and by payload among
    /// entries at one distance: [`Tree::nearest`] by box alone.
    pub(crate) fn knn<'a, T: Ord>(
        &'a self,
        p: &GeoPoint,
        k: usize,
        payload: impl Fn(&'a E) -> &'a T,
        nodes: &mut u64,
    ) -> Vec<(f64, &'a T)> {
        let distance = |bbox: &BBox| TotalF64(bbox.min_distance_m(p));
        self.nearest(
            k,
            |bbox, _| Some(distance(bbox)),
            |e| Some((distance(&e.bbox()), payload(e))),
            nodes,
        )
        .into_iter()
        .map(|(TotalF64(d), value)| (d, value))
        .collect()
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

    /// The tree over `entries`, packed Sort-Tile-Recursive: the entries
    /// are tiled into full leaves of nearby boxes ([`str_tiles`]), each
    /// level above tiles the slots of the one below until one node is
    /// left, every node is allocated at its size, and each summary is
    /// computed once, from a finished node, as its slot is made. A packed
    /// tree differs in shape from the one [`Tree::insert`] grows from
    /// the same entries, never in what a query finds: filters visit the
    /// same entries (in another order) and best-first searches report in
    /// `(rank, payload)` order whatever the shape.
    pub(crate) fn build(
        entries: impl IntoIterator<Item = E>,
        summary_of: &impl Fn(&Node<E, S>) -> S,
    ) -> Self {
        let entries: Vec<E> = entries.into_iter().collect();
        let len = entries.len();
        let mut level: Vec<Node<E, S>> = str_tiles(entries).into_iter().map(Node::Leaf).collect();
        while level.len() > 1 {
            let slots = level.into_iter().map(|n| Child::over(n, summary_of));
            level = str_tiles(slots.collect())
                .into_iter()
                .map(Node::Internal)
                .collect();
        }
        Self {
            root: level.pop().unwrap_or(Node::Leaf(Vec::new())),
            len,
            min_fill: 1,
        }
    }

    /// Best-first search: the `k` entries of lowest rank, in
    /// `(rank, payload)` order whatever the tree's shape (the order of
    /// [`Frontier`]). `bound` is a lower bound on the rank of anything
    /// beneath a child slot and `rank` an entry's own rank and payload;
    /// either returns `None` for what the search must skip. Every node
    /// the search expands is added to `nodes`.
    pub(crate) fn nearest<'a, D: Ord, T: Ord>(
        &'a self,
        k: usize,
        bound: impl Fn(&BBox, &S) -> Option<D>,
        rank: impl Fn(&'a E) -> Option<(D, &'a T)>,
        nodes: &mut u64,
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
        *nodes += 1;
        expand(&self.root, &mut heap);
        // Sized by what the tree holds: `k` is the caller's claim.
        let mut out = Vec::with_capacity(k.min(self.len()));
        while out.len() < k {
            match heap.pop() {
                Some(Reverse(Frontier::Entry(d, v))) => out.push((d, v)),
                Some(Reverse(Frontier::Node(_, node))) => {
                    *nodes += 1;
                    expand(node, &mut heap);
                }
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

#[cfg(test)]
impl<E, S> Tree<E, S> {
    /// Levels from the root to the leaves (a lone leaf = 1).
    pub(crate) fn height(&self) -> usize {
        let mut node = &self.root;
        let mut levels = 1;
        while let Node::Internal(children) = node {
            node = &children[0].node;
            levels += 1;
        }
        levels
    }
}

/// A spatial index mapping bounding boxes to payloads.
///
/// ```
/// use tvdp_index::RTree;
/// use tvdp_geo::{BBox, GeoPoint};
///
/// let tree = RTree::build([
///     (BBox::from_point(GeoPoint::new(34.05, -118.25)), "city hall"),
///     (BBox::from_point(GeoPoint::new(34.02, -118.29)), "campus"),
/// ]);
/// let downtown = BBox::new(34.04, -118.26, 34.06, -118.24);
/// assert_eq!(tree.range(&downtown), vec![&"city hall"]);
/// let nearest = tree.knn(&GeoPoint::new(34.021, -118.288), 1, &mut 0);
/// assert_eq!(*nearest[0].1, "campus");
/// ```
#[derive(Debug, Clone)]
// tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
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

    /// The tree over `items`, packed Sort-Tile-Recursive: full leaves
    /// of nearby boxes, each level above tiled the same way, every node
    /// allocated at its size. Shallower and tighter than a tree grown by
    /// insertion, and much faster to construct.
    pub fn build(items: impl IntoIterator<Item = (BBox, T)>) -> Self {
        Self {
            tree: Tree::build(items, &|_| ()),
        }
    }

    /// [`RTree::build`] under its older name.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn bulk_load(items: Vec<(BBox, T)>) -> Self {
        Self::build(items)
    }

    /// Inserts a rectangle with payload: the grown reference the
    /// packed tree is tested against.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, bbox: BBox, value: T) {
        self.tree.insert((bbox, value), &|_| ());
    }

    /// All payloads whose rectangle intersects `query`.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn range(&self, query: &BBox) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit_range(query, &mut 0, |value| out.push(value));
        out
    }

    /// Hands `found` every payload whose rectangle intersects `query`,
    /// in tree order, without collecting them, and adds every node the
    /// descent enters to `nodes`.
    pub fn visit_range<'a>(&'a self, query: &BBox, nodes: &mut u64, mut found: impl FnMut(&'a T)) {
        self.tree
            .visit_box(query, nodes, &mut |(_, value)| found(value));
    }

    /// The `k` entries nearest to `p` by box min-distance, closest first
    /// and by payload among entries at one distance, whatever the
    /// tree's shape. Returns `(distance_m, payload)` pairs, and adds
    /// every node the search expands to `nodes`.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-index's property tests rank a brute-force scan against it")
    pub fn knn(&self, p: &GeoPoint, k: usize, nodes: &mut u64) -> Vec<(f64, &T)>
    where
        T: Ord,
    {
        self.tree.knn(p, k, |(_, value)| value, nodes)
    }

    /// Verifies structural invariants (tests/debugging): the shared
    /// walk of `Tree::check_invariants`; a plain tree has no summary
    /// to check.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-index's property tests walk the tree through it")
    pub fn check_invariants(&self) {
        self.tree.check_invariants(&|_| ());
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
    #[expect(
        clippy::expect_used,
        reason = "R-tree structural invariant: the node touched here is non-empty by construction"
    )]
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
    #[expect(
        clippy::expect_used,
        reason = "R-tree structural invariant: the node touched here is non-empty by construction"
    )]
    let (axis, at, _, _) = best.expect("at least one candidate split");
    // Re-sort on the winning axis (entries may be sorted on the other).
    sort_along(&mut entries, axis);
    let right = entries.split_off(at);
    (entries, right)
}

/// The one STR packer: partitions `items` into the `P = ceil(n / M)`
/// tiles of Sort-Tile-Recursive (`M = MAX_ENTRIES`), each allocated at
/// its size. Items are sorted by box centre latitude and cut into
/// `ceil(sqrt(P))` slabs of whole tiles; each slab is sorted by centre
/// longitude and cut into tiles of `M`. Every tile is full but the
/// last. Both sorts are stable, so the tiles are a function of the
/// items' order.
fn str_tiles<E: HasBBox>(mut items: Vec<E>) -> Vec<Vec<E>> {
    let n_tiles = items.len().div_ceil(MAX_ENTRIES);
    let slabs = (n_tiles as f64).sqrt().ceil() as usize;
    let per_slab = n_tiles.div_ceil(slabs.max(1)) * MAX_ENTRIES;
    let centre = |e: &E, axis: usize| {
        let b = e.bbox();
        match axis {
            0 => b.min_lat + b.max_lat,
            _ => b.min_lon + b.max_lon,
        }
    };
    items.sort_by(|a, b| centre(a, 0).total_cmp(&centre(b, 0)));
    let mut tiles = Vec::with_capacity(n_tiles);
    let mut items = items.into_iter();
    while items.len() > 0 {
        let mut slab: Vec<E> = items.by_ref().take(per_slab).collect();
        slab.sort_by(|a, b| centre(a, 1).total_cmp(&centre(b, 1)));
        let mut slab = slab.into_iter();
        while slab.len() > 0 {
            let mut tile = Vec::with_capacity(slab.len().min(MAX_ENTRIES));
            tile.extend(slab.by_ref().take(MAX_ENTRIES));
            tiles.push(tile);
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
    use tvdp_geo::{AngularRange, Fov};
    use tvdp_kernel::rng::for_each_case;
    use tvdp_kernel::{l2, FeatureSlab, RowSource};

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
            tree.insert(BBox::from_point(*p), *id);
        }
        assert_eq!(tree.tree.len(), 144);
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
        assert_eq!(tree.tree.len(), 0);
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let pts = grid_points(10);
        let tree = RTree::build(pts.iter().map(|(p, id)| (BBox::from_point(*p), *id)));
        let q = GeoPoint::new(34.0045, -118.2955);
        let knn = tree.knn(&q, 5, &mut 0);
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
        tree.insert(BBox::from_point(GeoPoint::new(34.0, -118.0)), 1u32);
        tree.insert(BBox::from_point(GeoPoint::new(34.1, -118.1)), 2u32);
        let knn = tree.knn(&GeoPoint::new(34.0, -118.0), 10, &mut 0);
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
            tree.insert(BBox::from_point(here), (i * 77) % 200);
        }
        tree.insert(BBox::from_point(GeoPoint::new(35.0, -117.0)), 999);
        let knn = tree.knn(&GeoPoint::new(34.1, -118.1), 7, &mut 0);
        let got: Vec<u32> = knn.iter().map(|(_, id)| **id).collect();
        assert_eq!(got, (0..7).collect::<Vec<u32>>());
        assert!(tree.knn(&here, 0, &mut 0).is_empty());
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
        let contains = tree.range(&BBox::from_point(GeoPoint::new(35.05, -116.95)));
        assert_eq!(contains, vec![&"c"]);
    }

    #[test]
    fn tree_grows_in_height_and_stays_balanced() {
        let mut tree = RTree::new();
        for (p, id) in grid_points(20) {
            tree.insert(BBox::from_point(p), id);
        }
        assert!(tree.tree.height() >= 3, "400 entries must split twice");
        tree.check_invariants();
        let world = BBox::new(33.0, -119.0, 35.0, -117.0);
        assert_eq!(tree.range(&world).len(), 400);
    }

    #[test]
    fn bulk_load_equals_incremental_queries() {
        let pts = grid_points(18); // 324 entries, multiple levels
        let mut incremental = RTree::new();
        for (p, id) in &pts {
            incremental.insert(BBox::from_point(*p), *id);
        }
        let packed = RTree::bulk_load(
            pts.iter()
                .map(|(p, id)| (BBox::from_point(*p), *id))
                .collect(),
        );
        packed.check_invariants();
        assert_eq!(packed.tree.len(), 324);
        assert!(packed.tree.height() <= incremental.tree.height());
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
        assert_eq!(empty.tree.len(), 0);
        let one = RTree::bulk_load(vec![(BBox::new(0.0, 0.0, 1.0, 1.0), 7u8)]);
        assert_eq!(one.tree.len(), 1);
        assert_eq!(one.range(&BBox::new(0.5, 0.5, 0.6, 0.6)), vec![&7]);
    }

    /// `hits` as a set: ids ascending.
    fn sorted<'a>(hits: impl IntoIterator<Item = &'a u32>) -> Vec<u32> {
        let mut ids: Vec<u32> = hits.into_iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The `k` lowest of `(rank, payload)` pairs, in that order: what a
    /// best-first search must report whatever the tree's shape.
    fn lowest<D: PartialOrd + Copy>(mut ranked: Vec<(D, u32)>, k: usize) -> Vec<(D, u32)> {
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        ranked.truncate(k);
        ranked
    }

    /// A packed tree against a grown one and a scan for the spatial and
    /// the oriented tree, and a grown hybrid tree against a scan, at
    /// sizes that are empty, fit one leaf, fill it and spill one entry
    /// past it, then at random sizes up to 300. Boxes, FOVs and rows
    /// repeat, so splits, tiles and searches meet ties, and one oriented
    /// row in five has no FOV, so its directed, box-only, covering and
    /// nearest answers all meet the empty arc. Filters agree as sets;
    /// best-first searches agree entry for entry, in `(rank, payload)`
    /// order.
    #[test]
    fn packed_trees_answer_as_grown_trees_and_a_scan() {
        let fixed = [0usize, 1, 16, 17];
        for_each_case(48, |case, rng| {
            let n = match fixed.get(case as usize) {
                Some(&n) => n,
                None => rng.gen_range(0..=300),
            };
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
            // Packed from a detached view, as a sealed segment is.
            let view = slab.view();
            let scenes = || rows.iter().map(|&(fov, _, id)| (fov.scene_location(), id));
            let regions = [
                BBox::new(33.0, -119.0, 35.0, -118.0),
                BBox::new(33.9, -118.4, 34.0, -118.2),
                BBox::new(34.02, -118.33, 34.05, -118.29),
            ];
            let points = [GeoPoint::new(34.0, -118.3), GeoPoint::new(34.11, -118.19)];

            let mut grown = RTree::new();
            scenes().for_each(|(scene, id)| grown.insert(scene, id));
            let packed = RTree::build(scenes());
            grown.check_invariants();
            packed.check_invariants();
            assert_eq!(packed.tree.len(), n);
            for region in &regions {
                let scan = rows
                    .iter()
                    .filter(|(fov, _, _)| fov.scene_location().intersects(region));
                let want = sorted(scan.map(|(_, _, id)| id));
                assert_eq!(sorted(packed.range(region)), want);
                assert_eq!(sorted(grown.range(region)), want);
            }
            for p in &points {
                for k in [1, 7, 40] {
                    let scan = scenes().map(|(b, id)| (b.min_distance_m(p), id)).collect();
                    let bits = |hits: Vec<(f64, &u32)>| -> Vec<(u64, u32)> {
                        hits.into_iter().map(|(d, id)| (d.to_bits(), *id)).collect()
                    };
                    let want: Vec<(u64, u32)> = lowest(scan, k)
                        .into_iter()
                        .map(|(d, id)| (d.to_bits(), id))
                        .collect();
                    assert_eq!(bits(packed.knn(p, k, &mut 0)), want, "n = {n}, k = {k}");
                    assert_eq!(bits(grown.knn(p, k, &mut 0)), want, "n = {n}, k = {k}");
                }
            }

            // The oriented tree holds every row; one in five has no FOV
            // and sits under the degenerate box at its camera.
            let oriented: Vec<(BBox, Option<Fov>, u32)> = rows
                .iter()
                .map(|&(fov, _, id)| match id % 5 {
                    4 => (BBox::from_point(fov.camera), None, id),
                    _ => (fov.scene_location(), Some(fov), id),
                })
                .collect();
            let mut grown = OrientedRTree::new();
            for &(scene, fov, id) in &oriented {
                grown.insert(scene, fov, id);
            }
            let packed = OrientedRTree::build(oriented.iter().copied());
            grown.check_invariants();
            packed.check_invariants();
            assert_eq!(packed.len(), n);
            let ids = |hits: Vec<(&Fov, &u32)>| sorted(hits.into_iter().map(|(_, id)| id));
            for region in &regions {
                for dirs in [AngularRange::FULL, AngularRange::centered(90.0, 60.0)] {
                    let scan = oriented.iter().filter(|(scene, fov, _)| {
                        fov.is_some_and(|fov| {
                            scene.intersects(region) && fov.direction_range().overlaps(&dirs)
                        })
                    });
                    let want = sorted(scan.map(|(_, _, id)| id));
                    assert_eq!(ids(packed.range_directed(region, &dirs, &mut 0)), want);
                    assert_eq!(ids(grown.range_directed(region, &dirs, &mut 0)), want);
                }
                let scan = oriented
                    .iter()
                    .filter(|(scene, _, _)| scene.intersects(region));
                let want = sorted(scan.map(|(_, _, id)| id));
                for tree in [&packed, &grown] {
                    let mut hits = Vec::new();
                    tree.visit_range(region, &mut 0, |scene, id| {
                        assert!(scene.intersects(region));
                        hits.push(id);
                    });
                    assert_eq!(sorted(hits), want);
                }
            }
            // Covering at free points and at a FOV-less row's camera.
            let cameras = oriented.iter().filter(|(_, fov, _)| fov.is_none());
            let cameras = cameras.map(|(scene, _, _)| scene.center()).take(2);
            for p in points.iter().copied().chain(cameras) {
                let scan = oriented.iter().filter(|(scene, fov, _)| match fov {
                    Some(fov) => fov.contains(&p),
                    None => scene.contains(&p),
                });
                let want = sorted(scan.map(|(_, _, id)| id));
                assert_eq!(sorted(packed.covering_point(&p, &mut 0)), want);
                assert_eq!(sorted(grown.covering_point(&p, &mut 0)), want);
                for k in [1, 7, 40] {
                    let scan = oriented
                        .iter()
                        .map(|(b, _, id)| (b.min_distance_m(&p), *id));
                    let want = lowest(scan.collect(), k);
                    let got = |hits: Vec<(f64, &u32)>| -> Vec<(f64, u32)> {
                        hits.into_iter().map(|(d, id)| (d, *id)).collect()
                    };
                    assert_eq!(got(packed.knn(&p, k, &mut 0)), want, "n = {n}, k = {k}");
                    assert_eq!(got(grown.knn(&p, k, &mut 0)), want, "n = {n}, k = {k}");
                }
            }

            // The hybrid tree is only ever grown: a grown one against
            // the scan.
            let mut grown = VisualRTree::new(dim);
            for (&(_, row, id), (scene, _)) in rows.iter().zip(scenes()) {
                grown.insert(&slab, scene, row, id);
            }
            grown.check_invariants(&slab);
            let bits = |hits: Vec<(f32, &u32)>| -> Vec<(u32, u32)> {
                hits.into_iter().map(|(d, id)| (d.to_bits(), *id)).collect()
            };
            for _ in 0..3 {
                let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                for region in &regions {
                    let scan = rows
                        .iter()
                        .zip(scenes())
                        .filter(|(_, (b, _))| b.intersects(region))
                        .map(|(&(_, row, id), _)| (l2(view.row(row), &query), id))
                        .collect();
                    let want: Vec<(u32, u32)> = lowest(scan, 10)
                        .into_iter()
                        .map(|(d, id)| (d.to_bits(), id))
                        .collect();
                    assert_eq!(bits(grown.knn_visual(&view, region, &query, 10)), want);
                }
            }
        });
    }

    #[test]
    fn duplicate_points_all_retrievable() {
        let mut tree = RTree::new();
        let p = GeoPoint::new(34.0, -118.0);
        for i in 0..30u32 {
            tree.insert(BBox::from_point(p), i);
        }
        let hits = tree.range(&BBox::from_point(p));
        assert_eq!(hits.len(), 30);
    }
}
