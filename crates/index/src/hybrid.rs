//! Visual R*-tree: the hybrid spatial-visual index (paper ref [28]).
//!
//! Hybrid spatial-visual queries ("images near this corner that look like
//! this example") are served poorly by chaining single-modal indexes: a
//! spatial-first plan post-filters many features, a visual-first plan
//! post-filters many locations. The Visual R*-tree augments every R-tree
//! node with a *feature-space bounding ball* — the centroid of all feature
//! vectors beneath it and a radius covering them — so a single traversal
//! prunes in both spaces: a subtree is skipped when its MBR misses the
//! query region **or** when `‖q − centroid‖ − radius` exceeds the
//! similarity threshold.
//!
//! The tree does not own feature bytes: entries carry `u32` row handles
//! into a shared [feature arena](tvdp_kernel::arena), and every
//! operation that touches feature values takes a
//! [`RowSource`] (the live [`tvdp_kernel::FeatureSlab`] at insert time,
//! an `Arc`-shared [`tvdp_kernel::SlabView`] snapshot at query time).
//! Only the per-node ball centroids are owned — they are derived
//! aggregates, not copies of any row.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tvdp_geo::BBox;
use tvdp_kernel::{l2, l2_sq, RowSource, TotalF32};

use crate::rtree::{choose_subtree, mbr_of, split_entries, Frontier, HasBBox, NODE_MAX};

#[derive(Debug, Clone)]
struct Entry<T> {
    bbox: BBox,
    /// Arena row handle of this entry's feature vector.
    row: u32,
    value: T,
}

impl<T> HasBBox for Entry<T> {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

/// Feature-space bounding ball: every feature below lies within
/// `radius` of `centroid`.
#[derive(Debug, Clone)]
struct Ball {
    centroid: Vec<f32>,
    radius: f32,
    count: usize,
}

impl Ball {
    /// A lower bound on `l2(row, query)` over every row inside the ball:
    /// `‖q − centroid‖ − radius`, shaded down by a relative margin far
    /// above the rounding of the three `f32` sums behind it. Without the
    /// margin the bound can exceed, by an ulp, the distance of a row it
    /// covers, and a search then meets that row after rows it ties or
    /// beats (a ball of identical rows is the common case: its centroid
    /// is their mean only up to rounding).
    fn lower_bound(&self, query: &[f32]) -> f32 {
        const MARGIN: f32 = 1e-4;
        (l2(&self.centroid, query) * (1.0 - MARGIN) - self.radius * (1.0 + MARGIN)).max(0.0)
    }
}

#[derive(Debug, Clone)]
struct Child<T> {
    bbox: BBox,
    ball: Ball,
    node: Box<Node<T>>,
}

impl<T> HasBBox for Child<T> {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { entries: Vec<Entry<T>> },
    Internal { children: Vec<Child<T>> },
}

impl<T> Node<T> {
    /// The box around the node's immediate children/entries. The node
    /// must be non-empty.
    fn mbr(&self) -> BBox {
        match self {
            Node::Leaf { entries } => mbr_of(entries),
            Node::Internal { children } => mbr_of(children),
        }
    }

    /// The ball around the node's immediate children/entries: a pure
    /// function of their rows (a leaf) or of their balls (an internal
    /// node), in child order.
    fn ball(&self, rows: &impl RowSource, dim: usize) -> Ball {
        let mut centroid = vec![0.0f32; dim];
        match self {
            Node::Leaf { entries } => {
                for e in entries {
                    for (c, &f) in centroid.iter_mut().zip(rows.row(e.row)) {
                        *c += f;
                    }
                }
                let n = entries.len() as f32;
                for c in &mut centroid {
                    *c /= n;
                }
                let radius = entries
                    .iter()
                    .map(|e| l2(&centroid, rows.row(e.row)))
                    .fold(0.0f32, f32::max);
                Ball {
                    centroid,
                    radius,
                    count: entries.len(),
                }
            }
            Node::Internal { children } => {
                let mut total = 0usize;
                for c in children {
                    total += c.ball.count;
                    for (acc, &f) in centroid.iter_mut().zip(&c.ball.centroid) {
                        *acc += f * c.ball.count as f32;
                    }
                }
                for c in &mut centroid {
                    *c /= total as f32;
                }
                // Triangle inequality: features under child c lie within
                // dist(centroid, child centroid) + child radius.
                let radius = children
                    .iter()
                    .map(|c| l2(&centroid, &c.ball.centroid) + c.ball.radius)
                    .fold(0.0f32, f32::max);
                Ball {
                    centroid,
                    radius,
                    count: total,
                }
            }
        }
    }

    /// Gives every child slot beneath this node its ball, leaves first.
    fn summarise(&mut self, rows: &impl RowSource, dim: usize) {
        if let Node::Internal { children } = self {
            for c in children {
                c.node.summarise(rows, dim);
                c.ball = c.node.ball(rows, dim);
            }
        }
    }
}

impl<T> Child<T> {
    /// The slot holding `node`, boxed from its contents and balled by
    /// `ball_of`.
    fn over(node: Node<T>, ball_of: &impl Fn(&Node<T>) -> Ball) -> Self {
        Child {
            bbox: node.mbr(),
            ball: ball_of(&node),
            node: Box::new(node),
        }
    }
}

/// The hybrid spatial-visual index over arena row handles.
#[derive(Debug, Clone)]
pub struct VisualRTree<T> {
    root: Node<T>,
    dim: usize,
    len: usize,
}

impl<T: Clone> VisualRTree<T> {
    /// An empty tree over `dim`-dimensional feature vectors.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional features");
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            dim,
            len: 0,
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

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Inserts an object with spatial extent `bbox` whose feature
    /// vector is arena row `row` of `rows`. The source must resolve
    /// every previously inserted row too (ball maintenance re-reads
    /// sibling features on splits). Every node on the insert path has
    /// its ball recomputed; a caller that has all its entries up front
    /// uses [`VisualRTree::build`] and pays for each ball once.
    ///
    /// # Panics
    ///
    /// Panics on feature dimensionality mismatch.
    pub fn insert(&mut self, rows: &impl RowSource, bbox: BBox, row: u32, value: T) {
        assert_eq!(rows.dim(), self.dim, "feature dimension mismatch");
        let dim = self.dim;
        self.place(Entry { bbox, row, value }, &|n| n.ball(rows, dim));
    }

    /// The tree over `entries` (`(bbox, arena row, payload)`, in insert
    /// order), bit-identical to [`VisualRTree::insert`]ing them one by
    /// one: where an entry lands depends on boxes alone, and a ball is a
    /// function of the final contents of the node it covers, so every
    /// entry is placed first and each ball is then computed once,
    /// leaves first.
    pub fn build(rows: &impl RowSource, entries: impl IntoIterator<Item = (BBox, u32, T)>) -> Self {
        let mut tree = Self::new(rows.dim());
        let unset = |_: &Node<T>| Ball {
            centroid: Vec::new(),
            radius: 0.0,
            count: 0,
        };
        for (bbox, row, value) in entries {
            tree.place(Entry { bbox, row, value }, &unset);
        }
        tree.root.summarise(rows, tree.dim);
        tree
    }

    /// The spatial half of an insert: descends by box, splits what
    /// overflows and re-boxes the touched path. It never reads a ball;
    /// the slots it touches get theirs from `ball_of`.
    fn place(&mut self, entry: Entry<T>, ball_of: &impl Fn(&Node<T>) -> Ball) {
        self.len += 1;
        if let Some((left, right)) = Self::place_rec(&mut self.root, entry, ball_of) {
            self.root = Node::Internal {
                children: vec![Child::over(left, ball_of), Child::over(right, ball_of)],
            };
        }
    }

    fn place_rec(
        node: &mut Node<T>,
        entry: Entry<T>,
        ball_of: &impl Fn(&Node<T>) -> Ball,
    ) -> Option<(Node<T>, Node<T>)> {
        match node {
            Node::Leaf { entries } => {
                entries.push(entry);
                if entries.len() > NODE_MAX {
                    let (a, b) = split_entries(std::mem::take(entries));
                    return Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }));
                }
                None
            }
            Node::Internal { children } => {
                let idx = choose_subtree(children, &entry.bbox);
                match Self::place_rec(&mut children[idx].node, entry, ball_of) {
                    None => {
                        let touched = &mut children[idx];
                        touched.bbox = touched.node.mbr();
                        touched.ball = ball_of(&touched.node);
                    }
                    Some((left, right)) => {
                        children[idx] = Child::over(left, ball_of);
                        children.push(Child::over(right, ball_of));
                        if children.len() > NODE_MAX {
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

    /// Spatial-visual range query: entries intersecting `region` whose
    /// feature distance to `query` is at most `max_dist`. Returns
    /// `(distance, payload)` sorted by distance. Candidates are compared
    /// in squared-distance space; the root is taken only of the hits.
    pub fn range_visual(
        &self,
        rows: &impl RowSource,
        region: &BBox,
        query: &[f32],
        max_dist: f32,
    ) -> Vec<(f32, &T)> {
        assert_eq!(query.len(), self.dim, "feature dimension mismatch");
        let mut out = Vec::new();
        Self::range_rec(
            &self.root,
            rows,
            region,
            query,
            max_dist * max_dist,
            &mut out,
        );
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        for hit in &mut out {
            hit.0 = hit.0.sqrt();
        }
        out
    }

    fn range_rec<'a>(
        node: &'a Node<T>,
        rows: &impl RowSource,
        region: &BBox,
        query: &[f32],
        max_dist_sq: f32,
        out: &mut Vec<(f32, &'a T)>,
    ) {
        match node {
            Node::Leaf { entries } => {
                for e in entries {
                    if e.bbox.intersects(region) {
                        let d_sq = l2_sq(rows.row(e.row), query);
                        if d_sq <= max_dist_sq {
                            out.push((d_sq, &e.value));
                        }
                    }
                }
            }
            Node::Internal { children } => {
                for c in children {
                    // Ball pruning needs the true centroid distance (the
                    // lower bound subtracts a radius), but it runs once
                    // per child node, not once per candidate entry.
                    let feat_lb = c.ball.lower_bound(query);
                    if c.bbox.intersects(region) && feat_lb * feat_lb <= max_dist_sq {
                        Self::range_rec(&c.node, rows, region, query, max_dist_sq, out);
                    }
                }
            }
        }
    }

    /// Spatial-visual top-k: the `k` entries intersecting `region` most
    /// similar to `query`, via best-first traversal on the feature-distance
    /// lower bound; entries at one distance come out by payload, whatever
    /// the tree's shape (the order of `Frontier`).
    pub fn knn_visual(
        &self,
        rows: &impl RowSource,
        region: &BBox,
        query: &[f32],
        k: usize,
    ) -> Vec<(f32, &T)>
    where
        T: Ord,
    {
        assert_eq!(query.len(), self.dim, "feature dimension mismatch");
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Frontier::Node(TotalF32(0.0), &self.root)));
        let mut out = Vec::with_capacity(k);
        while let Some(Reverse(item)) = heap.pop() {
            if out.len() == k {
                break;
            }
            match item {
                Frontier::Entry(TotalF32(d), v) => out.push((d, v)),
                Frontier::Node(_, Node::Leaf { entries }) => {
                    let inside = entries.iter().filter(|e| e.bbox.intersects(region));
                    heap.extend(inside.map(|e| {
                        Reverse(Frontier::Entry(
                            TotalF32(l2(rows.row(e.row), query)),
                            &e.value,
                        ))
                    }));
                }
                Frontier::Node(_, Node::Internal { children }) => {
                    let inside = children.iter().filter(|c| c.bbox.intersects(region));
                    heap.extend(inside.map(|c| {
                        Reverse(Frontier::Node(
                            TotalF32(c.ball.lower_bound(query)),
                            &*c.node,
                        ))
                    }));
                }
            }
        }
        out
    }

    /// Verifies the bounding-ball invariant: every entry's feature lies
    /// within its ancestors' balls (test helper).
    pub fn check_invariants(&self, rows: &impl RowSource) {
        fn rows_under<T>(node: &Node<T>, out: &mut Vec<u32>) {
            match node {
                Node::Leaf { entries } => out.extend(entries.iter().map(|e| e.row)),
                Node::Internal { children } => {
                    for c in children {
                        rows_under(&c.node, out);
                    }
                }
            }
        }
        fn walk<T>(node: &Node<T>, rows: &impl RowSource) {
            if let Node::Internal { children } = node {
                for c in children {
                    let mut handles = Vec::new();
                    rows_under(&c.node, &mut handles);
                    assert_eq!(handles.len(), c.ball.count, "count mismatch");
                    for &h in &handles {
                        let d = l2(rows.row(h), &c.ball.centroid);
                        assert!(
                            d <= c.ball.radius + 1e-4,
                            "feature escapes ball: {d} > {}",
                            c.ball.radius
                        );
                    }
                    walk(&c.node, rows);
                }
            }
        }
        walk(&self.root, rows);
    }

    /// The tree flattened depth-first: one [`Part`] per child slot and
    /// per entry.
    #[cfg(test)]
    fn shape(&self) -> Vec<Part<T>> {
        fn walk<T: Clone>(node: &Node<T>, depth: usize, out: &mut Vec<Part<T>>) {
            match node {
                Node::Leaf { entries } => out.extend(entries.iter().map(|e| Part::Entry {
                    depth,
                    bbox: e.bbox,
                    row: e.row,
                    value: e.value.clone(),
                })),
                Node::Internal { children } => {
                    for c in children {
                        out.push(Part::Slot {
                            depth,
                            bbox: c.bbox,
                            centroid: c.ball.centroid.iter().map(|f| f.to_bits()).collect(),
                            radius: c.ball.radius.to_bits(),
                            count: c.ball.count,
                        });
                        walk(&c.node, depth + 1, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, 0, &mut out);
        out
    }
}

/// One line of [`VisualRTree::shape`]: floats as their bits, so equal
/// means bit-equal.
#[cfg(test)]
#[derive(PartialEq)]
enum Part<T> {
    Slot {
        depth: usize,
        bbox: BBox,
        centroid: Vec<u32>,
        radius: u32,
        count: usize,
    },
    Entry {
        depth: usize,
        bbox: BBox,
        row: u32,
        value: T,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_kernel::rng::for_each_case;
    use tvdp_kernel::FeatureSlab;

    type RawEntry = (BBox, Vec<f32>, usize);

    /// Entries on a spatial grid; feature = one-hot-ish vector by group so
    /// visual similarity is controlled.
    fn build(n: usize) -> (VisualRTree<usize>, FeatureSlab, Vec<RawEntry>) {
        let mut tree = VisualRTree::new(4);
        let mut slab = FeatureSlab::new(4);
        let mut raw = Vec::new();
        for i in 0..n {
            let lat = 34.0 + (i / 12) as f64 * 0.001;
            let lon = -118.3 + (i % 12) as f64 * 0.001;
            let b = BBox::from_point(GeoPoint::new(lat, lon));
            let group = i % 4;
            let mut f = vec![0.1f32; 4];
            f[group] = 1.0 + (i as f32 * 0.001);
            let row = slab.push(&f);
            tree.insert(&slab, b, row, i);
            raw.push((b, f, i));
        }
        (tree, slab, raw)
    }

    #[test]
    fn range_visual_matches_linear_scan() {
        let (tree, slab, raw) = build(200);
        tree.check_invariants(&slab);
        let region = BBox::new(34.0, -118.3, 34.01, -118.292);
        let query = {
            let mut f = vec![0.1f32; 4];
            f[2] = 1.0;
            f
        };
        let got: Vec<usize> = tree
            .range_visual(&slab, &region, &query, 0.3)
            .into_iter()
            .map(|(_, id)| *id)
            .collect();
        let mut expected: Vec<(f32, usize)> = raw
            .iter()
            .filter(|(b, f, _)| b.intersects(&region) && l2(f, &query) <= 0.3)
            .map(|(_, f, id)| (l2(f, &query), *id))
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expected_ids: Vec<usize> = expected.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, expected_ids);
        assert!(!got.is_empty());
    }

    #[test]
    fn range_visual_works_through_a_detached_view() {
        let (tree, slab, _) = build(150);
        let view = slab.view();
        let region = BBox::new(33.9, -118.4, 34.1, -118.2);
        let query = vec![0.1f32, 0.1, 1.0, 0.1];
        let direct = tree.range_visual(&slab, &region, &query, 0.7);
        let snapped = tree.range_visual(&view, &region, &query, 0.7);
        assert_eq!(direct.len(), snapped.len());
        for ((da, ia), (db, ib)) in direct.iter().zip(&snapped) {
            assert_eq!(da.to_bits(), db.to_bits());
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn knn_visual_matches_linear_scan() {
        let (tree, slab, raw) = build(200);
        let region = BBox::new(33.99, -118.31, 34.05, -118.27);
        let query = {
            let mut f = vec![0.1f32; 4];
            f[1] = 1.05;
            f
        };
        let got: Vec<f32> = tree
            .knn_visual(&slab, &region, &query, 10)
            .iter()
            .map(|(d, _)| *d)
            .collect();
        let mut lin: Vec<f32> = raw
            .iter()
            .filter(|(b, _, _)| b.intersects(&region))
            .map(|(_, f, _)| l2(f, &query))
            .collect();
        lin.sort_by(f32::total_cmp);
        for (g, e) in got.iter().zip(&lin[..10]) {
            assert!((g - e).abs() < 1e-6, "{g} vs {e}");
        }
        // Distances sorted ascending.
        for w in got.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    /// Rows with one feature tie on distance; the `k` kept are the `k`
    /// lowest payloads whatever order the rows went in, including when
    /// a ball of identical rows has a centroid that is their mean only
    /// up to rounding.
    #[test]
    fn knn_visual_breaks_distance_ties_by_payload() {
        let mut tree = VisualRTree::new(3);
        let mut slab = FeatureSlab::new(3);
        let here = BBox::from_point(GeoPoint::new(34.0, -118.3));
        for i in 0..200usize {
            let row = slab.push(&[0.1, 0.7, 0.3]);
            tree.insert(&slab, here, row, (i * 77) % 200);
        }
        tree.check_invariants(&slab);
        let everywhere = BBox::new(33.0, -119.0, 35.0, -118.0);
        for query in [[0.1, 0.7, 0.3], [0.9, 0.2, 0.6], [0.3, 0.3, 0.3]] {
            let got: Vec<usize> = tree
                .knn_visual(&slab, &everywhere, &query, 7)
                .iter()
                .map(|(_, id)| **id)
                .collect();
            assert_eq!(got, (0..7).collect::<Vec<usize>>(), "{query:?}");
        }
    }

    /// The write-once constructor against per-row insertion: the same
    /// nodes, the same children in the same order, every box, centroid,
    /// radius and count bit for bit, and so the same answers. Rows and
    /// boxes repeat, so splits meet ties.
    #[test]
    fn build_is_bit_identical_to_per_row_insertion() {
        let sizes = [1usize, 16, 17, 128, 1_000];
        for_each_case(sizes.len() as u64 * 4, |case, rng| {
            let n = sizes[case as usize % sizes.len()];
            let dim = 6;
            let mut slab = FeatureSlab::new(dim);
            let mut entries: Vec<(BBox, u32, usize)> = Vec::new();
            for i in 0..n {
                if i > 0 && rng.gen_range(0..4) == 0 {
                    // A duplicate: an earlier box, an earlier row's
                    // floats, or both.
                    let (bbox, row, _) = entries[rng.gen_range(0..i)];
                    let bbox = if rng.gen_range(0..2) == 0 {
                        bbox
                    } else {
                        entries[rng.gen_range(0..i)].0
                    };
                    let floats = slab.row(row).to_vec();
                    entries.push((bbox, slab.push(&floats), i));
                    continue;
                }
                let at = GeoPoint::new(rng.gen_range(33.9..34.1), rng.gen_range(-118.4..-118.2));
                let floats: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                entries.push((BBox::from_point(at), slab.push(&floats), i));
            }
            let mut grown = VisualRTree::new(dim);
            for &(bbox, row, id) in &entries {
                grown.insert(&slab, bbox, row, id);
            }
            // Built from a detached view, as a sealed segment is.
            let view = slab.view();
            let built = VisualRTree::build(&view, entries.iter().copied());
            grown.check_invariants(&slab);
            built.check_invariants(&view);
            assert_eq!(built.len(), grown.len());
            assert_eq!(built.dim(), grown.dim());
            assert!(built.shape() == grown.shape(), "n = {n}: trees differ");

            let everywhere = BBox::new(33.0, -119.0, 35.0, -118.0);
            let half = BBox::new(33.9, -118.4, 34.0, -118.2);
            let bits = |hits: Vec<(f32, &usize)>| -> Vec<(u32, usize)> {
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
    fn spatial_constraint_respected() {
        let (tree, slab, _) = build(100);
        // Region far away from all data.
        let empty_region = BBox::new(35.0, -117.0, 35.1, -116.9);
        let query = vec![1.0, 0.1, 0.1, 0.1];
        assert!(tree
            .range_visual(&slab, &empty_region, &query, 100.0)
            .is_empty());
        assert!(tree.knn_visual(&slab, &empty_region, &query, 5).is_empty());
    }

    #[test]
    fn visual_threshold_respected() {
        let (tree, slab, _) = build(100);
        let region = BBox::new(33.9, -118.4, 34.1, -118.2);
        let query = vec![0.0; 4];
        for (d, _) in tree.range_visual(&slab, &region, &query, 0.9) {
            assert!(d <= 0.9);
        }
    }

    #[test]
    fn empty_tree_and_dim_checks() {
        let tree: VisualRTree<u8> = VisualRTree::new(3);
        assert!(tree.is_empty());
        assert_eq!(tree.dim(), 3);
        let slab = FeatureSlab::new(3);
        let region = BBox::new(0.0, 0.0, 1.0, 1.0);
        assert!(tree.range_visual(&slab, &region, &[0.0; 3], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dim_rejected() {
        let mut tree: VisualRTree<u8> = VisualRTree::new(3);
        let mut slab = FeatureSlab::new(4);
        let row = slab.push(&[0.0; 4]);
        tree.insert(&slab, BBox::new(0.0, 0.0, 1.0, 1.0), row, 1);
    }
}
