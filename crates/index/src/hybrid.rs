//! Visual R*-tree: the hybrid spatial-visual index (paper ref [28]).
//!
//! The tree augments every R-tree node with a *feature-space bounding
//! ball* — the centroid of all feature vectors beneath it and a radius
//! covering them — so one best-first traversal ranks in both spaces: a
//! subtree is skipped when its MBR misses the query region, and visited
//! in order of `‖q − centroid‖ − radius`. The tree itself is
//! [`crate::rtree`]'s shared body; this file is the entry, the ball and
//! the top-k search.
//!
//! No engine path uses it. On 480-float CNN rows the balls never cut a
//! top-k search, so a sealed query segment finds its candidates in its
//! scene R-tree and scores them with the bounded exact kernel
//! [`tvdp_kernel::l2_sq_within`] instead (DESIGN §7). What is left is
//! what the end-to-end benchmark's `index.hybrid_knn_us` probe builds
//! and searches.
//!
//! The tree does not own feature bytes: entries carry `u32` row handles
//! into a shared [feature arena](tvdp_kernel::arena), and every
//! operation that touches feature values takes a [`RowSource`]. Only
//! the per-node ball centroids are owned — they are derived
//! aggregates, not copies of any row.

use tvdp_geo::BBox;
use tvdp_kernel::{l2, RowSource, TotalF32};

use crate::rtree::{HasBBox, Node, Tree};

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
    /// The ball around a node's immediate children/entries: a pure
    /// function of their rows (a leaf) or of their balls (an internal
    /// node), in child order.
    fn of<T>(node: &Node<Entry<T>, Ball>, rows: &impl RowSource) -> Ball {
        let mut centroid = vec![0.0f32; rows.dim()];
        match node {
            Node::Leaf(entries) => {
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
            Node::Internal(children) => {
                let mut total = 0usize;
                for c in children {
                    total += c.summary.count;
                    for (acc, &f) in centroid.iter_mut().zip(&c.summary.centroid) {
                        *acc += f * c.summary.count as f32;
                    }
                }
                for c in &mut centroid {
                    *c /= total as f32;
                }
                // Triangle inequality: features under child c lie within
                // dist(centroid, child centroid) + child radius.
                let radius = children
                    .iter()
                    .map(|c| l2(&centroid, &c.summary.centroid) + c.summary.radius)
                    .fold(0.0f32, f32::max);
                Ball {
                    centroid,
                    radius,
                    count: total,
                }
            }
        }
    }

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

/// The hybrid spatial-visual index over arena row handles.
#[derive(Debug, Clone)]
// tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
pub struct VisualRTree<T> {
    tree: Tree<Entry<T>, Ball>,
    dim: usize,
}

impl<T> VisualRTree<T> {
    /// An empty tree over `dim`-dimensional feature vectors.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional features");
        Self {
            tree: Tree::new(),
            dim,
        }
    }

    /// Inserts an object with spatial extent `bbox` whose feature
    /// vector is arena row `row` of `rows`. The source must resolve
    /// every previously inserted row too (ball maintenance re-reads
    /// sibling features on splits). Every node on the insert path has
    /// its ball recomputed.
    ///
    /// # Panics
    ///
    /// Panics on feature dimensionality mismatch.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn insert(&mut self, rows: &impl RowSource, bbox: BBox, row: u32, value: T) {
        assert_eq!(rows.dim(), self.dim, "feature dimension mismatch");
        self.tree
            .insert(Entry { bbox, row, value }, &|node| Ball::of(node, rows));
    }

    /// Spatial-visual top-k: the `k` entries intersecting `region` most
    /// similar to `query`, via best-first traversal on the feature-distance
    /// lower bound; entries at one distance come out by payload, whatever
    /// the tree's shape.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
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
        self.tree
            .nearest(
                k,
                |bbox, ball| {
                    bbox.intersects(region)
                        .then(|| TotalF32(ball.lower_bound(query)))
                },
                |e| {
                    e.bbox
                        .intersects(region)
                        .then(|| (TotalF32(l2(rows.row(e.row), query)), &e.value))
                },
                &mut 0,
            )
            .into_iter()
            .map(|(TotalF32(d), value)| (d, value))
            .collect()
    }

    /// Verifies the shared structure (`Tree::check_invariants`) and
    /// the bounding-ball invariant: every entry's feature lies within
    /// its ancestors' balls (test helper).
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-index's property tests walk the tree's balls through it")
    pub fn check_invariants(&self, rows: &impl RowSource) {
        self.tree.check_invariants(&|slot| {
            let mut below = 0;
            slot.node.visit(
                &|_, _| true,
                &mut |e| {
                    below += 1;
                    let d = l2(rows.row(e.row), &slot.summary.centroid);
                    assert!(
                        d <= slot.summary.radius + 1e-4,
                        "feature escapes ball: {d} > {}",
                        slot.summary.radius
                    );
                },
                &mut 0,
            );
            assert_eq!(below, slot.summary.count, "count mismatch");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;
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
    fn knn_visual_works_through_a_detached_view() {
        let (tree, slab, _) = build(150);
        tree.check_invariants(&slab);
        let view = slab.view();
        let region = BBox::new(33.9, -118.4, 34.1, -118.2);
        let query = vec![0.1f32, 0.1, 1.0, 0.1];
        let direct = tree.knn_visual(&slab, &region, &query, 12);
        let snapped = tree.knn_visual(&view, &region, &query, 12);
        assert_eq!(direct.len(), 12);
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

    #[test]
    fn spatial_constraint_respected() {
        let (tree, slab, _) = build(100);
        // Region far away from all data.
        let empty_region = BBox::new(35.0, -117.0, 35.1, -116.9);
        let query = vec![1.0, 0.1, 0.1, 0.1];
        assert!(tree.knn_visual(&slab, &empty_region, &query, 5).is_empty());
    }

    #[test]
    fn empty_tree_finds_nothing() {
        let tree: VisualRTree<u8> = VisualRTree::new(3);
        let slab = FeatureSlab::new(3);
        let region = BBox::new(0.0, 0.0, 1.0, 1.0);
        assert!(tree.knn_visual(&slab, &region, &[0.0; 3], 4).is_empty());
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
