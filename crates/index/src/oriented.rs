//! Oriented R-tree: a direction-augmented spatial index over FOVs.
//!
//! Plain R-trees over scene locations answer "which images show this
//! area?" but cannot prune by *viewing direction* ("images looking north
//! at this corner"). Following Lu et al. (paper ref \[25\]), each node of
//! the oriented R-tree stores, alongside the spatial MBR, the union of the
//! viewing-direction arcs of all FOVs beneath it; a directional query can
//! then discard whole subtrees whose direction summary misses the query
//! arc. The tree itself is [`crate::rtree`]'s shared body; this file is
//! the entry, the arc summary and the prune test.

use tvdp_geo::{AngularRange, BBox, Fov, GeoPoint};

use crate::rtree::{HasBBox, Node, Tree};

/// A leaf entry: scene-location box, the FOV itself, and the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    bbox: BBox,
    fov: Fov,
    value: T,
}

impl<T> HasBBox for Entry<T> {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

/// The smallest arc covering a non-empty run of arcs, folded in order.
#[expect(
    clippy::expect_used,
    reason = "OR-tree structural invariant: the node touched here is non-empty by construction"
)]
fn union_of(arcs: impl Iterator<Item = AngularRange>) -> AngularRange {
    let union = arcs.reduce(|all, arc| all.union(&arc));
    union.expect("non-empty node")
}

/// The union of the viewing arcs beneath a node: of its FOVs' (a leaf)
/// or of its children's summaries, in child order.
fn dirs_of<T>(node: &Node<Entry<T>, AngularRange>) -> AngularRange {
    match node {
        Node::Leaf(entries) => union_of(entries.iter().map(|e| e.fov.direction_range())),
        Node::Internal(children) => union_of(children.iter().map(|c| c.summary)),
    }
}

/// An R-tree over FOVs with per-node viewing-direction summaries.
#[derive(Debug, Clone)]
pub struct OrientedRTree<T> {
    tree: Tree<Entry<T>, AngularRange>,
}

impl<T> Default for OrientedRTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrientedRTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self { tree: Tree::new() }
    }

    /// The tree over `fovs` (`(scene location, FOV, payload)`), packed
    /// as [`crate::RTree::build`] packs, with each node's arc computed
    /// once.
    pub fn build(fovs: impl IntoIterator<Item = (BBox, Fov, T)>) -> Self {
        let entries = fovs
            .into_iter()
            .map(|(bbox, fov, value)| Entry { bbox, fov, value });
        Self {
            tree: Tree::build(entries, &dirs_of),
        }
    }

    /// Number of stored FOVs.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an FOV with payload under its scene location `bbox`: the
    /// grown reference the packed tree is tested against.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, bbox: BBox, fov: Fov, value: T) {
        self.tree.insert(Entry { bbox, fov, value }, &dirs_of);
    }

    /// FOVs whose scene location intersects `region` and whose viewing
    /// direction overlaps `directions`. Pass [`AngularRange::FULL`] for a
    /// purely spatial query. Every node the descent enters is added to
    /// `nodes`.
    pub fn range_directed(
        &self,
        region: &BBox,
        directions: &AngularRange,
        nodes: &mut u64,
    ) -> Vec<(&Fov, &T)> {
        let admits =
            |bbox: &BBox, dirs: &AngularRange| bbox.intersects(region) && dirs.overlaps(directions);
        let mut out = Vec::new();
        self.tree.visit(
            &admits,
            &mut |e| {
                if admits(&e.bbox, &e.fov.direction_range()) {
                    out.push((&e.fov, &e.value));
                }
            },
            nodes,
        );
        out
    }

    /// FOVs that actually *see* point `p` (exact sector test after index
    /// pruning), optionally restricted to a viewing-direction arc. Every
    /// node the descent enters is added to `nodes`.
    pub fn covering_point(
        &self,
        p: &GeoPoint,
        directions: Option<&AngularRange>,
        nodes: &mut u64,
    ) -> Vec<(&Fov, &T)> {
        let region = BBox::from_point(*p);
        let dirs = directions.copied().unwrap_or(AngularRange::FULL);
        self.range_directed(&region, &dirs, nodes)
            .into_iter()
            .filter(|(fov, _)| fov.contains(p))
            .collect()
    }

    /// Verifies the shared structure (`Tree::check_invariants`) and
    /// that every stored arc covers the arcs beneath it (test helper).
    pub fn check_invariants(&self) {
        self.tree.check_invariants(&|slot| {
            // Every direction covered below must be inside the stored
            // summary: test a dense sample.
            let below = dirs_of(&slot.node);
            for step in 0..72 {
                let deg = step as f64 * 5.0;
                if below.contains(deg) {
                    assert!(slot.summary.contains(deg), "direction summary misses {deg}");
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_fovs(n: usize) -> Vec<(Fov, usize)> {
        // FOVs on a grid, heading rotates by index.
        let mut fovs = Vec::new();
        for i in 0..n {
            let lat = 34.0 + (i / 10) as f64 * 0.001;
            let lon = -118.3 + (i % 10) as f64 * 0.001;
            let heading = (i * 37 % 360) as f64;
            fovs.push((Fov::new(GeoPoint::new(lat, lon), heading, 60.0, 80.0), i));
        }
        fovs
    }

    #[test]
    fn directed_range_matches_linear_scan() {
        let fovs = make_fovs(150);
        let mut tree = OrientedRTree::new();
        for (f, id) in &fovs {
            tree.insert(f.scene_location(), *f, *id);
        }
        tree.check_invariants();
        let region = BBox::new(34.002, -118.297, 34.008, -118.291);
        let dirs = AngularRange::centered(0.0, 90.0);
        let mut got: Vec<usize> = tree
            .range_directed(&region, &dirs, &mut 0)
            .into_iter()
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = fovs
            .iter()
            .filter(|(f, _)| {
                f.scene_location().intersects(&region) && f.direction_range().overlaps(&dirs)
            })
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn direction_filter_reduces_results() {
        let fovs = make_fovs(150);
        let mut tree = OrientedRTree::new();
        for (f, id) in &fovs {
            tree.insert(f.scene_location(), *f, *id);
        }
        let region = BBox::new(33.99, -118.31, 34.03, -118.27);
        let all = tree
            .range_directed(&region, &AngularRange::FULL, &mut 0)
            .len();
        let north_only = tree
            .range_directed(&region, &AngularRange::centered(0.0, 30.0), &mut 0)
            .len();
        assert!(
            north_only < all,
            "direction constraint must prune ({north_only} vs {all})"
        );
        assert!(north_only > 0);
    }

    #[test]
    fn covering_point_is_exact() {
        let cam = GeoPoint::new(34.01, -118.29);
        let mut tree = OrientedRTree::new();
        let north = Fov::new(cam, 0.0, 60.0, 100.0);
        tree.insert(north.scene_location(), north, "north");
        let south = Fov::new(cam, 180.0, 60.0, 100.0);
        tree.insert(south.scene_location(), south, "south");
        let ahead = cam.destination(0.0, 50.0);
        let hits = tree.covering_point(&ahead, None, &mut 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, "north");
        // Direction-constrained: ask for south-facing cameras seeing the
        // north point — none.
        let south_dirs = AngularRange::centered(180.0, 40.0);
        assert!(tree
            .covering_point(&ahead, Some(&south_dirs), &mut 0)
            .is_empty());
    }

    #[test]
    fn empty_tree_queries() {
        let tree: OrientedRTree<u8> = OrientedRTree::new();
        assert!(tree
            .range_directed(&BBox::new(0.0, 0.0, 1.0, 1.0), &AngularRange::FULL, &mut 0)
            .is_empty());
        assert!(tree.is_empty());
    }

    #[test]
    fn grows_past_node_capacity() {
        let fovs = make_fovs(300);
        let mut tree = OrientedRTree::new();
        for (f, id) in &fovs {
            tree.insert(f.scene_location(), *f, *id);
        }
        assert_eq!(tree.len(), 300);
        tree.check_invariants();
        // Full-region, full-direction query returns everything.
        let region = BBox::new(33.9, -118.4, 34.1, -118.2);
        assert_eq!(
            tree.range_directed(&region, &AngularRange::FULL, &mut 0)
                .len(),
            300
        );
    }
}
