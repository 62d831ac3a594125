//! Oriented R-tree: a direction-augmented spatial index over FOVs.
//!
//! Plain R-trees over scene locations answer "which images show this
//! area?" but cannot prune by *viewing direction* ("images looking north
//! at this corner"). Following Lu et al. (paper ref \[25\]), each node of
//! the oriented R-tree stores, alongside the spatial MBR, the union of the
//! viewing-direction arcs of all FOVs beneath it; a directional query can
//! then discard whole subtrees whose direction summary misses the query
//! arc. A row without an FOV is held under its scene box and the empty
//! arc, so directed descents prune it and descents by box alone (range,
//! nearest, covering) find it: one tree answers every spatial leaf of a
//! segment. The tree itself is [`crate::rtree`]'s shared body; this file
//! is the entry, the arc summary and the prune test.

use tvdp_geo::{AngularRange, BBox, Fov, GeoPoint};

use crate::rtree::{HasBBox, Node, Tree};

/// A leaf entry: scene-location box, the FOV (none for a row without
/// direction metadata), and the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    bbox: BBox,
    fov: Option<Fov>,
    value: T,
}

impl<T> HasBBox for Entry<T> {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

/// The viewing arcs beneath a node, `None` being the empty arc.
type Dirs = Option<AngularRange>;

/// The smallest arc covering a run of arcs, folded in order; empty arcs
/// add nothing.
fn union_of(arcs: impl Iterator<Item = Dirs>) -> Dirs {
    arcs.flatten().reduce(|all, arc| all.union(&arc))
}

/// The union of the viewing arcs beneath a node: of its FOVs' (a leaf)
/// or of its children's summaries, in child order.
fn dirs_of<T>(node: &Node<Entry<T>, Dirs>) -> Dirs {
    match node {
        Node::Leaf(entries) => union_of(entries.iter().map(|e| e.fov.map(|f| f.direction_range()))),
        Node::Internal(children) => union_of(children.iter().map(|c| c.summary)),
    }
}

/// An R-tree over scene boxes, each with its FOV if it has one, with
/// per-node viewing-direction summaries.
#[derive(Debug, Clone)]
pub struct OrientedRTree<T> {
    tree: Tree<Entry<T>, Dirs>,
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

    /// The tree over `rows` (`(scene location, FOV if any, payload)`),
    /// packed as [`crate::RTree::build`] packs, with each node's arc
    /// computed once.
    pub fn build(rows: impl IntoIterator<Item = (BBox, Option<Fov>, T)>) -> Self {
        let entries = rows
            .into_iter()
            .map(|(bbox, fov, value)| Entry { bbox, fov, value });
        Self {
            tree: Tree::build(entries, &dirs_of),
        }
    }

    /// Number of stored rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tree.len()
    }

    /// Inserts a row with payload under its scene location `bbox`: the
    /// grown reference the packed tree is tested against.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, bbox: BBox, fov: Option<Fov>, value: T) {
        self.tree.insert(Entry { bbox, fov, value }, &dirs_of);
    }

    /// Hands `found` the scene box and payload of every row whose box
    /// intersects `query`, FOV or not, in tree order: a descent by box
    /// alone. Every node it enters is added to `nodes`.
    pub fn visit_range<'a>(
        &'a self,
        query: &BBox,
        nodes: &mut u64,
        mut found: impl FnMut(&BBox, &'a T),
    ) {
        self.tree
            .visit_box(query, nodes, &mut |e| found(&e.bbox, &e.value));
    }

    /// The `k` rows nearest to `p` by scene-box min-distance, closest
    /// first and by payload among rows at one distance, as
    /// `(distance_m, payload)`. Every node the search expands is added
    /// to `nodes`.
    pub fn knn(&self, p: &GeoPoint, k: usize, nodes: &mut u64) -> Vec<(f64, &T)>
    where
        T: Ord,
    {
        self.tree.knn(p, k, |e| &e.value, nodes)
    }

    /// FOVs whose scene location intersects `region` and whose viewing
    /// direction overlaps `directions`; rows without an FOV are pruned.
    /// Pass [`AngularRange::FULL`] for every FOV in the region. Every
    /// node the descent enters is added to `nodes`.
    pub fn range_directed(
        &self,
        region: &BBox,
        directions: &AngularRange,
        nodes: &mut u64,
    ) -> Vec<(&Fov, &T)> {
        let seen = |dirs: &Dirs| dirs.is_some_and(|d| d.overlaps(directions));
        let admits = |bbox: &BBox, dirs: &Dirs| bbox.intersects(region) && seen(dirs);
        let mut out = Vec::new();
        self.tree.visit(
            &admits,
            &mut |e| match &e.fov {
                Some(fov) if admits(&e.bbox, &Some(fov.direction_range())) => {
                    out.push((fov, &e.value));
                }
                _ => {}
            },
            nodes,
        );
        out
    }

    /// Rows that *see* point `p`: an FOV whose sector holds it (exact
    /// test after a descent by box alone), or a row without an FOV whose
    /// scene box holds it. Every node the descent enters is added to
    /// `nodes`.
    pub fn covering_point(&self, p: &GeoPoint, nodes: &mut u64) -> Vec<&T> {
        let mut out = Vec::new();
        self.tree.visit_box(&BBox::from_point(*p), nodes, &mut |e| {
            if e.fov.as_ref().is_none_or(|fov| fov.contains(p)) {
                out.push(&e.value);
            }
        });
        out
    }

    /// Verifies the shared structure (`Tree::check_invariants`) and
    /// that every stored arc covers the arcs beneath it (test helper).
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-index's property tests walk the tree's arcs through it")
    pub fn check_invariants(&self) {
        self.tree.check_invariants(&|slot| {
            // Every direction covered below must be inside the stored
            // summary: test a dense sample. An empty arc below needs no
            // cover.
            let Some(below) = dirs_of(&slot.node) else {
                return;
            };
            for step in 0..72 {
                let deg = step as f64 * 5.0;
                if below.contains(deg) {
                    let covered = slot.summary.is_some_and(|s| s.contains(deg));
                    assert!(covered, "direction summary misses {deg}");
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
            tree.insert(f.scene_location(), Some(*f), *id);
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
            tree.insert(f.scene_location(), Some(*f), *id);
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
        tree.insert(north.scene_location(), Some(north), "north");
        let south = Fov::new(cam, 180.0, 60.0, 100.0);
        tree.insert(south.scene_location(), Some(south), "south");
        let ahead = cam.destination(0.0, 50.0);
        assert_eq!(tree.covering_point(&ahead, &mut 0), vec![&"north"]);
        // A row without an FOV covers exactly its own point, and no
        // directed query finds it.
        tree.insert(BBox::from_point(ahead), None, "point");
        let mut hits = tree.covering_point(&ahead, &mut 0);
        hits.sort_unstable();
        assert_eq!(hits, vec![&"north", &"point"]);
        assert!(tree
            .range_directed(&BBox::from_point(ahead), &AngularRange::FULL, &mut 0)
            .iter()
            .all(|(_, id)| **id != "point"));
    }

    #[test]
    fn empty_tree_queries() {
        let tree: OrientedRTree<u8> = OrientedRTree::new();
        assert!(tree
            .range_directed(&BBox::new(0.0, 0.0, 1.0, 1.0), &AngularRange::FULL, &mut 0)
            .is_empty());
        assert_eq!(tree.len(), 0);
    }

    #[test]
    fn grows_past_node_capacity() {
        let fovs = make_fovs(300);
        let mut tree = OrientedRTree::new();
        for (f, id) in &fovs {
            tree.insert(f.scene_location(), Some(*f), *id);
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
