//! Indexing substrate for the Translational Visual Data Platform.
//!
//! The paper's access layer (Section IV-C) serves five query families —
//! spatial, visual, categorical, textual, temporal — plus hybrid
//! combinations, backed by:
//!
//! * [`rtree::RTree`] — an R*-style spatial tree for range and k-NN
//!   queries over points and scene-location rectangles,
//! * [`oriented::OrientedRTree`] — the direction-augmented R-tree of
//!   Lu et al. (GeoInformatica 2016, paper ref \[25\]) for FOV queries with
//!   viewing-direction constraints,
//! * [`inverted::InvertedIndex`] — a tf-idf inverted file (Zobel & Moffat,
//!   ref \[27\]) for textual keyword queries,
//! * [`hybrid::VisualRTree`] — the hybrid spatial-visual index of
//!   Alfarrarjeh et al. (ACM MM Workshops 2017, ref \[28\]): an R-tree whose
//!   nodes carry feature-space balls, searched best-first in both
//!   spaces at once. No query engine path uses it: on 480-float CNN
//!   rows the balls never cut a top-k search, so a query segment takes
//!   its scene [`RTree`]'s hits and scores them with the bounded exact
//!   kernel `tvdp_kernel::l2_sq_within`. It is grown row by row only.
//!
//! The three trees are one R*-tree body ([`rtree`]'s crate-private
//! `Tree`) under three per-node summaries: none, viewing arcs, feature
//! balls. A spatial or oriented tree whose entries are known up front
//! is packed Sort-Tile-Recursive (`build`); `insert` grows one row at a
//! time.
//! Temporal filters need no index here: the query engine keeps each
//! timestamp column with a permutation of its rows in time order, and
//! visual similarity search (the paper's LSH, ref \[26\]) is answered
//! exactly by the arena's projected lower bounds (`tvdp_kernel`) and
//! the query planner's two-phase top-k.

pub mod hybrid;
pub mod inverted;
pub mod oriented;
pub mod rtree;

pub use hybrid::VisualRTree;
pub use inverted::InvertedIndex;
pub use oriented::OrientedRTree;
pub use rtree::RTree;
