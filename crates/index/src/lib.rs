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
//! * [`lsh::LshIndex`] — locality-sensitive hashing with p-stable
//!   projections (Datar et al., SoCG 2004, ref \[26\]) for high-dimensional
//!   visual-feature similarity search,
//! * [`inverted::InvertedIndex`] — a tf-idf inverted file (Zobel & Moffat,
//!   ref \[27\]) for textual keyword queries,
//! * [`hybrid::VisualRTree`] — the hybrid spatial-visual index of
//!   Alfarrarjeh et al. (ACM MM Workshops 2017, ref \[28\]): an R-tree whose
//!   nodes carry feature-space summaries so one traversal prunes in both
//!   spaces at once.
//!
//! The three trees are one R*-tree body ([`rtree`]'s crate-private
//! `Tree`) under three per-node summaries: none, viewing arcs, feature
//! balls. A tree whose entries are known up front is packed
//! Sort-Tile-Recursive (`build`); `insert` grows one row at a time.
//! Temporal filters need no index here: the query engine keeps each
//! timestamp column with a permutation of its rows in time order.

pub mod hybrid;
pub mod inverted;
pub mod lsh;
pub mod oriented;
pub mod rtree;

pub use hybrid::VisualRTree;
pub use inverted::InvertedIndex;
pub use lsh::{LshConfig, LshIndex};
pub use oriented::OrientedRTree;
pub use rtree::RTree;
