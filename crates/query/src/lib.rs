//! Query layer for the Translational Visual Data Platform.
//!
//! Exposes the five query families of the paper's access layer (Section
//! IV-C) plus hybrid combinations:
//!
//! * **Spatial** — range / k-nearest / point-coverage / direction-
//!   constrained queries over scene locations and FOVs,
//! * **Visual** — example-image similarity (top-k or threshold) over
//!   stored feature vectors,
//! * **Categorical** — annotation-label filters,
//! * **Textual** — keyword search over manual keywords,
//! * **Temporal** — capture/upload time ranges,
//! * **Hybrid** — conjunctions, with a planner that answers a
//!   spatial+visual conjunction as one visual leaf per segment over the
//!   scene R-tree's hits for the region, instead of chaining
//!   single-modal indexes.
//!
//! [`QueryEngine`] serves queries from the indexing substrate;
//! [`ShardedEngine`] scatters them over sealed `QueryEngine` segments
//! and each shard's unsealed tail. [`linear`] is the scan: a linear
//! segment answers the leaves over an id list in place, and is both a
//! shard's tail and, over the whole store, [`linear::LinearExecutor`],
//! the brute-force reference the tests and benchmarks compare against.
//! What every executor does alike (`Categorical`, `Or`, the hybrid-pair
//! split, the general conjunction) is written once in [`plan`].

pub mod engine;
pub mod linear;
pub mod localize;
pub mod plan;
pub mod sharded;
pub mod types;

pub use engine::{EngineConfig, OutOfOrder, QueryEngine};
pub use linear::LinearExecutor;
pub use localize::{localize, LocalizationEstimate};
pub use sharded::{ShardedEngine, DEFAULT_SEAL_CAP};
pub use types::{
    Query, QueryError, QueryResult, SpatialQuery, TemporalField, TextualMode, VisualMode,
};
