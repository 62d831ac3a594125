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
//! One planner ([`plan`]) walks a query tree for indexed execution: it
//! scatters each single-modal leaf over sealed [`QueryEngine`]
//! segments and a pending tail, and gathers deterministically.
//! [`ShardedEngine`] is the platform's engine: one store, its sealed
//! segments and tail republished as lock-free generations. A standalone
//! [`QueryEngine`] runs the same planner over itself as the one
//! segment. [`linear`] is the scan: a linear segment answers the leaves
//! over an id list in place, and is both the tail and, over the whole
//! store, [`linear::LinearExecutor`], the brute-force reference the
//! tests and benchmarks compare against; the combinators it shares with
//! the planner (`Categorical`, `Or`, the hybrid-pair split, the general
//! conjunction) are written once in [`plan`].

pub mod engine;
pub mod linear;
pub mod localize;
pub mod plan;
pub mod sharded;
pub mod types;

pub use engine::{EngineConfig, QueryEngine};
pub use linear::LinearExecutor;
pub use localize::{localize, LocalizationEstimate};
pub use plan::{LeafTrace, Trace};
pub use sharded::{ShardedEngine, DEFAULT_SEAL_CAP, FOLD};
pub use types::{
    Query, QueryError, QueryResult, SpatialQuery, TemporalField, TextualMode, VisualMode,
};
