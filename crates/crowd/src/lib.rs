//! Spatial crowdsourcing substrate for the Translational Visual Data
//! Platform.
//!
//! The paper's acquisition layer (Section III) collects data *proactively*:
//! a participant creates a campaign asking for certain visual data at
//! specific locations, workers are assigned to nearby photo tasks
//! (GeoCrowd, paper ref \[12\]), and the adequacy of what came back is
//! judged with the direction-aware coverage model of ref \[17\] — feeding
//! the next, narrower campaign round until coverage suffices.
//!
//! * [`task`] / [`worker`] — photo tasks with required viewing directions
//!   and capacity-constrained workers,
//! * [`assign`] — greedy nearest-worker assignment and maximum bipartite
//!   matching (augmenting paths), the two strategies benchmarked in the
//!   ablations,
//! * [`campaign`] — turning under-covered (cell, direction) pairs into
//!   task lists,
//! * [`simulate`] — an end-to-end iterative campaign simulator.

pub mod assign;
pub mod campaign;
pub mod simulate;
pub mod task;
pub mod worker;

pub use assign::{assign_greedy, assign_matching, Assignment};
pub use campaign::{Campaign, CampaignRound};
pub use simulate::{simulate_campaign, CampaignReport, SimulationConfig};
pub use task::{SpatialTask, TaskId};
pub use worker::{Worker, WorkerId};
