//! Edge-computing substrate for the Translational Visual Data Platform.
//!
//! Implements the paper's *Action* layer (Section VI and Fig. 4): a
//! crowd-based learning framework that
//!
//! 1. keeps a zoo of models at different complexities
//!    ([`model::ModelSpec`]: MobileNetV1/V2 and InceptionV3 analogues),
//! 2. dispatches the right model per device capability
//!    ([`dispatch::ModelDispatcher`] over [`device::DeviceProfile`]s),
//! 3. simulates on-device inference latency ([`latency`]) — the
//!    substrate behind the paper's Fig. 8 (desktop vs Raspberry Pi vs
//!    smartphone),
//! 4. improves the server model from edge-collected data under a
//!    bandwidth budget ([`learning::run_crowd_learning`]): each edge
//!    ranks its samples by prediction margin, extracts features locally,
//!    and uploads only the most informative ones — the distributed
//!    selection algorithm of the paper's ref \[34\].
//!
//! Physical devices are not available in this environment, so latency is
//! an analytical cost model (FLOPs / effective throughput + overhead,
//! with seeded jitter); see DESIGN.md for the substitution argument.
//!
//! The learning loop has one uplink, and it is resilient by construction:
//! uploads travel through a deterministic fault-injected [`transport`]
//! (drops, corruption, stalls, partitions on a virtual clock) with
//! seeded-jitter exponential backoff, per-device circuit [`breaker`]s
//! feed a fleet health view, and every sample is ingested exactly once
//! through its idempotency key. [`learning::UplinkConfig::reliable`] is
//! the fault-free link the paper's experiment runs over. Dispatch reads
//! the same link: [`dispatch::ModelDispatcher::dispatch`] takes
//! [`dispatch::LinkConditions`] and degrades to a smaller model or to
//! server-side inference when the link cannot carry the preferred one.

pub mod breaker;
pub mod device;
pub mod dispatch;
pub mod energy;
pub mod fault;
pub mod latency;
pub mod learning;
pub mod model;
pub mod transport;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, DeviceHealth, FleetHealth};
pub use device::{DeviceClass, DeviceProfile};
pub use dispatch::{
    DegradeReason, DispatchConstraints, DispatchDecision, DispatchError, LinkConditions,
    ModelDispatcher,
};
pub use energy::{energy_per_inference_j, inferences_per_charge, PowerProfile};
pub use fault::{Fault, FaultPlan, FaultRates, Partition};
pub use latency::{nominal_latency_ms, simulate_inference, LatencyStats};
pub use learning::{
    CrowdLearningConfig, CrowdLearningReport, EdgeNode, SelectionStrategy, UplinkConfig,
};
pub use model::{ModelSpec, MODEL_ZOO};
pub use transport::{
    ChannelReply, EdgeTransport, RetryPolicy, SendOutcome, SendReport, UploadPacket, VirtualClock,
};
