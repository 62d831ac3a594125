//! The Translational Visual Data Platform core.
//!
//! [`Tvdp`] is the platform the paper's Fig. 1 describes: its core
//! services over shared storage, each owning its state in one module:
//!
//! * **Acquisition** ([`acquisition`]) — uploads (one pipeline,
//!   [`Tvdp::ingest_uploads`]; [`Tvdp::ingest`] is a batch of one),
//!   augmentation with lineage ([`Tvdp::augment`]), and
//!   spatial-crowdsourcing campaigns ([`Tvdp::acquire_via_campaign`]),
//! * **Access** ([`access`]) — the full query language ([`Tvdp::search`])
//!   served by the indexing substrate,
//! * **Analysis** ([`analysis`]) — training classifiers over stored
//!   features and labels ([`Tvdp::train_model`]), applying them to write
//!   machine annotations back into the store ([`Tvdp::apply_model`]),
//! * **Action** — capability-aware model dispatch to edge devices, which
//!   keeps no platform state: the API's `edge/dispatch` route calls
//!   `tvdp-edge`'s dispatcher.
//!
//! [`platform`] composes them over the one store and journal.
//!
//! The write-back of machine annotations is what makes the platform
//! *translational*: knowledge produced by one application (street
//! cleanliness) becomes queryable data for the next (homeless counting,
//! graffiti studies) — see [`translational`].

pub mod access;
pub mod acquisition;
pub mod admission;
pub mod analysis;
pub mod error;
pub mod models;
pub mod platform;
pub mod translational;
pub mod users;
pub mod video;

pub use acquisition::Upload;
pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, AdmissionTicket, ClassStats, RequestClass,
};
pub use error::{PlatformError, WidthSetBy};
pub use models::{ModelEntry, ModelInterface, ModelRegistry};
pub use platform::{IngestRequest, PlatformConfig, Tvdp};
pub use translational::{count_by_cell, hotspots, CellCount};
pub use users::{Role, User, UserRegistry};
pub use video::{select_keyframes, KeyframePolicy, VideoFrame, VideoIngestReport};
