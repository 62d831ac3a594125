//! Data-management substrate for the Translational Visual Data Platform.
//!
//! Implements the comprehensive data model of the paper's Fig. 2:
//!
//! * `Images` — one compact row per image, read in place as an
//!   [`ImageRow`] (an owned [`ImageRecord`] on request): GPS location,
//!   capture/upload timestamps, uploader, original-vs-augmented lineage,
//! * `Image_FOV` / `Image_Scene_Location` — spatial descriptors attached
//!   to each image,
//! * `Image_Visual_Features` — per-image feature vectors keyed by feature
//!   family,
//! * `Image_Content_Classification` / `..._Types` /
//!   `..._Annotation` — classification schemes (e.g. *street
//!   cleanliness*), their label vocabularies, and per-image annotations
//!   with confidence and human/machine provenance,
//! * `Image_Manual_Keywords` — textual descriptors, each distinct
//!   string held once by the store and numbered, each row a run of
//!   those numbers.
//!
//! The store ([`VisualStore`]) is concurrency-safe (readers-writer locks
//! per table) and persists as a directory of journal segments folded
//! into a base segment of the same records ([`recovery`]). Videos
//! follow the paper's convention: a video is a sequence of key frames,
//! each stored as an image carrying its own FOV.

pub mod annotation;
pub mod codec;
pub mod disk;
pub mod ids;
pub mod le;
pub mod persist;
pub mod pixels;
pub mod record;
pub mod recovery;
pub mod store;
pub mod wal;

pub use annotation::{Annotation, AnnotationSource, ClassificationScheme, RegionOfInterest};
pub use ids::{AnnotationId, ClassificationId, ImageId, ModelId, UserId};
pub use record::{ImageMeta, ImageOrigin, ImageRecord, ImageRow};
pub use recovery::{
    CompactionReport, DurableError, DurableStore, HealthState, RecoveryReport, StoreHealth,
};
pub use store::{
    FeatureHandle, Replays, Snapshot, StorageError, VisualStore, UPLOAD_MARKER_CAPACITY,
};
pub use wal::WalOp;
