//! Platform-level errors.

use std::path::PathBuf;

use tvdp_query::QueryError;
use tvdp_storage::{ClassificationId, DurableError, ImageId, ModelId, StorageError, UserId};
use tvdp_vision::FeatureKind;

/// What fixes the width a [`PlatformError::FeatureWidth`] feature
/// must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthSetBy {
    /// A model's declared `input_dim`, or the first feature of a
    /// training set.
    Model,
    /// The rows of the family the store already holds.
    Store,
}

/// Errors surfaced by platform operations.
#[derive(Debug)]
pub enum PlatformError {
    /// Underlying storage failure (bad foreign keys etc.).
    Storage(StorageError),
    /// The user is not registered.
    UnknownUser(UserId),
    /// The model is not registered.
    UnknownModel(ModelId),
    /// The classification scheme is not registered.
    UnknownScheme(ClassificationId),
    /// The image is not stored.
    UnknownImage(ImageId),
    /// Training requires labelled data that is not there.
    NotEnoughTrainingData {
        /// The scheme lacking annotations.
        scheme: ClassificationId,
        /// Annotated samples found.
        found: usize,
        /// Minimum required.
        needed: usize,
    },
    /// The image lacks the stored feature a model needs.
    MissingFeature(ImageId, FeatureKind),
    /// A feature is not as wide as what it must match: a model's
    /// declared input (a model uploaded for another extractor
    /// configuration), or the rows of its family the store already
    /// holds (a store written under another extractor configuration).
    FeatureWidth {
        /// The image whose feature was read, or the id an upload would
        /// have been stored under.
        image: ImageId,
        /// The feature family.
        kind: FeatureKind,
        /// The width it must match.
        expected: usize,
        /// The feature's width.
        found: usize,
        /// What fixed `expected`.
        set_by: WidthSetBy,
    },
    /// No pixels stored for an image that needs processing.
    MissingPixels(ImageId),
    /// A query was malformed (e.g. a visual example whose dimension
    /// does not match the stored feature kind).
    Query(QueryError),
    /// Journaling or recovery failure in the durable persistence layer.
    Durable(DurableError),
    /// A durability-only operation was invoked on an in-memory platform.
    NotDurable,
    /// The directory given to `Tvdp::open` holds this `shard-<i>/`
    /// subdirectory: geo-sharded builds laid a multi-shard platform
    /// out that way, one store per shard. Nothing was touched.
    ShardedLayout(PathBuf),
    /// The admission controller shed the request: accepting it would
    /// push its class's modeled queueing delay past the configured
    /// bound. Cheap to retry — the payload says when.
    Overloaded {
        /// Virtual-clock milliseconds after which a retry would have
        /// been admitted against the backlog seen at shed time.
        retry_after_ms: i64,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Storage(e) => write!(f, "storage: {e}"),
            PlatformError::UnknownUser(id) => write!(f, "unknown user {id}"),
            PlatformError::UnknownModel(id) => write!(f, "unknown model {id}"),
            PlatformError::UnknownScheme(id) => write!(f, "unknown scheme {id}"),
            PlatformError::UnknownImage(id) => write!(f, "unknown image {id}"),
            PlatformError::NotEnoughTrainingData {
                scheme,
                found,
                needed,
            } => write!(
                f,
                "scheme {scheme}: {found} annotated samples, need at least {needed}"
            ),
            PlatformError::MissingFeature(id, kind) => {
                write!(f, "image {id} lacks a stored {kind:?} feature")
            }
            PlatformError::FeatureWidth {
                image,
                kind,
                expected,
                found,
                set_by: WidthSetBy::Model,
            } => write!(
                f,
                "model expects {expected}-dim {kind:?} features but image {image} holds a \
                 {found}-dim one (different extractor configuration?)"
            ),
            PlatformError::FeatureWidth {
                image,
                kind,
                expected,
                found,
                set_by: WidthSetBy::Store,
            } => write!(
                f,
                "image {image} has a {found}-dim {kind:?} feature but the store holds \
                 {expected}-dim {kind:?} rows (written under another extractor \
                 configuration?); nothing was stored"
            ),
            PlatformError::MissingPixels(id) => write!(f, "image {id} has no stored pixels"),
            PlatformError::Query(e) => write!(f, "query: {e}"),
            PlatformError::Durable(e) => write!(f, "durability: {e}"),
            PlatformError::NotDurable => {
                write!(
                    f,
                    "platform is in-memory; open it with Tvdp::open for durability"
                )
            }
            PlatformError::ShardedLayout(shard) => write!(
                f,
                "{} is one shard of a geo-sharded platform directory, a layout this build does \
                 not open (one store per directory); the directory is left as found. Commit \
                 f830219 is the last build that opens it",
                shard.display()
            ),
            PlatformError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: shed, retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<StorageError> for PlatformError {
    fn from(e: StorageError) -> Self {
        PlatformError::Storage(e)
    }
}

impl From<QueryError> for PlatformError {
    fn from(e: QueryError) -> Self {
        PlatformError::Query(e)
    }
}

impl From<DurableError> for PlatformError {
    fn from(e: DurableError) -> Self {
        // A storage rejection surfaced through the journal is still a
        // storage rejection; keep the established variant so callers
        // match one shape whether the platform is durable or not.
        match e {
            DurableError::Storage(inner) => PlatformError::Storage(inner),
            other => PlatformError::Durable(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PlatformError::NotEnoughTrainingData {
            scheme: ClassificationId(1),
            found: 3,
            needed: 10,
        };
        let s = e.to_string();
        assert!(s.contains("3") && s.contains("10"));
        let e2: PlatformError = StorageError::UnknownImage(ImageId(5)).into();
        assert!(e2.to_string().contains("img-5"));
    }
}
