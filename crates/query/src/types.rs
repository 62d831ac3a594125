//! Query and result types.
use tvdp_geo::{AngularRange, BBox, GeoPoint, GeoPolygon};
use tvdp_storage::{ClassificationId, ImageId};
use tvdp_vision::FeatureKind;

/// Spatial sub-queries.
#[derive(Debug, Clone)]
pub enum SpatialQuery {
    /// Images whose scene location intersects the box.
    Range(BBox),
    /// The `k` images whose scene location is nearest to the point.
    Nearest {
        /// Query point.
        point: GeoPoint,
        /// Result count.
        k: usize,
    },
    /// Images whose FOV actually sees the point.
    Covering(GeoPoint),
    /// Images whose scene location intersects a district polygon.
    Within(GeoPolygon),
    /// Images in a region looking along certain compass directions.
    Directed {
        /// Spatial region.
        region: BBox,
        /// Allowed viewing directions.
        directions: AngularRange,
    },
}

/// Visual similarity modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VisualMode {
    /// The `k` most similar images.
    TopK(usize),
    /// All images within a feature-distance threshold.
    Threshold(f32),
}

/// Textual retrieval modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextualMode {
    /// Every query term must match.
    All,
    /// Any query term may match.
    Any,
    /// tf-idf ranked, top `k`.
    Ranked(usize),
}

/// Which timestamp a temporal filter applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalField {
    /// Capture time.
    Captured,
    /// Upload time.
    Uploaded,
}

/// A TVDP query.
#[derive(Debug, Clone)]
pub enum Query {
    /// Spatial search.
    Spatial(SpatialQuery),
    /// Example-based visual similarity search.
    Visual {
        /// Example feature vector.
        example: Vec<f32>,
        /// Which feature family the example belongs to.
        kind: FeatureKind,
        /// Top-k or threshold.
        mode: VisualMode,
    },
    /// Annotation-label search.
    Categorical {
        /// Classification scheme.
        scheme: ClassificationId,
        /// Label index within the scheme.
        label: usize,
        /// Keep annotations at or above this confidence.
        min_confidence: f32,
    },
    /// Keyword search over manual keywords.
    Textual {
        /// Query text.
        text: String,
        /// Retrieval mode.
        mode: TextualMode,
    },
    /// Timestamp range filter (inclusive).
    Temporal {
        /// Which timestamp.
        field: TemporalField,
        /// Range start, Unix seconds.
        from: i64,
        /// Range end, Unix seconds.
        to: i64,
    },
    /// Conjunction: images satisfying every sub-query (hybrid queries such
    /// as spatial-visual and spatial-textual).
    And(Vec<Query>),
    /// Disjunction: images satisfying any sub-query; each image keeps its
    /// best (lowest) score among the branches that matched it.
    Or(Vec<Query>),
}

impl Query {
    /// Validates the tree against what an executor indexes, without
    /// executing anything — the one set of checks every engine entry
    /// point runs first. `indexed_kind` is the feature family the visual
    /// indexes cover and `indexed_dim` the length of its rows (`None`
    /// while no visual row exists: nothing can be compared, so any
    /// example length is accepted and matches nothing). A visual
    /// example must be finite and a threshold a number: a distance to a
    /// NaN or an infinity ranks nothing, and no bound holds for it.
    pub fn validate(
        &self,
        indexed_kind: FeatureKind,
        indexed_dim: Option<usize>,
    ) -> Result<(), QueryError> {
        match self {
            Query::Visual { kind, .. } if *kind != indexed_kind => Err(QueryError::KindMismatch {
                indexed: indexed_kind,
                queried: *kind,
            }),
            Query::Visual { example, mode, .. } => match indexed_dim {
                Some(indexed) if indexed != example.len() => Err(QueryError::DimMismatch {
                    indexed,
                    queried: example.len(),
                }),
                _ => match example.iter().position(|x| !x.is_finite()) {
                    Some(index) => Err(QueryError::NonFiniteExample { index }),
                    None if matches!(mode, VisualMode::Threshold(t) if t.is_nan()) => {
                        Err(QueryError::NanThreshold)
                    }
                    None => Ok(()),
                },
            },
            Query::Spatial(SpatialQuery::Range(region))
            | Query::Spatial(SpatialQuery::Directed { region, .. }) => {
                region.validate().map_err(QueryError::Geo)
            }
            Query::And(subs) | Query::Or(subs) => subs
                .iter()
                .try_for_each(|q| q.validate(indexed_kind, indexed_dim)),
            _ => Ok(()),
        }
    }
}

/// Errors a query can be rejected with before execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// A visual leaf asked for a feature family the engine does not
    /// index: the engine builds its visual indexes over exactly one
    /// [`FeatureKind`] (see `EngineConfig::visual_kind`), and silently
    /// answering from a different family would return wrong distances.
    KindMismatch {
        /// The feature family the engine's visual indexes cover.
        indexed: FeatureKind,
        /// The feature family the query asked for.
        queried: FeatureKind,
    },
    /// A visual leaf's example has a different length from the indexed
    /// family's feature rows. A distance between vectors of different
    /// lengths is undefined: the indexes assert on it and the scan
    /// kernel would score the common prefix.
    DimMismatch {
        /// The length of the indexed feature rows.
        indexed: usize,
        /// The length of the query's example.
        queried: usize,
    },
    /// A visual leaf's example holds a NaN or an infinity at `index`.
    NonFiniteExample {
        /// The first non-finite element.
        index: usize,
    },
    /// A visual threshold is NaN, which no distance is within.
    NanThreshold,
    /// A spatial leaf carried a malformed region — most importantly a
    /// rectangle wrapping the antimeridian, which the planner would
    /// otherwise treat as a near-empty box and silently drop matches
    /// (see [`tvdp_geo::GeoError::AntimeridianSpan`]).
    Geo(tvdp_geo::GeoError),
    /// The query's virtual-clock deadline passed before execution
    /// finished. The engine checks at scatter/gather and segment-scan
    /// boundaries and aborts instead of burning pool time on an answer
    /// nobody is waiting for; the caller sees how far past the deadline
    /// the modeled clock had run.
    DeadlineExceeded {
        /// The deadline the request carried (virtual-clock ms).
        deadline_ms: i64,
        /// The modeled clock when the engine gave up (virtual-clock ms).
        now_ms: i64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::KindMismatch { indexed, queried } => write!(
                f,
                "visual kind mismatch: engine indexes {indexed:?}, query uses {queried:?}"
            ),
            QueryError::DimMismatch { indexed, queried } => write!(
                f,
                "visual dimension mismatch: indexed features have {indexed} dimensions, query example has {queried}"
            ),
            QueryError::NonFiniteExample { index } => write!(
                f,
                "visual example element {index} is not a finite number"
            ),
            QueryError::NanThreshold => write!(f, "visual threshold is NaN"),
            QueryError::Geo(e) => write!(f, "invalid spatial region: {e}"),
            QueryError::DeadlineExceeded {
                deadline_ms,
                now_ms,
            } => write!(
                f,
                "deadline exceeded: virtual clock at {now_ms} ms passed the {deadline_ms} ms deadline"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<tvdp_geo::GeoError> for QueryError {
    fn from(e: tvdp_geo::GeoError) -> Self {
        QueryError::Geo(e)
    }
}

/// A scored result row. Score semantics depend on the query: feature
/// distance for visual queries (lower = better), metres for nearest
/// queries, tf-idf score for ranked text (higher = better), `0.0` for
/// pure filters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Matching image.
    pub image: ImageId,
    /// Query-dependent score.
    pub score: f64,
}

impl QueryResult {
    /// Convenience constructor.
    pub fn new(image: ImageId, score: f64) -> Self {
        Self { image, score }
    }
}

/// The one total order of scored rows — ascending score, then ascending
/// image id — that every executor reports in (the linear scan, each
/// segment, and the planner's gather). Applied to *reported* scores: rows
/// ranked on a finer internal key (squared distance) are re-ordered by
/// it once the reported score is computed.
pub(crate) fn sort_ranked(results: &mut [QueryResult]) {
    results.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.image.cmp(&b.image)));
}
