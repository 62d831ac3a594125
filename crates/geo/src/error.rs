//! Typed geometry validation errors.

use std::error::Error;
use std::fmt;

/// A spatial descriptor failed validation.
///
/// TVDP geometry is deliberately antimeridian-free ([`crate::BBox`] docs):
/// deployments are city-scale, and every index structure (R*-tree MBRs,
/// coverage grids, the equirectangular projection) assumes `min <= max` on
/// both axes. `BBox` has public fields that the wire decoders fill, so a
/// wrapped rectangle can still *arrive* — e.g. a query decoded from an
/// API request spanning ±180°. Those must be rejected with this error, not
/// silently treated as a near-empty box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeoError {
    /// A latitude or longitude edge is NaN or infinite.
    NonFinite,
    /// The box spans (or crosses) the antimeridian: either
    /// `min_lon > max_lon` (the wrapped encoding) or an edge lies outside
    /// `[-180, 180]` (the unwrapped encoding). Callers must split such a
    /// query into two boxes at ±180° before submitting it.
    AntimeridianSpan {
        /// Western edge as supplied, degrees.
        min_lon: f64,
        /// Eastern edge as supplied, degrees.
        max_lon: f64,
    },
    /// The latitude edges are inverted or outside `[-90, 90]`.
    LatitudeRange {
        /// Southern edge as supplied, degrees.
        min_lat: f64,
        /// Northern edge as supplied, degrees.
        max_lat: f64,
    },
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::NonFinite => write!(f, "non-finite bbox edge"),
            GeoError::AntimeridianSpan { min_lon, max_lon } => write!(
                f,
                "bbox spans the antimeridian (min_lon {min_lon}, max_lon {max_lon}); \
                 split the query at ±180°"
            ),
            GeoError::LatitudeRange { min_lat, max_lat } => write!(
                f,
                "bbox latitude out of range (min_lat {min_lat}, max_lat {max_lat}); \
                 latitudes must satisfy -90 <= min <= max <= 90"
            ),
        }
    }
}

impl Error for GeoError {}
