//! Axis-aligned geographic bounding boxes.

use crate::error::GeoError;
use crate::point::GeoPoint;

/// An axis-aligned lat/lon rectangle.
///
/// This is the representation used for the scene-location descriptor (the
/// minimum bounding box of the region depicted in an image) and for spatial
/// range queries. Boxes never wrap the antimeridian; TVDP deployments are
/// city-scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Southern edge, degrees.
    pub min_lat: f64,
    /// Western edge, degrees.
    pub min_lon: f64,
    /// Northern edge, degrees.
    pub max_lat: f64,
    /// Eastern edge, degrees.
    pub max_lon: f64,
}

impl BBox {
    /// Creates a box from edges.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` on either axis or any edge is non-finite.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Self {
        assert!(
            min_lat.is_finite()
                && min_lon.is_finite()
                && max_lat.is_finite()
                && max_lon.is_finite(),
            "non-finite bbox edge"
        );
        assert!(min_lat <= max_lat, "min_lat {min_lat} > max_lat {max_lat}");
        assert!(min_lon <= max_lon, "min_lon {min_lon} > max_lon {max_lon}");
        Self {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        }
    }

    /// Checks the invariants documented on [`BBox`]: finite edges,
    /// `min <= max` per axis, latitudes within ±90°, longitudes within
    /// ±180° (no antimeridian wrap).
    ///
    /// `BBox` has public fields, and the wire decoders fill them directly;
    /// both bypass [`BBox::new`], so any box that crosses a trust boundary
    /// must be re-validated with this before it reaches an index.
    pub fn validate(&self) -> Result<(), GeoError> {
        if !(self.min_lat.is_finite()
            && self.min_lon.is_finite()
            && self.max_lat.is_finite()
            && self.max_lon.is_finite())
        {
            return Err(GeoError::NonFinite);
        }
        if self.min_lat > self.max_lat || self.min_lat < -90.0 || self.max_lat > 90.0 {
            return Err(GeoError::LatitudeRange {
                min_lat: self.min_lat,
                max_lat: self.max_lat,
            });
        }
        if self.min_lon > self.max_lon || self.min_lon < -180.0 || self.max_lon > 180.0 {
            return Err(GeoError::AntimeridianSpan {
                min_lon: self.min_lon,
                max_lon: self.max_lon,
            });
        }
        Ok(())
    }

    /// The degenerate box covering a single point.
    pub fn from_point(p: GeoPoint) -> Self {
        Self::new(p.lat, p.lon, p.lat, p.lon)
    }

    /// The smallest box covering all `points`. Returns `None` on empty input.
    pub fn from_points(points: &[GeoPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut b = Self::from_point(*first);
        for p in &points[1..] {
            b.expand_to(*p);
        }
        Some(b)
    }

    /// Centre of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_bbox(&self, other: &BBox) -> bool {
        other.min_lat >= self.min_lat
            && other.max_lat <= self.max_lat
            && other.min_lon >= self.min_lon
            && other.max_lon <= self.max_lon
    }

    /// Whether the boxes share any point (boundary touch counts).
    pub fn intersects(&self, other: &BBox) -> bool {
        self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
            && self.min_lon <= other.max_lon
            && self.max_lon >= other.min_lon
    }

    /// The intersection box, or `None` when disjoint.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        if !self.intersects(other) {
            return None;
        }
        Some(BBox::new(
            self.min_lat.max(other.min_lat),
            self.min_lon.max(other.min_lon),
            self.max_lat.min(other.max_lat),
            self.max_lon.min(other.max_lon),
        ))
    }

    /// The smallest box covering both.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox::new(
            self.min_lat.min(other.min_lat),
            self.min_lon.min(other.min_lon),
            self.max_lat.max(other.max_lat),
            self.max_lon.max(other.max_lon),
        )
    }

    /// Grows the box in place so it covers `p`.
    pub fn expand_to(&mut self, p: GeoPoint) {
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
        self.min_lon = self.min_lon.min(p.lon);
        self.max_lon = self.max_lon.max(p.lon);
    }

    /// Area in squared degrees — only meaningful for *comparing* boxes
    /// (e.g. R*-tree split heuristics), not as a physical area.
    pub fn area_deg2(&self) -> f64 {
        (self.max_lat - self.min_lat) * (self.max_lon - self.min_lon)
    }

    /// Approximate physical area in square metres.
    pub fn area_m2(&self) -> f64 {
        let mean_lat = ((self.min_lat + self.max_lat) / 2.0).to_radians();
        let h = (self.max_lat - self.min_lat) * crate::METERS_PER_DEG_LAT;
        let w = (self.max_lon - self.min_lon) * crate::METERS_PER_DEG_LAT * mean_lat.cos();
        h * w
    }

    /// Minimum distance in metres from `p` to the box (0 when inside).
    pub fn min_distance_m(&self, p: &GeoPoint) -> f64 {
        let clamped = GeoPoint::new(
            p.lat.clamp(self.min_lat, self.max_lat),
            p.lon.clamp(self.min_lon, self.max_lon),
        );
        p.fast_distance_m(&clamped)
    }

    /// The four corners, counter-clockwise starting at (min_lat, min_lon).
    pub fn corners(&self) -> [GeoPoint; 4] {
        [
            GeoPoint::new(self.min_lat, self.min_lon),
            GeoPoint::new(self.min_lat, self.max_lon),
            GeoPoint::new(self.max_lat, self.max_lon),
            GeoPoint::new(self.max_lat, self.min_lon),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BBox {
        /// A box from raw edges, as a decoder fills one, then validated.
        fn try_new(
            min_lat: f64,
            min_lon: f64,
            max_lat: f64,
            max_lon: f64,
        ) -> Result<Self, GeoError> {
            let b = Self {
                min_lat,
                min_lon,
                max_lat,
                max_lon,
            };
            b.validate()?;
            Ok(b)
        }
    }

    fn unit() -> BBox {
        BBox::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn contains_boundary_and_interior() {
        let b = unit();
        assert!(b.contains(&GeoPoint::new(0.5, 0.5)));
        assert!(b.contains(&GeoPoint::new(0.0, 0.0)));
        assert!(b.contains(&GeoPoint::new(1.0, 1.0)));
        assert!(!b.contains(&GeoPoint::new(1.0001, 0.5)));
    }

    #[test]
    fn intersects_and_intersection() {
        let a = unit();
        let b = BBox::new(0.5, 0.5, 1.5, 1.5);
        let c = BBox::new(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, BBox::new(0.5, 0.5, 1.0, 1.0));
        assert!(a.intersection(&c).is_none());
        // Touching edges intersect.
        let d = BBox::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn union_covers_both() {
        let a = unit();
        let b = BBox::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_bbox(&a));
        assert!(u.contains_bbox(&b));
        assert_eq!(u, BBox::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn from_points_builds_mbr() {
        let pts = vec![
            GeoPoint::new(1.0, 5.0),
            GeoPoint::new(-2.0, 7.0),
            GeoPoint::new(0.5, 4.0),
        ];
        let b = BBox::from_points(&pts).unwrap();
        assert_eq!(b, BBox::new(-2.0, 4.0, 1.0, 7.0));
        assert!(BBox::from_points(&[]).is_none());
    }

    #[test]
    fn min_distance_zero_inside() {
        let b = unit();
        assert_eq!(b.min_distance_m(&GeoPoint::new(0.5, 0.5)), 0.0);
        assert!(b.min_distance_m(&GeoPoint::new(2.0, 0.5)) > 100_000.0);
    }

    #[test]
    fn area_comparisons() {
        let small = BBox::new(0.0, 0.0, 1.0, 1.0);
        let big = BBox::new(0.0, 0.0, 2.0, 2.0);
        assert!(big.area_deg2() > small.area_deg2());
        assert!(small.area_m2() > 0.0);
    }

    #[test]
    #[should_panic(expected = "min_lat")]
    fn inverted_box_panics() {
        let _ = BBox::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn corner_boxes_at_world_edges_validate() {
        // The full ±180/±90 extremes are legal as long as nothing wraps.
        for b in [
            BBox::try_new(-90.0, -180.0, 90.0, 180.0).unwrap(),
            BBox::try_new(89.0, 179.0, 90.0, 180.0).unwrap(),
            BBox::try_new(-90.0, -180.0, -89.0, -179.0).unwrap(),
            BBox::try_new(0.0, 180.0, 0.0, 180.0).unwrap(),
        ] {
            assert!(b.validate().is_ok());
        }
    }

    #[test]
    fn antimeridian_wrap_is_rejected() {
        // Wrapped encoding: min_lon > max_lon. Built via struct literal to
        // model a deserialized query that bypassed the constructor.
        let wrapped = BBox {
            min_lat: -1.0,
            min_lon: 170.0,
            max_lat: 1.0,
            max_lon: -170.0,
        };
        assert_eq!(
            wrapped.validate(),
            Err(GeoError::AntimeridianSpan {
                min_lon: 170.0,
                max_lon: -170.0,
            })
        );
        // Unwrapped encoding: an edge beyond ±180°.
        assert!(matches!(
            BBox::try_new(-1.0, 170.0, 1.0, 190.0),
            Err(GeoError::AntimeridianSpan { .. })
        ));
        assert!(matches!(
            BBox::try_new(-1.0, -190.0, 1.0, -170.0),
            Err(GeoError::AntimeridianSpan { .. })
        ));
    }

    #[test]
    fn latitude_overflow_and_non_finite_are_rejected() {
        assert!(matches!(
            BBox::try_new(-91.0, 0.0, 0.0, 1.0),
            Err(GeoError::LatitudeRange { .. })
        ));
        assert!(matches!(
            BBox::try_new(0.0, 0.0, 90.5, 1.0),
            Err(GeoError::LatitudeRange { .. })
        ));
        let inverted_lat = BBox {
            min_lat: 1.0,
            min_lon: 0.0,
            max_lat: 0.0,
            max_lon: 1.0,
        };
        assert!(matches!(
            inverted_lat.validate(),
            Err(GeoError::LatitudeRange { .. })
        ));
        assert_eq!(
            BBox::try_new(f64::NAN, 0.0, 1.0, 1.0),
            Err(GeoError::NonFinite)
        );
    }
}
