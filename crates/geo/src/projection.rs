//! Local planar projection for exact small-scale geometry.
//!
//! FOV-vs-rectangle intersection tests need segment/segment intersection
//! predicates, which are much simpler in a plane. [`LocalProjection`]
//! projects lat/lon into metres on a tangent plane anchored at a reference
//! point (equirectangular), which is effectively exact at the sub-kilometre
//! scales of a single camera view.

use crate::point::GeoPoint;
use crate::METERS_PER_DEG_LAT;

/// A 2-D point in local metres: `x` east, `y` north of the anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XY {
    /// Metres east of the anchor.
    pub x: f64,
    /// Metres north of the anchor.
    pub y: f64,
}

/// Equirectangular projection anchored at a reference point.
#[derive(Debug, Clone, Copy)]
pub struct LocalProjection {
    anchor: GeoPoint,
    meters_per_deg_lon: f64,
}

impl LocalProjection {
    /// Creates a projection anchored at `anchor`.
    pub fn new(anchor: GeoPoint) -> Self {
        Self {
            anchor,
            meters_per_deg_lon: METERS_PER_DEG_LAT * anchor.lat.to_radians().cos(),
        }
    }

    /// Projects a geographic point into local metres.
    pub fn to_xy(&self, p: &GeoPoint) -> XY {
        XY {
            x: (p.lon - self.anchor.lon) * self.meters_per_deg_lon,
            y: (p.lat - self.anchor.lat) * METERS_PER_DEG_LAT,
        }
    }

    /// Inverse projection.
    #[cfg(test)]
    fn to_geo(self, p: &XY) -> GeoPoint {
        GeoPoint::new(
            self.anchor.lat + p.y / METERS_PER_DEG_LAT,
            self.anchor.lon + p.x / self.meters_per_deg_lon,
        )
    }
}

/// Whether segments `a1-a2` and `b1-b2` intersect (including endpoints and
/// collinear overlap).
pub fn segments_intersect(a1: XY, a2: XY, b1: XY, b2: XY) -> bool {
    fn orient(p: XY, q: XY, r: XY) -> f64 {
        (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    }
    fn on_segment(p: XY, q: XY, r: XY) -> bool {
        q.x >= p.x.min(r.x) && q.x <= p.x.max(r.x) && q.y >= p.y.min(r.y) && q.y <= p.y.max(r.y)
    }
    let d1 = orient(b1, b2, a1);
    let d2 = orient(b1, b2, a2);
    let d3 = orient(a1, a2, b1);
    let d4 = orient(a1, a2, b2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(b1, a1, b2))
        || (d2 == 0.0 && on_segment(b1, a2, b2))
        || (d3 == 0.0 && on_segment(a1, b1, a2))
        || (d4 == 0.0 && on_segment(a1, b2, a2))
}

/// Whether `p` is inside the simple polygon `poly` (ray casting; boundary
/// points may return either value, which is acceptable for coverage tests).
pub fn point_in_polygon(p: XY, poly: &[XY]) -> bool {
    let mut inside = false;
    let n = poly.len();
    let mut j = n - 1;
    for i in 0..n {
        let (pi, pj) = (poly[i], poly[j]);
        if ((pi.y > p.y) != (pj.y > p.y))
            && (p.x < (pj.x - pi.x) * (p.y - pi.y) / (pj.y - pi.y) + pi.x)
        {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    impl XY {
        /// Euclidean distance to another local point.
        fn dist(&self, other: &XY) -> f64 {
            ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
        }
    }

    #[test]
    fn round_trip_projection() {
        let proj = LocalProjection::new(GeoPoint::new(34.05, -118.25));
        let p = GeoPoint::new(34.0612, -118.2391);
        let xy = proj.to_xy(&p);
        let back = proj.to_geo(&xy);
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn projection_preserves_distance() {
        let a = GeoPoint::new(34.05, -118.25);
        let b = GeoPoint::new(34.06, -118.24);
        let proj = LocalProjection::new(a);
        let planar = proj.to_xy(&a).dist(&proj.to_xy(&b));
        let sphere = a.haversine_m(&b);
        assert!(
            (planar - sphere).abs() / sphere < 0.002,
            "{planar} vs {sphere}"
        );
    }

    #[test]
    fn segment_intersection_cases() {
        let o = XY { x: 0.0, y: 0.0 };
        let e = XY { x: 10.0, y: 0.0 };
        let n = XY { x: 5.0, y: 5.0 };
        let s = XY { x: 5.0, y: -5.0 };
        assert!(segments_intersect(o, e, n, s)); // crossing
        assert!(segments_intersect(o, e, e, n)); // shared endpoint
        let far1 = XY { x: 0.0, y: 10.0 };
        let far2 = XY { x: 10.0, y: 10.0 };
        assert!(!segments_intersect(o, e, far1, far2)); // parallel, apart
        let mid = XY { x: 3.0, y: 0.0 };
        let mid2 = XY { x: 7.0, y: 0.0 };
        assert!(segments_intersect(o, e, mid, mid2)); // collinear overlap
    }

    #[test]
    fn point_in_polygon_triangle() {
        let tri = vec![
            XY { x: 0.0, y: 0.0 },
            XY { x: 10.0, y: 0.0 },
            XY { x: 5.0, y: 10.0 },
        ];
        assert!(point_in_polygon(XY { x: 5.0, y: 3.0 }, &tri));
        assert!(!point_in_polygon(XY { x: 9.0, y: 9.0 }, &tri));
        assert!(!point_in_polygon(XY { x: -1.0, y: 0.5 }, &tri));
    }
}
