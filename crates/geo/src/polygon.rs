//! Simple geographic polygons (city districts, council zones,
//! disaster perimeters).
//!
//! Rectangles rarely match administrative reality; spatial queries accept
//! arbitrary simple polygons. Geometry runs on the local planar
//! projection, exact at city scale.

use crate::bbox::BBox;
use crate::point::GeoPoint;
use crate::projection::{point_in_polygon, segments_intersect, LocalProjection, XY};

/// A simple (non-self-intersecting) polygon over geographic points.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoPolygon {
    vertices: Vec<GeoPoint>,
}

impl GeoPolygon {
    /// Creates a polygon from at least three vertices (either winding).
    ///
    /// # Panics
    ///
    /// Panics with fewer than three vertices.
    pub fn new(vertices: Vec<GeoPoint>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        Self { vertices }
    }

    /// The vertices, in input order.
    pub fn vertices(&self) -> &[GeoPoint] {
        &self.vertices
    }

    /// Axis-aligned bounding box (cheap pre-filter for indexes).
    pub fn bbox(&self) -> BBox {
        // tvdp-lint: allow(no_panic, reason = "GeoPolygon::new asserts at least three vertices")
        BBox::from_points(&self.vertices).expect("non-empty vertex set")
    }

    fn projected(&self) -> (LocalProjection, Vec<XY>) {
        let proj = LocalProjection::new(self.vertices[0]);
        let poly = self.vertices.iter().map(|v| proj.to_xy(v)).collect();
        (proj, poly)
    }

    /// Whether `p` lies inside the polygon (boundary points may resolve
    /// either way, as with any ray-cast test).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        if !self.bbox().contains(p) {
            return false;
        }
        let (proj, poly) = self.projected();
        point_in_polygon(proj.to_xy(p), &poly)
    }

    /// Whether the polygon and the rectangle share any area.
    pub fn intersects_bbox(&self, rect: &BBox) -> bool {
        if !self.bbox().intersects(rect) {
            return false;
        }
        let (proj, poly) = self.projected();
        let corners: Vec<XY> = rect.corners().iter().map(|c| proj.to_xy(c)).collect();
        // Any polygon vertex inside the rectangle?
        let (min_x, max_x) = (
            corners.iter().map(|p| p.x).fold(f64::INFINITY, f64::min),
            corners
                .iter()
                .map(|p| p.x)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        let (min_y, max_y) = (
            corners.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
            corners
                .iter()
                .map(|p| p.y)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        if poly
            .iter()
            .any(|p| p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y)
        {
            return true;
        }
        // Any rectangle corner inside the polygon?
        if corners.iter().any(|c| point_in_polygon(*c, &poly)) {
            return true;
        }
        // Any edge crossing?
        for i in 0..poly.len() {
            let a1 = poly[i];
            let a2 = poly[(i + 1) % poly.len()];
            for j in 0..4 {
                if segments_intersect(a1, a2, corners[j], corners[(j + 1) % 4]) {
                    return true;
                }
            }
        }
        false
    }

    /// Physical area in m² (shoelace formula on the local plane).
    pub fn area_m2(&self) -> f64 {
        let (_, poly) = self.projected();
        let mut acc = 0.0;
        for i in 0..poly.len() {
            let a = poly[i];
            let b = poly[(i + 1) % poly.len()];
            // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
            acc += a.x * b.y - b.x * a.y;
        }
        (acc / 2.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A right triangle: 1 km east leg, 1 km north leg.
    fn triangle() -> GeoPolygon {
        let a = GeoPoint::new(34.0, -118.3);
        let b = a.destination(90.0, 1000.0);
        let c = a.destination(0.0, 1000.0);
        GeoPolygon::new(vec![a, b, c])
    }

    #[test]
    fn contains_interior_not_exterior() {
        let t = triangle();
        let a = t.vertices()[0];
        let inside = a.destination(45.0, 300.0);
        let outside = a.destination(45.0, 1200.0);
        let behind = a.destination(225.0, 100.0);
        assert!(t.contains(&inside));
        assert!(!t.contains(&outside));
        assert!(!t.contains(&behind));
    }

    #[test]
    fn area_of_right_triangle() {
        let t = triangle();
        // 1 km x 1 km / 2 = 500_000 m^2.
        let area = t.area_m2();
        assert!((area - 500_000.0).abs() < 5_000.0, "area {area}");
    }

    #[test]
    fn bbox_covers_vertices() {
        let t = triangle();
        let b = t.bbox();
        for v in t.vertices() {
            assert!(b.contains(v));
        }
    }

    #[test]
    fn intersects_bbox_cases() {
        let t = triangle();
        let a = t.vertices()[0];
        // Rect fully inside the triangle.
        let c = a.destination(45.0, 250.0);
        let small = BBox::new(c.lat - 1e-4, c.lon - 1e-4, c.lat + 1e-4, c.lon + 1e-4);
        assert!(t.intersects_bbox(&small));
        // Rect containing the whole triangle.
        let big = BBox::new(33.9, -118.4, 34.1, -118.2);
        assert!(t.intersects_bbox(&big));
        // Rect crossing one edge.
        let edge_pt = a.destination(90.0, 500.0);
        let crossing = BBox::new(
            edge_pt.lat - 1e-4,
            edge_pt.lon - 1e-4,
            edge_pt.lat + 1e-4,
            edge_pt.lon + 1e-4,
        );
        assert!(t.intersects_bbox(&crossing));
        // Far rect.
        let far_pt = a.destination(270.0, 5_000.0);
        let far = BBox::new(
            far_pt.lat - 1e-4,
            far_pt.lon - 1e-4,
            far_pt.lat + 1e-4,
            far_pt.lon + 1e-4,
        );
        assert!(!t.intersects_bbox(&far));
        // Near but outside the hypotenuse: a rect just past the diagonal.
        let diag_out = a.destination(45.0, 1100.0);
        let out = BBox::new(
            diag_out.lat - 1e-5,
            diag_out.lon - 1e-5,
            diag_out.lat + 1e-5,
            diag_out.lon + 1e-5,
        );
        assert!(!t.intersects_bbox(&out));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn two_vertices_rejected() {
        let _ = GeoPolygon::new(vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)]);
    }
}
