//! The camera field-of-view (FOV) spatial descriptor (paper Fig. 3).
//!
//! An image's FOV is the circular sector `(L, θ, α, R)`: camera location
//! `L`, compass viewing direction `θ`, viewable angle `α`, and maximum
//! visible distance `R` in metres. The FOV describes *what the image shows*
//! far more accurately than the camera point alone, and is the basis for
//! directional spatial queries, scene localization, and coverage
//! measurement.

use crate::angle::{angular_diff_deg, normalize_deg, AngularRange};
use crate::bbox::BBox;
use crate::point::GeoPoint;
use crate::projection::{point_in_polygon, segments_intersect, LocalProjection, XY};

/// Camera field of view: the spatial extent of an image.
///
/// ```
/// use tvdp_geo::{Fov, GeoPoint};
///
/// // A camera at USC looking north with a 60° lens, 100 m visibility.
/// let fov = Fov::new(GeoPoint::new(34.0224, -118.2851), 0.0, 60.0, 100.0);
/// let ahead = fov.camera.destination(0.0, 50.0);
/// let behind = fov.camera.destination(180.0, 50.0);
/// assert!(fov.contains(&ahead));
/// assert!(!fov.contains(&behind));
/// // The scene location is the MBR of everything the image shows.
/// assert!(fov.scene_location().contains(&ahead));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fov {
    /// Camera location `L` at capture time.
    pub camera: GeoPoint,
    /// Compass viewing direction `θ` in degrees, `[0, 360)`.
    pub heading_deg: f64,
    /// Viewable (aperture) angle `α` in degrees, `(0, 360]`.
    pub angle_deg: f64,
    /// Maximum visible distance `R` in metres.
    pub radius_m: f64,
}

impl Fov {
    /// Creates an FOV descriptor.
    ///
    /// # Panics
    ///
    /// Panics when `angle_deg` is outside `(0, 360]` or `radius_m` is not a
    /// positive finite number.
    pub fn new(camera: GeoPoint, heading_deg: f64, angle_deg: f64, radius_m: f64) -> Self {
        assert!(
            angle_deg > 0.0 && angle_deg <= 360.0,
            "viewable angle out of range: {angle_deg}"
        );
        assert!(
            radius_m.is_finite() && radius_m > 0.0,
            "visible distance out of range: {radius_m}"
        );
        Self {
            camera,
            heading_deg: normalize_deg(heading_deg),
            angle_deg,
            radius_m,
        }
    }

    /// Fallible constructor for untrusted input: `None` where
    /// [`Fov::new`] would panic, and for a non-finite heading.
    pub fn try_new(
        camera: GeoPoint,
        heading_deg: f64,
        angle_deg: f64,
        radius_m: f64,
    ) -> Option<Self> {
        let valid = heading_deg.is_finite()
            && angle_deg > 0.0
            && angle_deg <= 360.0
            && radius_m.is_finite()
            && radius_m > 0.0;
        valid.then(|| Self::new(camera, heading_deg, angle_deg, radius_m))
    }

    /// The arc of compass directions this FOV looks toward.
    pub fn direction_range(&self) -> AngularRange {
        AngularRange::centered(self.heading_deg, self.angle_deg)
    }

    /// Whether the geographic point `p` is visible in this FOV.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let d = self.camera.fast_distance_m(p);
        if d > self.radius_m {
            return false;
        }
        if d < 1e-9 || self.angle_deg >= 360.0 {
            return true;
        }
        let bearing = self.camera.bearing_deg(p);
        angular_diff_deg(bearing, self.heading_deg) <= self.angle_deg / 2.0
    }

    /// The scene-location descriptor: the minimum bounding box of the
    /// geographic region depicted by the image (the circular sector).
    pub fn scene_location(&self) -> BBox {
        // Every point below is on the arc, `radius_m` from the camera.
        let arc = self.camera.destinations(self.radius_m);
        let mut mbr = BBox::from_point(self.camera);
        let half = self.angle_deg / 2.0;
        // Sector arc endpoints.
        mbr.expand_to(arc.toward(self.heading_deg - half));
        mbr.expand_to(arc.toward(self.heading_deg + half));
        // Cardinal extremes of the arc, when the sector sweeps past them.
        let range = self.direction_range();
        for cardinal in [0.0, 90.0, 180.0, 270.0] {
            if range.contains(cardinal) {
                mbr.expand_to(arc.toward(cardinal));
            }
        }
        // Interior samples guard against projection curvature on wide
        // sectors. Sample 0 is the first endpoint to the bit (`heading -
        // half` is never -0.0, so adding 0.0 leaves it), so it is skipped;
        // the last sample can round apart from the second endpoint, so it
        // stays.
        let steps = (self.angle_deg / 15.0).ceil() as usize;
        for i in 1..=steps {
            let brg = self.heading_deg - half + self.angle_deg * i as f64 / steps.max(1) as f64;
            mbr.expand_to(arc.toward(brg));
        }
        mbr
    }

    /// Polygonal approximation of the sector in local metres, anchored at
    /// the camera: camera vertex followed by arc samples.
    fn polygon_xy(&self, proj: &LocalProjection) -> Vec<XY> {
        let mut poly = Vec::new();
        if self.angle_deg < 360.0 {
            poly.push(proj.to_xy(&self.camera));
        }
        let half = self.angle_deg / 2.0;
        let steps = ((self.angle_deg / 5.0).ceil() as usize).max(2);
        for i in 0..=steps {
            let brg = self.heading_deg - half + self.angle_deg * i as f64 / steps as f64;
            poly.push(proj.to_xy(&self.camera.destination(brg, self.radius_m)));
        }
        poly
    }

    /// Whether the FOV sector intersects the rectangle `rect`.
    ///
    /// Exact up to the polygonal approximation of the arc (5° steps), which
    /// over-approximates by less than 0.1% of `R`.
    pub fn intersects_bbox(&self, rect: &BBox) -> bool {
        // Fast rejects/accepts first.
        if !self.scene_location().intersects(rect) {
            return false;
        }
        if rect.contains(&self.camera) {
            return true;
        }
        let proj = LocalProjection::new(self.camera);
        let poly = self.polygon_xy(&proj);
        let rect_xy: Vec<XY> = rect.corners().iter().map(|c| proj.to_xy(c)).collect();
        // Any sector vertex inside the rectangle?
        let (min_x, max_x) = (
            rect_xy.iter().map(|p| p.x).fold(f64::INFINITY, f64::min),
            rect_xy
                .iter()
                .map(|p| p.x)
                .fold(f64::NEG_INFINITY, f64::max),
        );
        let (min_y, max_y) = (
            rect_xy.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
            rect_xy
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
        // Any rectangle corner inside the sector polygon?
        if rect_xy.iter().any(|c| point_in_polygon(*c, &poly)) {
            return true;
        }
        // Any edge crossing?
        for i in 0..poly.len() {
            let a1 = poly[i];
            let a2 = poly[(i + 1) % poly.len()];
            for j in 0..4 {
                let b1 = rect_xy[j];
                let b2 = rect_xy[(j + 1) % 4];
                if segments_intersect(a1, a2, b1, b2) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn north_fov() -> Fov {
        // 60° aperture looking due north, 100 m deep.
        Fov::new(GeoPoint::new(34.05, -118.25), 0.0, 60.0, 100.0)
    }

    #[test]
    fn contains_points_ahead_not_behind() {
        let f = north_fov();
        let ahead = f.camera.destination(0.0, 50.0);
        let edge = f.camera.destination(29.0, 50.0);
        let outside_angle = f.camera.destination(45.0, 50.0);
        let behind = f.camera.destination(180.0, 50.0);
        let too_far = f.camera.destination(0.0, 150.0);
        assert!(f.contains(&ahead));
        assert!(f.contains(&edge));
        assert!(!f.contains(&outside_angle));
        assert!(!f.contains(&behind));
        assert!(!f.contains(&too_far));
        assert!(f.contains(&f.camera));
    }

    #[test]
    fn full_circle_fov_ignores_direction() {
        let f = Fov::new(GeoPoint::new(34.0, -118.0), 0.0, 360.0, 100.0);
        for brg in [0.0, 90.0, 180.0, 270.0] {
            assert!(f.contains(&f.camera.destination(brg, 99.0)));
        }
    }

    #[test]
    fn scene_location_contains_sector_samples() {
        let f = north_fov();
        let mbr = f.scene_location();
        assert!(mbr.contains(&f.camera));
        for brg in [-30.0, -15.0, 0.0, 15.0, 30.0] {
            for dist in [10.0, 50.0, 100.0] {
                let p = f.camera.destination(brg, dist);
                assert!(mbr.contains(&p), "missing brg={brg} dist={dist}");
            }
        }
    }

    #[test]
    fn scene_location_tight_for_north_sector() {
        let f = north_fov();
        let mbr = f.scene_location();
        // For a 60° north-facing sector the northern edge is R from camera.
        let north_extent = (mbr.max_lat - f.camera.lat) * crate::METERS_PER_DEG_LAT;
        assert!(
            (north_extent - 100.0).abs() < 1.0,
            "north extent {north_extent}"
        );
        // Southern edge is the camera itself.
        assert!((mbr.min_lat - f.camera.lat).abs() < 1e-9);
    }

    #[test]
    fn wrapping_sector_scene_location_spans_both_sides() {
        // Looking north with a wide sector that wraps through 0°.
        let f = Fov::new(GeoPoint::new(34.0, -118.0), 350.0, 40.0, 100.0);
        let mbr = f.scene_location();
        let west = f.camera.destination(335.0, 100.0);
        let east = f.camera.destination(5.0, 100.0);
        assert!(mbr.contains(&west));
        assert!(mbr.contains(&east));
    }

    /// `scene_location` as it was written before it shared the arc's
    /// trigonometry: every point through the one-shot destination
    /// formula, collected into a `Vec` and boxed.
    fn scene_location_reference(f: &Fov) -> BBox {
        let destination = |bearing_deg: f64| {
            let brg = bearing_deg.to_radians();
            let lat1 = f.camera.lat.to_radians();
            let lon1 = f.camera.lon.to_radians();
            let d = f.radius_m / crate::EARTH_RADIUS_M;
            let lat2 = (lat1.sin() * d.cos() + lat1.cos() * d.sin() * brg.cos()).asin();
            let lon2 =
                lon1 + (brg.sin() * d.sin() * lat1.cos()).atan2(d.cos() - lat1.sin() * lat2.sin());
            let lon_deg = lon2.to_degrees();
            let lon_deg = if lon_deg > 180.0 {
                lon_deg - 360.0
            } else if lon_deg < -180.0 {
                lon_deg + 360.0
            } else {
                lon_deg
            };
            GeoPoint::new(lat2.to_degrees().clamp(-90.0, 90.0), lon_deg)
        };
        let half = f.angle_deg / 2.0;
        let mut pts = vec![
            f.camera,
            destination(f.heading_deg - half),
            destination(f.heading_deg + half),
        ];
        let range = f.direction_range();
        for cardinal in [0.0, 90.0, 180.0, 270.0] {
            if range.contains(cardinal) {
                pts.push(destination(cardinal));
            }
        }
        let steps = (f.angle_deg / 15.0).ceil() as usize;
        for i in 0..=steps {
            let brg = f.heading_deg - half + f.angle_deg * i as f64 / steps.max(1) as f64;
            pts.push(destination(brg));
        }
        BBox::from_points(&pts).unwrap()
    }

    #[test]
    fn scene_location_is_bit_identical_to_the_one_shot_formula() {
        use tvdp_kernel::rng::for_each_case;
        let bits = |b: BBox| [b.min_lat, b.min_lon, b.max_lat, b.max_lon].map(f64::to_bits);
        // 100 cases of 1,000 FOVs: anywhere on the globe, cameras on the
        // ±180° meridian and within a hundredth of a degree of a pole,
        // full-circle apertures, and radii from a metre to 50 km.
        for_each_case(100, |_, rng| {
            for i in 0..1_000 {
                let lat = match i % 4 {
                    0 => rng.gen_range(89.99..90.0),
                    1 => rng.gen_range(-90.0..-89.99),
                    _ => rng.gen_range(-89.99..89.99),
                };
                let lon = match i % 3 {
                    0 => [-180.0, 180.0][i % 2],
                    1 => rng.gen_range(179.9..180.0) * [-1.0, 1.0][i % 2],
                    _ => rng.gen_range(-180.0..180.0),
                };
                let angle = if i % 5 == 0 {
                    360.0
                } else {
                    rng.gen_range(0.5..360.0)
                };
                let f = Fov::new(
                    GeoPoint::new(lat, lon),
                    rng.gen_range(0.0..360.0),
                    angle,
                    rng.gen_range(1.0..50_000.0),
                );
                assert_eq!(
                    bits(f.scene_location()),
                    bits(scene_location_reference(&f)),
                    "{f:?}"
                );
            }
        });
    }

    #[test]
    fn intersects_bbox_cases() {
        let f = north_fov();
        // Box fully ahead within the sector.
        let target = f.camera.destination(0.0, 60.0);
        let inside = BBox::new(
            target.lat - 1e-4,
            target.lon - 1e-4,
            target.lat + 1e-4,
            target.lon + 1e-4,
        );
        assert!(f.intersects_bbox(&inside));
        // Box behind the camera.
        let behind_pt = f.camera.destination(180.0, 60.0);
        let behind = BBox::new(
            behind_pt.lat - 1e-4,
            behind_pt.lon - 1e-4,
            behind_pt.lat + 1e-4,
            behind_pt.lon + 1e-4,
        );
        assert!(!f.intersects_bbox(&behind));
        // Huge box containing everything.
        let world = BBox::new(33.0, -119.0, 35.0, -117.0);
        assert!(f.intersects_bbox(&world));
        // Box that contains only the camera vertex.
        let at_cam = BBox::new(
            f.camera.lat - 1e-5,
            f.camera.lon - 1e-5,
            f.camera.lat + 1e-5,
            f.camera.lon + 1e-5,
        );
        assert!(f.intersects_bbox(&at_cam));
    }

    #[test]
    fn try_new_refuses_what_new_would_panic_on() {
        let cam = GeoPoint::new(34.0, -118.0);
        assert_eq!(
            Fov::try_new(cam, 370.0, 60.0, 100.0),
            Some(Fov::new(cam, 370.0, 60.0, 100.0))
        );
        assert!(Fov::try_new(cam, 0.0, 360.0, 1e308).is_some());
        for angle in [0.0, -1.0, 360.5, f64::NAN, f64::INFINITY] {
            assert!(Fov::try_new(cam, 0.0, angle, 100.0).is_none(), "{angle}");
        }
        for radius in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Fov::try_new(cam, 0.0, 60.0, radius).is_none(), "{radius}");
        }
        for heading in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                Fov::try_new(cam, heading, 60.0, 100.0).is_none(),
                "{heading}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "viewable angle")]
    fn zero_angle_rejected() {
        let _ = Fov::new(GeoPoint::new(34.0, -118.0), 0.0, 0.0, 100.0);
    }
}
