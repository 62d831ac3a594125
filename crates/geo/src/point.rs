//! Geographic points and great-circle arithmetic.

use crate::{EARTH_RADIUS_M, METERS_PER_DEG_LAT};

/// A WGS-84 geographic coordinate: the GPS spatial descriptor of an image.
///
/// Latitude is in degrees north (`-90..=90`), longitude in degrees east
/// (`-180..=180`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Degrees north.
    pub lat: f64,
    /// Degrees east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude degrees.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is non-finite or out of range; spatial
    /// descriptors come from sensors and must be validated at ingest.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            lat.is_finite() && (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        assert!(
            lon.is_finite() && (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        Self { lat, lon }
    }

    /// Fallible constructor for untrusted sensor input.
    pub fn try_new(lat: f64, lon: f64) -> Option<Self> {
        if lat.is_finite()
            && (-90.0..=90.0).contains(&lat)
            && lon.is_finite()
            && (-180.0..=180.0).contains(&lon)
        {
            Some(Self { lat, lon })
        } else {
            None
        }
    }

    /// Great-circle (haversine) distance to `other` in metres.
    // tvdp-lint: allow(dead_api, reason = "(b) reference implementation: prop_geo holds fast_distance_m against it")
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Fast local-plane distance in metres (equirectangular approximation).
    ///
    /// Accurate to a fraction of a percent for distances under ~50 km, which
    /// covers all city-scale TVDP workloads; used on hot query paths.
    pub fn fast_distance_m(&self, other: &GeoPoint) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let dx = (other.lon - self.lon) * METERS_PER_DEG_LAT * mean_lat.cos();
        let dy = (other.lat - self.lat) * METERS_PER_DEG_LAT;
        (dx * dx + dy * dy).sqrt()
    }

    /// Initial compass bearing from `self` to `other`, degrees in `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        crate::angle::normalize_deg(y.atan2(x).to_degrees())
    }

    /// The point reached by travelling `distance_m` metres along compass
    /// bearing `bearing_deg` (degrees clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        self.destinations(distance_m).toward(bearing_deg)
    }

    /// [`GeoPoint::destination`] at `distance_m` for many bearings: the
    /// trigonometry of the start point and the distance is done here,
    /// once, and [`Destinations::toward`] does only the bearing's.
    pub(crate) fn destinations(&self, distance_m: f64) -> Destinations {
        let lat1 = self.lat.to_radians();
        let d = distance_m / EARTH_RADIUS_M;
        Destinations {
            lat1_sin: lat1.sin(),
            lat1_cos: lat1.cos(),
            lon1: self.lon.to_radians(),
            d_sin: d.sin(),
            d_cos: d.cos(),
        }
    }
}

/// The points a fixed distance away from one start point, by bearing
/// (see [`GeoPoint::destinations`]).
pub(crate) struct Destinations {
    lat1_sin: f64,
    lat1_cos: f64,
    lon1: f64,
    d_sin: f64,
    d_cos: f64,
}

impl Destinations {
    /// The point reached along compass bearing `bearing_deg`.
    pub(crate) fn toward(&self, bearing_deg: f64) -> GeoPoint {
        let (brg_sin, brg_cos) = bearing_deg.to_radians().sin_cos();
        let lat2 = (self.lat1_sin * self.d_cos + self.lat1_cos * self.d_sin * brg_cos).asin();
        let lon2 = self.lon1
            + (brg_sin * self.d_sin * self.lat1_cos).atan2(self.d_cos - self.lat1_sin * lat2.sin());
        let lon_deg = lon2.to_degrees();
        // Re-wrap longitude into [-180, 180].
        let lon_deg = if lon_deg > 180.0 {
            lon_deg - 360.0
        } else if lon_deg < -180.0 {
            lon_deg + 360.0
        } else {
            lon_deg
        };
        GeoPoint::new(lat2.to_degrees().clamp(-90.0, 90.0), lon_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LA_CITY_HALL: GeoPoint = GeoPoint {
        lat: 34.0537,
        lon: -118.2427,
    };
    const USC: GeoPoint = GeoPoint {
        lat: 34.0224,
        lon: -118.2851,
    };

    #[test]
    fn haversine_known_distance() {
        // City Hall to USC is roughly 5.2 km.
        let d = LA_CITY_HALL.haversine_m(&USC);
        assert!((5000.0..5600.0).contains(&d), "got {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert_eq!(LA_CITY_HALL.haversine_m(&LA_CITY_HALL), 0.0);
    }

    #[test]
    fn fast_distance_close_to_haversine_at_city_scale() {
        let d1 = LA_CITY_HALL.haversine_m(&USC);
        let d2 = LA_CITY_HALL.fast_distance_m(&USC);
        assert!((d1 - d2).abs() / d1 < 0.005, "haversine {d1} vs fast {d2}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = GeoPoint::new(34.0, -118.0);
        let north = origin.destination(0.0, 1000.0);
        let east = origin.destination(90.0, 1000.0);
        assert!((origin.bearing_deg(&north) - 0.0).abs() < 0.1);
        assert!((origin.bearing_deg(&east) - 90.0).abs() < 0.1);
    }

    #[test]
    fn destination_round_trip() {
        let origin = GeoPoint::new(34.05, -118.24);
        for brg in [0.0, 45.0, 133.0, 270.0, 359.0] {
            let dest = origin.destination(brg, 750.0);
            let back = origin.haversine_m(&dest);
            assert!((back - 750.0).abs() < 0.5, "bearing {brg}: {back}");
            let measured = origin.bearing_deg(&dest);
            assert!(
                crate::angle::angular_diff_deg(measured, brg) < 0.1,
                "bearing {brg} -> {measured}"
            );
        }
    }

    #[test]
    fn try_new_rejects_bad_input() {
        assert!(GeoPoint::try_new(91.0, 0.0).is_none());
        assert!(GeoPoint::try_new(0.0, 181.0).is_none());
        assert!(GeoPoint::try_new(f64::NAN, 0.0).is_none());
        assert!(GeoPoint::try_new(34.0, -118.0).is_some());
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn new_panics_on_bad_latitude() {
        let _ = GeoPoint::new(123.0, 0.0);
    }
}
