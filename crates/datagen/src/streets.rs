//! A synthetic street grid with camera placement.
//!
//! LASAN imagery is captured from garbage trucks driving city streets, so
//! camera positions lie on streets and headings point along (or slightly
//! off) the direction of travel. The grid is a Manhattan-style lattice of
//! north-south and east-west streets over a configurable region.

use tvdp_kernel::rng::Rng;

use tvdp_geo::{BBox, Fov, GeoPoint};

/// A lattice of streets over a region.
#[derive(Debug, Clone)]
pub struct StreetGrid {
    region: BBox,
    /// Street spacing in metres.
    spacing_m: f64,
    ns_lons: Vec<f64>,
    ew_lats: Vec<f64>,
}

impl StreetGrid {
    /// Builds a grid with streets every `spacing_m` metres.
    pub fn new(region: BBox, spacing_m: f64) -> Self {
        assert!(spacing_m > 10.0, "street spacing too small");
        let mean_lat = ((region.min_lat + region.max_lat) / 2.0).to_radians();
        let dlat = spacing_m / tvdp_geo::METERS_PER_DEG_LAT;
        let dlon = spacing_m / (tvdp_geo::METERS_PER_DEG_LAT * mean_lat.cos());
        let mut ns_lons = Vec::new();
        let mut lon = region.min_lon;
        while lon <= region.max_lon {
            ns_lons.push(lon);
            lon += dlon;
        }
        let mut ew_lats = Vec::new();
        let mut lat = region.min_lat;
        while lat <= region.max_lat {
            ew_lats.push(lat);
            lat += dlat;
        }
        Self {
            region,
            spacing_m,
            ns_lons,
            ew_lats,
        }
    }

    /// Downtown-LA default: a ~2 km x 2 km region with 150 m blocks.
    pub fn downtown_la() -> Self {
        let sw = GeoPoint::new(34.035, -118.26);
        let ne = GeoPoint::new(34.053, -118.238);
        Self::new(BBox::new(sw.lat, sw.lon, ne.lat, ne.lon), 150.0)
    }

    /// The covered region.
    pub fn region(&self) -> &BBox {
        &self.region
    }

    /// Samples a camera pose on a random street: position on the street
    /// line (with a small lateral offset) and heading along the street
    /// (with jitter), as a garbage-truck-mounted camera would produce.
    pub fn sample_camera(&self, rng: &mut Rng) -> (GeoPoint, f64) {
        let lateral = self.spacing_m * 0.03;
        let mean_lat = ((self.region.min_lat + self.region.max_lat) / 2.0).to_radians();
        let m_per_deg_lon = tvdp_geo::METERS_PER_DEG_LAT * mean_lat.cos();
        if rng.gen_bool(0.5) {
            // North-south street: heading 0 or 180.
            let lon = self.ns_lons[rng.gen_range(0..self.ns_lons.len())];
            let lat = rng.gen_range(self.region.min_lat..self.region.max_lat);
            let lon_off = rng.gen_range(-lateral..lateral) / m_per_deg_lon;
            let heading = if rng.gen_bool(0.5) { 0.0 } else { 180.0 };
            let heading = heading + rng.gen_range(-20.0..20.0);
            (
                GeoPoint::new(
                    lat,
                    (lon + lon_off).clamp(self.region.min_lon, self.region.max_lon),
                ),
                tvdp_geo::normalize_deg(heading),
            )
        } else {
            // East-west street: heading 90 or 270.
            let lat = self.ew_lats[rng.gen_range(0..self.ew_lats.len())];
            let lon = rng.gen_range(self.region.min_lon..self.region.max_lon);
            let lat_off = rng.gen_range(-lateral..lateral) / tvdp_geo::METERS_PER_DEG_LAT;
            let heading = if rng.gen_bool(0.5) { 90.0 } else { 270.0 };
            let heading = heading + rng.gen_range(-20.0..20.0);
            (
                GeoPoint::new(
                    (lat + lat_off).clamp(self.region.min_lat, self.region.max_lat),
                    lon,
                ),
                tvdp_geo::normalize_deg(heading),
            )
        }
    }

    /// Samples a full FOV: camera pose plus realistic optics (50–70°
    /// aperture, 60–120 m visible range).
    pub fn sample_fov(&self, rng: &mut Rng) -> Fov {
        let (camera, heading) = self.sample_camera(rng);
        Fov::new(
            camera,
            heading,
            rng.gen_range(50.0..70.0),
            rng.gen_range(60.0..120.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_streets_in_both_directions() {
        let grid = StreetGrid::downtown_la();
        let (ns, ew) = (grid.ns_lons.len(), grid.ew_lats.len());
        assert!(ns >= 5, "ns {ns}");
        assert!(ew >= 5, "ew {ew}");
    }

    #[test]
    fn cameras_inside_region() {
        let grid = StreetGrid::downtown_la();
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..200 {
            let (p, heading) = grid.sample_camera(&mut rng);
            assert!(grid.region().contains(&p), "camera escaped region: {p:?}");
            assert!((0.0..360.0).contains(&heading));
        }
    }

    #[test]
    fn headings_cluster_on_street_axes() {
        let grid = StreetGrid::downtown_la();
        let mut rng = Rng::seed_from_u64(2);
        let mut near_axis = 0;
        let n = 300;
        for _ in 0..n {
            let (_, heading) = grid.sample_camera(&mut rng);
            let to_axis = [0.0, 90.0, 180.0, 270.0]
                .iter()
                .map(|&a| tvdp_geo::angular_diff_deg(heading, a))
                .fold(f64::INFINITY, f64::min);
            if to_axis <= 20.0 {
                near_axis += 1;
            }
        }
        assert_eq!(
            near_axis, n,
            "all headings within 20 degrees of a street axis"
        );
    }

    #[test]
    fn fovs_have_realistic_optics() {
        let grid = StreetGrid::downtown_la();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..50 {
            let fov = grid.sample_fov(&mut rng);
            assert!((50.0..70.0).contains(&fov.angle_deg));
            assert!((60.0..120.0).contains(&fov.radius_m));
        }
    }

    #[test]
    fn deterministic_sampling() {
        let grid = StreetGrid::downtown_la();
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(grid.sample_camera(&mut a), grid.sample_camera(&mut b));
        }
    }
}
