//! Property-based tests of the geospatial substrate invariants.

use tvdp_geo::{angular_diff_deg, normalize_deg, AngularRange, BBox, Fov, GeoPoint};
use tvdp_kernel::rng::{for_each_case, Rng};

const CASES: u64 = 256;

/// City-scale coordinates (greater Los Angeles) so planar approximations hold.
fn la_point(rng: &mut Rng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(33.6..34.4), rng.gen_range(-118.7..-117.9))
}

fn fov(rng: &mut Rng) -> Fov {
    let camera = la_point(rng);
    Fov::new(
        camera,
        rng.gen_range(0.0..360.0),
        rng.gen_range(10.0..180.0),
        rng.gen_range(20.0..500.0),
    )
}

#[test]
fn normalize_in_range() {
    for_each_case(CASES, |_, rng| {
        let deg = rng.gen_range(-10_000.0f64..10_000.0);
        let n = normalize_deg(deg);
        assert!((0.0..360.0).contains(&n));
        // Normalizing twice is idempotent.
        assert!((normalize_deg(n) - n).abs() < 1e-12);
    });
}

#[test]
fn angular_diff_symmetric_and_bounded() {
    for_each_case(CASES, |_, rng| {
        let a = rng.gen_range(-720.0f64..720.0);
        let b = rng.gen_range(-720.0f64..720.0);
        let d1 = angular_diff_deg(a, b);
        let d2 = angular_diff_deg(b, a);
        assert!((d1 - d2).abs() < 1e-9);
        assert!((0.0..=180.0).contains(&d1));
    });
}

#[test]
fn destination_bearing_roundtrip() {
    for_each_case(CASES, |_, rng| {
        let p = la_point(rng);
        let brg = rng.gen_range(0.0f64..360.0);
        let dist = rng.gen_range(1.0f64..2_000.0);
        let dest = p.destination(brg, dist);
        assert!((p.haversine_m(&dest) - dist).abs() < 1.0);
        assert!(angular_diff_deg(p.bearing_deg(&dest), brg) < 0.5);
    });
}

#[test]
fn fast_distance_matches_haversine() {
    for_each_case(CASES, |_, rng| {
        let a = la_point(rng);
        let b = la_point(rng);
        let h = a.haversine_m(&b);
        let f = a.fast_distance_m(&b);
        // Within 1% at metro scale (absolute slack for near-zero distances).
        assert!((h - f).abs() <= 0.01 * h + 0.01, "h={h} f={f}");
    });
}

#[test]
fn bbox_union_contains_operands() {
    for_each_case(CASES, |_, rng| {
        let a = la_point(rng);
        let b = la_point(rng);
        let c = la_point(rng);
        let d = la_point(rng);
        let b1 = BBox::from_points(&[a, b]).unwrap();
        let b2 = BBox::from_points(&[c, d]).unwrap();
        let u = b1.union(&b2);
        assert!(u.contains_bbox(&b1));
        assert!(u.contains_bbox(&b2));
    });
}

#[test]
fn bbox_intersection_subset_of_operands() {
    for_each_case(CASES, |_, rng| {
        let a = la_point(rng);
        let b = la_point(rng);
        let c = la_point(rng);
        let d = la_point(rng);
        let b1 = BBox::from_points(&[a, b]).unwrap();
        let b2 = BBox::from_points(&[c, d]).unwrap();
        if let Some(i) = b1.intersection(&b2) {
            assert!(b1.contains_bbox(&i));
            assert!(b2.contains_bbox(&i));
            assert!(b1.intersects(&b2));
        } else {
            assert!(!b1.intersects(&b2));
        }
    });
}

#[test]
fn scene_location_contains_visible_points() {
    for_each_case(CASES, |_, rng| {
        // Any point in the sector must fall inside the scene-location MBR.
        // Samples on the very edge of the sector can fall out of
        // `contains` by sub-millimetre great-circle-vs-planar rounding;
        // the invariant under test only concerns contained points, so
        // such a draw is redrawn.
        let (f, p) = loop {
            let f = fov(rng);
            let brg = f.heading_deg + rng.gen_range(-0.49f64..0.49) * f.angle_deg;
            let p = f
                .camera
                .destination(brg, rng.gen_range(0.0f64..1.0) * f.radius_m);
            if f.contains(&p) {
                break (f, p);
            }
        };
        assert!(f.scene_location().contains(&p));
    });
}

#[test]
fn visible_point_implies_bbox_intersection() {
    for_each_case(CASES, |_, rng| {
        let f = fov(rng);
        let brg_off = rng.gen_range(-0.45f64..0.45);
        let frac = rng.gen_range(0.05f64..0.95);
        let brg = f.heading_deg + brg_off * f.angle_deg;
        let p = f.camera.destination(brg, frac * f.radius_m);
        let tiny = BBox::new(p.lat - 1e-5, p.lon - 1e-5, p.lat + 1e-5, p.lon + 1e-5);
        assert!(f.intersects_bbox(&tiny));
    });
}

#[test]
fn far_bbox_never_intersects() {
    for_each_case(CASES, |_, rng| {
        let f = fov(rng);
        let brg = rng.gen_range(0.0f64..360.0);
        // A box centred 10x the radius away can never intersect.
        let p = f.camera.destination(brg, f.radius_m * 10.0);
        let tiny = BBox::new(p.lat - 1e-6, p.lon - 1e-6, p.lat + 1e-6, p.lon + 1e-6);
        assert!(!f.intersects_bbox(&tiny));
    });
}

#[test]
fn angular_range_union_contains_members() {
    for_each_case(CASES, |_, rng| {
        let s1 = rng.gen_range(0.0f64..360.0);
        let w1 = rng.gen_range(1.0f64..120.0);
        let s2 = rng.gen_range(0.0f64..360.0);
        let w2 = rng.gen_range(1.0f64..120.0);
        let t = rng.gen_range(0.0f64..1.0);
        let a = AngularRange::new(s1, w1);
        let b = AngularRange::new(s2, w2);
        let u = a.union(&b);
        let in_a = normalize_deg(s1 + w1 * t);
        let in_b = normalize_deg(s2 + w2 * t);
        assert!(u.contains(in_a), "union misses member of a");
        assert!(u.contains(in_b), "union misses member of b");
    });
}

#[test]
fn angular_range_overlap_consistent_with_contains() {
    for_each_case(CASES, |_, rng| {
        let s1 = rng.gen_range(0.0f64..360.0);
        let w1 = rng.gen_range(1.0f64..180.0);
        let s2 = rng.gen_range(0.0f64..360.0);
        let w2 = rng.gen_range(1.0f64..180.0);
        let a = AngularRange::new(s1, w1);
        let b = AngularRange::new(s2, w2);
        // If a contains b's centre they must overlap.
        if a.contains(normalize_deg(s2 + w2 / 2.0)) {
            assert!(a.overlaps(&b));
        }
    });
}
