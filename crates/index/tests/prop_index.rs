//! Property-based tests: every index must agree with a linear scan.

use tvdp_geo::{AngularRange, BBox, Fov, GeoPoint};
use tvdp_index::{InvertedIndex, OrientedRTree, RTree, VisualRTree};
use tvdp_kernel::rng::{for_each_case, Rng};

const CASES: u64 = 64;

fn la_point(rng: &mut Rng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(33.9..34.1), rng.gen_range(-118.4..-118.2))
}

fn la_bbox(rng: &mut Rng) -> BBox {
    BBox::from_points(&[la_point(rng), la_point(rng)]).unwrap()
}

fn la_points(rng: &mut Rng, min: usize, max: usize) -> Vec<GeoPoint> {
    (0..rng.gen_range(min..max))
        .map(|_| la_point(rng))
        .collect()
}

fn floats(rng: &mut Rng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// `len` characters drawn from `alphabet`.
fn text(rng: &mut Rng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

#[test]
fn rtree_range_equals_linear_scan() {
    for_each_case(CASES, |_, rng| {
        let points = la_points(rng, 1, 120);
        let query = la_bbox(rng);
        let tree = RTree::build(points.iter().map(|p| BBox::from_point(*p)).zip(0..));
        tree.check_invariants();
        let mut got: Vec<usize> = tree.range(&query).into_iter().copied().collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| query.contains(p))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn rtree_knn_equals_linear_scan() {
    for_each_case(CASES, |_, rng| {
        let points = la_points(rng, 1, 100);
        let q = la_point(rng);
        let k = rng.gen_range(1usize..10);
        let tree = RTree::build(points.iter().map(|p| BBox::from_point(*p)).zip(0..));
        let got: Vec<f64> = tree.knn(&q, k).iter().map(|(d, _)| *d).collect();
        let mut lin: Vec<f64> = points.iter().map(|p| q.fast_distance_m(p)).collect();
        lin.sort_by(f64::total_cmp);
        lin.truncate(k);
        assert_eq!(got.len(), lin.len());
        for (g, e) in got.iter().zip(&lin) {
            assert!((g - e).abs() < 1e-6, "knn distance {} vs linear {}", g, e);
        }
    });
}

#[test]
fn bulk_load_equals_linear_scan() {
    for_each_case(CASES, |_, rng| {
        let points = la_points(rng, 0, 150);
        let query = la_bbox(rng);
        let tree = RTree::bulk_load(
            points
                .iter()
                .enumerate()
                .map(|(i, p)| (BBox::from_point(*p), i))
                .collect(),
        );
        if !points.is_empty() {
            tree.check_invariants();
        }
        let mut got: Vec<usize> = tree.range(&query).into_iter().copied().collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| query.contains(p))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn oriented_rtree_equals_linear_scan() {
    for_each_case(CASES, |_, rng| {
        // Up to three levels, so the walk meets internal nodes below the root.
        let cams: Vec<(GeoPoint, f64)> = (0..rng.gen_range(1..300))
            .map(|_| (la_point(rng), rng.gen_range(0.0..360.0)))
            .collect();
        let query = la_bbox(rng);
        let dir_start = rng.gen_range(0.0f64..360.0);
        let dir_width = rng.gen_range(10.0f64..180.0);
        let fovs: Vec<Fov> = cams
            .iter()
            .map(|(p, h)| Fov::new(*p, *h, 60.0, 100.0))
            .collect();
        let tree = OrientedRTree::build(
            fovs.iter()
                .zip(0..)
                .map(|(f, i)| (f.scene_location(), *f, i)),
        );
        tree.check_invariants();
        let dirs = AngularRange::new(dir_start, dir_width);
        // Tree order is unspecified: compare sets.
        let mut got: Vec<usize> = tree
            .range_directed(&query, &dirs)
            .into_iter()
            .map(|(_, i)| *i)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = fovs
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.scene_location().intersects(&query) && f.direction_range().overlaps(&dirs)
            })
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

#[test]
fn visual_rtree_knn_equals_linear_scan() {
    for_each_case(CASES, |_, rng| {
        let entries: Vec<(GeoPoint, Vec<f32>)> = (0..rng.gen_range(1..300))
            .map(|_| (la_point(rng), floats(rng, 4, 1.0)))
            .collect();
        let query_region = la_bbox(rng);
        let query_feat = floats(rng, 4, 1.0);
        let k = rng.gen_range(1..20usize);
        let mut tree = VisualRTree::new(4);
        let mut slab = tvdp_kernel::FeatureSlab::new(4);
        for (i, (p, f)) in entries.iter().enumerate() {
            let row = slab.push(f);
            tree.insert(&slab, BBox::from_point(*p), row, i);
        }
        tree.check_invariants(&slab);
        let got: Vec<(u32, usize)> = tree
            .knn_visual(&slab, &query_region, &query_feat, k)
            .into_iter()
            .map(|(d, i)| (d.to_bits(), *i))
            .collect();
        // The k lowest `(distance, payload)` pairs of a scan, distances
        // from the same kernel the tree scores with.
        let mut expected: Vec<(f32, usize)> = entries
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| query_region.contains(p))
            .map(|(i, (_, f))| (tvdp_kernel::l2(f, &query_feat), i))
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        expected.truncate(k);
        let expected: Vec<(u32, usize)> = expected
            .into_iter()
            .map(|(d, i)| (d.to_bits(), i))
            .collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn inverted_and_subset_of_or() {
    for_each_case(CASES, |_, rng| {
        let docs: Vec<String> = (0..rng.gen_range(1..30))
            .map(|_| {
                let len = rng.gen_range(0..=24);
                text(rng, b"abcd ", len)
            })
            .collect();
        // One term, or two separated by a space.
        let mut query = text(rng, b"abcd", 1);
        if rng.gen_bool(0.5) {
            query = format!("{query} {}", text(rng, b"abcd", 1));
        }
        let mut idx = InvertedIndex::new();
        for (i, d) in docs.iter().enumerate() {
            idx.index_document(i, d);
        }
        let and = idx.search_and(&query);
        let or = idx.search_or(&query);
        for d in &and {
            assert!(or.contains(d), "AND result {} missing from OR", d);
        }
        // Ranked results cover exactly the OR set when k is large.
        let ranked: Vec<usize> = idx
            .search_ranked(&query, docs.len())
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        let mut ranked_sorted = ranked.clone();
        ranked_sorted.sort_unstable();
        assert_eq!(ranked_sorted, or);
    });
}
