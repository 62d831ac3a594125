//! Translational data analysis helpers.
//!
//! The paper's Fig. 9 scenario: street-cleanliness annotations produced
//! for LASAN include an *encampment* class, which the city's Homeless
//! Coordinator reuses directly — no new learning — to count and localize
//! homeless tents. These helpers turn a (scheme, label) pair into
//! spatial aggregates: per-cell counts and ranked hotspots.
use tvdp_geo::{BBox, GeoPoint, METERS_PER_DEG_LAT};
use tvdp_storage::{ClassificationId, VisualStore};

/// An aggregation cell with its hit count.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCount {
    /// Cell bounds.
    pub cell: BBox,
    /// Number of matching images whose camera position falls in the cell.
    pub count: usize,
}

/// Counts images annotated with `(scheme, label)` (at or above
/// `min_confidence`) per grid cell of `cell_size_m` metres over `region`.
/// Cells with zero hits are omitted.
pub fn count_by_cell(
    store: &VisualStore,
    scheme: ClassificationId,
    label: usize,
    region: &BBox,
    cell_size_m: f64,
    min_confidence: f32,
) -> Vec<CellCount> {
    assert!(cell_size_m > 0.0, "cell size must be positive");
    let mean_lat = ((region.min_lat + region.max_lat) / 2.0).to_radians();
    let dlat = cell_size_m / METERS_PER_DEG_LAT;
    let dlon = cell_size_m / (METERS_PER_DEG_LAT * mean_lat.cos());
    let rows = (((region.max_lat - region.min_lat) / dlat).ceil() as usize).max(1);
    let cols = (((region.max_lon - region.min_lon) / dlon).ceil() as usize).max(1);
    let mut counts = vec![0usize; rows * cols];

    for ann in store.annotations_with_label(scheme, label) {
        if ann.confidence < min_confidence {
            continue;
        }
        let Some(record) = store.image(ann.image) else {
            continue;
        };
        let p: GeoPoint = record.meta.gps;
        if !region.contains(&p) {
            continue;
        }
        let row = (((p.lat - region.min_lat) / dlat) as usize).min(rows - 1);
        let col = (((p.lon - region.min_lon) / dlon) as usize).min(cols - 1);
        counts[row * cols + col] += 1;
    }

    let mut out = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            let count = counts[row * cols + col];
            if count == 0 {
                continue;
            }
            out.push(CellCount {
                cell: BBox::new(
                    region.min_lat + row as f64 * dlat,
                    region.min_lon + col as f64 * dlon,
                    (region.min_lat + (row + 1) as f64 * dlat)
                        .min(region.max_lat.max(region.min_lat + rows as f64 * dlat)),
                    (region.min_lon + (col + 1) as f64 * dlon)
                        .min(region.max_lon.max(region.min_lon + cols as f64 * dlon)),
                ),
                count,
            });
        }
    }
    out
}

/// The `k` densest cells, highest count first (tent-cluster hotspots).
pub fn hotspots(
    store: &VisualStore,
    scheme: ClassificationId,
    label: usize,
    region: &BBox,
    cell_size_m: f64,
    min_confidence: f32,
    k: usize,
) -> Vec<CellCount> {
    let mut cells = count_by_cell(store, scheme, label, region, cell_size_m, min_confidence);
    cells.sort_by_key(|c| std::cmp::Reverse(c.count));
    cells.truncate(k);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_storage::{
        Annotation, AnnotationId, AnnotationSource, ImageId, ImageMeta, ImageOrigin, UserId, WalOp,
    };

    fn region() -> BBox {
        BBox::new(34.0, -118.3, 34.02, -118.28)
    }

    fn store_with_clusters() -> (VisualStore, ClassificationId) {
        let scheme = ClassificationId(0);
        let mut ops = vec![WalOp::RegisterScheme {
            id: scheme,
            name: "cleanliness".into(),
            labels: vec!["clean".into(), "encampment".into()],
        }];
        // Dense cluster near the south-west corner, sparse singleton
        // north-east.
        let mut add = |lat: f64, lon: f64, label: usize, confidence: f32| {
            let n = ops.len() as u64 / 2;
            let id = ImageId(n);
            ops.push(WalOp::AddImage {
                id,
                meta: ImageMeta {
                    uploader: UserId(0),
                    gps: GeoPoint::new(lat, lon),
                    fov: None,
                    captured_at: 0,
                    uploaded_at: 1,
                    keywords: vec![],
                },
                origin: ImageOrigin::Original,
                pixels: None,
            });
            ops.push(WalOp::Annotate(Annotation {
                id: AnnotationId(n),
                image: id,
                classification: scheme,
                label,
                confidence,
                source: AnnotationSource::Human(UserId(0)),
                region: None,
            }));
        };
        for i in 0..5 {
            add(34.0005 + i as f64 * 1e-5, -118.2995, 1, 0.9);
        }
        add(34.019, -118.281, 1, 0.9);
        // Clean images everywhere must not count.
        add(34.001, -118.299, 0, 1.0);
        add(34.019, -118.281, 0, 1.0);
        // Low-confidence encampment filtered out at 0.5.
        add(34.010, -118.290, 1, 0.2);
        let store = VisualStore::new();
        store.apply_batch(ops).unwrap();
        (store, scheme)
    }

    #[test]
    fn counts_cluster_correctly() {
        let (store, scheme) = store_with_clusters();
        let cells = count_by_cell(&store, scheme, 1, &region(), 200.0, 0.5);
        let total: usize = cells.iter().map(|c| c.count).sum();
        assert_eq!(total, 6, "5 clustered + 1 singleton");
        let max = cells.iter().map(|c| c.count).max().unwrap();
        assert_eq!(max, 5, "dense cluster lands in one cell");
    }

    #[test]
    fn hotspots_ranked_descending() {
        let (store, scheme) = store_with_clusters();
        let top = hotspots(&store, scheme, 1, &region(), 200.0, 0.5, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].count >= top[1].count);
        assert_eq!(top[0].count, 5);
    }

    #[test]
    fn confidence_threshold_filters() {
        let (store, scheme) = store_with_clusters();
        let strict: usize = count_by_cell(&store, scheme, 1, &region(), 200.0, 0.5)
            .iter()
            .map(|c| c.count)
            .sum();
        let loose: usize = count_by_cell(&store, scheme, 1, &region(), 200.0, 0.0)
            .iter()
            .map(|c| c.count)
            .sum();
        assert_eq!(
            loose,
            strict + 1,
            "low-confidence row included only when allowed"
        );
    }

    #[test]
    fn out_of_region_ignored() {
        let (store, scheme) = store_with_clusters();
        let far = BBox::new(35.0, -117.0, 35.01, -116.99);
        assert!(count_by_cell(&store, scheme, 1, &far, 100.0, 0.0).is_empty());
    }

    #[test]
    fn cells_cover_their_points() {
        let (store, scheme) = store_with_clusters();
        for cell in count_by_cell(&store, scheme, 1, &region(), 150.0, 0.5) {
            assert!(cell.count > 0);
            assert!(cell.cell.area_m2() > 0.0);
        }
    }
}
