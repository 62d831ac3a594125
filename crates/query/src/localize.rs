//! Data-centric image scene localization (paper ref [23]).
//!
//! An image arriving *without* usable spatial metadata can still be
//! localized: find the visually most similar geo-tagged images in the
//! store and fuse their scene locations. Alfarrarjeh et al.'s
//! data-centric approach weights neighbours by visual similarity; the
//! fused estimate is the weighted geometric medoid of the committee plus
//! a bounding region covering the neighbours.

use std::sync::Arc;

use tvdp_geo::{BBox, GeoPoint};
use tvdp_storage::{ImageId, VisualStore};
use tvdp_vision::FeatureKind;

use crate::engine::QueryEngine;
use crate::types::{Query, VisualMode};

/// A scene-location estimate for an un-geo-tagged image.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizationEstimate {
    /// Robust centre of the neighbour committee: the similarity-weighted
    /// geometric medoid (the neighbour minimizing the weighted sum of
    /// distances to the others), which shrugs off minority outlier votes
    /// that would drag a plain weighted mean.
    pub center: GeoPoint,
    /// Bounding box covering the neighbours that dominate the estimate.
    pub region: BBox,
    /// Neighbours used, most similar first: `(image, feature distance)`.
    pub neighbours: Vec<(ImageId, f64)>,
    /// Heuristic confidence in `[0, 1]`: high when the neighbours agree
    /// spatially, low when they scatter.
    pub confidence: f64,
}

/// Localizes an image by its feature vector against the engine's visual
/// index. Returns `None` when fewer than two geo-tagged neighbours are
/// available — including when `features` cannot be compared with the
/// indexed rows at all (another feature family, or another length).
///
/// `k` controls how many visual neighbours vote (the reference approach
/// uses a small committee; 5–15 works well).
pub fn localize(
    engine: &QueryEngine,
    store: &Arc<VisualStore>,
    features: &[f32],
    kind: FeatureKind,
    k: usize,
) -> Option<LocalizationEstimate> {
    assert!(k >= 2, "need at least two neighbours to localize");
    let results = engine
        .try_execute(&Query::Visual {
            example: features.to_vec(),
            kind,
            mode: VisualMode::TopK(k),
        })
        .ok()?;
    if results.len() < 2 {
        return None;
    }
    // Inverse-distance similarity weights.
    let mut weights = Vec::with_capacity(results.len());
    let mut neighbours = Vec::with_capacity(results.len());
    let mut points = Vec::with_capacity(results.len());
    for r in &results {
        let record = store.image(r.image)?;
        points.push(record.scene_location().center());
        weights.push(1.0 / (r.score + 1e-6));
        neighbours.push((r.image, r.score));
    }
    // Weighted geometric medoid: robust against a minority of visually
    // similar but far-away neighbours.
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, p) in points.iter().enumerate() {
        let cost: f64 = points
            .iter()
            .zip(&weights)
            .map(|(q, w)| w * p.fast_distance_m(q))
            // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    let center = points[best];
    let region = BBox::from_points(&points)?;
    // Confidence: how tightly the committee clusters. 150 m spread ⇒ ~0.5.
    let spread_m: f64 = points
        .iter()
        .map(|p| center.fast_distance_m(p))
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        .sum::<f64>()
        / points.len() as f64;
    let confidence = 1.0 / (1.0 + spread_m / 150.0);
    Some(LocalizationEstimate {
        center,
        region,
        neighbours,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_storage::{ImageId, ImageMeta, ImageOrigin, UserId, WalOp};

    const DIM: usize = 4;

    /// Two visual clusters at two distinct city blocks.
    fn build() -> (Arc<VisualStore>, QueryEngine) {
        let store = Arc::new(VisualStore::new());
        for i in 0..30 {
            let cluster = i % 2;
            let base = GeoPoint::new(34.0 + cluster as f64 * 0.02, -118.3);
            let gps = base.destination((i * 37 % 360) as f64, 30.0);
            let meta = ImageMeta {
                uploader: UserId(0),
                gps,
                fov: None,
                captured_at: i as i64,
                uploaded_at: i as i64 + 1,
                keywords: vec![],
            };
            let f: Vec<f32> = (0..DIM)
                .map(|d| cluster as f32 * 3.0 + (d as f32) * 0.01 + (i as f32) * 1e-3)
                .collect();
            let row = WalOp::IngestUpload {
                marker: None,
                id: ImageId(i as u64),
                meta,
                origin: ImageOrigin::Original,
                pixels: None,
                features: vec![(FeatureKind::Cnn, f)],
            };
            store.apply_batch(vec![row]).unwrap();
        }
        let engine = QueryEngine::build(Arc::clone(&store), Default::default());
        (store, engine)
    }

    #[test]
    fn localizes_to_the_matching_cluster() {
        let (store, engine) = build();
        // A query that looks like cluster 1.
        let probe: Vec<f32> = (0..DIM).map(|d| 3.0 + d as f32 * 0.01).collect();
        let est = localize(&engine, &store, &probe, FeatureKind::Cnn, 8).unwrap();
        // Cluster 1 sits at lat 34.02.
        assert!(
            (est.center.lat - 34.02).abs() < 0.005,
            "estimate landed at {:?}",
            est.center
        );
        assert!(est.region.contains(&est.center));
        assert_eq!(est.neighbours.len(), 8);
        assert!(
            est.confidence > 0.5,
            "tight cluster should be confident: {}",
            est.confidence
        );
        // Neighbours sorted by similarity.
        for w in est.neighbours.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn scattered_neighbours_lower_confidence() {
        let (store, engine) = build();
        // Asking for every stored image as a neighbour forces votes from
        // both blocks ~2 km apart.
        let probe: Vec<f32> = (0..DIM).map(|_| 1.5).collect();
        let est = localize(&engine, &store, &probe, FeatureKind::Cnn, 30).unwrap();
        let tight: Vec<f32> = (0..DIM).map(|d| 3.0 + d as f32 * 0.01).collect();
        let tight_est = localize(&engine, &store, &tight, FeatureKind::Cnn, 8).unwrap();
        assert!(
            est.confidence < tight_est.confidence,
            "scattered {} !< tight {}",
            est.confidence,
            tight_est.confidence
        );
    }

    #[test]
    fn empty_store_returns_none() {
        let store = Arc::new(VisualStore::new());
        let engine = QueryEngine::build(Arc::clone(&store), Default::default());
        assert!(localize(&engine, &store, &[0.0; DIM], FeatureKind::Cnn, 5).is_none());
    }
}
