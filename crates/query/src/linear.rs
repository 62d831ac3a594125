//! Brute-force reference executor.
//!
//! Evaluates the same [`Query`] language as [`crate::QueryEngine`] by
//! scanning every image. Used to verify the index-backed engine and as
//! the baseline in the index benchmarks.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use tvdp_geo::BBox;
use tvdp_kernel::{l2_sq, TopK, TotalF32};
use tvdp_storage::{ImageId, ImageRecord, VisualStore};

use crate::types::{
    sort_ranked, Query, QueryResult, SpatialQuery, TemporalField, TextualMode, VisualMode,
};

/// Linear-scan executor over a store.
pub struct LinearExecutor {
    store: Arc<VisualStore>,
}

impl LinearExecutor {
    /// Creates the executor.
    pub fn new(store: Arc<VisualStore>) -> Self {
        Self { store }
    }

    fn records(&self) -> Vec<ImageRecord> {
        let mut out = Vec::with_capacity(self.store.len());
        self.store.for_each_image(|r| out.push(r.clone()));
        out
    }

    /// Executes a query by scanning.
    pub fn execute(&self, query: &Query) -> Vec<QueryResult> {
        match query {
            Query::Spatial(sq) => self.spatial(sq),
            Query::Visual {
                example,
                kind,
                mode,
            } => self.visual(example, *kind, *mode, None),
            Query::Categorical {
                scheme,
                label,
                min_confidence,
            } => {
                let mut ids: Vec<ImageId> = self
                    .store
                    .annotations_with_label(*scheme, *label)
                    .into_iter()
                    .filter(|a| a.confidence >= *min_confidence)
                    .map(|a| a.image)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids.into_iter()
                    .map(|id| QueryResult::new(id, 0.0))
                    .collect()
            }
            Query::Textual { text, mode } => self.textual(text, *mode),
            Query::Temporal { field, from, to } => self
                .records()
                .into_iter()
                .filter(|r| {
                    let t = match field {
                        TemporalField::Captured => r.meta.captured_at,
                        TemporalField::Uploaded => r.meta.uploaded_at,
                    };
                    t >= *from && t <= *to
                })
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
            Query::And(subs) => self.and(subs),
            Query::Or(subs) => self.or(subs),
        }
    }

    fn or(&self, subs: &[Query]) -> Vec<QueryResult> {
        let mut best: BTreeMap<ImageId, f64> = BTreeMap::new();
        for q in subs {
            for r in self.execute(q) {
                best.entry(r.image)
                    .and_modify(|s| *s = s.min(r.score))
                    .or_insert(r.score);
            }
        }
        let mut out: Vec<QueryResult> = best
            .into_iter()
            .map(|(id, s)| QueryResult::new(id, s))
            .collect();
        sort_ranked(&mut out);
        out
    }

    fn spatial(&self, sq: &SpatialQuery) -> Vec<QueryResult> {
        let records = self.records();
        match sq {
            SpatialQuery::Range(bbox) => records
                .into_iter()
                .filter(|r| r.scene_location.intersects(bbox))
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
            SpatialQuery::Nearest { point, k } => {
                let mut scored: Vec<(f64, ImageId)> = records
                    .into_iter()
                    .map(|r| (r.scene_location.min_distance_m(point), r.id))
                    .collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                scored.truncate(*k);
                scored
                    .into_iter()
                    .map(|(d, id)| QueryResult::new(id, d))
                    .collect()
            }
            SpatialQuery::Within(polygon) => records
                .into_iter()
                .filter(|r| polygon.intersects_bbox(&r.scene_location))
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
            SpatialQuery::Covering(p) => records
                .into_iter()
                .filter(|r| match &r.meta.fov {
                    Some(fov) => fov.contains(p),
                    None => r.scene_location.contains(p),
                })
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
            SpatialQuery::Directed { region, directions } => records
                .into_iter()
                .filter(|r| match &r.meta.fov {
                    Some(fov) => {
                        fov.scene_location().intersects(region)
                            && fov.direction_range().overlaps(directions)
                    }
                    None => false,
                })
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
        }
    }

    fn visual(
        &self,
        example: &[f32],
        kind: tvdp_vision::FeatureKind,
        mode: VisualMode,
        region: Option<&BBox>,
    ) -> Vec<QueryResult> {
        // Rank and threshold on squared distances (same order, no sqrt
        // per record); take the root only for the reported scores.
        // Features are borrowed from the arena (`feature_ref`), not
        // cloned, and top-k selection goes through a bounded heap.
        let distances = self
            .records()
            .into_iter()
            .filter(|r| region.is_none_or(|b| r.scene_location.intersects(b)))
            .filter_map(|r| {
                self.store
                    .feature_ref(r.id, kind)
                    .map(|f| (l2_sq(&f, example), r.id))
            });
        let scored: Vec<(f32, ImageId)> = match mode {
            VisualMode::TopK(k) => {
                let mut top = TopK::new(k);
                top.extend(distances.map(|(d_sq, id)| (TotalF32(d_sq), id)));
                top.into_sorted_vec()
                    .into_iter()
                    .map(|(TotalF32(d_sq), id)| (d_sq, id))
                    .collect()
            }
            VisualMode::Threshold(t) => {
                let mut hits: Vec<(f32, ImageId)> =
                    distances.filter(|(d_sq, _)| *d_sq <= t * t).collect();
                hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                hits
            }
        };
        let mut out: Vec<QueryResult> = scored
            .into_iter()
            .map(|(d_sq, id)| QueryResult::new(id, f64::from(d_sq.sqrt())))
            .collect();
        // Distinct squared distances can share one reported root; ties
        // on the reported score are broken by id, not by `d_sq`.
        sort_ranked(&mut out);
        out
    }

    fn textual(&self, text: &str, mode: TextualMode) -> Vec<QueryResult> {
        let terms = tvdp_index::inverted::tokenize(text);
        let match_doc = |keywords: &[String]| -> bool {
            let toks: HashSet<String> = keywords
                .iter()
                .flat_map(|k| tvdp_index::inverted::tokenize(k))
                .collect();
            match mode {
                TextualMode::All => terms.iter().all(|t| toks.contains(t)),
                _ => terms.iter().any(|t| toks.contains(t)),
            }
        };
        match mode {
            TextualMode::Ranked(k) => {
                // Brute-force tf-idf over the whole corpus.
                let mut idx = tvdp_index::InvertedIndex::new();
                let records = self.records();
                for (doc, r) in records.iter().enumerate() {
                    idx.index_document(doc, &r.meta.keywords.join(" "));
                }
                idx.search_ranked(text, k)
                    .into_iter()
                    .map(|(s, doc)| QueryResult::new(records[doc].id, s))
                    .collect()
            }
            _ => self
                .records()
                .into_iter()
                .filter(|r| !terms.is_empty() && match_doc(&r.meta.keywords))
                .map(|r| QueryResult::new(r.id, 0.0))
                .collect(),
        }
    }

    fn and(&self, subs: &[Query]) -> Vec<QueryResult> {
        if subs.is_empty() {
            return Vec::new();
        }
        // Mirror the engine's hybrid semantics: one range + one visual
        // leaf means "visual search restricted to the region".
        let ranges: Vec<&BBox> = subs
            .iter()
            .filter_map(|q| match q {
                Query::Spatial(SpatialQuery::Range(b)) => Some(b),
                _ => None,
            })
            .collect();
        let visuals: Vec<(&Vec<f32>, tvdp_vision::FeatureKind, VisualMode)> = subs
            .iter()
            .filter_map(|q| match q {
                Query::Visual {
                    example,
                    kind,
                    mode,
                } => Some((example, *kind, *mode)),
                _ => None,
            })
            .collect();
        if ranges.len() == 1 && visuals.len() == 1 {
            let (example, kind, mode) = visuals[0];
            let mut results = self.visual(example, kind, mode, Some(ranges[0]));
            let rest: Vec<&Query> = subs
                .iter()
                .filter(|q| {
                    !matches!(
                        q,
                        Query::Spatial(SpatialQuery::Range(_)) | Query::Visual { .. }
                    )
                })
                .collect();
            if !rest.is_empty() {
                let mut allowed: Option<BTreeSet<ImageId>> = None;
                for q in rest {
                    let ids: BTreeSet<ImageId> =
                        self.execute(q).into_iter().map(|r| r.image).collect();
                    allowed = Some(match allowed {
                        None => ids,
                        Some(prev) => prev.intersection(&ids).copied().collect(),
                    });
                }
                if let Some(allowed) = allowed {
                    results.retain(|r| allowed.contains(&r.image));
                }
            }
            return results;
        }

        let mut scored: BTreeMap<ImageId, f64> = BTreeMap::new();
        let mut allowed: Option<BTreeSet<ImageId>> = None;
        for q in subs {
            let results = self.execute(q);
            let ids: BTreeSet<ImageId> = results.iter().map(|r| r.image).collect();
            for r in &results {
                scored.entry(r.image).or_insert(r.score);
            }
            allowed = Some(match allowed {
                None => ids,
                Some(prev) => prev.intersection(&ids).copied().collect(),
            });
        }
        let mut out: Vec<QueryResult> = allowed
            .unwrap_or_default()
            .into_iter()
            .map(|id| QueryResult::new(id, scored.get(&id).copied().unwrap_or(0.0)))
            .collect();
        sort_ranked(&mut out);
        out
    }
}
