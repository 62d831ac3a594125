//! **Access**: the query language over the indexing substrate.
//!
//! The service owns the engine: one [`ShardedEngine`] over the
//! platform's store, republishing immutable index generations as rows
//! are indexed, so reads never block on ingest.

use std::sync::Arc;

use tvdp_kernel::Pool;
use tvdp_query::engine::EngineConfig;
use tvdp_query::{Query, QueryResult, ShardedEngine, Trace};
use tvdp_storage::{ImageId, VisualStore};

use crate::error::PlatformError;
use crate::platform::Tvdp;

/// The Access service's state: the engine over the platform's store.
pub(crate) struct Access {
    engine: ShardedEngine,
}

impl Access {
    /// An engine indexing every row `store` holds, sealing a segment
    /// every `seal_cap` rows (clamped to at least 1).
    pub(crate) fn new(store: &Arc<VisualStore>, seal_cap: usize) -> Self {
        Self {
            engine: ShardedEngine::with_seal_cap(
                vec![Arc::clone(store)],
                EngineConfig::default(),
                seal_cap,
            ),
        }
    }

    /// Indexes one stored image, publishing a new generation.
    pub(crate) fn index(&self, id: ImageId) {
        self.engine.index_image(0, id);
    }
}

impl Tvdp {
    /// **Access**: executes a query, scattering it across the published
    /// index generation's segments and gathering a deterministic merge.
    /// Reads never block on ingest. Malformed queries (e.g. a visual
    /// example of the wrong dimension) surface as
    /// [`PlatformError::Query`] instead of panicking.
    pub fn search(&self, query: &Query) -> Result<Vec<QueryResult>, PlatformError> {
        self.search_with_deadline(query, 0, i64::MAX)
    }

    /// **Access**: [`Tvdp::search`] under a virtual-clock deadline. The
    /// engine charges a modeled clock at scatter/gather and
    /// segment-scan boundaries and aborts with
    /// [`tvdp_query::QueryError::DeadlineExceeded`] (surfaced as
    /// [`PlatformError::Query`]) instead of burning pool time once the
    /// clock passes `deadline_ms`. The trip decision is deterministic
    /// across pool widths; at `i64::MAX` it never trips.
    pub fn search_with_deadline(
        &self,
        query: &Query,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<Vec<QueryResult>, PlatformError> {
        Ok(self.access.engine.try_execute_with_deadline(
            query,
            Pool::global(),
            now_ms,
            deadline_ms,
        )?)
    }

    /// **Access**: [`Tvdp::search_with_deadline`] with the planner's
    /// EXPLAIN: the same rows and a [`Trace`] of the work done for them
    /// (segments visited, scatter units, rows bounded and scored, tree
    /// nodes, one record per leaf), identical at any pool width.
    pub fn explain_with_deadline(
        &self,
        query: &Query,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<(Vec<QueryResult>, Trace), PlatformError> {
        Ok(self
            .access
            .engine
            .try_explain(query, Pool::global(), now_ms, deadline_ms)?)
    }

    /// Prices `query` in admission work units from each segment's
    /// cardinality statistics over the current published index
    /// generation. Read-only and deterministic; the admission
    /// controller charges this against its capacity budget before the
    /// query runs.
    pub fn estimate_query_cost(&self, query: &Query) -> u64 {
        self.access.engine.estimate_query_units(query)
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use crate::platform::{IngestRequest, PlatformConfig};
    use crate::users::Role;
    use tvdp_geo::GeoPoint;
    use tvdp_query::{SpatialQuery, TemporalField, TextualMode, VisualMode};
    use tvdp_storage::{ClassificationId, ImageOrigin, UserId, WalOp};
    use tvdp_vision::{CnnConfig, FeatureKind, Image};

    fn cfg() -> PlatformConfig {
        PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4, 8],
                pool_grid: 2,
                seed: 1,
            },
            ..Default::default()
        }
    }

    fn img(i: usize) -> Image {
        Image::from_fn(20, 20, |x, y| [(x * i) as u8, (y + 2 * i) as u8, 31])
    }

    fn req(i: i64) -> IngestRequest {
        IngestRequest {
            // Spread across the city, a few kilometres apart.
            gps: GeoPoint::new(34.0 + 0.025 * i as f64, -118.25 - 0.015 * i as f64),
            fov: None,
            captured_at: 1000 + i,
            uploaded_at: 1100 + i,
            keywords: vec!["street".into(), format!("kw{i}")],
        }
    }

    fn populated_with(config: PlatformConfig) -> Tvdp {
        let tvdp = Tvdp::new(config);
        let user = tvdp.register_user("LASAN", Role::Government);
        let scheme = tvdp
            .register_scheme("binary", vec!["red".into(), "blue".into()])
            .unwrap();
        for i in 0..24 {
            let id = tvdp.ingest(user, img(i), req(i as i64)).unwrap();
            tvdp.annotate(user, id, scheme, i % 2, 1.0, None).unwrap();
        }
        tvdp
    }

    #[test]
    fn seal_cap_choices_agree_on_every_query_family() {
        // The seal cap only moves the sealed-segment/tail-scan balance;
        // results must be bit-identical whether every row seals
        // immediately (cap 1), pairs seal (cap 2), or nothing seals in a
        // 24-row run (default cap 128).
        assert_eq!(cfg().seal_cap, tvdp_query::DEFAULT_SEAL_CAP);
        let reference = populated_with(cfg());
        let example = reference
            .store()
            .feature(ImageId(0), FeatureKind::Cnn)
            .unwrap();
        let queries = vec![
            Query::Textual {
                text: "street".into(),
                mode: TextualMode::Ranked(9),
            },
            Query::Temporal {
                field: TemporalField::Uploaded,
                from: 1104,
                to: 1118,
            },
            Query::Spatial(SpatialQuery::Nearest {
                point: GeoPoint::new(34.2, -118.4),
                k: 5,
            }),
            Query::Visual {
                example: example.clone(),
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(6),
            },
            Query::Categorical {
                scheme: ClassificationId(0),
                label: 0,
                min_confidence: 0.5,
            },
            Query::And(vec![
                Query::Temporal {
                    field: TemporalField::Captured,
                    from: 1000,
                    to: 1020,
                },
                Query::Visual {
                    example,
                    kind: FeatureKind::Cnn,
                    mode: VisualMode::TopK(4),
                },
            ]),
        ];
        // seal_cap: 0 is invalid input; construction clamps it to 1
        // rather than panicking deep inside the query layer.
        for cap in [0usize, 1, 2] {
            let tvdp = populated_with(PlatformConfig {
                seal_cap: cap,
                ..cfg()
            });
            assert_eq!(tvdp.stats().images, 24);
            for q in &queries {
                assert_eq!(
                    reference.search(q).unwrap(),
                    tvdp.search(q).unwrap(),
                    "seal_cap {cap} diverged from the default cap on {q:?}"
                );
            }
        }
    }

    /// Only a visual top-k reads projected bounds. The shapes the
    /// selective mixes send — spatial, temporal and keyword filters, a
    /// nearest-k, and a visual threshold alone or inside a region — run
    /// over a store past two arena chunks and leave the projection
    /// unfitted and every column underived; the first top-k derives
    /// them.
    #[test]
    fn only_a_visual_top_k_derives_the_projected_column() {
        const DIM: usize = 8;
        let store = Arc::new(VisualStore::new());
        for i in 0..2_100 {
            let meta = tvdp_storage::ImageMeta {
                uploader: UserId(1),
                gps: GeoPoint::new(34.0 + 1e-5 * i as f64, -118.25),
                fov: None,
                captured_at: 1_000 + i as i64,
                uploaded_at: 2_000,
                keywords: vec!["street".into()],
            };
            let feature = (0..DIM).map(|d| ((i * 7 + d * 13) % 17) as f32).collect();
            let row = WalOp::IngestUpload {
                marker: None,
                id: ImageId(i as u64),
                meta,
                origin: ImageOrigin::Original,
                pixels: None,
                features: vec![(FeatureKind::Cnn, feature)],
            };
            store.apply_batch(vec![row]).unwrap();
        }
        let tvdp = Tvdp::with_store(Arc::clone(&store), PlatformConfig::default());
        let derived = || store.slab_view(FeatureKind::Cnn, DIM, 0).projected_bytes();
        let region = Query::Spatial(SpatialQuery::Range(tvdp_geo::BBox::new(
            34.0, -118.26, 34.01, -118.24,
        )));
        let threshold = Query::Visual {
            example: vec![3.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(20.0),
        };
        let selective = [
            region.clone(),
            Query::Spatial(SpatialQuery::Nearest {
                point: GeoPoint::new(34.001, -118.25),
                k: 10,
            }),
            Query::And(vec![region.clone(), threshold.clone()]),
            Query::And(vec![
                Query::Temporal {
                    field: TemporalField::Captured,
                    from: 1_100,
                    to: 1_200,
                },
                Query::Textual {
                    text: "street".into(),
                    mode: TextualMode::Any,
                },
            ]),
            threshold,
        ];
        for q in &selective {
            assert!(!tvdp.search(q).unwrap().is_empty(), "{q:?}");
        }
        assert_eq!(derived(), 0, "a selective shape fitted or projected");
        let top = Query::Visual {
            example: vec![3.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(5),
        };
        assert_eq!(tvdp.search(&top).unwrap().len(), 5);
        assert!(derived() > 0, "a top-k derived nothing");
    }

    #[test]
    fn search_surfaces_kind_mismatch_instead_of_panicking() {
        let tvdp = populated_with(cfg());
        let err = tvdp
            .search(&Query::Visual {
                example: vec![0.5; 4],
                kind: FeatureKind::ColorHistogram,
                mode: VisualMode::TopK(3),
            })
            .unwrap_err();
        assert!(matches!(err, PlatformError::Query(_)), "got {err:?}");
        let err = tvdp
            .search(&Query::And(vec![Query::Visual {
                example: vec![0.5; 4],
                kind: FeatureKind::ColorHistogram,
                mode: VisualMode::Threshold(0.1),
            }]))
            .unwrap_err();
        assert!(matches!(err, PlatformError::Query(_)), "got {err:?}");
    }
}
