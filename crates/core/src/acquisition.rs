//! **Acquisition**: uploads, augmentation and crowdsourced capture.
//!
//! The service owns the feature extractors (colour histogram and CNN)
//! and the image-id counter. Every upload — single, bulk, keyed, video
//! key frame, campaign capture — enters through
//! [`Tvdp::ingest_uploads`], is stored through the platform's one
//! write seam and is then indexed through Access.

use std::collections::BTreeMap;

use tvdp_crowd::{simulate_campaign, Campaign, CampaignReport, SimulationConfig};
use tvdp_geo::{Fov, GeoPoint};
use tvdp_kernel::sync::Mutex;
use tvdp_kernel::Pool;
use tvdp_query::{Query, VisualMode};
use tvdp_storage::wal::{pixel_blob, PixelBlob};
use tvdp_storage::{ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp};
use tvdp_vision::{
    Augmentation, CnnConfig, CnnExtractor, ColorHistogramExtractor, FeatureExtractor, FeatureKind,
    Image,
};

use crate::error::{PlatformError, WidthSetBy};
use crate::platform::{take_id, Tvdp};
use crate::video::{select_keyframes, KeyframePolicy, VideoFrame, VideoIngestReport};

/// Upload-time metadata for [`Tvdp::ingest`].
#[derive(Debug, Clone)]
pub struct IngestRequest {
    /// Camera GPS position.
    pub gps: GeoPoint,
    /// FOV descriptor when direction sensors were available.
    pub fov: Option<Fov>,
    /// Capture timestamp, Unix seconds.
    pub captured_at: i64,
    /// Upload timestamp, Unix seconds.
    pub uploaded_at: i64,
    /// Uploader-supplied keywords.
    pub keywords: Vec<String>,
}

/// Outcome of a deduplicating upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestOutcome {
    /// The image was new and stored under this id.
    Stored(ImageId),
    /// A near-duplicate already existed; nothing was stored.
    Duplicate {
        /// The previously stored near-duplicate.
        existing: ImageId,
        /// Feature distance to it.
        feature_distance: f32,
    },
}

/// One upload for [`Tvdp::ingest_uploads`].
#[derive(Debug, Clone)]
pub struct Upload {
    /// The pixels.
    pub image: Image,
    /// Upload-time metadata.
    pub request: IngestRequest,
    /// The client's idempotency key for this upload attempt, for
    /// at-least-once transports: a retry carrying the same key (e.g.
    /// after a lost acknowledgement) is answered with the originally
    /// stored image instead of storing a duplicate.
    pub key: Option<String>,
}

impl From<(Image, IngestRequest)> for Upload {
    fn from((image, request): (Image, IngestRequest)) -> Self {
        Upload {
            image,
            request,
            key: None,
        }
    }
}

/// Turns one upload into the op that stores it — the one place that
/// decides the journal's record shape. Keyed or not, an upload is one
/// composite record: the row and its features land or tear together,
/// and so does the dedup marker when there is one, which is what makes
/// an upload that was acked once ingested exactly once even across
/// crashes. `pixels` is the image's code ([`pixel_blob`]), made where
/// its features are extracted.
fn upload_op(
    id: ImageId,
    meta: ImageMeta,
    origin: ImageOrigin,
    pixels: PixelBlob,
    features: Vec<(FeatureKind, Vec<f32>)>,
    marker: Option<String>,
) -> WalOp {
    WalOp::IngestUpload {
        marker,
        id,
        meta,
        origin,
        pixels: Some(pixels),
        features,
    }
}

/// The Acquisition service's state.
pub(crate) struct Acquisition {
    color: ColorHistogramExtractor,
    cnn: CnnExtractor,
    next_image: Mutex<u64>,
}

impl Acquisition {
    /// The paper's extractors, with `cnn`'s architecture, allocating
    /// image ids after `store`'s.
    pub(crate) fn new(store: &VisualStore, cnn: CnnConfig) -> Self {
        Self {
            color: ColorHistogramExtractor::paper_default(),
            cnn: CnnExtractor::with_config(cnn),
            next_image: Mutex::new(store.peek_next_image_id().0),
        }
    }

    fn alloc_image_id(&self) -> ImageId {
        ImageId(take_id(&self.next_image))
    }
}

impl Tvdp {
    /// **Acquisition**: uploads an image; features (color histogram and
    /// CNN embedding) are extracted and every index is updated. A batch
    /// of one through [`Tvdp::ingest_uploads`].
    pub fn ingest(
        &self,
        user: UserId,
        image: Image,
        request: IngestRequest,
    ) -> Result<ImageId, PlatformError> {
        let uploads = vec![Upload::from((image, request))];
        Ok(self.ingest_uploads(user, uploads, &Pool::serial())?[0].0)
    }

    /// **Acquisition**: bulk upload — [`Tvdp::ingest_uploads`] without
    /// idempotency keys on a pool of `threads` workers. Ids are returned
    /// in input order.
    pub fn ingest_batch(
        &self,
        user: UserId,
        batch: Vec<(Image, IngestRequest)>,
        threads: usize,
    ) -> Result<Vec<ImageId>, PlatformError> {
        let uploads = batch.into_iter().map(Upload::from).collect();
        let stored = self.ingest_uploads(user, uploads, &Pool::new(threads))?;
        Ok(stored.into_iter().map(|(id, _)| id).collect())
    }

    /// **Acquisition**: the one upload pipeline. Returns `(id,
    /// replayed)` per upload, in input order.
    ///
    /// 1. Serially, in input order: an upload whose key was seen earlier
    ///    in the batch or is already stored replays that image; every
    ///    other upload is given the next id.
    /// 2. Feature extraction, which dominates ingest cost, and the
    ///    pixels' code fan out over `pool`.
    /// 3. The uploads become one commit — on a durable platform one
    ///    framed write and one fsync however many uploads — and are then
    ///    indexed.
    ///
    /// Ids, stored rows and journal bytes do not depend on the pool
    /// width or on how the same uploads are cut into calls.
    pub fn ingest_uploads(
        &self,
        user: UserId,
        uploads: Vec<Upload>,
        pool: &Pool,
    ) -> Result<Vec<(ImageId, bool)>, PlatformError> {
        self.require_user(user)?;
        let mut outcomes = Vec::with_capacity(uploads.len());
        let mut fresh = Vec::with_capacity(uploads.len());
        let mut batch_markers: BTreeMap<String, ImageId> = BTreeMap::new();
        for upload in uploads {
            // Scope the marker per uploader so two clients' self-chosen
            // keys can never collide.
            let marker = upload.key.map(|key| format!("u{}:{key}", user.0));
            if let Some(marker) = &marker {
                let stored = batch_markers.get(marker).copied();
                if let Some(prior) = stored.or_else(|| self.store.upload_marker(marker)) {
                    outcomes.push((prior, true));
                    continue;
                }
            }
            let request = upload.request;
            let meta = ImageMeta {
                uploader: user,
                gps: request.gps,
                fov: request.fov,
                captured_at: request.captured_at,
                uploaded_at: request.uploaded_at,
                keywords: request.keywords,
            };
            let id = self.acquisition.alloc_image_id();
            if let Some(marker) = &marker {
                batch_markers.insert(marker.clone(), id);
            }
            fresh.push((id, meta, upload.image, marker));
            outcomes.push((id, false));
        }

        let coded = pool.map(&fresh, |_, (_, _, image, _)| {
            (self.extract_features(image), pixel_blob(image))
        });
        for ((id, ..), (features, _)) in fresh.iter().zip(&coded) {
            self.check_widths(*id, features)?;
        }

        let ops = fresh
            .into_iter()
            .zip(coded)
            .map(|((id, meta, _, marker), (features, pixels))| {
                upload_op(id, meta, ImageOrigin::Original, pixels, features, marker)
            })
            .collect();
        let replays = self.commit(ops)?;
        for &(id, _) in outcomes.iter().filter(|(_, replayed)| !replayed) {
            if !replays.iter().any(|&(skipped, _)| skipped == id) {
                self.access.index(id);
            }
        }
        // The store re-checked each marker under the lock it inserts
        // under: a concurrent request that stored the key first wins.
        for (skipped, stored) in replays {
            for outcome in outcomes.iter_mut().filter(|o| o.0 == skipped) {
                *outcome = (stored, true);
            }
        }
        Ok(outcomes)
    }

    /// Refuses `features`, extracted for the image to be stored as `id`,
    /// when one of them is not as wide as the rows of its family the
    /// store already holds: a platform reopened under another extractor
    /// configuration would otherwise store rows the index cannot mix.
    /// Nothing has been journaled when this fails.
    fn check_widths(
        &self,
        id: ImageId,
        features: &[(FeatureKind, Vec<f32>)],
    ) -> Result<(), PlatformError> {
        for (kind, vector) in features.iter().filter(|(_, v)| !v.is_empty()) {
            let widths = self.store.feature_widths(*kind);
            if !widths.is_empty() && !widths.contains(&vector.len()) {
                return Err(PlatformError::FeatureWidth {
                    image: id,
                    kind: *kind,
                    expected: widths[0],
                    found: vector.len(),
                    set_by: WidthSetBy::Store,
                });
            }
        }
        Ok(())
    }

    /// **Acquisition**: uploads an image with near-duplicate detection
    /// (the paper's challenge 2: "visual data is huge in size and many
    /// times redundant"). When a stored image is visually within
    /// `max_feature_dist` (CNN feature distance) *and* spatially within
    /// `max_camera_distance_m`, the upload is rejected as a duplicate and
    /// the existing row is returned instead.
    pub fn ingest_dedup(
        &self,
        user: UserId,
        image: Image,
        request: IngestRequest,
        max_feature_dist: f32,
        max_camera_distance_m: f64,
    ) -> Result<IngestOutcome, PlatformError> {
        self.require_user(user)?;
        // A visual threshold query like any other request: validated
        // (a platform indexing another family refuses it), thresholded
        // in squared-distance space, nearest first.
        let candidates = self.search(&Query::Visual {
            example: self.acquisition.cnn.extract(&image),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(max_feature_dist),
        })?;
        for candidate in candidates {
            let Some(existing) = self.store.image(candidate.image) else {
                continue;
            };
            if existing.meta.gps.fast_distance_m(&request.gps) <= max_camera_distance_m {
                return Ok(IngestOutcome::Duplicate {
                    existing: candidate.image,
                    feature_distance: candidate.score as f32,
                });
            }
        }
        Ok(IngestOutcome::Stored(self.ingest(user, image, request)?))
    }

    /// **Acquisition**: ingests a video as a key-frame sequence (paper
    /// Section IV-B: "a video is represented by a sequence of key frames
    /// … each one is tagged with various descriptors"). Frames dropped by
    /// `policy` never hit storage.
    pub fn ingest_video(
        &self,
        user: UserId,
        frames: &[VideoFrame],
        policy: KeyframePolicy,
        keywords: Vec<String>,
    ) -> Result<VideoIngestReport, PlatformError> {
        let uploads = select_keyframes(frames, policy)
            .into_iter()
            .map(|i| {
                let frame = &frames[i];
                let request = IngestRequest {
                    gps: frame.fov.camera,
                    fov: Some(frame.fov),
                    captured_at: frame.captured_at,
                    uploaded_at: frame.captured_at + 1,
                    keywords: keywords.clone(),
                };
                Upload::from((frame.image.clone(), request))
            })
            .collect();
        let keyframes: Vec<ImageId> = self
            .ingest_uploads(user, uploads, Pool::global())?
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        Ok(VideoIngestReport {
            frames_offered: frames.len(),
            frames_dropped: frames.len() - keyframes.len(),
            keyframes,
        })
    }

    /// **Acquisition**: synthesizes an augmented variant of a stored
    /// image, recording lineage and extracting fresh features.
    // tvdp-lint: allow(dead_api, reason = "(c) paper capability: augmentation (Acquisition), which no route exposes yet")
    pub fn augment(
        &self,
        user: UserId,
        parent: ImageId,
        op: Augmentation,
    ) -> Result<ImageId, PlatformError> {
        self.require_user(user)?;
        let record = self
            .store
            .image(parent)
            .ok_or(PlatformError::UnknownImage(parent))?;
        let pixels = self
            .store
            .pixels(parent)
            .ok_or(PlatformError::MissingPixels(parent))?;
        let augmented = op.apply(&pixels);
        let features = self.extract_features(&augmented);
        let origin = ImageOrigin::Augmented {
            parent,
            op: op.tag(),
        };
        let id = self.acquisition.alloc_image_id();
        self.check_widths(id, &features)?;
        let op = upload_op(
            id,
            record.meta,
            origin,
            pixel_blob(&augmented),
            features,
            None,
        );
        self.commit(vec![op])?;
        self.access.index(id);
        Ok(id)
    }

    /// **Acquisition**: runs a spatial-crowdsourcing campaign. For each
    /// captured FOV, `capture` synthesizes the photo a worker would take
    /// (pixels, keywords, capture time); everything is ingested under
    /// `user` and the resulting image ids returned.
    pub fn acquire_via_campaign(
        &self,
        user: UserId,
        campaign: &Campaign,
        sim: &SimulationConfig,
        mut capture: impl FnMut(&Fov) -> (Image, Vec<String>, i64),
    ) -> Result<(CampaignReport, Vec<ImageId>), PlatformError> {
        self.require_user(user)?;
        let (report, fovs) = simulate_campaign(campaign, sim);
        let uploads = fovs
            .iter()
            .map(|fov| {
                let (image, keywords, captured_at) = capture(fov);
                let request = IngestRequest {
                    gps: fov.camera,
                    fov: Some(*fov),
                    captured_at,
                    uploaded_at: captured_at + 60,
                    keywords,
                };
                Upload::from((image, request))
            })
            .collect();
        let stored = self.ingest_uploads(user, uploads, Pool::global())?;
        Ok((report, stored.into_iter().map(|(id, _)| id).collect()))
    }

    /// Extracts the platform's feature families from an image *without*
    /// storing it (the "get visual features" API: edge devices and
    /// collaborators compute-on-upload).
    pub fn extract_features(&self, image: &Image) -> Vec<(FeatureKind, Vec<f32>)> {
        let acquisition = &self.acquisition;
        vec![
            (
                FeatureKind::ColorHistogram,
                acquisition.color.extract(image),
            ),
            (FeatureKind::Cnn, acquisition.cnn.extract(image)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::users::Role;

    fn fast_config() -> PlatformConfig {
        PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4, 8],
                pool_grid: 2,
                seed: 1,
            },
            min_training_samples: 6,
            ..Default::default()
        }
    }

    fn scene(class: usize, seed: usize) -> Image {
        // Two visually distinct synthetic classes.
        Image::from_fn(24, 24, |x, y| {
            let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
            if class == 0 {
                [200, v, v]
            } else if (x / 4 + y / 4) % 2 == 0 {
                [v, v, 220]
            } else {
                [20, 20, 40]
            }
        })
    }

    fn request(i: i64) -> IngestRequest {
        IngestRequest {
            gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
            fov: None,
            captured_at: 1000 + i,
            uploaded_at: 1100 + i,
            keywords: vec!["street".into()],
        }
    }

    #[test]
    fn ingest_extracts_features_and_indexes() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("LASAN", Role::Government);
        let id = tvdp.ingest(user, scene(0, 0), request(0)).unwrap();
        assert!(tvdp.store().feature(id, FeatureKind::Cnn).is_some());
        assert!(tvdp
            .store()
            .feature(id, FeatureKind::ColorHistogram)
            .is_some());
        let hits = tvdp
            .search(&Query::Textual {
                text: "street".into(),
                mode: tvdp_query::TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(tvdp.stats().images, 1);
    }

    #[test]
    fn unknown_user_rejected() {
        let tvdp = Tvdp::new(fast_config());
        let err = tvdp.ingest(UserId(7), scene(0, 0), request(0)).unwrap_err();
        assert!(matches!(err, PlatformError::UnknownUser(_)));
    }

    #[test]
    fn augment_records_lineage_and_is_searchable() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let parent = tvdp.ingest(user, scene(0, 1), request(1)).unwrap();
        let child = tvdp
            .augment(user, parent, Augmentation::FlipHorizontal)
            .unwrap();
        let rec = tvdp.store().image(child).unwrap();
        assert!(matches!(rec.origin, ImageOrigin::Augmented { parent: p, .. } if p == parent));
        assert!(tvdp.store().feature(child, FeatureKind::Cnn).is_some());
    }

    #[test]
    fn dedup_rejects_near_duplicates() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let first = tvdp.ingest(user, scene(0, 1), request(1)).unwrap();
        // Same pixels, same place: duplicate.
        let outcome = tvdp
            .ingest_dedup(user, scene(0, 1), request(1), 0.05, 50.0)
            .unwrap();
        assert_eq!(
            outcome,
            IngestOutcome::Duplicate {
                existing: first,
                feature_distance: 0.0
            }
        );
        assert_eq!(tvdp.stats().images, 1);
        // Same pixels far away: stored.
        let mut far = request(2);
        far.gps = GeoPoint::new(34.2, -118.25);
        let outcome = tvdp
            .ingest_dedup(user, scene(0, 1), far, 0.05, 50.0)
            .unwrap();
        assert!(matches!(outcome, IngestOutcome::Stored(_)));
        // Different pixels nearby: stored.
        let outcome = tvdp
            .ingest_dedup(user, scene(1, 9), request(1), 0.05, 50.0)
            .unwrap();
        assert!(matches!(outcome, IngestOutcome::Stored(_)));
        assert_eq!(tvdp.stats().images, 3);
    }

    #[test]
    fn dedup_threshold_matches_brute_force_distance() {
        // Regression test for the squared-distance dedup path: the
        // duplicate decision must be exactly `distance <= max_feature_dist`
        // where distance is the plain scalar Euclidean feature distance —
        // ranking on d² must not move the threshold boundary.
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let first_img = scene(0, 1);
        let first = tvdp.ingest(user, first_img.clone(), request(1)).unwrap();
        let stored = tvdp.store().feature(first, FeatureKind::Cnn).unwrap();

        let probe = scene(0, 3);
        let probe_feature = tvdp
            .extract_features(&probe)
            .into_iter()
            .find(|(k, _)| *k == FeatureKind::Cnn)
            .unwrap()
            .1;
        let brute_force: f32 = stored
            .iter()
            .zip(&probe_feature)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(brute_force > 0.0, "probe must differ from the stored image");

        // Thresholds straddling the true distance flip the outcome.
        let above = brute_force * 1.01;
        let below = brute_force * 0.99;
        match tvdp
            .ingest_dedup(user, probe.clone(), request(1), above, 50.0)
            .unwrap()
        {
            IngestOutcome::Duplicate {
                existing,
                feature_distance,
            } => {
                assert_eq!(existing, first);
                assert!(
                    (feature_distance - brute_force).abs() <= 1e-5 * brute_force.max(1.0),
                    "reported {feature_distance} vs brute-force {brute_force}"
                );
            }
            other => panic!("expected duplicate at threshold {above}, got {other:?}"),
        }
        assert!(matches!(
            tvdp.ingest_dedup(user, probe, request(1), below, 50.0)
                .unwrap(),
            IngestOutcome::Stored(_)
        ));
    }

    #[test]
    fn video_ingest_keeps_only_keyframes() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::Government);
        let base = GeoPoint::new(34.0, -118.25);
        // 12 frames: truck parked for 8, then driving for 4.
        let frames: Vec<VideoFrame> = (0..12)
            .map(|i| {
                let moved = if i < 8 { 0.0 } else { (i - 7) as f64 * 40.0 };
                VideoFrame {
                    image: scene(0, i),
                    fov: Fov::new(base.destination(90.0, moved), 90.0, 60.0, 80.0),
                    captured_at: 100 + i as i64,
                }
            })
            .collect();
        let report = tvdp
            .ingest_video(
                user,
                &frames,
                KeyframePolicy::SpatialNovelty {
                    min_move_m: 20.0,
                    min_turn_deg: 45.0,
                },
                vec!["route-7".into()],
            )
            .unwrap();
        assert_eq!(report.frames_offered, 12);
        assert_eq!(report.keyframes.len(), 5, "1 parked + 4 moving");
        assert_eq!(report.frames_dropped, 7);
        assert_eq!(tvdp.stats().images, 5);
        // Every key frame carries its own FOV and is searchable.
        for &id in &report.keyframes {
            assert!(tvdp.store().image(id).unwrap().meta.fov.is_some());
        }
        let hits = tvdp
            .search(&Query::Textual {
                text: "route 7".into(),
                mode: tvdp_query::TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 5);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::users::Role;
    use tvdp_geo::GeoPoint;
    use tvdp_query::Query;
    use tvdp_vision::CnnConfig;

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
        Image::from_fn(20, 20, |x, y| [(x * i) as u8, (y + i) as u8, 7])
    }

    fn req(i: i64) -> IngestRequest {
        IngestRequest {
            gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
            fov: None,
            captured_at: i,
            uploaded_at: i + 1,
            keywords: vec![format!("kw{i}")],
        }
    }

    #[test]
    fn batch_matches_sequential_ingest() {
        let seq = Tvdp::new(cfg());
        let par = Tvdp::new(cfg());
        let user_s = seq.register_user("u", Role::Government);
        let user_p = par.register_user("u", Role::Government);
        let batch: Vec<(Image, IngestRequest)> = (0..17).map(|i| (img(i), req(i as i64))).collect();
        let seq_ids: Vec<ImageId> = batch
            .iter()
            .map(|(im, rq)| seq.ingest(user_s, im.clone(), rq.clone()).unwrap())
            .collect();
        let par_ids = par.ingest_batch(user_p, batch, 4).unwrap();
        assert_eq!(seq_ids, par_ids, "ids in input order");
        let dump = |tvdp: &Tvdp| tvdp.store().snapshot().into_ops();
        assert_eq!(
            tvdp_storage::store::first_difference(&dump(&seq), &dump(&par)),
            None,
            "parallel extraction must be bit-identical"
        );
        // Index sees everything.
        let hits = par
            .search(&Query::Textual {
                text: "kw3".into(),
                mode: tvdp_query::TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn batch_handles_empty_and_single() {
        let tvdp = Tvdp::new(cfg());
        let user = tvdp.register_user("u", Role::Government);
        assert!(tvdp.ingest_batch(user, vec![], 4).unwrap().is_empty());
        let one = tvdp.ingest_batch(user, vec![(img(1), req(1))], 8).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn batch_rejects_unknown_user() {
        let tvdp = Tvdp::new(cfg());
        let err = tvdp
            .ingest_batch(UserId(9), vec![(img(1), req(1))], 2)
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnknownUser(_)));
    }

    fn keyed(i: usize, key: &str) -> Upload {
        Upload {
            image: img(i),
            request: req(i as i64),
            key: Some(key.into()),
        }
    }

    #[test]
    fn keyed_uploads_replay_retries() {
        let tvdp = Tvdp::new(cfg());
        let user = tvdp.register_user("LASAN", Role::Government);
        let pool = Pool::serial();
        let first = tvdp
            .ingest_uploads(user, vec![keyed(0, "cam7-frame3")], &pool)
            .unwrap();
        assert!(!first[0].1);
        assert!(tvdp.store().feature(first[0].0, FeatureKind::Cnn).is_some());
        // The lost-ack retry is acknowledged without a second row.
        let again = tvdp
            .ingest_uploads(user, vec![keyed(0, "cam7-frame3")], &pool)
            .unwrap();
        assert_eq!(again, vec![(first[0].0, true)]);
        assert_eq!(tvdp.stats().images, 1);
        // The same key from a different user is a different upload.
        let other = tvdp.register_user("USC", Role::Researcher);
        let theirs = tvdp
            .ingest_uploads(other, vec![keyed(1, "cam7-frame3")], &pool)
            .unwrap();
        assert!(!theirs[0].1);
        assert_ne!(theirs[0].0, first[0].0);
        // Each stored upload was indexed exactly once.
        let all = Query::Temporal {
            field: tvdp_query::TemporalField::Captured,
            from: 0,
            to: 10,
        };
        assert_eq!(tvdp.search(&all).unwrap().len(), 2);
    }

    #[test]
    fn keyed_batch_dedups_in_batch_and_across_reopen() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tvdp-ingest-keyed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let first;
        {
            let (tvdp, _) = Tvdp::open(&dir, cfg()).unwrap();
            let user = tvdp.register_user("LASAN", Role::Government);
            // A retry of s0 inside the same batch dedups against the
            // first element, not a new row; the un-keyed upload between
            // them lands beside the keyed ones.
            let batch = vec![
                keyed(0, "s0"),
                Upload::from((img(1), req(1))),
                keyed(0, "s0"),
            ];
            let outcomes = tvdp.ingest_uploads(user, batch, &Pool::new(2)).unwrap();
            assert!(!outcomes[0].1 && !outcomes[1].1);
            assert_eq!(outcomes[2], (outcomes[0].0, true));
            assert_eq!(tvdp.stats().images, 2);
            first = outcomes[0].0;
        }
        let (tvdp, report) = Tvdp::open(&dir, cfg()).unwrap();
        // One composite record per stored upload, keyed or not.
        assert_eq!(report.replayed_ops, 2);
        assert_eq!(tvdp.stats().images, 2);
        // The client's retry after the crash still deduplicates.
        let user = tvdp.register_user("LASAN", Role::Government);
        let retry = tvdp
            .ingest_uploads(user, vec![keyed(0, "s0")], &Pool::serial())
            .unwrap();
        assert_eq!(retry, vec![(first, true)]);
        assert_eq!(tvdp.stats().images, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
