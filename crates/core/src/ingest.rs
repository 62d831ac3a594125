//! The write path: every platform mutation is a batch of [`WalOp`]s
//! handed to `Tvdp::commit`, and every upload — single, bulk, keyed,
//! video key frame, campaign capture — enters through
//! [`Tvdp::ingest_uploads`].

use std::collections::BTreeMap;

use tvdp_kernel::Pool;
use tvdp_storage::wal::pixel_blob;
use tvdp_storage::{ImageId, ImageMeta, ImageOrigin, Replays, UserId, WalOp};
use tvdp_vision::{FeatureKind, Image};

use crate::error::PlatformError;
use crate::platform::{IngestRequest, Tvdp};

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
/// crashes.
pub(crate) fn upload_op(
    id: ImageId,
    meta: ImageMeta,
    origin: ImageOrigin,
    image: Image,
    features: Vec<(FeatureKind, Vec<f32>)>,
    marker: Option<String>,
) -> WalOp {
    WalOp::IngestUpload {
        marker,
        id,
        meta,
        origin,
        pixels: Some(pixel_blob(image)),
        features,
    }
}

impl Tvdp {
    /// The one write seam, and the only place that knows a durable
    /// platform from an in-memory one. Either way `ops` are validated
    /// whole against the store and each other, then applied in order,
    /// all or none; a durable platform journals them in between as one
    /// framed write + one fsync. Uploads whose marker the store already
    /// holds are skipped and returned.
    pub(crate) fn commit(&self, ops: Vec<WalOp>) -> Result<Replays, PlatformError> {
        Ok(match &self.durable {
            Some(durable) => durable.apply_batch(ops)?,
            None => self.store.apply_batch(ops)?,
        })
    }

    /// **Acquisition**: the one upload pipeline. Returns `(id,
    /// replayed)` per upload, in input order.
    ///
    /// 1. Serially, in input order: an upload whose key was seen earlier
    ///    in the batch or is already stored replays that image; every
    ///    other upload is given the next id.
    /// 2. Feature extraction, which dominates ingest cost, fans out over
    ///    `pool`.
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
            let id = self.alloc_image_id();
            if let Some(marker) = &marker {
                batch_markers.insert(marker.clone(), id);
            }
            fresh.push((id, meta, upload.image, marker));
            outcomes.push((id, false));
        }

        let features = pool.map(&fresh, |_, (_, _, image, _)| self.extract_features(image));

        let ops = fresh
            .into_iter()
            .zip(features)
            .map(|((id, meta, image, marker), features)| {
                upload_op(id, meta, ImageOrigin::Original, image, features, marker)
            })
            .collect();
        let replays = self.commit(ops)?;
        for &(id, _) in outcomes.iter().filter(|(_, replayed)| !replayed) {
            if !replays.iter().any(|&(skipped, _)| skipped == id) {
                self.engine.index_image(0, id);
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
        for (&a, &b) in seq_ids.iter().zip(&par_ids) {
            assert_eq!(
                seq.store().feature(a, FeatureKind::Cnn),
                par.store().feature(b, FeatureKind::Cnn),
                "parallel extraction must be bit-identical"
            );
            assert_eq!(seq.store().image(a), par.store().image(b));
        }
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
    fn search_batch_matches_per_query_search() {
        let tvdp = Tvdp::new(cfg());
        let user = tvdp.register_user("u", Role::Government);
        let batch: Vec<(Image, IngestRequest)> = (0..12).map(|i| (img(i), req(i as i64))).collect();
        tvdp.ingest_batch(user, batch, 4).unwrap();
        let queries: Vec<Query> = (0..12)
            .map(|i| Query::Textual {
                text: format!("kw{i}"),
                mode: tvdp_query::TextualMode::All,
            })
            .collect();
        let batched = tvdp.search_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, results) in queries.iter().zip(&batched) {
            assert_eq!(&tvdp.search(q).unwrap(), results, "diverged on {q:?}");
        }
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
