//! Write-path parity: every mutation is a `WalOp` batch through one
//! commit seam, so the same script ends in the same store whether the
//! platform journals or not, the same uploads journal the same bytes
//! however they are cut into calls, and one idempotency key stores one
//! row whoever submits it.

use std::path::PathBuf;
use std::sync::Barrier;

use tvdp_core::platform::Algorithm;
use tvdp_core::{
    IngestRequest, KeyframePolicy, PlatformConfig, PlatformError, Role, Tvdp, Upload, VideoFrame,
    WidthSetBy,
};
use tvdp_geo::{Fov, GeoPoint};
use tvdp_kernel::Pool;
use tvdp_query::{Query, TemporalField};
use tvdp_storage::wal::{self, frame, SEGMENT_MAGIC};
use tvdp_storage::{le, pixels};
use tvdp_storage::{ImageId, RegionOfInterest, Snapshot, WalOp};
use tvdp_vision::{Augmentation, CnnConfig, FeatureKind, Image};

fn config() -> PlatformConfig {
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

/// Two visually distinct classes (even `i` red, odd `i` blue).
fn scene(i: usize) -> Image {
    Image::from_fn(24, 24, |x, y| {
        let v = ((x * 3 + y * 5 + i) % 17) as u8 * 3;
        if i.is_multiple_of(2) {
            [200, v, v]
        } else {
            [v, v, 220]
        }
    })
}

/// Spread across the city, several hundred metres apart.
fn request(i: usize) -> IngestRequest {
    IngestRequest {
        gps: GeoPoint::new(34.0 + 0.03 * i as f64, -118.25 - 0.02 * i as f64),
        fov: None,
        captured_at: 1000 + i as i64,
        uploaded_at: 1100 + i as i64,
        keywords: vec!["street".into(), format!("kw{i}")],
    }
}

fn upload(i: usize, key: Option<&str>) -> Upload {
    Upload {
        image: scene(i),
        request: request(i),
        key: key.map(str::to_string),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tvdp-write-path-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// One pass over every mutating entry point of the facade.
fn script(tvdp: &Tvdp) {
    let user = tvdp.register_user("LASAN", Role::Government);
    let mut ids = vec![tvdp.ingest(user, scene(0), request(0)).unwrap()];
    ids.extend(
        tvdp.ingest_batch(
            user,
            vec![(scene(1), request(1)), (scene(2), request(2))],
            2,
        )
        .unwrap(),
    );
    // Keyed and un-keyed uploads in one call, one key twice.
    let mixed = vec![
        upload(3, Some("k3")),
        upload(4, None),
        upload(3, Some("k3")),
        upload(5, Some("k5")),
    ];
    let stored = tvdp.ingest_uploads(user, mixed, &Pool::new(4)).unwrap();
    assert_eq!(stored[2], (stored[0].0, true), "in-batch duplicate key");
    assert!(!stored[0].1 && !stored[1].1 && !stored[3].1);
    // A retry of a stored key stores nothing.
    let retry = tvdp
        .ingest_uploads(user, vec![upload(5, Some("k5"))], &Pool::serial())
        .unwrap();
    assert_eq!(retry, vec![(stored[3].0, true)]);
    ids.extend([stored[0].0, stored[1].0, stored[3].0]);

    ids.push(
        tvdp.augment(user, ids[0], Augmentation::FlipHorizontal)
            .unwrap(),
    );
    let frames: Vec<VideoFrame> = (0..6)
        .map(|i| VideoFrame {
            image: scene(10 + i),
            fov: Fov::new(
                GeoPoint::new(34.02, -118.3).destination(90.0, 2500.0 * i as f64),
                90.0,
                60.0,
                80.0,
            ),
            captured_at: 2000 + i as i64,
        })
        .collect();
    let video = tvdp
        .ingest_video(
            user,
            &frames,
            KeyframePolicy::EveryNth(2),
            vec!["route-7".into()],
        )
        .unwrap();
    assert_eq!(video.keyframes.len(), 3);
    ids.extend(&video.keyframes);

    let scheme = tvdp
        .register_scheme("binary", vec!["red".into(), "blue".into()])
        .unwrap();
    for (n, &id) in ids.iter().enumerate() {
        tvdp.annotate(user, id, scheme, n % 2, 1.0, None).unwrap();
    }
    let region = RegionOfInterest {
        x: 2,
        y: 2,
        width: 8,
        height: 8,
    };
    tvdp.annotate(user, ids[0], scheme, 0, 1.0, Some(region))
        .unwrap();
    let model = tvdp
        .train_model(user, "m", scheme, FeatureKind::Cnn, Algorithm::NaiveBayes)
        .unwrap();
    let predictions = tvdp.apply_model(model, &ids).unwrap();
    assert_eq!(predictions.len(), ids.len());
    assert_eq!(tvdp.stats().images, ids.len());
    assert_eq!(tvdp.stats().annotations, 2 * ids.len() + 1);
}

#[test]
fn one_script_ends_in_one_state_on_every_platform_kind() {
    let memory = Tvdp::new(config());
    script(&memory);
    let expected = memory.store().snapshot();
    assert_ne!(expected, Snapshot::default());

    let dir = temp_dir("parity");
    let (durable, _) = Tvdp::open(&dir, config()).unwrap();
    script(&durable);
    assert_eq!(durable.store().snapshot(), expected, "journaled");
    drop(durable);

    let (reopened, _) = Tvdp::open(&dir, config()).unwrap();
    assert_eq!(reopened.store().snapshot(), expected, "replayed");
    // The retry still deduplicates after the restart.
    let user = reopened.register_user("LASAN", Role::Government);
    let retry = reopened
        .ingest_uploads(user, vec![upload(3, Some("k3"))], &Pool::serial())
        .unwrap();
    assert!(retry[0].1);
    assert_eq!(reopened.store().snapshot(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_same_uploads_journal_identical_bytes_however_they_are_cut() {
    const N: usize = 9;
    let wal = |dir: &PathBuf| std::fs::read(dir.join("wal-0.log")).unwrap();
    let one_by_one = temp_dir("bytes-single");
    {
        let (tvdp, _) = Tvdp::open(&one_by_one, config()).unwrap();
        let user = tvdp.register_user("LASAN", Role::Government);
        for i in 0..N {
            tvdp.ingest(user, scene(i), request(i)).unwrap();
        }
    }
    let expected = wal(&one_by_one);
    assert!(
        expected.len() > SEGMENT_MAGIC.len(),
        "records after the header"
    );
    for threads in [1, 8] {
        let batched = temp_dir(&format!("bytes-batch-{threads}"));
        let piped = temp_dir(&format!("bytes-uploads-{threads}"));
        {
            let (tvdp, _) = Tvdp::open(&batched, config()).unwrap();
            let user = tvdp.register_user("LASAN", Role::Government);
            let batch = (0..N).map(|i| (scene(i), request(i))).collect();
            tvdp.ingest_batch(user, batch, threads).unwrap();
            let (tvdp, _) = Tvdp::open(&piped, config()).unwrap();
            let user = tvdp.register_user("LASAN", Role::Government);
            let uploads = (0..N).map(|i| upload(i, None)).collect();
            tvdp.ingest_uploads(user, uploads, &Pool::new(threads))
                .unwrap();
        }
        assert_eq!(wal(&batched), expected, "ingest_batch, {threads} thread(s)");
        assert_eq!(wal(&piped), expected, "ingest_uploads, {threads} thread(s)");
        std::fs::remove_dir_all(&batched).ok();
        std::fs::remove_dir_all(&piped).ok();
    }
    std::fs::remove_dir_all(&one_by_one).ok();
}

/// The ops of the segment at `path`.
fn ops_of(path: &std::path::Path) -> Vec<WalOp> {
    let bytes = std::fs::read(path).unwrap();
    let scan = wal::scan(path, &bytes[..]).unwrap();
    scan.collect::<Result<_, _>>().unwrap()
}

/// The record a build before the pixel code wrote for `op`: this
/// build's record with the coded pixel field (tag 2) swapped for the
/// raw one (tag 1) of the same image.
fn with_raw_pixels(op: &WalOp) -> Vec<u8> {
    let record = op.encode();
    let WalOp::IngestUpload {
        pixels: Some((width, height, code)),
        ..
    } = op
    else {
        return record;
    };
    let field = |tag: u8, bytes: &[u8]| {
        let mut field = vec![tag];
        le::put_u64(&mut field, *width as u64);
        le::put_u64(&mut field, *height as u64);
        le::put_bytes(&mut field, bytes);
        field
    };
    let coded = field(2, code);
    let image = pixels::decode(*width, *height, code).unwrap();
    let at = record
        .windows(coded.len())
        .position(|w| w == coded)
        .unwrap();
    [
        &record[..at],
        &field(1, image.raw())[..],
        &record[at + coded.len()..],
    ]
    .concat()
}

#[test]
fn a_journal_of_raw_pixels_reopens_and_flushes_into_codes() {
    const N: usize = 5;
    let dir = temp_dir("raw-pixels");
    let expected = {
        let (tvdp, _) = Tvdp::open(&dir, config()).unwrap();
        let user = tvdp.register_user("LASAN", Role::Government);
        let uploads = (0..N).map(|i| upload(i, Some(&format!("k{i}")))).collect();
        tvdp.ingest_uploads(user, uploads, &Pool::serial()).unwrap();
        tvdp.store().snapshot()
    };
    // The same journal as an older build wrote it: every pixel raw.
    let journal = dir.join("wal-0.log");
    let mut legacy = SEGMENT_MAGIC.to_vec();
    for op in ops_of(&journal) {
        legacy.extend_from_slice(&frame(&with_raw_pixels(&op)));
    }
    assert_ne!(legacy, std::fs::read(&journal).unwrap());
    std::fs::write(&journal, legacy).unwrap();

    let (tvdp, report) = Tvdp::open(&dir, config()).unwrap();
    assert_eq!(report.replayed_ops, N);
    assert_eq!(tvdp.store().snapshot(), expected);
    for i in 0..N {
        let id = ImageId(i as u64);
        assert_eq!(tvdp.store().pixels(id), Some(scene(i)), "image {i}");
    }
    // The fold writes this build's records: codes, and no raw field.
    tvdp.flush().unwrap();
    drop(tvdp);
    let base = dir.join("base-1.seg");
    let mut rewritten = SEGMENT_MAGIC.to_vec();
    for op in ops_of(&base) {
        rewritten.extend_from_slice(&frame(&op.encode()));
    }
    assert!(rewritten == std::fs::read(&base).unwrap());
    let (reopened, _) = Tvdp::open(&dir, config()).unwrap();
    assert_eq!(reopened.store().snapshot(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_requests_racing_on_one_key_store_one_row() {
    const ROUNDS: usize = 200;
    let dir = temp_dir("race");
    let platforms = [Tvdp::new(config()), Tvdp::open(&dir, config()).unwrap().0];
    for tvdp in &platforms {
        let user = tvdp.register_user("edge", Role::CommunityPartner);
        for round in 0..ROUNDS {
            // Both requests pass the cheap marker pre-check before either
            // commits; the store's own check under its write (or journal)
            // lock picks the winner.
            let start = Barrier::new(2);
            let submit = || {
                start.wait();
                let key = format!("race-{round}");
                tvdp.ingest_uploads(user, vec![upload(round, Some(&key))], &Pool::serial())
                    .map(|stored| stored[0])
            };
            let (a, b) = std::thread::scope(|scope| {
                let other = scope.spawn(submit);
                (submit(), other.join().expect("racing request panicked"))
            });
            let (a, b): ((ImageId, bool), (ImageId, bool)) = (a.unwrap(), b.unwrap());
            assert_eq!(a.0, b.0, "round {round}: one key, one id");
            assert!(
                a.1 != b.1,
                "round {round}: exactly one request stored the row"
            );
        }
        assert_eq!(tvdp.stats().images, ROUNDS);
        let everything = Query::Temporal {
            field: TemporalField::Captured,
            from: 0,
            to: i64::MAX,
        };
        assert_eq!(tvdp.search(&everything).unwrap().len(), ROUNDS);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// [`config`] with a CNN whose last stage is half as wide: its
/// features are narrower than the ones [`config`] writes.
fn narrower_cnn(seal_cap: usize) -> PlatformConfig {
    let mut narrower = config();
    narrower.cnn.stage_channels = vec![4, 4];
    narrower.seal_cap = seal_cap;
    narrower
}

/// The bytes of every journal and base segment in `dir`, by name.
fn segments(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// A directory reopened under another CNN configuration refuses an
/// upload whose features are not as wide as the stored rows, before
/// anything is journaled; the seal that upload would have made (seal
/// cap 4, three rows stored) used to mix the two widths and panic.
#[test]
fn an_upload_of_another_feature_width_is_refused_before_it_is_journaled() {
    let dir = temp_dir("width-upload");
    let wide = PlatformConfig {
        seal_cap: 4,
        ..config()
    };
    let (tvdp, _) = Tvdp::open(&dir, wide.clone()).unwrap();
    let user = tvdp.register_user("LASAN", Role::Government);
    for i in 0..3 {
        tvdp.ingest(user, scene(i), request(i)).unwrap();
    }
    let stored = tvdp.store().feature_widths(FeatureKind::Cnn);
    drop(tvdp);

    let (tvdp, _) = Tvdp::open(&dir, narrower_cnn(4)).unwrap();
    let user = tvdp.register_user("LASAN", Role::Government);
    let before = segments(&dir);
    for i in 3..5 {
        let err = tvdp.ingest(user, scene(i), request(i)).unwrap_err();
        match err {
            PlatformError::FeatureWidth {
                kind: FeatureKind::Cnn,
                expected,
                found,
                set_by: WidthSetBy::Store,
                ..
            } => assert!(expected == stored[0] && found < expected, "{err}"),
            other => panic!("upload {i}: {other:?}"),
        }
        let batch = vec![(scene(i), request(i)), (scene(i + 1), request(i + 1))];
        assert!(matches!(
            tvdp.ingest_batch(user, batch, 2),
            Err(PlatformError::FeatureWidth { .. })
        ));
    }
    assert_eq!(segments(&dir), before, "a refused upload was journaled");
    assert_eq!(tvdp.store().len(), 3);
    let all = Query::Temporal {
        field: TemporalField::Captured,
        from: 0,
        to: i64::MAX,
    };
    assert_eq!(tvdp.search(&all).unwrap().len(), 3);
    drop(tvdp);

    // The configuration the rows were written under still takes more.
    let (tvdp, _) = Tvdp::open(&dir, wide).unwrap();
    let user = tvdp.register_user("LASAN", Role::Government);
    for i in 3..6 {
        tvdp.ingest(user, scene(i), request(i)).unwrap();
    }
    assert_eq!(tvdp.search(&all).unwrap().len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal already holding CNN rows of two widths (written by a
/// build without the upload check) is refused at open with the first
/// image of the second width named, where the bulk index build used to
/// panic on the run that mixed them.
#[test]
fn opening_a_store_of_two_feature_widths_is_an_error_not_a_panic() {
    let dir = temp_dir("width-open");
    let (durable, _) = tvdp_storage::DurableStore::open(&dir).unwrap();
    let mut first_narrow = None;
    for (i, width) in [8usize, 8, 8, 4, 8].into_iter().enumerate() {
        let id = ImageId(i as u64 + 1);
        let rec = request(i);
        let meta = tvdp_storage::ImageMeta {
            uploader: tvdp_storage::UserId(1),
            gps: rec.gps,
            fov: rec.fov,
            captured_at: rec.captured_at,
            uploaded_at: rec.uploaded_at,
            keywords: rec.keywords,
        };
        durable
            .apply_batch(vec![
                tvdp_storage::WalOp::AddImage {
                    id,
                    meta,
                    origin: tvdp_storage::ImageOrigin::Original,
                    pixels: None,
                },
                tvdp_storage::WalOp::PutFeature {
                    image: id,
                    kind: FeatureKind::Cnn,
                    vector: vec![i as f32; width],
                },
            ])
            .unwrap();
        if width == 4 {
            first_narrow.get_or_insert(id);
        }
    }
    drop(durable);
    let err = Tvdp::open(&dir, config()).map(|_| ()).unwrap_err();
    match err {
        PlatformError::FeatureWidth {
            image,
            kind: FeatureKind::Cnn,
            expected: 8,
            found: 4,
            set_by: WidthSetBy::Store,
        } => assert_eq!(Some(image), first_narrow),
        other => panic!("{other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
