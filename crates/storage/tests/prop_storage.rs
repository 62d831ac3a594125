//! Property-based tests: arbitrary store contents survive the
//! persistence round trips — a rendered base segment, a compacted
//! directory — intact.

use std::sync::Arc;

use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_storage::wal::{frame, SEGMENT_MAGIC};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, DurableStore, ImageId, ImageMeta,
    ImageOrigin, UserId, VisualStore, WalOp, UPLOAD_MARKER_CAPACITY,
};
use tvdp_vision::{FeatureKind, Image};

#[derive(Debug, Clone)]
struct Row {
    lat: f64,
    lon: f64,
    captured: i64,
    keywords: Vec<String>,
    label: usize,
    confidence: f32,
    feature: Vec<f32>,
    with_pixels: bool,
}

const CASES: u64 = 24;

/// One to eight lowercase letters.
fn arb_word(rng: &mut Rng) -> String {
    (0..rng.gen_range(1..=8))
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn arb_row(rng: &mut Rng) -> Row {
    Row {
        lat: rng.gen_range(33.5..34.5),
        lon: rng.gen_range(-119.0..-118.0),
        captured: rng.gen_range(0..1_000_000),
        keywords: (0..rng.gen_range(0..3)).map(|_| arb_word(rng)).collect(),
        label: rng.gen_range(0..3),
        confidence: rng.gen_range(0.0..=1.0),
        feature: (0..4).map(|_| rng.gen_range(-10.0..10.0)).collect(),
        with_pixels: rng.gen_bool(0.5),
    }
}

fn arb_rows(rng: &mut Rng, max: usize) -> Vec<Row> {
    (0..rng.gen_range(1..max)).map(|_| arb_row(rng)).collect()
}

/// `store`'s dump rendered as the base segment of a directory, and the
/// store that directory opens to.
fn reopened_from_its_base(store: &VisualStore, tag: u64) -> Arc<VisualStore> {
    let mut dir = std::env::temp_dir();
    dir.push(format!("tvdp-prop-base-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut base = SEGMENT_MAGIC.to_vec();
    for op in store.snapshot().into_ops() {
        base.extend_from_slice(&frame(&op.encode()));
    }
    std::fs::write(dir.join("base-0.seg"), base).unwrap();
    let (durable, report) = DurableStore::open(&dir).unwrap();
    assert!(report.snapshot_found);
    let restored = durable.store_arc();
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
    restored
}

fn populate(rows: &[Row]) -> VisualStore {
    let store = VisualStore::new();
    let scheme = store
        .register_scheme("s", vec!["a".into(), "b".into(), "c".into()])
        .unwrap();
    for (i, row) in rows.iter().enumerate() {
        let meta = ImageMeta {
            uploader: UserId(i as u64 % 4),
            gps: GeoPoint::new(row.lat, row.lon),
            fov: None,
            captured_at: row.captured,
            uploaded_at: row.captured + 1,
            keywords: row.keywords.clone(),
        };
        let pixels = row
            .with_pixels
            .then(|| Image::from_fn(4, 4, |x, y| [(x + i) as u8, y as u8, row.label as u8]));
        let id = store
            .add_image(meta, ImageOrigin::Original, pixels)
            .unwrap();
        store
            .put_feature(id, FeatureKind::Cnn, row.feature.clone())
            .unwrap();
        store
            .annotate(
                id,
                scheme,
                row.label,
                row.confidence,
                AnnotationSource::Human(UserId(0)),
                None,
            )
            .unwrap();
    }
    store
}

#[test]
fn snapshot_roundtrip_preserves_everything() {
    for_each_case(CASES, |case, rng| {
        let rows = arb_rows(rng, 20);
        let store = populate(&rows);
        let restored = reopened_from_its_base(&store, case);
        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.annotation_count(), store.annotation_count());
        for id in store.image_ids() {
            assert_eq!(restored.image(id), store.image(id));
            assert_eq!(restored.pixels(id), store.pixels(id));
            assert_eq!(
                restored.feature(id, FeatureKind::Cnn),
                store.feature(id, FeatureKind::Cnn)
            );
            assert_eq!(restored.annotations_of(id), store.annotations_of(id));
        }
    });
}

#[test]
fn persistence_roundtrip_preserves_everything() {
    for_each_case(CASES, |case, rng| {
        let rows = arb_rows(rng, 12);
        let store = populate(&rows);
        let restored = reopened_from_its_base(&store, 100 + case);
        assert_eq!(restored.len(), store.len());
        for id in store.image_ids() {
            assert_eq!(restored.image(id), store.image(id));
            assert_eq!(restored.pixels(id), store.pixels(id));
        }
        // Label queries agree.
        let scheme = store.scheme_by_name("s").unwrap().id;
        for label in 0..3 {
            assert_eq!(
                restored.annotations_with_label(scheme, label).len(),
                store.annotations_with_label(scheme, label).len()
            );
        }
    });
}

#[test]
fn id_allocation_never_collides_after_restore() {
    for_each_case(CASES, |case, rng| {
        let rows = arb_rows(rng, 10);
        let store = populate(&rows);
        let restored = reopened_from_its_base(&store, 200 + case);
        let before = restored.image_ids();
        let meta = ImageMeta {
            uploader: UserId(0),
            gps: GeoPoint::new(34.0, -118.5),
            fov: None,
            captured_at: 0,
            uploaded_at: 1,
            keywords: vec![],
        };
        let new_id = restored
            .add_image(meta, ImageOrigin::Original, None)
            .unwrap();
        assert!(!before.contains(&new_id), "fresh id {new_id} collides");
    });
}

fn arb_meta(rng: &mut Rng) -> ImageMeta {
    ImageMeta {
        uploader: UserId(rng.gen_range(0..4)),
        gps: GeoPoint::new(rng.gen_range(33.5..34.5), rng.gen_range(-119.0..-118.0)),
        fov: None,
        captured_at: rng.gen_range(0..1_000_000),
        uploaded_at: rng.gen_range(0..1_000_000),
        keywords: (0..rng.gen_range(0..3)).map(|_| arb_word(rng)).collect(),
    }
}

/// The batches of one case of the compaction round trip: more keyed
/// uploads than the marker table holds, at explicit ids committed out of
/// id order; augmented children whose parent may carry the higher id;
/// replaced and empty feature rows; images with and without pixels and
/// features; annotations.
fn arb_history(rng: &mut Rng) -> Vec<Vec<WalOp>> {
    let uploads = UPLOAD_MARKER_CAPACITY + rng.gen_range(1..64);
    // Distinct ids in a shuffled order, with gaps.
    let mut ids: Vec<u64> = (0..uploads as u64 + 200).map(|i| i * 2).collect();
    rng.shuffle(&mut ids);
    let mut fresh = ids.into_iter().map(ImageId);
    let mut committed: Vec<ImageId> = Vec::new();
    let scheme = ClassificationId(rng.gen_range(0..9));
    let mut batches = vec![vec![WalOp::RegisterScheme {
        id: scheme,
        name: "s".into(),
        labels: vec!["a".into(), "b".into(), "c".into()],
    }]];
    let mut annotations = 0u64;
    let mut batch = Vec::new();
    for upload in 0..uploads {
        let id = fresh.next().unwrap();
        let rich = rng.gen_bool(0.05);
        // Now and then an early key comes back: a fresh upload if its
        // marker was evicted by then, a skipped replay if not.
        let reused = upload > UPLOAD_MARKER_CAPACITY && rng.gen_bool(0.3);
        batch.push(WalOp::IngestUpload {
            marker: Some(if reused {
                format!("k{}", rng.gen_range(0..8))
            } else {
                format!("k{upload}")
            }),
            id,
            meta: arb_meta(rng),
            origin: ImageOrigin::Original,
            pixels: rich.then(|| (2, 1, (0..6).map(|_| rng.gen_range(0..=255)).collect())),
            features: if rich {
                vec![
                    (
                        FeatureKind::Cnn,
                        (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    ),
                    (FeatureKind::ColorHistogram, Vec::new()),
                ]
            } else {
                Vec::new()
            },
        });
        if !reused {
            committed.push(id);
        }
        let known = committed[rng.gen_range(0..committed.len())];
        match rng.gen_range(0..40) {
            0 => {
                let child = fresh.next().unwrap();
                batch.push(WalOp::AddImage {
                    id: child,
                    meta: arb_meta(rng),
                    origin: ImageOrigin::Augmented {
                        parent: known,
                        op: "flip_h".into(),
                    },
                    pixels: None,
                });
                committed.push(child);
            }
            // Put twice: the second row replaces the first.
            1 | 2 => batch.extend((0..2).map(|_| WalOp::PutFeature {
                image: known,
                kind: FeatureKind::Cnn,
                vector: (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            })),
            3 => {
                batch.push(WalOp::Annotate(Annotation {
                    id: AnnotationId(annotations * 3 + rng.gen_range(0..3)),
                    image: known,
                    classification: scheme,
                    label: rng.gen_range(0..3),
                    confidence: rng.gen_range(0.0..=1.0),
                    source: AnnotationSource::Human(UserId(0)),
                    region: None,
                }));
                annotations += 1;
            }
            _ => {}
        }
        if batch.len() >= 512 {
            batches.push(std::mem::take(&mut batch));
        }
    }
    batches.push(batch);
    batches
}

#[test]
fn a_compacted_directory_reopens_to_the_store_that_was_compacted() {
    for_each_case(3, |case, rng| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tvdp-prop-compact-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (durable, _) = DurableStore::open(&dir).unwrap();
        // The same history on an in-memory store: what the directory
        // must come back as.
        let live = VisualStore::new();
        for batch in arb_history(rng) {
            let replays = live.apply_batch(batch.clone()).unwrap();
            assert_eq!(durable.apply_batch(batch).unwrap(), replays);
        }
        let markers = match live.snapshot().into_ops().pop() {
            Some(WalOp::UploadMarkers(markers)) => markers.len(),
            _ => 0,
        };
        assert_eq!(markers, UPLOAD_MARKER_CAPACITY);
        let ids = live.image_ids();
        assert!(
            ids.iter().any(|id| live.image(*id).is_some_and(
                |r| matches!(r.origin, ImageOrigin::Augmented { parent, .. } if parent > *id)
            )),
            "no child below its parent: the case does not exercise the render order"
        );

        let report = durable.compact().unwrap();
        drop(durable);
        let (reopened, recovery) = DurableStore::open(&dir).unwrap();
        assert!(recovery.snapshot_found);
        assert_eq!((recovery.replayed_ops, recovery.torn_bytes), (0, 0));
        assert_eq!(recovery.epoch, report.epoch);
        let same = |what: &str, restored: &VisualStore| {
            assert!(
                restored.snapshot() == live.snapshot(),
                "case {case}: {what}"
            );
            assert_eq!(restored.peek_next_image_id(), live.peek_next_image_id());
            assert_eq!(
                restored.peek_next_annotation_id(),
                live.peek_next_annotation_id()
            );
            assert_eq!(
                restored.peek_next_classification_id(),
                live.peek_next_classification_id()
            );
        };
        same("reopened directory", reopened.store());
        let loaded = reopened_from_its_base(&live, 300 + case);
        same("reopened base", &loaded);

        // One more keyed upload evicts the same marker everywhere: the
        // sequence numbers came back, not just the keys.
        let one_more = |id: ImageId| {
            vec![WalOp::IngestUpload {
                marker: Some("one-more".into()),
                id,
                meta: arb_meta(&mut Rng::seed_from_u64(case)),
                origin: ImageOrigin::Original,
                pixels: None,
                features: Vec::new(),
            }]
        };
        let id = live.peek_next_image_id();
        live.apply_batch(one_more(id)).unwrap();
        reopened.apply_batch(one_more(id)).unwrap();
        loaded.apply_batch(one_more(id)).unwrap();
        same("reopened directory after an eviction", reopened.store());
        same("reopened base after an eviction", &loaded);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Replay applies a journal one record at a time, each checked against
/// the state the records before it left. A directory therefore reopens
/// to the store its writer built through group commits — however they
/// were cut, and wherever a compaction cut the journal — and that store
/// is what the journaled ops build as batches of one.
#[test]
fn a_journal_reopens_to_the_store_its_ops_build_one_at_a_time() {
    for_each_case(4, |case, rng| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tvdp-prop-replay-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (durable, _) = DurableStore::open(&dir).unwrap();
        let one_at_a_time = VisualStore::new();
        let history = arb_history(rng);
        let fold_after = rng.gen_range(0..history.len() + 1);
        let mut journaled = 0;
        for (i, batch) in history.into_iter().enumerate() {
            let replays = durable.apply_batch(batch.clone()).unwrap();
            // Ids are never reused, so a skipped upload is named by its id.
            let skipped: Vec<ImageId> = replays.iter().map(|(carried, _)| *carried).collect();
            for op in batch {
                if matches!(&op, WalOp::IngestUpload { id, .. } if skipped.contains(id)) {
                    continue;
                }
                let replays = one_at_a_time.apply_batch(vec![op]).unwrap();
                assert!(
                    replays.is_empty(),
                    "case {case}: a journaled upload is fresh"
                );
                journaled += 1;
            }
            if i == fold_after {
                durable.compact().unwrap();
                journaled = 0;
            }
        }
        let live = durable.store().snapshot();
        assert!(one_at_a_time.snapshot() == live, "case {case}");
        drop(durable);
        let (reopened, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, journaled, "case {case}");
        assert!(reopened.store().snapshot() == live, "case {case}");
        assert_eq!(
            reopened.store().peek_next_image_id(),
            one_at_a_time.peek_next_image_id()
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    });
}
