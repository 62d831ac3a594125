//! Property-based tests: arbitrary store contents survive the
//! persistence round trips — a rendered base segment, a compacted
//! directory — intact, compared by their encoded bytes. The generated
//! features hold `+0.0`, `-0.0` and NaN payloads, which the store must
//! keep bit for bit.

mod common;

use common::Scratch;
use std::collections::BTreeMap;
use std::sync::Arc;

use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_storage::store::first_difference;
use tvdp_storage::wal::{frame, pixel_blob, SEGMENT_MAGIC};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, DurableStore, ImageId, ImageMeta,
    ImageOrigin, ImageRecord, UserId, VisualStore, WalOp, UPLOAD_MARKER_CAPACITY,
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

/// A feature element: mostly a float in `[-scale, scale)`, now and then
/// a `+0.0`, a `-0.0` or a NaN with a payload and either sign.
fn arb_float(rng: &mut Rng, scale: f32) -> f32 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(
            rng.gen_range(0..2u32) << 31 | 0x7fc0_0000 | rng.gen_range(1..0x40_0000u32),
        ),
        _ => rng.gen_range(-scale..scale),
    }
}

fn arb_row(rng: &mut Rng) -> Row {
    Row {
        lat: rng.gen_range(33.5..34.5),
        lon: rng.gen_range(-119.0..-118.0),
        captured: rng.gen_range(0..1_000_000),
        keywords: (0..rng.gen_range(0..3)).map(|_| arb_word(rng)).collect(),
        label: rng.gen_range(0..3),
        confidence: rng.gen_range(0.0..=1.0),
        feature: (0..4).map(|_| arb_float(rng, 10.0)).collect(),
        with_pixels: rng.gen_bool(0.5),
    }
}

fn arb_rows(rng: &mut Rng, max: usize) -> Vec<Row> {
    (0..rng.gen_range(1..max)).map(|_| arb_row(rng)).collect()
}

/// `store`'s dump rendered as the base segment of a directory, and the
/// store that directory opens to.
fn reopened_from_its_base(store: &VisualStore, tag: u64) -> Arc<VisualStore> {
    let dir = Scratch::new(format!("tvdp-prop-base-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut base = SEGMENT_MAGIC.to_vec();
    for op in store.ops() {
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

/// The dump of the store `rows` describe, in the order
/// [`VisualStore::ops`] renders one: a scheme, one
/// upload per row (a CNN feature, pixels on some), an annotation per
/// row, and the empty marker table.
fn dump_of(rows: &[Row]) -> Vec<WalOp> {
    let scheme = ClassificationId(0);
    let mut ops = vec![WalOp::RegisterScheme {
        id: scheme,
        name: "s".into(),
        labels: vec!["a".into(), "b".into(), "c".into()],
    }];
    ops.extend(rows.iter().enumerate().map(|(i, row)| {
        let pixels = row
            .with_pixels
            .then(|| Image::from_fn(4, 4, |x, y| [(x + i) as u8, y as u8, row.label as u8]));
        WalOp::IngestUpload {
            marker: None,
            id: ImageId(i as u64),
            meta: ImageMeta {
                uploader: UserId(i as u64 % 4),
                gps: GeoPoint::new(row.lat, row.lon),
                fov: None,
                captured_at: row.captured,
                uploaded_at: row.captured + 1,
                keywords: row.keywords.clone(),
            },
            origin: ImageOrigin::Original,
            pixels: pixels.as_ref().map(pixel_blob),
            features: vec![(FeatureKind::Cnn, row.feature.clone())],
        }
    }));
    ops.extend(rows.iter().enumerate().map(|(i, row)| {
        WalOp::Annotate(Annotation {
            id: AnnotationId(i as u64),
            image: ImageId(i as u64),
            classification: scheme,
            label: row.label,
            confidence: row.confidence,
            source: AnnotationSource::Human(UserId(0)),
            region: None,
        })
    }));
    ops.push(WalOp::UploadMarkers(Vec::new()));
    ops
}

fn populate(rows: &[Row]) -> VisualStore {
    let store = VisualStore::new();
    store.apply_batch(dump_of(rows)).unwrap();
    store
}

#[test]
fn snapshot_roundtrip_preserves_everything() {
    for_each_case(CASES, |case, rng| {
        let rows = arb_rows(rng, 20);
        let want = dump_of(&rows);
        let store = populate(&rows);
        assert_eq!(first_difference(&store.ops(), &want), None, "case {case}");
        let restored = reopened_from_its_base(&store, case);
        assert_eq!(
            first_difference(&restored.ops(), &want),
            None,
            "case {case}: reopened"
        );
        for id in store.image_ids() {
            assert_eq!(restored.pixels(id), store.pixels(id));
        }
    });
}

#[test]
fn persistence_roundtrip_preserves_everything() {
    for_each_case(CASES, |case, rng| {
        let rows = arb_rows(rng, 12);
        let store = populate(&rows);
        let restored = reopened_from_its_base(&store, 100 + case);
        assert_eq!(restored.digest(), store.digest(), "case {case}");
        for id in store.image_ids() {
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
        let new_id = restored.peek_next_image_id();
        assert!(!before.contains(&new_id), "fresh id {new_id} collides");
        let meta = ImageMeta {
            uploader: UserId(0),
            gps: GeoPoint::new(34.0, -118.5),
            fov: None,
            captured_at: 0,
            uploaded_at: 1,
            keywords: vec![],
        };
        restored
            .apply_batch(vec![WalOp::AddImage {
                id: new_id,
                meta,
                origin: ImageOrigin::Original,
                pixels: None,
            }])
            .unwrap();
        assert_eq!(restored.len(), before.len() + 1);
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
            pixels: rich.then(|| {
                let raw = (0..6).map(|_| rng.gen_range(0..=255)).collect();
                pixel_blob(&Image::from_raw(2, 1, raw))
            }),
            features: if rich {
                vec![
                    (
                        FeatureKind::Cnn,
                        (0..4).map(|_| arb_float(rng, 1.0)).collect(),
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
                vector: (0..4).map(|_| arb_float(rng, 1.0)).collect(),
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
        let dir = Scratch::new(format!("tvdp-prop-compact-{}-{case}", std::process::id()));
        let (durable, _) = DurableStore::open(&dir).unwrap();
        // The same history on an in-memory store: what the directory
        // must come back as.
        let live = VisualStore::new();
        for batch in arb_history(rng) {
            let replays = live.apply_batch(batch.clone()).unwrap();
            assert_eq!(durable.apply_batch(batch).unwrap(), replays);
        }
        let markers = match live.ops().pop() {
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
            assert_eq!(
                first_difference(&restored.ops(), &live.ops()),
                None,
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
        same("reopened directory", &reopened.store_arc());
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
        same(
            "reopened directory after an eviction",
            &reopened.store_arc(),
        );
        same("reopened base after an eviction", &loaded);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The image table finds a row by checking the last one before any
/// search. Explicit ids arriving in any order — one past the last, far
/// above it, below it, between two rows — and features put and replaced
/// on any row must answer exactly as a sorted map does, live and after
/// the journal is reopened.
#[test]
fn explicit_ids_in_any_order_answer_as_a_sorted_model() {
    const KINDS: [FeatureKind; 3] = [
        FeatureKind::ColorHistogram,
        FeatureKind::SiftBow,
        FeatureKind::Cnn,
    ];
    for_each_case(6, |case, rng| {
        let dir = Scratch::new(format!("tvdp-prop-order-{}-{case}", std::process::id()));
        let (durable, _) = DurableStore::open(&dir).unwrap();
        let mut model: BTreeMap<ImageId, (ImageRecord, BTreeMap<FeatureKind, Vec<f32>>)> =
            BTreeMap::new();
        for step in 0..120 {
            let last = model.keys().next_back().map_or(0, |id| id.0);
            let held = |rng: &mut Rng| {
                let ids: Vec<ImageId> = model.keys().copied().collect();
                (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())])
            };
            let op = match rng.gen_range(0..10) {
                // A new image: mostly the next id, as uploads and replay
                // name it; else far above the last, or anywhere below it.
                0..=4 => {
                    let id = ImageId(match rng.gen_range(0..4) {
                        0 | 1 => last + 1,
                        2 => last + rng.gen_range(2..50),
                        _ => rng.gen_range(0..last + 1),
                    });
                    let mut features = Vec::new();
                    for kind in KINDS {
                        if rng.gen_bool(0.4) {
                            features.push((kind, arb_vector(rng)));
                        }
                    }
                    WalOp::IngestUpload {
                        marker: None,
                        id,
                        meta: arb_meta(rng),
                        origin: ImageOrigin::Original,
                        pixels: None,
                        features,
                    }
                }
                // A feature put, or replaced, on a held row; now and then
                // on an absent id, which is refused.
                5..=8 => WalOp::PutFeature {
                    image: match held(rng) {
                        Some(id) if rng.gen_bool(0.9) => id,
                        _ => ImageId(rng.gen_range(0..last + 60)),
                    },
                    kind: KINDS[rng.gen_range(0..3)],
                    vector: arb_vector(rng),
                },
                // A held id again, which is refused.
                _ => WalOp::AddImage {
                    id: held(rng).unwrap_or(ImageId(0)),
                    meta: arb_meta(rng),
                    origin: ImageOrigin::Original,
                    pixels: None,
                },
            };
            let accepted = match &op {
                WalOp::IngestUpload { id, .. } | WalOp::AddImage { id, .. } => {
                    !model.contains_key(id)
                }
                WalOp::PutFeature { image, .. } => model.contains_key(image),
                _ => unreachable!(),
            };
            let applied = durable.apply_batch(vec![op.clone()]);
            assert_eq!(applied.is_ok(), accepted, "case {case} step {step}: {op:?}");
            match op {
                WalOp::IngestUpload {
                    id,
                    meta,
                    origin,
                    features,
                    ..
                } if accepted => {
                    let record = ImageRecord {
                        id,
                        meta,
                        origin,
                        width: 0,
                        height: 0,
                    };
                    model.insert(id, (record, features.into_iter().collect()));
                }
                WalOp::PutFeature {
                    image,
                    kind,
                    vector,
                } if accepted => {
                    model.get_mut(&image).unwrap().1.insert(kind, vector);
                }
                _ => {}
            }

            // Every held id, the ids around and between them, and ids
            // past the last, asked one at a time and as one list.
            let store = durable.store_arc();
            let top = model.keys().next_back().map_or(0, |id| id.0);
            let mut probes: Vec<ImageId> = (0..top + 3).map(ImageId).collect();
            rng.shuffle(&mut probes);
            for &id in &probes {
                let want = model.get(&id);
                assert_eq!(
                    store.image(id).as_ref().map(row_bytes),
                    want.map(|(r, _)| row_bytes(r)),
                    "{id}"
                );
                for kind in KINDS {
                    let want = want.and_then(|(_, f)| f.get(&kind));
                    let handle = store.feature_handle(id, kind);
                    assert_eq!(
                        handle.map(|h| (h.kind, h.dim as usize)),
                        want.map(|v| (kind, v.len())),
                        "{id} {kind:?}"
                    );
                    assert_eq!(
                        store.feature(id, kind).as_deref().map(bits),
                        want.map(|v| bits(v)),
                        "{id} {kind:?}"
                    );
                }
            }
            let mut listed = Vec::new();
            store.with_images(&probes, |r| listed.push(r.id));
            let held: Vec<ImageId> = probes
                .iter()
                .copied()
                .filter(|id| model.contains_key(id))
                .collect();
            assert_eq!(listed, held, "case {case} step {step}");
        }

        // The dump is the model rendered by id, features in kind order.
        let mut want: Vec<WalOp> = model
            .iter()
            .map(|(id, (record, features))| WalOp::IngestUpload {
                marker: None,
                id: *id,
                meta: record.meta.clone(),
                origin: record.origin.clone(),
                pixels: None,
                features: features.clone().into_iter().collect(),
            })
            .collect();
        want.push(WalOp::UploadMarkers(Vec::new()));
        let live = durable.store_arc().ops();
        assert_eq!(first_difference(&live, &want), None, "case {case}");
        drop(durable);
        let (reopened, _) = DurableStore::open(&dir).unwrap();
        assert_eq!(
            first_difference(&reopened.store_arc().ops(), &live),
            None,
            "case {case}"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Zero to five floats: an empty vector is a row of its own.
fn arb_vector(rng: &mut Rng) -> Vec<f32> {
    (0..rng.gen_range(0..6))
        .map(|_| arb_float(rng, 1.0))
        .collect()
}

/// A vector's bits: how two feature rows compare.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// A record's fields as the journal encodes them: how two image rows
/// compare.
fn row_bytes(r: &ImageRecord) -> Vec<u8> {
    let op = WalOp::AddImage {
        id: r.id,
        meta: r.meta.clone(),
        origin: r.origin.clone(),
        pixels: None,
    };
    op.encode()
}

/// Replay applies a journal one record at a time, each checked against
/// the state the records before it left. A directory therefore reopens
/// to the store its writer built through group commits — however they
/// were cut, and wherever a compaction cut the journal — and that store
/// is what the journaled ops build as batches of one.
#[test]
fn a_journal_reopens_to_the_store_its_ops_build_one_at_a_time() {
    for_each_case(4, |case, rng| {
        let dir = Scratch::new(format!("tvdp-prop-replay-{}-{case}", std::process::id()));
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
        let live = durable.store_arc().ops();
        assert_eq!(
            first_difference(&one_at_a_time.ops(), &live),
            None,
            "case {case}"
        );
        drop(durable);
        let (reopened, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, journaled, "case {case}");
        assert_eq!(
            first_difference(&reopened.store_arc().ops(), &live),
            None,
            "case {case}"
        );
        assert_eq!(
            reopened.store_arc().peek_next_image_id(),
            one_at_a_time.peek_next_image_id()
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    });
}
