//! Durability suite: a write killed at every byte offset recovers the
//! pre- or post-write state, acknowledged writes survive a reopen, a
//! fold keeps the state, an older build's files are refused untouched,
//! and a full disk sheds writes and heals without a restart.
//!
//! The disk fills through `tvdp_storage::disk`'s hook on the test's own
//! thread. Stores are compared by their encoded bytes
//! ([`VisualStore::digest`], `first_difference`), and the states hold
//! `-0.0`s and NaN payloads, which a float equality would not tell from
//! `+0.0` and from each other. A crash is a byte prefix of one write
//! here, laid down by hand; `crash_states.rs` opens every state a crash
//! at any disk operation can leave, which these tortures are a subset
//! of.

mod common;

use common::Scratch;
use std::cell::Cell;
use std::path::Path;

use tvdp_geo::{Fov, GeoPoint};
use tvdp_storage::disk::{self, Fault, Op};
use tvdp_storage::store::first_difference;
use tvdp_storage::wal::{frame, pixel_blob, WalError, SEGMENT_MAGIC};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, DurableError, DurableStore,
    HealthState, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp,
};
use tvdp_vision::{FeatureKind, Image};

fn meta(keyword: &str) -> ImageMeta {
    ImageMeta {
        uploader: UserId(1),
        gps: GeoPoint::new(34.05, -118.25),
        fov: None,
        captured_at: 100,
        uploaded_at: 110,
        keywords: vec![keyword.into()],
    }
}

// Single mutations, each journaled as a batch of one at the store's
// next id, the way `Tvdp::commit` journals them.

fn journal_image(
    ds: &DurableStore,
    meta: ImageMeta,
    origin: ImageOrigin,
    pixels: Option<Image>,
) -> Result<ImageId, DurableError> {
    let id = ds.store_arc().peek_next_image_id();
    ds.apply_batch(vec![WalOp::AddImage {
        id,
        meta,
        origin,
        pixels: pixels.as_ref().map(pixel_blob),
    }])?;
    Ok(id)
}

fn journal_feature(
    ds: &DurableStore,
    image: ImageId,
    kind: FeatureKind,
    vector: Vec<f32>,
) -> Result<(), DurableError> {
    ds.apply_batch(vec![WalOp::PutFeature {
        image,
        kind,
        vector,
    }])
    .map(drop)
}

fn journal_scheme(
    ds: &DurableStore,
    name: &str,
    labels: Vec<String>,
) -> Result<ClassificationId, DurableError> {
    let id = ds.store_arc().peek_next_classification_id();
    ds.apply_batch(vec![WalOp::RegisterScheme {
        id,
        name: name.into(),
        labels,
    }])?;
    Ok(id)
}

fn journal_label(
    ds: &DurableStore,
    image: ImageId,
    classification: ClassificationId,
    label: usize,
    confidence: f32,
    source: AnnotationSource,
) -> Result<(), DurableError> {
    ds.apply_batch(vec![WalOp::Annotate(Annotation {
        id: ds.store_arc().peek_next_annotation_id(),
        image,
        classification,
        label,
        confidence,
        source,
        region: None,
    })])
    .map(drop)
}

thread_local! {
    /// Bytes the next write on a full disk keeps.
    static KEEP: Cell<usize> = const { Cell::new(0) };
}

/// Fills this thread's disk: its next write keeps `kept` bytes and
/// fails with ENOSPC, and every later one keeps none, until
/// [`free_disk`].
fn fill_disk(kept: usize) {
    KEEP.set(kept);
    disk::set_hook(Some(full));
}

fn free_disk() {
    disk::set_hook(None);
}

fn full(op: &Op<'_>) -> Option<Fault> {
    matches!(op, Op::Write { .. }).then(|| Fault {
        kept: KEEP.replace(0),
        error: std::io::Error::from_raw_os_error(28),
    })
}

fn temp_dir(name: &str) -> Scratch {
    Scratch::new(format!("tvdp-durability-{name}-{}", std::process::id()))
}

/// Lays a durable-store directory down from raw bytes: a base segment
/// (if any) and the live journal segment, both at `epoch`.
fn write_dir(dir: &Path, base: Option<&[u8]>, epoch: u64, wal: &[u8]) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    if let Some(b) = base {
        std::fs::write(dir.join(format!("base-{epoch}.seg")), b).unwrap();
    }
    std::fs::write(dir.join(format!("wal-{epoch}.log")), wal).unwrap();
}

/// The base segment compaction publishes for a store whose dump is
/// `ops`.
fn render_base(ops: &[WalOp]) -> Vec<u8> {
    let mut bytes = SEGMENT_MAGIC.to_vec();
    for op in ops {
        bytes.extend_from_slice(&frame(&op.encode()));
    }
    bytes
}

/// The store's state as the records a base segment of it holds.
fn dump(store: &VisualStore) -> Vec<WalOp> {
    store.snapshot().into_ops()
}

/// A NaN whose payload a canonicalising copy would lose.
fn nan_with_payload() -> f32 {
    f32::from_bits(0xffc0_0042)
}

/// Byte offsets at which each WAL record ends (plus leading 0: until
/// the header and a whole record are down, no op is), parsed from the
/// length prefixes of well-formed records.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut pos = SEGMENT_MAGIC.len();
    assert_eq!(bytes[..pos], SEGMENT_MAGIC);
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + 4 + len;
        bounds.push(pos);
    }
    assert_eq!(pos, bytes.len());
    bounds
}

/// The dump of the store every scripted test starts from, written out
/// by hand: a scheme, one upload with pixels and a colour vector holding
/// a `-0.0` and a NaN payload, an annotation, and the empty marker
/// table. A store that holds anything else for these ops, or a replay
/// that reads them back as anything else, fails every comparison.
fn base_ops() -> Vec<WalOp> {
    let (img, cls) = (ImageId(0), ClassificationId(0));
    vec![
        WalOp::RegisterScheme {
            id: cls,
            name: "cleanliness".into(),
            labels: vec!["clean".into(), "dirty".into()],
        },
        WalOp::IngestUpload {
            marker: None,
            id: img,
            meta: meta("base"),
            origin: ImageOrigin::Original,
            pixels: Some(pixel_blob(&Image::from_fn(1, 1, |_, _| [10, 20, 30]))),
            features: vec![(
                FeatureKind::ColorHistogram,
                vec![0.5, -0.0, nan_with_payload(), 0.125],
            )],
        },
        WalOp::Annotate(Annotation {
            id: AnnotationId(0),
            image: img,
            classification: cls,
            label: 0,
            confidence: 0.9,
            source: AnnotationSource::Human(UserId(1)),
            region: None,
        }),
        WalOp::UploadMarkers(Vec::new()),
    ]
}

/// The CNN vector the scripted mutations put: a `-0.0` and a NaN
/// payload among ordinary floats, in the raw form (no `+0.0`).
fn scripted_cnn() -> Vec<f32> {
    vec![0.1, -0.0, nan_with_payload(), -2.5]
}

/// Replays a scripted mutation sequence against a fresh durable dir
/// seeded with the base snapshot, returning the WAL bytes it produced
/// and the store state after each op (index 0 = pre-mutation state).
fn scripted_mutations(scratch: &Path) -> (Vec<u8>, Vec<Vec<WalOp>>) {
    let base = base_ops();
    write_dir(scratch, Some(&render_base(&base)), 0, b"");
    let (ds, _) = DurableStore::open(scratch).unwrap();
    let mut states = vec![dump(&ds.store_arc())];
    assert_eq!(first_difference(&states[0], &base), None);

    let img = journal_image(
        &ds,
        meta("wal-born"),
        ImageOrigin::Original,
        Some(Image::from_fn(1, 1, |_, _| [1, 2, 3])),
    )
    .unwrap();
    states.push(dump(&ds.store_arc()));
    journal_feature(&ds, img, FeatureKind::Cnn, scripted_cnn()).unwrap();
    states.push(dump(&ds.store_arc()));
    let cls = journal_scheme(&ds, "graffiti", vec!["none".into(), "tagged".into()]).unwrap();
    states.push(dump(&ds.store_arc()));
    journal_label(&ds, img, cls, 1, 0.7, AnnotationSource::Human(UserId(2))).unwrap();
    states.push(dump(&ds.store_arc()));

    let wal_bytes = std::fs::read(scratch.join("wal-0.log")).unwrap();
    (wal_bytes, states)
}

#[test]
fn save_killed_at_every_offset_preserves_the_old_snapshot() {
    let old = base_ops();
    let old_bytes = render_base(&old);

    // The new state a crashed save was trying to persist.
    let store = VisualStore::new();
    store.apply_batch(old.clone()).unwrap();
    store
        .apply_batch(vec![WalOp::AddImage {
            id: ImageId(1),
            meta: meta("new"),
            origin: ImageOrigin::Original,
            pixels: None,
        }])
        .unwrap();
    let new = dump(&store);
    let new_bytes = render_base(&new);

    let dir = temp_dir("save-torture");
    for cut in 0..=new_bytes.len() {
        // Crash mid-staging: the real snapshot is untouched, the
        // staging file holds whatever prefix made it to disk.
        write_dir(&dir, Some(&old_bytes), 0, b"");
        std::fs::write(dir.join("base-1.seg.tmp"), &new_bytes[..cut]).unwrap();
        let (ds, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(
            first_difference(&dump(&ds.store_arc()), &old),
            None,
            "staging cut at byte {cut}"
        );
        assert!(report.debris_removed >= 1);
    }

    // Crash after the rename committed: the new snapshot is complete.
    write_dir(&dir, Some(&new_bytes), 0, b"");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), &new), None);
}

#[test]
fn wal_append_killed_at_every_offset_is_pre_or_post_never_torn() {
    let scratch = temp_dir("wal-torture-scratch");
    let (wal_bytes, states) = scripted_mutations(&scratch);
    let bounds = record_boundaries(&wal_bytes);
    assert_eq!(bounds.len(), states.len());

    let base_bytes = render_base(&states[0]);
    let dir = temp_dir("wal-torture");
    for cut in 0..=wal_bytes.len() {
        write_dir(&dir, Some(&base_bytes), 0, &wal_bytes[..cut]);
        let (ds, report) = DurableStore::open(&dir).unwrap();
        // The store must equal the state after the last op whose
        // record fully made it to disk — nothing in between.
        let intact = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            first_difference(&dump(&ds.store_arc()), &states[intact]),
            None,
            "wal cut at byte {cut}: expected state after {intact} op(s)"
        );
        assert_eq!(report.replayed_ops, intact);
        // A whole header with nothing after it is as clean as a record
        // boundary; a cut inside the header is torn like any other.
        if cut != SEGMENT_MAGIC.len() && bounds.binary_search(&cut).is_err() {
            assert!(report.torn_bytes > 0, "cut at byte {cut} should be torn");
        }
    }
}

#[test]
fn journaled_mutation_that_returned_ok_survives_reopen() {
    let dir = temp_dir("acked");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    // After each acknowledged mutation, a crash (drop without
    // compaction or any explicit flush) must not lose it.
    let img = journal_image(
        &ds,
        meta("acked"),
        ImageOrigin::Original,
        Some(Image::from_fn(1, 1, |_, _| [9, 9, 9])),
    )
    .unwrap();
    let after_add = dump(&ds.store_arc());
    drop(ds);
    let (ds, _) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), &after_add), None);

    let cls = journal_scheme(&ds, "acked-scheme", vec!["yes".into(), "no".into()]).unwrap();
    journal_feature(&ds, img, FeatureKind::SiftBow, vec![1.0; 8]).unwrap();
    journal_label(&ds, img, cls, 0, 1.0, AnnotationSource::Human(UserId(3))).unwrap();
    let after_all = dump(&ds.store_arc());
    drop(ds);
    let (ds, _) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), &after_all), None);
}

#[test]
fn snapshot_plus_wal_replay_equals_live_store() {
    let dir = temp_dir("replay-equality");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    let img = journal_image(
        &ds,
        meta("live"),
        ImageOrigin::Original,
        Some(Image::from_fn(2, 3, |x, y| [x as u8, y as u8, 7])),
    )
    .unwrap();
    let cls = journal_scheme(&ds, "lighting", vec!["lit".into(), "dark".into()]).unwrap();
    ds.compact().unwrap();
    // Post-compaction mutations live only in the WAL.
    let child = journal_image(
        &ds,
        meta("child"),
        ImageOrigin::Augmented {
            parent: img,
            op: "flip_h".into(),
        },
        None,
    )
    .unwrap();
    journal_feature(&ds, child, FeatureKind::Cnn, vec![0.25; 4]).unwrap();
    journal_label(&ds, child, cls, 1, 0.6, AnnotationSource::Human(UserId(1))).unwrap();
    let live = dump(&ds.store_arc());
    drop(ds);

    let (reopened, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, 3);
    assert_eq!(first_difference(&dump(&reopened.store_arc()), &live), None);
    // Ids keep advancing from where the live store left off.
    let next = journal_image(&reopened, meta("next"), ImageOrigin::Original, None).unwrap();
    assert!(next.raw() > child.raw());
}

#[test]
fn compaction_preserves_state_and_shrinks_the_log() {
    let dir = temp_dir("compaction");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    for i in 0..8 {
        let img = journal_image(
            &ds,
            meta(&format!("img-{i}")),
            ImageOrigin::Original,
            Some(Image::from_fn(4, 4, |x, y| [x as u8, y as u8, i])),
        )
        .unwrap();
        journal_feature(&ds, img, FeatureKind::Cnn, vec![f32::from(i); 16]).unwrap();
    }
    let live = dump(&ds.store_arc());
    let wal_bytes = |epoch: u64| {
        std::fs::metadata(dir.join(format!("wal-{epoch}.log")))
            .unwrap()
            .len()
    };
    let wal_before = wal_bytes(0);
    let report = ds.compact().unwrap();
    assert_eq!(report.wal_bytes_before, wal_before);
    // A segment with no record in it is its header.
    let empty = SEGMENT_MAGIC.len() as u64;
    assert!(wal_before > empty);
    assert_eq!(wal_bytes(1), empty);
    assert_eq!(first_difference(&dump(&ds.store_arc()), &live), None);
    drop(ds);
    let (reopened, recovery) = DurableStore::open(&dir).unwrap();
    assert_eq!(recovery.epoch, 1);
    assert_eq!(recovery.replayed_ops, 0);
    assert_eq!(first_difference(&dump(&reopened.store_arc()), &live), None);
}

/// Rows that mix FOV and FOV-less rows with hostile keywords (none,
/// repeats, mixed case, non-ASCII, empty and space-only strings, a list
/// longer than any inline width), augmented rows and pixel-less rows,
/// keep the store's digest through a reopen (journal replay), a fold
/// and the reopen after it, and read back as they were journaled: the
/// store numbers each keyword string once and keeps origins beside the
/// table, and neither changes a byte of what it dumps.
#[test]
fn interned_keywords_and_side_origins_keep_the_digest_through_reopen_and_fold() {
    let dir = temp_dir("interned-rows");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    let long: Vec<&str> = (0..40)
        .map(|i| ["Tent", "tent", "Straße", ""][i % 4])
        .collect();
    let lists: [&[&str]; 5] = [
        &[],
        &["Street", "street", "STREET", "Street"],
        &["Straße", "İstanbul café", "ΟΔΟΣ 7"],
        &["", " "],
        &long,
    ];
    let row = |i: u64| {
        let mut m = meta("");
        m.keywords = lists[i as usize % 5]
            .iter()
            .map(|k| k.to_string())
            .collect();
        m.fov = i
            .is_multiple_of(3)
            .then(|| Fov::new(m.gps, i as f64 * 17.0, 60.0, 80.0));
        let origin = match i {
            10.. if i.is_multiple_of(2) => ImageOrigin::Augmented {
                parent: ImageId(i - 10),
                op: format!("flip_h-{i}"),
            },
            _ => ImageOrigin::Original,
        };
        let pixels = (i % 4 != 1)
            .then(|| pixel_blob(&Image::from_fn(3, 2, |x, y| [x as u8, y as u8, i as u8])));
        (m, origin, pixels)
    };
    for first in [0, 7, 14] {
        let ops = (first..first + 7)
            .map(|i| {
                let (meta, origin, pixels) = row(i);
                match i % 2 {
                    0 => WalOp::IngestUpload {
                        marker: Some(format!("key-{i}")),
                        id: ImageId(i),
                        meta,
                        origin,
                        pixels,
                        features: vec![(FeatureKind::Cnn, vec![i as f32; 4])],
                    },
                    _ => WalOp::AddImage {
                        id: ImageId(i),
                        meta,
                        origin,
                        pixels,
                    },
                }
            })
            .collect();
        ds.apply_batch(ops).unwrap();
    }
    let digest = ds.store_arc().digest();
    let read_back = |store: &VisualStore| {
        for i in 0..21 {
            let (meta, origin, pixels) = row(i);
            let record = store.image(ImageId(i)).unwrap();
            assert_eq!(record.meta.keywords, meta.keywords, "row {i}");
            assert_eq!(record.origin, origin, "row {i}");
            assert_eq!(record.width, pixels.map_or(0, |(w, _, _)| w), "row {i}");
        }
    };
    read_back(&ds.store_arc());
    drop(ds);
    let (reopened, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, 21);
    assert_eq!(reopened.store_arc().digest(), digest);
    reopened.compact().unwrap();
    assert_eq!(reopened.store_arc().digest(), digest);
    drop(reopened);
    let (folded, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(folded.store_arc().digest(), digest);
    read_back(&folded.store_arc());
}

#[test]
fn compaction_crash_windows_never_lose_or_double_apply() {
    // Reconstruct the three crash windows of a compaction
    // by hand and check each recovers to exactly the live pre-crash
    // state under the epoch protocol (base at epoch B => replay every
    // segment with epoch >= B, ascending).
    let scratch = temp_dir("compact-crash-scratch");
    let (wal_bytes, states) = scripted_mutations(&scratch);
    let base = &states[0];
    let live = states.last().unwrap();
    let base_bytes = render_base(base);
    let live_bytes_epoch1 = render_base(live);

    let dir = temp_dir("compact-crash");

    // Window 1: live segment sealed and the next epoch's WAL created,
    // snapshot not yet published. Both segments are >= the old base, so
    // the sealed tier replays and nothing is lost.
    write_dir(&dir, Some(&base_bytes), 0, &wal_bytes);
    std::fs::write(dir.join("wal-1.log"), b"").unwrap();
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), live), None);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.replayed_ops, states.len() - 1);
    assert_eq!(report.debris_removed, 0);
    drop(ds);

    // Window 2: snapshot published at base 1, folded segment not yet
    // removed. Replaying the folded segment here would double-apply —
    // its epoch is below the base, so it is swept instead.
    write_dir(&dir, Some(&live_bytes_epoch1), 1, b"");
    std::fs::write(dir.join("wal-0.log"), &wal_bytes).unwrap();
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), live), None);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(report.debris_removed, 1); // the superseded wal-0.log
    drop(ds);
    // The same window one step earlier: the old base is still there too.
    // The higher epoch wins and the lower one is swept with its segment.
    write_dir(&dir, Some(&live_bytes_epoch1), 1, b"");
    std::fs::write(dir.join("wal-0.log"), &wal_bytes).unwrap();
    std::fs::write(dir.join("base-0.seg"), &base_bytes).unwrap();
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), live), None);
    assert_eq!((report.epoch, report.replayed_ops), (1, 0));
    assert_eq!(report.debris_removed, 2);
    assert!(!dir.join("base-0.seg").exists());
    drop(ds);

    // Window 3: crash mid-publish — staging file partially written,
    // both the sealed segment and the old snapshot intact.
    write_dir(&dir, Some(&base_bytes), 0, &wal_bytes);
    std::fs::write(
        dir.join("base-1.seg.tmp"),
        &live_bytes_epoch1[..live_bytes_epoch1.len() / 2],
    )
    .unwrap();
    std::fs::write(dir.join("wal-1.log"), b"").unwrap();
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&ds.store_arc()), live), None);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.replayed_ops, states.len() - 1);
    assert_eq!(report.debris_removed, 1); // the torn staging file
    drop(ds);
}

/// Two records as the text journal of the builds before format v3 wrote
/// them (`<len> <crc32 hex> <json>\n`).
const V2_TEXT_JOURNAL: &str = concat!(
    r#"75 df31ced5 {"RegisterScheme":{"id":0,"name":"cleanliness","labels":["clean","dirty"]}}"#,
    "\n",
    r#"72 a5676cc0 {"RegisterScheme":{"id":1,"name":"graffiti","labels":["none","tagged"]}}"#,
    "\n",
);

#[test]
fn a_text_journal_from_an_older_build_is_refused_untouched() {
    let dir = temp_dir("legacy-journal");
    let wal_file = dir.join("wal-0.log");
    // Whole, and cut anywhere a crash of that build could have left it.
    for cut in [V2_TEXT_JOURNAL.len(), 100, 3, 1] {
        let legacy = &V2_TEXT_JOURNAL.as_bytes()[..cut];
        write_dir(&dir, None, 0, legacy);
        let refusal = match DurableStore::open(&dir) {
            Err(DurableError::Wal(e)) => e,
            other => panic!("{cut} legacy byte(s): expected a refusal, got {other:?}"),
        };
        let WalError::UnsupportedFormat { path, found } = &refusal else {
            panic!("{cut} legacy byte(s): wrong refusal: {refusal}");
        };
        assert_eq!(path, &wal_file);
        assert_eq!(found[..], legacy[..legacy.len().min(8)]);
        // The error says how to get out of it.
        assert!(refusal.to_string().contains("tvdp compact"), "{refusal}");
        // Not truncated, not stamped, not rewritten.
        assert_eq!(std::fs::read(&wal_file).unwrap(), legacy, "{cut} byte(s)");
    }
    // The same bytes in a sealed segment are refused the same way.
    write_dir(&dir, None, 1, b"");
    std::fs::write(&wal_file, V2_TEXT_JOURNAL).unwrap();
    assert!(matches!(
        DurableStore::open(&dir),
        Err(DurableError::Wal(WalError::UnsupportedFormat { .. }))
    ));
    assert_eq!(
        std::fs::read(&wal_file).unwrap(),
        V2_TEXT_JOURNAL.as_bytes()
    );
}

/// The head of the JSON-lines snapshot the builds up to PR 20 published
/// (`snapshot.json`: a header line carrying the base epoch, then one
/// tagged row per line).
const JSON_SNAPSHOT: &str = concat!(
    r#"{"Header":{"version":2,"wal_epoch":3}}"#,
    "\n",
    r#"{"Scheme":{"id":0,"name":"cleanliness","labels":["clean","dirty"]}}"#,
    "\n",
);

#[test]
fn a_json_snapshot_from_an_older_build_is_refused_untouched() {
    // What `tvdp compact` of the previous build leaves behind: a JSON
    // snapshot and a stamped, empty live segment at the same epoch.
    let dir = temp_dir("legacy-compacted");
    write_dir(&dir, None, 3, &SEGMENT_MAGIC);
    let snapshot_file = dir.join("snapshot.json");
    std::fs::write(&snapshot_file, JSON_SNAPSHOT).unwrap();
    let listing = |dir: &Path| {
        let mut files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name(), std::fs::read(e.path()).unwrap()))
            .collect();
        files.sort();
        files
    };
    let before = listing(&dir);
    assert_eq!(before.len(), 2);

    let refusal = match DurableStore::open(&dir) {
        Err(DurableError::Wal(e)) => e,
        other => panic!("expected a refusal, got {other:?}"),
    };
    let WalError::UnsupportedFormat { path, found } = &refusal else {
        panic!("wrong refusal: {refusal}");
    };
    assert_eq!(path, &snapshot_file);
    assert_eq!(found[..], JSON_SNAPSHOT.as_bytes()[..8]);
    // The error names the last commit that can still read the directory.
    assert!(refusal.to_string().contains("0104dbe"), "{refusal}");
    assert!(refusal.to_string().contains("PR 20"), "{refusal}");
    // Nothing created, stamped, swept or rewritten.
    assert_eq!(listing(&dir), before);

    // A current base beside it does not make the JSON one ignorable: the
    // directory was written by two formats and is refused the same way.
    std::fs::write(dir.join("base-3.seg"), render_base(&base_ops())).unwrap();
    let before = listing(&dir);
    assert!(matches!(
        DurableStore::open(&dir),
        Err(DurableError::Wal(WalError::UnsupportedFormat { .. }))
    ));
    assert_eq!(listing(&dir), before);
}

/// The scripted ops of [`scripted_mutations`] as explicit-id
/// [`WalOp`]s, for journaling through the group-commit path.
fn scripted_batch(ds: &DurableStore) -> Vec<WalOp> {
    let img = ds.store_arc().peek_next_image_id();
    let cls = ds.store_arc().peek_next_classification_id();
    let ann = ds.store_arc().peek_next_annotation_id();
    vec![
        WalOp::AddImage {
            id: img,
            meta: meta("wal-born"),
            origin: ImageOrigin::Original,
            pixels: Some(pixel_blob(&Image::from_raw(1, 1, vec![1, 2, 3]))),
        },
        WalOp::PutFeature {
            image: img,
            kind: FeatureKind::Cnn,
            vector: scripted_cnn(),
        },
        WalOp::RegisterScheme {
            id: cls,
            name: "graffiti".into(),
            labels: vec!["none".into(), "tagged".into()],
        },
        WalOp::Annotate(Annotation {
            id: ann,
            image: img,
            classification: cls,
            label: 1,
            confidence: 0.7,
            source: AnnotationSource::Human(UserId(2)),
            region: None,
        }),
    ]
}

#[test]
fn group_commit_batch_killed_at_every_offset_is_all_or_prefix() {
    // Per-op appends and one append_batch of the same ops must lay down
    // byte-identical WAL bytes, so a crash mid-batch recovers an exact
    // record prefix of the batch — never a torn or reordered state.
    let scratch = temp_dir("batch-torture-scratch");
    let (per_op_bytes, states) = scripted_mutations(&scratch);

    // Journal the same ops through the group-commit path.
    let scratch2 = temp_dir("batch-torture-scratch2");
    let base_bytes = render_base(&states[0]);
    write_dir(&scratch2, Some(&base_bytes), 0, b"");
    let (ds, _) = DurableStore::open(&scratch2).unwrap();
    ds.apply_batch(scripted_batch(&ds)).unwrap();
    assert_eq!(
        first_difference(&dump(&ds.store_arc()), states.last().unwrap()),
        None
    );
    drop(ds);
    let batch_bytes = std::fs::read(scratch2.join("wal-0.log")).unwrap();
    assert_eq!(
        batch_bytes, per_op_bytes,
        "group commit must journal byte-identical frames"
    );

    let bounds = record_boundaries(&batch_bytes);
    let dir = temp_dir("batch-torture");
    for cut in 0..=batch_bytes.len() {
        write_dir(&dir, Some(&base_bytes), 0, &batch_bytes[..cut]);
        let (ds, report) = DurableStore::open(&dir).unwrap();
        let intact = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            first_difference(&dump(&ds.store_arc()), &states[intact]),
            None,
            "batch cut at byte {cut}: expected the first {intact} op(s)"
        );
        assert_eq!(report.replayed_ops, intact);
    }
}

#[test]
fn acked_group_commit_batch_survives_reopen() {
    let dir = temp_dir("batch-acked");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    ds.apply_batch(scripted_batch(&ds)).unwrap();
    let live = dump(&ds.store_arc());
    drop(ds); // crash without flush or compaction
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, 4);
    assert_eq!(first_difference(&dump(&ds.store_arc()), &live), None);
}

#[test]
fn group_commit_enospc_at_every_byte_sheds_batch_and_degrades() {
    // The volume fills mid-way through a batched group-commit frame.
    // Whatever byte the fault lands on, the live store must shed the
    // whole batch (journal-before-apply: nothing half-applied), keep
    // serving reads from its pre-batch state, report a degraded
    // (read-only) health state instead of panicking, and a reopen must
    // recover exactly the acked state plus whichever record prefix made
    // it to disk — never a torn third state.
    let scratch = temp_dir("enospc-scratch");
    let (batch_bytes, states) = scripted_mutations(&scratch);
    let base_bytes = render_base(&states[0]);

    let dir = temp_dir("enospc-torture");
    for cut in 0..=batch_bytes.len() {
        write_dir(&dir, Some(&base_bytes), 0, b"");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        fill_disk(cut);

        let err = ds.apply_batch(scripted_batch(&ds)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("os error 28") || msg.to_lowercase().contains("no space"),
            "fault at byte {cut} must surface ENOSPC, got: {msg}"
        );
        // Read-consistent: the shed batch left no partial application.
        assert_eq!(
            first_difference(&dump(&ds.store_arc()), &states[0]),
            None,
            "cut at byte {cut}"
        );
        let health = ds.health();
        assert_eq!(health.state, HealthState::ReadOnly, "cut at byte {cut}");
        assert_eq!(health.write_faults, 1);
        assert!(health.last_error.is_some());

        // While the disk stays full, further mutations are shed with the
        // typed read-only error — still no panic, still serving reads.
        let shed = journal_image(&ds, meta("while-full"), ImageOrigin::Original, None).unwrap_err();
        assert!(
            shed.to_string().contains("read-only"),
            "expected typed read-only shed, got: {shed}"
        );
        assert_eq!(first_difference(&dump(&ds.store_arc()), &states[0]), None);
        drop(ds);
        free_disk();

        // Crash while full: the shed mutation's repair probe already
        // truncated the unacked batch debris back to the acked prefix,
        // so recovery lands on exactly the acked state — the journal
        // never resurrects ops the caller was told had failed.
        let (reopened, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(
            first_difference(&dump(&reopened.store_arc()), &states[0]),
            None,
            "reopen after cut at byte {cut}"
        );
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(
            reopened.health().state,
            HealthState::Ok,
            "a fresh open with a healthy disk starts Ok"
        );
    }
}

#[test]
fn write_fault_cycle_degrades_then_recovers_to_ok() {
    // Full health cycle on a live store: Ok → (fault) → ReadOnly →
    // (space freed, first good write) → Degraded → (second good write)
    // → Ok, with reads served throughout and the tail repaired so the
    // journal stays append-clean.
    let dir = temp_dir("fault-cycle");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    let img = journal_image(&ds, meta("acked"), ImageOrigin::Original, None).unwrap();
    let acked = dump(&ds.store_arc());
    assert_eq!(ds.health().state, HealthState::Ok);

    fill_disk(3); // three bytes of torn debris, then no space

    journal_feature(&ds, img, FeatureKind::Cnn, vec![1.0; 4]).unwrap_err();
    assert_eq!(ds.health().state, HealthState::ReadOnly);
    assert_eq!(
        first_difference(&dump(&ds.store_arc()), &acked),
        None,
        "reads keep working"
    );

    // Still full: mutations shed, fault counter climbs deterministically.
    journal_scheme(&ds, "shed", vec!["a".into()]).unwrap_err();
    assert_eq!(ds.health().state, HealthState::ReadOnly);
    assert_eq!(ds.health().write_faults, 2);

    // Operator frees space; the next mutation repairs the torn tail,
    // lands durably, and the store enters probation.
    free_disk();
    journal_feature(&ds, img, FeatureKind::Cnn, vec![2.0; 4]).unwrap();
    assert_eq!(ds.health().state, HealthState::Degraded);
    let cls = journal_scheme(&ds, "healed", vec!["ok".into()]).unwrap();
    assert_eq!(ds.health().state, HealthState::Ok);
    assert!(ds.health().last_error.is_none());
    journal_label(&ds, img, cls, 0, 1.0, AnnotationSource::Human(UserId(1))).unwrap();

    // Everything acked across the cycle survives a crash/reopen.
    let live = dump(&ds.store_arc());
    drop(ds);
    let (reopened, _) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&reopened.store_arc()), &live), None);
}

#[test]
fn writers_keep_journaling_while_compactions_fold() {
    const ROUNDS: usize = 4;
    const IMAGES_PER_ROUND: usize = 16;
    let dir = temp_dir("fold-under-writes");
    let (ds, _) = DurableStore::open(&dir).unwrap();
    // Each fold starts once a round is journaled, and runs while the
    // writer journals the next one.
    let round_done = std::sync::Barrier::new(2);
    let folded = tvdp_kernel::Pool::new(2).scope(|s| {
        let writer = s.spawn(|| {
            for round in 0..ROUNDS {
                for i in 0..IMAGES_PER_ROUND {
                    let keyword = format!("round-{round}-{i}");
                    let img =
                        journal_image(&ds, meta(&keyword), ImageOrigin::Original, None).unwrap();
                    journal_feature(&ds, img, FeatureKind::Cnn, vec![i as f32; 4]).unwrap();
                }
                round_done.wait();
            }
        });
        let mut folded = 0;
        for _ in 0..ROUNDS {
            round_done.wait();
            folded += ds.compact().unwrap().ops_compacted;
        }
        writer.join().unwrap();
        folded
    });
    let live = dump(&ds.store_arc());
    assert_eq!(ds.store_arc().len(), ROUNDS * IMAGES_PER_ROUND);
    drop(ds);

    // Every journaled op was folded exactly once or is still in the
    // journal, and the directory reopens to the live store.
    let (reopened, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(first_difference(&dump(&reopened.store_arc()), &live), None);
    assert_eq!(folded + report.replayed_ops, 2 * ROUNDS * IMAGES_PER_ROUND);
}
