//! The sparse feature form's suites: the form a writer picks and its
//! bit-exact round trip, hostile sparse fields, and journals of raw
//! feature fields, which every older build wrote, that replay and fold
//! into the sparse form.

mod common;

use common::Scratch;
use std::path::Path;

use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_storage::le;
use tvdp_storage::store::first_difference;
use tvdp_storage::wal::{self, frame, WalError, SEGMENT_MAGIC};
use tvdp_storage::{DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, WalOp};
use tvdp_vision::FeatureKind;

/// Lengths every test walks: each bitmap tail 0-7 twice over, the
/// colour histogram's 50 and the CNN descriptor's 480.
const LENS: [usize; 20] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 50, 480,
];

/// Offset of a `PutFeature` payload's kind byte: after the tag and the
/// image id. Its count follows.
const KIND_AT: usize = 9;
const COUNT_AT: usize = KIND_AT + 1;

/// A float that is not `+0.0`: NaNs with payloads, subnormals, `-0.0`
/// and infinities among plain values.
fn awkward(rng: &mut Rng) -> f32 {
    let f = match rng.gen_range(0..10u32) {
        0 => f32::from_bits(0x7f80_0001 | rng.gen_range(0..0x7f_ffffu32)),
        1 => f32::from_bits(rng.gen_range(1..0x80_0000u32)),
        2 => -0.0,
        3 => f32::INFINITY,
        _ => rng.gen_range(-2.0f32..2.0),
    };
    if f.to_bits() == 0 {
        1.0
    } else {
        f
    }
}

/// `n` floats, about `zero_pct` percent of them `+0.0`.
fn vector(rng: &mut Rng, n: usize, zero_pct: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..100u32) < zero_pct {
                0.0
            } else {
                awkward(rng)
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn put(vector: Vec<f32>) -> WalOp {
    WalOp::PutFeature {
        image: ImageId(3),
        kind: FeatureKind::Cnn,
        vector,
    }
}

/// Bytes after the count in the sparse form: the bitmap and the floats
/// whose bits are not zero.
fn sparse_body(v: &[f32]) -> usize {
    v.len().div_ceil(8) + 4 * v.iter().filter(|f| f.to_bits() != 0).count()
}

#[test]
fn a_feature_round_trips_bit_exactly_in_the_shorter_form() {
    let mut forms = [0usize; 2];
    for_each_case(24, |case, rng| {
        for n in LENS {
            for zero_pct in [0, 3, 12, 29, 60, 100] {
                let v = vector(rng, n, zero_pct);
                let what = format!("case {case}, {n} floats, {zero_pct}% zeros");
                let payload = put(v.clone()).encode();
                // A pure function of the vector.
                assert_eq!(
                    payload,
                    put(bits(&v).into_iter().map(f32::from_bits).collect()).encode()
                );
                let sparse = sparse_body(&v) < 4 * n;
                assert_eq!(payload[KIND_AT] & 0x80 != 0, sparse, "{what}");
                assert_eq!(payload[KIND_AT] & 0x7f, 2, "{what}");
                assert_eq!(
                    payload.len(),
                    COUNT_AT + 4 + sparse_body(&v).min(4 * n),
                    "{what}"
                );
                forms[usize::from(sparse)] += 1;
                let Ok(WalOp::PutFeature { vector: back, .. }) = WalOp::decode(&payload) else {
                    panic!("{what}: the record did not decode");
                };
                assert_eq!(bits(&back), bits(&v), "{what}");
                // The same field inside an upload.
                let upload = WalOp::IngestUpload {
                    marker: None,
                    id: ImageId(1),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                    features: vec![
                        (FeatureKind::ColorHistogram, v.clone()),
                        (FeatureKind::Cnn, Vec::new()),
                    ],
                };
                let Ok(WalOp::IngestUpload { features, .. }) = WalOp::decode(&upload.encode())
                else {
                    panic!("{what}: the upload did not decode");
                };
                assert_eq!(bits(&features[0].1), bits(&v), "{what}");
                assert!(features[1].1.is_empty());
            }
        }
    });
    assert!(forms[0] > 0 && forms[1] > 0, "one form was never picked");
    // A tie is raw: 32 floats with one zero are 4 + 31 * 4 bytes either
    // way. One more zero makes the bitmap form shorter.
    let mut v = vec![1.5f32; 32];
    v[7] = 0.0;
    assert_eq!(put(v.clone()).encode()[KIND_AT], 2);
    v[8] = 0.0;
    assert_eq!(put(v).encode()[KIND_AT], 0x82);
}

/// What a damaged sparse record may come to: a typed `Corrupt` error,
/// or an op whose vector has the length the record states, for which
/// at most 32 bytes of floats were allocated per bitmap byte.
fn corrupt_or_the_stated_length(payload: &[u8], what: &str) {
    let mut segment = SEGMENT_MAGIC.to_vec();
    segment.extend_from_slice(&frame(payload));
    let mut scan = wal::scan(Path::new("sparse.log"), &segment[..]).unwrap();
    match scan.next() {
        Some(Err(WalError::Corrupt { record: 0, .. })) => {}
        Some(Ok(WalOp::PutFeature { vector, .. })) => {
            let stated = u32::from_le_bytes(payload[COUNT_AT..COUNT_AT + 4].try_into().unwrap());
            assert_eq!(vector.len(), stated as usize, "{what}");
            let body = payload.len() - COUNT_AT - 4;
            if payload[KIND_AT] & 0x80 != 0 {
                assert!(vector.len() <= 8 * body, "{what}");
            } else {
                assert_eq!(4 * vector.len(), body, "{what}");
            }
        }
        // A damaged tag can make another op out of the bytes.
        Some(Ok(_)) => assert_ne!(payload[0], 2, "{what}"),
        other => panic!("{what}: {other:?}"),
    }
}

#[test]
fn mutated_and_truncated_sparse_fields_end_in_corrupt_or_a_vector_of_the_stated_length() {
    let mut sparse_records = 0;
    for_each_case(96, |case, rng| {
        let n = LENS[rng.gen_range(0..LENS.len())];
        let zero_pct = rng.gen_range(20..100u32);
        let v = vector(rng, n, zero_pct);
        let payload = put(v).encode();
        if payload[KIND_AT] & 0x80 == 0 {
            return;
        }
        sparse_records += 1;
        // Every strict prefix runs out of bytes somewhere. (An empty
        // payload frames no record at all.)
        for cut in 1..payload.len() {
            let what = format!("case {case}: cut at {cut} of {}", payload.len());
            assert!(WalOp::decode(&payload[..cut]).is_err(), "{what}");
            corrupt_or_the_stated_length(&payload[..cut], &what);
        }
        for m in 0..64 {
            let mut bad = payload.clone();
            let at = rng.gen_range(KIND_AT..bad.len());
            match m % 4 {
                0 => bad[at] ^= 1 << rng.gen_range(0..8u32),
                1 => bad[at] = rng.next_u64() as u8,
                2 => {
                    let count = match rng.gen_range(0..3u32) {
                        0 => u32::MAX - rng.gen_range(0..8u32),
                        1 => (n as u32).saturating_add_signed(rng.gen_range(-9..=9i32)),
                        _ => rng.next_u64() as u32,
                    };
                    bad[COUNT_AT..COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
                }
                _ => {
                    bad.truncate(at);
                    bad.extend((0..rng.gen_range(0..40usize)).map(|_| rng.next_u64() as u8));
                }
            }
            corrupt_or_the_stated_length(&bad, &format!("case {case}, mutation {m}"));
        }
    });
    assert!(sparse_records > 32, "{sparse_records} sparse records");
}

#[test]
fn a_set_padding_bit_is_corrupt() {
    // Ten floats: the second bitmap byte maps elements 8 and 9 only.
    let mut v = vec![0.0f32; 10];
    v[9] = 1.0;
    let payload = put(v).encode();
    assert_eq!(payload[KIND_AT], 0x82);
    let last_bitmap_byte = COUNT_AT + 4 + 1;
    assert_eq!(payload[last_bitmap_byte], 0b10);
    for bit in 2..8 {
        let mut bad = payload.clone();
        bad[last_bitmap_byte] |= 1 << bit;
        // With the float the bit would claim, so only the padding is wrong.
        bad.extend_from_slice(&7.0f32.to_le_bytes());
        let message = WalOp::decode(&bad).unwrap_err();
        assert!(message.contains("padding"), "bit {bit}: {message}");
        corrupt_or_the_stated_length(&bad, &format!("padding bit {bit}"));
    }
}

fn meta() -> ImageMeta {
    ImageMeta {
        uploader: UserId(1),
        gps: GeoPoint::new(34.05, -118.25),
        fov: None,
        captured_at: 100,
        uploaded_at: 110,
        keywords: vec!["sparse".into()],
    }
}

fn temp_dir(name: &str) -> Scratch {
    let dir = Scratch::new(format!("tvdp-sparse-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The record a build before the sparse form wrote for a `PutFeature`:
/// the kind, the count and every float raw.
fn raw_put_feature(image: ImageId, kind: u8, vector: &[f32]) -> Vec<u8> {
    let mut p = vec![2];
    le::put_u64(&mut p, image.raw());
    p.push(kind);
    le::put_count(&mut p, vector.len());
    le::put_f32s(&mut p, vector);
    p
}

/// The ops of the segment at `path`, which must hold exactly this
/// build's records of them.
fn rewritten_by_this_build(path: &Path) -> Vec<WalOp> {
    let bytes = std::fs::read(path).unwrap();
    let ops: Vec<WalOp> = wal::scan(path, &bytes[..])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let mut again = SEGMENT_MAGIC.to_vec();
    for op in &ops {
        again.extend_from_slice(&frame(&op.encode()));
    }
    assert!(
        again == bytes,
        "{} is not this build's bytes",
        path.display()
    );
    ops
}

#[test]
fn a_raw_feature_journal_reopens_bit_identical_and_folds_into_the_sparse_form() {
    let mut rng = Rng::seed_from_u64(44);
    // A third of the floats `+0.0`; some `-0.0`, subnormal, or a NaN
    // with a payload: the store holds each one's bits.
    let mut floats = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..12u32) {
                0..=3 => 0.0,
                4 => -0.0,
                5 => f32::from_bits(rng.gen_range(1..0x80_0000u32)),
                6 => f32::from_bits(0x7fc0_0000 | rng.gen_range(1..0x40_0000u32)),
                _ => rng.gen_range(0.0f32..1.0),
            })
            .collect()
    };
    let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..12).map(|_| (floats(50), floats(480))).collect();
    let mut records = Vec::new();
    for (i, (color, cnn)) in rows.iter().enumerate() {
        let id = ImageId(i as u64);
        let add = WalOp::AddImage {
            id,
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: None,
        };
        records.push(add.encode());
        records.push(raw_put_feature(id, 0, color));
        records.push(raw_put_feature(id, 2, cnn));
        // This build would write both vectors sparse.
        assert_eq!(put(cnn.clone()).encode()[KIND_AT], 0x82);
    }
    let dir = temp_dir("legacy");
    let mut journal = SEGMENT_MAGIC.to_vec();
    for payload in &records {
        journal.extend_from_slice(&frame(payload));
    }
    std::fs::write(dir.join("wal-0.log"), &journal).unwrap();

    // The store those records build, as its dump: one upload per row,
    // features in kind order, and an empty marker table.
    let mut want: Vec<WalOp> = rows
        .iter()
        .enumerate()
        .map(|(i, (color, cnn))| WalOp::IngestUpload {
            marker: None,
            id: ImageId(i as u64),
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![
                (FeatureKind::ColorHistogram, color.clone()),
                (FeatureKind::Cnn, cnn.clone()),
            ],
        })
        .collect();
    want.push(WalOp::UploadMarkers(Vec::new()));
    let check = |ds: &DurableStore, what: &str| {
        let dump = ds.store_arc().snapshot().into_ops();
        assert_eq!(first_difference(&dump, &want), None, "{what}");
    };
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, records.len());
    check(&ds, "replayed");
    // The fold writes this build's records: the sparse form.
    ds.compact().unwrap();
    drop(ds);
    let base_path = dir.join("base-1.seg");
    let base = rewritten_by_this_build(&base_path);
    assert_eq!(
        base.len(),
        rows.len() + 1,
        "the uploads and the marker table"
    );
    let base_bytes = std::fs::metadata(&base_path).unwrap().len() as usize;
    assert!(
        base_bytes < journal.len(),
        "{base_bytes} >= {}",
        journal.len()
    );
    let (ds, _) = DurableStore::open(&dir).unwrap();
    check(&ds, "reopened from the base");
    drop(ds);
    std::fs::remove_dir_all(&dir).ok();
}
