//! The pixel code's suites: seeded round trips over every awkward shape,
//! hostile coded bytes, and journals of raw pixels written by builds
//! before the code.

use std::path::{Path, PathBuf};

use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_storage::le;
use tvdp_storage::pixels::{self, coded_len_ok, PixelError};
use tvdp_storage::wal::{self, frame, pixel_blob, SEGMENT_MAGIC};
use tvdp_storage::{DurableError, DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, WalOp};
use tvdp_vision::{FeatureKind, Image};

/// `(width, height)` of every shape the code must carry: one pixel, one
/// row, one column, odd widths, sizes either side of a block boundary
/// and the benchmark's uploads.
const SHAPES: [(usize, usize); 12] = [
    (1, 1),
    (1, 2),
    (29, 1),
    (1, 31),
    (3, 5),
    (7, 3),
    (13, 11),
    (21, 1),
    (64, 1),
    (65, 3),
    (17, 33),
    (48, 48),
];

/// Content a shape is filled with.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Constant,
    /// A ramp across, another down, a third along the diagonal; they
    /// wrap past 255.
    Ramps,
    /// Every byte uniform in `0..=255`: the code's worst case.
    Noise,
    /// A smooth scene with a little noise, like a photo.
    Scene,
}

const FILLS: [Fill; 4] = [Fill::Constant, Fill::Ramps, Fill::Noise, Fill::Scene];

fn image(width: usize, height: usize, fill: Fill, rng: &mut Rng) -> Image {
    let value = rng.gen_range(0..=255u8);
    Image::from_fn(width, height, |x, y| match fill {
        Fill::Constant => [value, value.wrapping_add(1), 255 - value],
        Fill::Ramps => [
            (x * 7) as u8,
            (y * 13) as u8,
            (x * 3 + y * 5).wrapping_add(value as usize) as u8,
        ],
        Fill::Noise => [0; 3].map(|_: u8| rng.gen_range(0..=255u8)),
        Fill::Scene => [0, 1, 2].map(|c: usize| {
            let base = (x * 4 + y * 2 + c * 60) as i64 % 200 + 20;
            (base + rng.gen_range(-6..=6i64)) as u8
        }),
    })
}

/// Every shape with every fill, drawn from one seed.
fn corpus(seed: u64) -> Vec<Image> {
    let mut rng = Rng::seed_from_u64(seed);
    SHAPES
        .iter()
        .flat_map(|&(w, h)| FILLS.map(|fill| (w, h, fill)))
        .map(|(w, h, fill)| image(w, h, fill, &mut rng))
        .collect()
}

#[test]
fn every_shape_round_trips_bit_exactly() {
    for_each_case(8, |seed, _| {
        for original in corpus(seed) {
            let (w, h) = (original.width(), original.height());
            let code = pixels::encode(&original);
            assert_eq!(
                coded_len_ok(w, h, code.len()),
                Some(w * h * 3),
                "{w}x{h}: a code of {} bytes",
                code.len()
            );
            let back = pixels::decode(w, h, &code).unwrap();
            assert_eq!(back, original, "{w}x{h}");
        }
    });
}

#[test]
fn codes_stay_within_a_block_header_of_the_raw_bytes_and_shrink_scenes() {
    let mut rng = Rng::seed_from_u64(5);
    for &(w, h) in &SHAPES {
        let n = w * h * 3;
        let headers = n.div_ceil(pixels::BLOCK) * 3;
        for fill in FILLS {
            let code = pixels::encode(&image(w, h, fill, &mut rng));
            assert!(
                code.len() <= (8 * n + headers).div_ceil(8),
                "{w}x{h} {fill:?}"
            );
        }
        // A black image is the shortest code: one bit a sample.
        let black = pixels::encode(&Image::new(w, h));
        assert_eq!(black.len(), (n + headers).div_ceil(8), "{w}x{h}");
    }
    let scene = pixels::encode(&image(48, 48, Fill::Scene, &mut rng));
    assert!(scene.len() < 48 * 48 * 3 * 3 / 4, "{} bytes", scene.len());
}

#[test]
fn coded_bytes_are_a_pure_function_of_the_pixels() {
    let first = corpus(3);
    let again = corpus(3);
    let mut codes = Vec::new();
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a, b, "the corpus is a function of its seed");
        let code = pixels::encode(a);
        assert_eq!(code, pixels::encode(b));
        assert_eq!(code, pixels::encode(&a.clone()));
        assert_eq!(pixel_blob(a), (a.width(), a.height(), code.clone()));
        codes.push(code);
    }
    // Different pixels of one shape never share a code: decoding is a
    // function of the code.
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..200 {
        let a = image(7, 3, Fill::Noise, &mut rng);
        let mut b = a.clone();
        let (x, y) = (rng.gen_range(0..7usize), rng.gen_range(0..3usize));
        let mut px = b.get(x, y);
        px[rng.gen_range(0..3usize)] ^= 1 << rng.gen_range(0..8u32);
        b.set(x, y, px);
        assert_ne!(pixels::encode(&a), pixels::encode(&b));
    }
}

/// What decoding hostile bytes may come to: a typed error, or an image
/// of the stated shape, which the length check capped at eight bytes of
/// image per byte of code.
fn decodes_to_a_typed_error_or_the_stated_shape(w: usize, h: usize, code: &[u8], what: &str) {
    match pixels::decode(w, h, code) {
        Ok(image) => {
            assert_eq!((image.width(), image.height()), (w, h), "{what}");
            assert!(image.raw().len() <= 8 * code.len(), "{what}");
            assert!(coded_len_ok(w, h, code.len()).is_some(), "{what}");
        }
        Err(PixelError::Length { width, height, len }) => {
            assert_eq!((width, height, len), (w, h, code.len()), "{what}");
            assert!(coded_len_ok(w, h, code.len()).is_none(), "{what}");
        }
        Err(PixelError::Overflow { sample } | PixelError::Truncated { sample }) => {
            assert!(sample < w * h * 3, "{what}");
        }
        Err(PixelError::Trailing) => {}
    }
}

#[test]
fn mutated_and_truncated_codes_end_in_a_typed_error_or_an_image_of_the_stated_shape() {
    for_each_case(6, |seed, rng| {
        for original in corpus(seed) {
            let (w, h) = (original.width(), original.height());
            let code = pixels::encode(&original);
            // Every cut, and bytes past the end.
            for cut in 0..code.len() {
                let what = format!("{w}x{h} cut at {cut}");
                decodes_to_a_typed_error_or_the_stated_shape(w, h, &code[..cut], &what);
            }
            let mut longer = code.clone();
            longer.push(rng.gen_range(0..=255u8));
            assert!(
                pixels::decode(w, h, &longer).is_err(),
                "{w}x{h} one byte more"
            );
            // Flipped bits, overwritten bytes, and a stated shape that
            // is not the image's, huge ones included.
            for round in 0..24 {
                let mut bytes = code.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..bytes.len());
                    if rng.gen_bool(0.5) {
                        bytes[at] ^= 1 << rng.gen_range(0..8u32);
                    } else {
                        bytes[at] = rng.gen_range(0..=255u8);
                    }
                }
                let what = format!("{w}x{h} mutation {round}");
                decodes_to_a_typed_error_or_the_stated_shape(w, h, &bytes, &what);
                let (sw, sh) = match round % 4 {
                    0 => (h, w),
                    1 => (w + 1, h),
                    2 => (w, h.saturating_sub(1)),
                    _ => (usize::MAX / 2, 3),
                };
                let what = format!("{w}x{h} stated as {sw}x{sh}");
                decodes_to_a_typed_error_or_the_stated_shape(sw, sh, &code, &what);
            }
        }
    });
    // Runs of one value: the escape, the longest Rice quotient, the
    // zero bits that end every code, the one bits no code is made of.
    for fill in [0u8, 0xFF, 0xE0, 0x01] {
        for len in 0..40 {
            let bytes = vec![fill; len];
            for (w, h) in [(1, 1), (2, 3), (4, 4), (5, 5)] {
                let what = format!("{len} bytes of {fill:#x} as {w}x{h}");
                decodes_to_a_typed_error_or_the_stated_shape(w, h, &bytes, &what);
            }
        }
    }
}

fn meta() -> ImageMeta {
    ImageMeta {
        uploader: UserId(1),
        gps: GeoPoint::new(34.05, -118.25),
        fov: None,
        captured_at: 100,
        uploaded_at: 110,
        keywords: vec!["pixels".into()],
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tvdp-pixels-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A directory whose live journal holds `records` (record payloads).
fn journal_of(name: &str, records: &[Vec<u8>]) -> PathBuf {
    let dir = temp_dir(name);
    let mut bytes = SEGMENT_MAGIC.to_vec();
    for payload in records {
        bytes.extend_from_slice(&frame(payload));
    }
    std::fs::write(dir.join("wal-0.log"), bytes).unwrap();
    dir
}

#[test]
fn replay_refuses_a_code_whose_length_is_impossible_for_its_dimensions() {
    let upload = |id: u64, pixels| WalOp::IngestUpload {
        marker: None,
        id: ImageId(id),
        meta: meta(),
        origin: ImageOrigin::Original,
        pixels: Some(pixels),
        features: Vec::new(),
    };
    let good = pixel_blob(&Image::from_fn(2, 2, |x, y| [x as u8, y as u8, 9]));
    // A 2x2 code is 2 to 13 bytes long.
    for (what, bad) in [
        ("short", (2, 2, vec![0])),
        ("long", (2, 2, vec![0; 14])),
        ("empty", (2, 2, Vec::new())),
        ("zero height", (2, 0, vec![0; 4])),
        ("overflowing", (usize::MAX, 2, vec![0; 4])),
    ] {
        let dir = journal_of(
            "impossible",
            &[upload(0, good.clone()).encode(), upload(1, bad).encode()],
        );
        let before = std::fs::read(dir.join("wal-0.log")).unwrap();
        let Err(DurableError::Replay(message)) = DurableStore::open(&dir) else {
            panic!("{what}: the journal opened");
        };
        assert!(
            message.starts_with("wal-0.log record 1: "),
            "{what}: {message}"
        );
        assert!(message.contains("is impossible"), "{what}: {message}");
        assert_eq!(
            std::fs::read(dir.join("wal-0.log")).unwrap(),
            before,
            "{what}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The record a build before the pixel code wrote for `op`, which
/// carries `image`: this build's record with the coded pixel field
/// (tag 2) swapped for the raw one (tag 1).
fn with_raw_pixels(op: &WalOp, image: &Image) -> Vec<u8> {
    let field = |tag: u8, bytes: &[u8]| {
        let mut field = vec![tag];
        le::put_u64(&mut field, image.width() as u64);
        le::put_u64(&mut field, image.height() as u64);
        le::put_bytes(&mut field, bytes);
        field
    };
    let record = op.encode();
    let coded = field(2, &pixels::encode(image));
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

/// The segment at `path` holds exactly this build's records of its ops:
/// no raw pixel field survives in it.
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
fn a_raw_pixel_journal_reopens_bit_identical_and_folds_into_codes() {
    let images: Vec<Image> = corpus(9).into_iter().step_by(5).collect();
    let ops: Vec<WalOp> = images
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let (id, pixels) = (ImageId(i as u64), Some(pixel_blob(image)));
            if i % 2 == 0 {
                WalOp::AddImage {
                    id,
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels,
                }
            } else {
                WalOp::IngestUpload {
                    marker: Some(format!("k{i}")),
                    id,
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels,
                    features: vec![(FeatureKind::Cnn, vec![i as f32; 3])],
                }
            }
        })
        .collect();
    let records: Vec<Vec<u8>> = ops
        .iter()
        .zip(&images)
        .map(|(op, image)| with_raw_pixels(op, image))
        .collect();
    // A raw record reads as the coded op this build writes.
    for (record, op) in records.iter().zip(&ops) {
        assert_eq!(&WalOp::decode(record).unwrap(), op);
    }
    let dir = journal_of("legacy", &records);
    let (ds, report) = DurableStore::open(&dir).unwrap();
    assert_eq!(report.replayed_ops, images.len());
    let store = ds.store_arc();
    for (i, image) in images.iter().enumerate() {
        assert_eq!(store.pixels(ImageId(i as u64)).as_ref(), Some(image));
    }
    let before = store.snapshot();
    // The fold writes codes, and the base reopens to the same store.
    ds.compact().unwrap();
    drop((ds, store));
    let base = rewritten_by_this_build(&dir.join("base-1.seg"));
    assert_eq!(
        base.len(),
        images.len() + 1,
        "the uploads and the marker table"
    );
    let (ds, _) = DurableStore::open(&dir).unwrap();
    assert_eq!(ds.store_arc().snapshot(), before);
    for (i, image) in images.iter().enumerate() {
        assert_eq!(
            ds.store_arc().pixels(ImageId(i as u64)).as_ref(),
            Some(image)
        );
    }
    // A raw field whose bytes do not fill its shape is corrupt. The
    // first record is an `AddImage`, which its pixel field ends.
    let mut short = records[0].clone();
    short.truncate(short.len() - 1);
    let cut = short.len() - 4 - (images[0].raw().len() - 1);
    short[cut..cut + 4].copy_from_slice(&(images[0].raw().len() as u32 - 1).to_le_bytes());
    let message = WalOp::decode(&short).unwrap_err();
    assert!(message.contains("do not match"), "{message}");
    drop(ds);
    std::fs::remove_dir_all(&dir).ok();
}
