//! Append-only write-ahead log for [`crate::store::VisualStore`]
//! mutations.
//!
//! Every mutation is journaled — and fsynced — *before* it is applied
//! to the in-memory store, so an operation that returned `Ok` is
//! guaranteed to survive a crash.
//!
//! The journal is binary (format v3). A segment starts with the 8-byte
//! [`SEGMENT_MAGIC`] (seven magic bytes and the format version), and
//! every record after it is
//!
//! ```text
//! [len u32 LE][crc32 u32 LE][payload: tag u8, fields…]
//! ```
//!
//! where `len` is the payload's byte length (at least 1: the tag) and
//! `crc32` is the IEEE CRC-32 of the payload bytes
//! ([`tvdp_kernel::crc32`]). Inside a payload,
//! ids and timestamps are fixed-width little-endian integers, GPS/FOV
//! numbers are `f64` bits, a feature vector is a kind byte, a `u32`
//! count and its floats (below), pixels are their lossless code
//! ([`crate::pixels`]) as length-prefixed bytes, and strings are
//! length-prefixed UTF-8 ([`crate::le`]). Floats and pixels therefore
//! round-trip bit-exactly, and neither writing nor replaying a record
//! goes through JSON.
//!
//! A feature vector takes whichever of two forms is shorter. Raw, the
//! only form older builds wrote, is every float's bits after the count.
//! Sparse, marked by the kind byte's high bit, is a presence bitmap of
//! `count.div_ceil(8)` bytes (LSB-first, a bit set where an element's
//! bits are not zero, padding bits clear) and then only those elements'
//! bits: a ReLU descriptor's `+0.0`s cost a bit each instead of four
//! bytes, while `-0.0` is kept. Replay expands it with
//! [`tvdp_kernel::expand`], so everything above this module sees the
//! same dense vector either way. Raw wins a tie, so a vector with no
//! `+0.0` is written as before.
//!
//! A pixel field starts with a tag: 0 for none, 2 for a code. Tag 1,
//! raw RGB bytes, is what builds before the code wrote; such a record
//! still replays, its pixels coded as it is read, so a directory they
//! wrote reopens unchanged and its next fold writes codes. No build
//! writes tag 1, and a build older than the code refuses tag 2 as a
//! corrupt record.
//!
//! The framing makes a torn tail detectable without trusting the
//! payload: a crash mid-append leaves a record whose length or checksum
//! doesn't line up, and recovery truncates the file back to the last
//! intact record ([`Wal::resume`]). A run of zero bytes — a
//! preallocated or NUL-gapped tail — reads as `len = 0`, which no record
//! has, so it is a torn tail too and never a stream of empty records.
//!
//! A non-empty segment that does not start with the magic was written by
//! some other format (the text journal of builds before v3, the JSON
//! snapshot and store file of builds up to PR 20) and is refused
//! untouched with [`WalError::UnsupportedFormat`]; an older build, for
//! its part, would read a v3 segment as one torn tail, so downgrading
//! over a live journal is not supported either.
//!
//! The same header and records are the whole on-disk format: a *base
//! segment* (`base-<epoch>.seg`) is a store rendered as records by
//! [`crate::store::Snapshot::into_ops`] and read back by the same
//! [`scan`]. It alone may carry [`WalOp::UploadMarkers`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tvdp_geo::{Fov, GeoPoint};
use tvdp_kernel::crc32;
use tvdp_vision::{FeatureKind, Image};

use crate::annotation::{Annotation, AnnotationSource, RegionOfInterest};
use crate::disk;
use crate::ids::{AnnotationId, ClassificationId, ImageId, ModelId, UserId};
use crate::le::{self, DecodeError, Reader};
use crate::pixels;
use crate::record::{ImageMeta, ImageOrigin};

/// First bytes of every segment: `TVDPWAL` and the format version.
pub const SEGMENT_MAGIC: [u8; 8] = *b"TVDPWAL\x03";

/// Bytes of `len` + `crc32` in front of every record's payload.
const RECORD_HEADER_LEN: usize = 8;

/// Largest payload a record may carry. The writer refuses anything
/// larger, so the scanner can call a longer claimed length torn without
/// looking further.
pub const MAX_RECORD_BYTES: usize = 1 << 30;

/// Errors from appending to or recovering a WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record with an intact checksum carried an undecodable payload
    /// — version skew or a buggy writer, not a torn write; recovery
    /// refuses rather than silently dropping acknowledged operations.
    Corrupt {
        /// 0-based index of the bad record.
        record: usize,
        /// Decoder message.
        message: String,
    },
    /// The segment does not start with [`SEGMENT_MAGIC`]: it holds some
    /// other format's bytes (or, for a sealed segment, lost its header).
    /// The file is left exactly as found.
    UnsupportedFormat {
        /// The refused segment.
        path: PathBuf,
        /// Its first bytes (at most eight).
        found: Vec<u8>,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { record, message } => {
                write!(f, "corrupt wal record {record}: {message}")
            }
            WalError::UnsupportedFormat { path, found } => write!(
                f,
                "{} is not a v3 segment (it starts with \"{}\") and is left as found. Text \
                 journals, JSON snapshots and JSON store files come from older builds: commit \
                 0104dbe (PR 20) is the last that reads the JSON form, and `tvdp compact <dir>` \
                 with the build that wrote a text journal folds it into that form",
                path.display(),
                found.escape_ascii()
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A pixel payload as an op carries it: `(width, height, code)`, the
/// code being [`crate::pixels::encode`]'s bytes. It is the one form
/// pixels take in an op, in the journal, in a base segment and in the
/// store; [`crate::VisualStore::pixels`] decodes it.
pub type PixelBlob = (usize, usize, Vec<u8>);

/// Codes an image into the shape an op carries.
pub fn pixel_blob(image: &Image) -> PixelBlob {
    (image.width(), image.height(), pixels::encode(image))
}

/// One store mutation — the unit every write path hands to
/// [`crate::VisualStore::apply_batch`] and, on a durable store, the
/// journal. Ops carry explicit ids (allocated by the caller, or peeked
/// under the mutation lock), so replay reproduces the exact same rows.
/// Two ops are the same op exactly when they encode to the same bytes
/// ([`WalOp::encode`]); there is no float equality over them.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// An image row at its id, without features.
    AddImage {
        /// Id the row is stored at.
        id: ImageId,
        /// Upload-time metadata.
        meta: ImageMeta,
        /// Provenance.
        origin: ImageOrigin,
        /// Pixel payload, if any.
        pixels: Option<PixelBlob>,
    },
    /// A feature vector for a stored image, replacing any of its kind.
    PutFeature {
        /// Image the vector belongs to.
        image: ImageId,
        /// Feature family.
        kind: FeatureKind,
        /// The vector.
        vector: Vec<f32>,
    },
    /// A classification scheme at its id: a unique name and a
    /// non-empty, duplicate-free vocabulary.
    RegisterScheme {
        /// Id the row is stored at.
        id: ClassificationId,
        /// Unique scheme name.
        name: String,
        /// Label vocabulary.
        labels: Vec<String>,
    },
    /// An annotation, at the id it carries, of a stored image under a
    /// stored scheme.
    Annotate(Annotation),
    /// One whole upload — the image row, its feature vectors and, when
    /// the client sent an idempotency key, the dedup marker — as one
    /// record, so they land together or not at all. That all-or-nothing
    /// framing is what keeps an image from surviving a crash without its
    /// features, and what makes an acked-once keyed upload
    /// ingested-exactly-once across crashes: a torn append leaves neither
    /// the rows nor the marker, so the client's retry re-ingests cleanly;
    /// an intact record replays both, so the retry deduplicates.
    IngestUpload {
        /// Idempotency key the uploading client attached; `None` touches
        /// no marker state.
        marker: Option<String>,
        /// Id the row is stored at.
        id: ImageId,
        /// Upload-time metadata.
        meta: ImageMeta,
        /// Provenance.
        origin: ImageOrigin,
        /// Pixel payload, if any.
        pixels: Option<PixelBlob>,
        /// Feature vectors uploaded alongside the image.
        features: Vec<(FeatureKind, Vec<f32>)>,
    },
    /// The upload idempotency table as `(key, image, sequence)`: the one
    /// piece of store state the ops above cannot carry (commit order of
    /// racing keyed uploads differs from id order, and sequences are not
    /// dense after eviction). It is the last record of every base
    /// segment — one that ends without it was cut short — and a live
    /// journal never holds one: [`crate::DurableStore`] refuses it both
    /// as a mutation and in a replayed journal segment.
    UploadMarkers(Vec<(String, ImageId, u64)>),
}

// Record tags. 0 is never a tag, so zeroed bytes cannot pass for an op.
const TAG_ADD_IMAGE: u8 = 1;
const TAG_PUT_FEATURE: u8 = 2;
const TAG_REGISTER_SCHEME: u8 = 3;
const TAG_ANNOTATE: u8 = 4;
const TAG_INGEST_UPLOAD: u8 = 5;
const TAG_UPLOAD_MARKERS: u8 = 6;

impl WalOp {
    /// Appends the op's record payload (tag and fields, unframed) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::AddImage {
                id,
                meta,
                origin,
                pixels,
            } => {
                out.push(TAG_ADD_IMAGE);
                le::put_u64(out, id.raw());
                put_meta(out, meta);
                put_origin(out, origin);
                put_pixels(out, pixels);
            }
            WalOp::PutFeature {
                image,
                kind,
                vector,
            } => {
                out.push(TAG_PUT_FEATURE);
                le::put_u64(out, image.raw());
                put_feature(out, *kind, vector);
            }
            WalOp::RegisterScheme { id, name, labels } => {
                out.push(TAG_REGISTER_SCHEME);
                le::put_u64(out, id.raw());
                le::put_bytes(out, name.as_bytes());
                put_strings(out, labels);
            }
            WalOp::Annotate(a) => {
                out.push(TAG_ANNOTATE);
                le::put_u64(out, a.id.raw());
                le::put_u64(out, a.image.raw());
                le::put_u64(out, a.classification.raw());
                le::put_u64(out, a.label as u64);
                out.extend_from_slice(&a.confidence.to_le_bytes());
                let (source, who) = match a.source {
                    AnnotationSource::Human(u) => (SOURCE_HUMAN, u.raw()),
                    AnnotationSource::Machine(m) => (SOURCE_MACHINE, m.raw()),
                };
                out.push(source);
                le::put_u64(out, who);
                put_option(out, &a.region, |out, r| {
                    for v in [r.x, r.y, r.width, r.height] {
                        le::put_u64(out, v as u64);
                    }
                });
            }
            WalOp::IngestUpload {
                marker,
                id,
                meta,
                origin,
                pixels,
                features,
            } => {
                out.push(TAG_INGEST_UPLOAD);
                put_option(out, marker, |out, m| le::put_bytes(out, m.as_bytes()));
                le::put_u64(out, id.raw());
                put_meta(out, meta);
                put_origin(out, origin);
                put_pixels(out, pixels);
                le::put_count(out, features.len());
                for (kind, vector) in features {
                    put_feature(out, *kind, vector);
                }
            }
            WalOp::UploadMarkers(markers) => {
                out.push(TAG_UPLOAD_MARKERS);
                le::put_count(out, markers.len());
                for (key, image, seq) in markers {
                    le::put_bytes(out, key.as_bytes());
                    le::put_u64(out, image.raw());
                    le::put_u64(out, *seq);
                }
            }
        }
    }

    /// The op's record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes an op from a record payload. Every read is bounds-checked
    /// and every count is checked against the bytes that remain before
    /// anything is allocated for it, so hostile bytes end in an error.
    pub fn decode(payload: &[u8]) -> Result<WalOp, DecodeError> {
        let mut r = Reader::new(payload);
        let op = match r.u8()? {
            TAG_ADD_IMAGE => WalOp::AddImage {
                id: ImageId(r.u64()?),
                meta: read_meta(&mut r)?,
                origin: read_origin(&mut r)?,
                pixels: read_pixels(&mut r)?,
            },
            TAG_PUT_FEATURE => {
                let image = ImageId(r.u64()?);
                let (kind, vector) = read_feature(&mut r)?;
                WalOp::PutFeature {
                    image,
                    kind,
                    vector,
                }
            }
            TAG_REGISTER_SCHEME => WalOp::RegisterScheme {
                id: ClassificationId(r.u64()?),
                name: r.string()?,
                labels: read_strings(&mut r)?,
            },
            TAG_ANNOTATE => WalOp::Annotate(Annotation {
                id: AnnotationId(r.u64()?),
                image: ImageId(r.u64()?),
                classification: ClassificationId(r.u64()?),
                label: r.usize()?,
                confidence: r.f32()?,
                source: match (r.u8()?, r.u64()?) {
                    (SOURCE_HUMAN, who) => AnnotationSource::Human(UserId(who)),
                    (SOURCE_MACHINE, who) => AnnotationSource::Machine(ModelId(who)),
                    (other, _) => return Err(format!("unknown annotation source {other}")),
                },
                region: read_option(&mut r, |r| {
                    Ok(RegionOfInterest {
                        x: r.usize()?,
                        y: r.usize()?,
                        width: r.usize()?,
                        height: r.usize()?,
                    })
                })?,
            }),
            TAG_INGEST_UPLOAD => WalOp::IngestUpload {
                marker: read_option(&mut r, Reader::string)?,
                id: ImageId(r.u64()?),
                meta: read_meta(&mut r)?,
                origin: read_origin(&mut r)?,
                pixels: read_pixels(&mut r)?,
                // A feature is at least its kind byte and its count.
                features: r.list(5, read_feature)?,
            },
            // A marker is at least its key's length prefix and two ids.
            TAG_UPLOAD_MARKERS => WalOp::UploadMarkers(
                r.list(20, |r| Ok((r.string()?, ImageId(r.u64()?), r.u64()?)))?,
            ),
            other => return Err(format!("unknown op tag {other}")),
        };
        match r.remaining() {
            0 => Ok(op),
            n => Err(format!("{n} trailing byte(s) after the op")),
        }
    }
}

const SOURCE_HUMAN: u8 = 0;
const SOURCE_MACHINE: u8 = 1;

/// `None` is a 0 byte; `Some` a 1 byte and then the value.
fn put_option<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

fn read_option<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        other => Err(format!("option flag {other} is neither 0 nor 1")),
    }
}

fn put_strings(out: &mut Vec<u8>, strings: &[String]) {
    le::put_count(out, strings.len());
    for s in strings {
        le::put_bytes(out, s.as_bytes());
    }
}

fn read_strings(r: &mut Reader<'_>) -> Result<Vec<String>, DecodeError> {
    // A string is at least its length prefix.
    r.list(4, Reader::string)
}

fn put_point(out: &mut Vec<u8>, p: &GeoPoint) {
    le::put_u64(out, p.lat.to_bits());
    le::put_u64(out, p.lon.to_bits());
}

fn read_point(r: &mut Reader<'_>) -> Result<GeoPoint, DecodeError> {
    Ok(GeoPoint {
        lat: r.f64()?,
        lon: r.f64()?,
    })
}

fn put_meta(out: &mut Vec<u8>, m: &ImageMeta) {
    le::put_u64(out, m.uploader.raw());
    put_point(out, &m.gps);
    put_option(out, &m.fov, |out, f| {
        put_point(out, &f.camera);
        for v in [f.heading_deg, f.angle_deg, f.radius_m] {
            le::put_u64(out, v.to_bits());
        }
    });
    out.extend_from_slice(&m.captured_at.to_le_bytes());
    out.extend_from_slice(&m.uploaded_at.to_le_bytes());
    put_strings(out, &m.keywords);
}

fn read_meta(r: &mut Reader<'_>) -> Result<ImageMeta, DecodeError> {
    Ok(ImageMeta {
        uploader: UserId(r.u64()?),
        gps: read_point(r)?,
        fov: read_option(r, |r| {
            Ok(Fov {
                camera: read_point(r)?,
                heading_deg: r.f64()?,
                angle_deg: r.f64()?,
                radius_m: r.f64()?,
            })
        })?,
        captured_at: r.i64()?,
        uploaded_at: r.i64()?,
        keywords: read_strings(r)?,
    })
}

/// `Original` is a 0 byte; `Augmented` a 1 byte, the parent and the op.
fn put_origin(out: &mut Vec<u8>, origin: &ImageOrigin) {
    match origin {
        ImageOrigin::Original => out.push(0),
        ImageOrigin::Augmented { parent, op } => {
            out.push(1);
            le::put_u64(out, parent.raw());
            le::put_bytes(out, op.as_bytes());
        }
    }
}

fn read_origin(r: &mut Reader<'_>) -> Result<ImageOrigin, DecodeError> {
    match r.u8()? {
        0 => Ok(ImageOrigin::Original),
        1 => Ok(ImageOrigin::Augmented {
            parent: ImageId(r.u64()?),
            op: r.string()?,
        }),
        other => Err(format!("unknown image origin {other}")),
    }
}

// Pixel field tags. Builds before the pixel code wrote `PIXELS_RAW`.
const PIXELS_NONE: u8 = 0;
const PIXELS_RAW: u8 = 1;
const PIXELS_CODED: u8 = 2;

fn put_pixels(out: &mut Vec<u8>, pixels: &Option<PixelBlob>) {
    match pixels {
        None => out.push(PIXELS_NONE),
        Some((width, height, code)) => {
            out.push(PIXELS_CODED);
            le::put_u64(out, *width as u64);
            le::put_u64(out, *height as u64);
            le::put_bytes(out, code);
        }
    }
}

/// A pixel field: none, a code, or raw bytes from an older build, coded
/// here. Raw bytes that are not exactly `width * height * 3` are
/// refused.
fn read_pixels(r: &mut Reader<'_>) -> Result<Option<PixelBlob>, DecodeError> {
    let tag = r.u8()?;
    if tag == PIXELS_NONE {
        return Ok(None);
    }
    let (width, height, bytes) = (r.usize()?, r.usize()?, r.bytes()?);
    match tag {
        PIXELS_CODED => Ok(Some((width, height, bytes.to_vec()))),
        PIXELS_RAW => match Image::try_from_raw(width, height, bytes.to_vec()) {
            Some(image) => Ok(Some(pixel_blob(&image))),
            None => Err(format!(
                "{} raw pixel byte(s) do not match {width}x{height}x3",
                bytes.len()
            )),
        },
        other => Err(format!("unknown pixel tag {other}")),
    }
}

/// Set on a feature field's kind byte when the vector is stored sparse:
/// its count, a presence bitmap and the elements that are not `+0.0`.
const FEATURE_SPARSE: u8 = 0x80;

/// Writes a feature field in whichever form is shorter: raw (the kind,
/// the count, every float's bits) or sparse (the kind with
/// [`FEATURE_SPARSE`] set, the count, a bitmap of `count.div_ceil(8)`
/// bytes, LSB-first, whose bit `i` is set where element `i`'s bits are
/// not zero, then those elements' bits in order). Raw wins a tie, so a
/// vector with no `+0.0` in it keeps the form every older record holds.
fn put_feature(out: &mut Vec<u8>, kind: FeatureKind, vector: &[f32]) {
    let kind = match kind {
        FeatureKind::ColorHistogram => 0,
        FeatureKind::SiftBow => 1,
        FeatureKind::Cnn => 2,
    };
    let zeros = vector.iter().filter(|v| v.to_bits() == 0).count();
    if vector.len().div_ceil(8) >= 4 * zeros {
        out.push(kind);
        le::put_count(out, vector.len());
        le::put_f32s(out, vector);
        return;
    }
    out.push(FEATURE_SPARSE | kind);
    le::put_count(out, vector.len());
    out.extend(vector.chunks(8).map(|byte| {
        byte.iter()
            .enumerate()
            .map(|(j, v)| u8::from(v.to_bits() != 0) << j)
            .sum::<u8>()
    }));
    out.reserve(4 * (vector.len() - zeros));
    for v in vector.iter().filter(|v| v.to_bits() != 0) {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A feature field in either form. A sparse count is believed only as
/// far as the bitmap bytes that follow could map it, so the vector
/// allocated for it is at most 32 bytes of floats per bitmap byte.
fn read_feature(r: &mut Reader<'_>) -> Result<(FeatureKind, Vec<f32>), DecodeError> {
    let byte = r.u8()?;
    let kind = match byte & !FEATURE_SPARSE {
        0 => FeatureKind::ColorHistogram,
        1 => FeatureKind::SiftBow,
        2 => FeatureKind::Cnn,
        _ => return Err(format!("unknown feature kind {byte}")),
    };
    if byte & FEATURE_SPARSE == 0 {
        return Ok((kind, r.f32_vec()?));
    }
    let n = r.u32()? as usize;
    let bitmap = r
        .take(n.div_ceil(8))
        .map_err(|e| format!("sparse count {n}: bitmap {e}"))?;
    if let Some(&last) = bitmap.last() {
        if !n.is_multiple_of(8) && last >> (n % 8) != 0 {
            return Err(format!("bitmap of {n} element(s) sets a padding bit"));
        }
    }
    // The kept floats follow the bitmap, and `expand` counts them as it
    // places them.
    let mut vector = vec![0.0; n];
    let Some(kept) = tvdp_kernel::expand(bitmap, r.rest(), &mut vector) else {
        return Err(format!(
            "sparse vector of {n} element(s) runs past the record's end"
        ));
    };
    r.take(4 * kept)?;
    Ok((kind, vector))
}

/// Appends one framed record to `buf` — the header, then whatever
/// `write_payload` appends, then the header patched with that payload's
/// length and checksum — and returns the payload's length.
pub(crate) fn push_record(buf: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    write_payload(buf);
    let (header, payload) = buf[start..].split_at_mut(RECORD_HEADER_LEN);
    // A length past `u32` saturates; `MAX_RECORD_BYTES` is far below it,
    // so such a record is refused by the writer and torn to the scanner.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    payload.len()
}

/// Frames one op payload as a full WAL record (`len`, `crc32`,
/// payload): the bytes [`Wal::append`] adds to a segment for that op.
/// Exposed so tests can lay segments down and size records by hand.
// tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    push_record(&mut buf, |out| out.extend_from_slice(payload));
    buf
}

/// Appends `ops` to `buf`, each as its own framed record: the bytes a
/// segment holds for them, whether [`Wal::append_batch`] journals them
/// or a base segment is rendered from them. An op over
/// [`MAX_RECORD_BYTES`] is refused.
pub(crate) fn push_records(buf: &mut Vec<u8>, ops: &[WalOp]) -> Result<(), WalError> {
    for op in ops {
        let len = push_record(buf, |out| op.encode_into(out));
        if len > MAX_RECORD_BYTES {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("a {len} byte op exceeds the journal's record limit"),
            )));
        }
    }
    Ok(())
}

pub(crate) fn unsupported(path: &Path, bytes: &[u8]) -> WalError {
    WalError::UnsupportedFormat {
        path: path.to_path_buf(),
        found: bytes.iter().take(SEGMENT_MAGIC.len()).copied().collect(),
    }
}

/// Bytes [`scan`] reads a segment through at a time. A record longer
/// than the window gets a window of its own length, once the segment
/// has shown that it holds that many bytes. 64 KiB is under glibc's
/// default 128 KiB mmap threshold, so there a scan of records shorter
/// than that takes its window from the heap, and freeing it does not
/// raise the threshold for the rest of the process; a record longer
/// than 128 KiB still gets a window that may be mapped and raise it.
/// A 1 MiB window replayed no faster (DESIGN.md §9).
const SCAN_WINDOW_BYTES: usize = 64 << 10;

/// The intact records of a segment, read through a bounded window and
/// checked and decoded one at a time: see [`scan`].
#[derive(Debug)]
pub struct Scan<R> {
    source: R,
    /// The window. `window[at..]` holds the bytes read past the last
    /// record yielded; the next record starts at `window[at]`.
    window: Vec<u8>,
    at: usize,
    /// Whether `source` has reported its end.
    eof: bool,
    /// Whether the scan ended: at a torn or corrupt record, at the end
    /// of the segment, or on a read error. Nothing more is read.
    done: bool,
    valid_len: usize,
    records: usize,
}

impl<R> Scan<R> {
    /// Byte offset just past the last intact record yielded so far;
    /// once the scan is exhausted, everything after it is a torn tail.
    /// 0 when even the header is missing or cut short.
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }
}

impl<R: Read> Scan<R> {
    /// Reads until the window holds `len` bytes or the source ends. The
    /// window grows only with bytes that arrive, so a claimed length
    /// past the end of the segment allocates nothing for itself.
    fn read_to(&mut self, len: usize) -> Result<(), WalError> {
        let want = len.saturating_sub(self.window.len());
        if want > 0 && !self.eof {
            let got = (&mut self.source)
                .take(want as u64)
                .read_to_end(&mut self.window)?;
            self.eof = got < want;
        }
        Ok(())
    }

    /// Makes `window[at..]` hold `need` bytes, or all the segment has
    /// left: drops the records already yielded, then reads on to a full
    /// window, or further for a record longer than one.
    fn fill(&mut self, need: usize) -> Result<(), WalError> {
        self.window.drain(..self.at);
        self.at = 0;
        if self.window.capacity() < SCAN_WINDOW_BYTES {
            self.window
                .reserve_exact(SCAN_WINDOW_BYTES - self.window.len());
        }
        self.read_to(need.max(SCAN_WINDOW_BYTES))
    }

    /// The payload of the next intact record, as its range in `window`,
    /// reading more of the segment when the window runs out. `None` at
    /// the first torn record: a header cut short, a length of 0, above
    /// [`MAX_RECORD_BYTES`] or past the segment's end, or a checksum
    /// that does not match.
    fn next_record(&mut self) -> Result<Option<std::ops::Range<usize>>, WalError> {
        if self.window.len() - self.at < RECORD_HEADER_LEN {
            self.fill(RECORD_HEADER_LEN)?;
        }
        let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], _)) =
            self.window[self.at..].split_first_chunk::<RECORD_HEADER_LEN>()
        else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len == 0 || len > MAX_RECORD_BYTES {
            return Ok(None);
        }
        if self.window.len() - self.at < RECORD_HEADER_LEN + len {
            self.fill(RECORD_HEADER_LEN + len)?;
        }
        let start = self.at + RECORD_HEADER_LEN;
        let Some(payload) = self.window.get(start..start + len) else {
            return Ok(None);
        };
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Ok(None);
        }
        self.at = start + len;
        Ok(Some(start..start + len))
    }
}

impl<R: Read> Iterator for Scan<R> {
    type Item = Result<WalOp, WalError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let payload = match self.next_record() {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                self.done = true;
                return None;
            }
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let len = payload.len();
        Some(match WalOp::decode(&self.window[payload]) {
            Ok(op) => {
                self.valid_len += RECORD_HEADER_LEN + len;
                self.records += 1;
                Ok(op)
            }
            Err(message) => {
                self.done = true;
                Err(WalError::Corrupt {
                    record: self.records,
                    message,
                })
            }
        })
    }
}

/// Whether a segment whose first bytes are `head` holds nothing but
/// them, all zero.
fn zeroed_header<R: Read>(head: &[u8], source: &mut R) -> Result<bool, WalError> {
    if head.is_empty() || head.iter().any(|&b| b != 0) {
        return Ok(false);
    }
    let mut more = Vec::new();
    source.take(1).read_to_end(&mut more)?;
    Ok(more.is_empty())
}

/// Scans a segment read from `source` (a file, or bytes already in
/// memory), yielding its ops in order and stopping at the first torn
/// record: one whose header is cut short, whose length is 0, above
/// [`MAX_RECORD_BYTES`] or more than the bytes that follow, or whose
/// checksum does not match. The segment is read through a window of
/// [`SCAN_WINDOW_BYTES`], nothing is allocated on a claimed length, and
/// no more than one op is decoded at a time. A record whose checksum
/// verifies but whose payload doesn't decode is a hard error (see
/// [`WalError::Corrupt`]) that ends the scan, as are leading bytes that
/// are not (a prefix of) the magic, unless the segment is at most a
/// header's length of zeros.
pub fn scan<R: Read>(path: &Path, mut source: R) -> Result<Scan<R>, WalError> {
    let mut head = Vec::with_capacity(SEGMENT_MAGIC.len());
    (&mut source)
        .take(SEGMENT_MAGIC.len() as u64)
        .read_to_end(&mut head)?;
    // A crash inside `Wal::create` leaves a strict prefix of the magic,
    // possibly none of it, or a header's length of zeros where its page
    // was never written: a segment with no record.
    let whole = head == SEGMENT_MAGIC;
    if !whole && !SEGMENT_MAGIC.starts_with(&head) && !zeroed_header(&head, &mut source)? {
        return Err(unsupported(path, &head));
    }
    Ok(Scan {
        source,
        window: Vec::new(),
        at: 0,
        eof: false,
        done: !whole,
        valid_len: if whole { SEGMENT_MAGIC.len() } else { 0 },
        records: 0,
    })
}

/// An open write-ahead log. Appends go straight to disk and are
/// fsynced before returning, so an `Ok` from [`Wal::append`] means the
/// op survives a crash.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes known to hold only the header and intact, fsynced records.
    /// A failed append may leave torn bytes past this mark;
    /// [`Wal::repair_tail`] truncates back to it.
    valid_len: u64,
}

impl Wal {
    /// Creates a fresh WAL at `path` (truncating any existing file)
    /// holding only the segment header, and fsyncs it plus its parent
    /// directory so the file itself survives a crash.
    pub fn create(path: &Path) -> Result<Wal, WalError> {
        let mut file = disk::create(path)?;
        disk::write(&mut file, path, &SEGMENT_MAGIC)?;
        disk::sync_all(&file, path)?;
        disk::sync_parent(path)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            valid_len: SEGMENT_MAGIC.len() as u64,
        })
    }

    /// Reopens for appending a segment whose [`scan`] found `valid_len`
    /// intact bytes: truncates the torn tail a crash mid-append left
    /// past them, or, when not even the header survived (a crash inside
    /// [`Wal::create`]), stamps the file afresh.
    pub fn resume(path: &Path, valid_len: u64) -> Result<Wal, WalError> {
        if valid_len == 0 {
            return Wal::create(path);
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() > valid_len {
            disk::set_len(&file, path, valid_len)?;
            disk::sync_all(&file, path)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            valid_len,
        })
    }

    /// Truncates any torn bytes a failed append left past the last
    /// intact record and syncs, returning how many bytes were dropped.
    /// After `Ok`, the log is byte-identical to one that never saw the
    /// failed append, and appending may resume.
    pub fn repair_tail(&mut self) -> Result<u64, WalError> {
        let on_disk = self.file.metadata()?.len();
        let torn = on_disk.saturating_sub(self.valid_len);
        if torn > 0 {
            disk::set_len(&self.file, &self.path, self.valid_len)?;
            // The torn write advanced the cursor; park it back at the
            // truncation point or the next append would leave a NUL gap
            // that recovery reads as a torn tail.
            self.file.seek(SeekFrom::Start(self.valid_len))?;
            disk::sync_all(&self.file, &self.path)?;
        }
        Ok(torn)
    }

    /// Appends one op and fsyncs before returning: a batch of one.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn append(&mut self, op: &WalOp) -> Result<(), WalError> {
        self.append_batch(std::slice::from_ref(op))
    }

    /// Group commit: every op is encoded straight into one buffer as
    /// its own framed record, and the batch pays a *single* `write_all`
    /// and `sync_data`. On-disk bytes are identical to
    /// `ops.iter().map(append)` — recovery sees per-op records either
    /// way — so a crash mid-batch recovers an in-order prefix of the
    /// batch (all-or-prefix), and an `Ok` return means every op in the
    /// batch survives. An empty batch is a no-op (no write, no fsync);
    /// an op over [`MAX_RECORD_BYTES`] fails the batch before any byte
    /// of it is written.
    pub fn append_batch(&mut self, ops: &[WalOp]) -> Result<(), WalError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        push_records(&mut buf, ops)?;
        disk::write(&mut self.file, &self.path, &buf)?;
        disk::sync_data(&self.file, &self.path)?;
        self.valid_len += buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::first_difference;
    use std::io::Write;

    fn meta(uploader: u64, keywords: &[&str]) -> ImageMeta {
        ImageMeta {
            uploader: UserId(uploader),
            gps: GeoPoint::new(34.0, -118.25),
            fov: None,
            captured_at: 100,
            uploaded_at: 110,
            keywords: keywords.iter().map(|k| k.to_string()).collect(),
        }
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddImage {
                id: ImageId(0),
                meta: meta(1, &["wal \"quoted\""]),
                origin: ImageOrigin::Original,
                pixels: Some(pixel_blob(&Image::from_raw(1, 1, vec![7, 8, 9]))),
            },
            WalOp::RegisterScheme {
                id: ClassificationId(0),
                name: "c".into(),
                labels: vec!["a".into(), "b".into()],
            },
            WalOp::PutFeature {
                image: ImageId(0),
                kind: FeatureKind::Cnn,
                vector: vec![0.1, -2.5],
            },
            WalOp::Annotate(Annotation {
                id: AnnotationId(0),
                image: ImageId(0),
                classification: ClassificationId(0),
                label: 1,
                confidence: 0.9,
                source: AnnotationSource::Human(UserId(1)),
                region: None,
            }),
            WalOp::IngestUpload {
                marker: Some("edge7-s13".into()),
                id: ImageId(1),
                meta: meta(2, &[]),
                origin: ImageOrigin::Original,
                pixels: Some(pixel_blob(&Image::from_raw(1, 2, vec![1, 2, 3, 4, 5, 6]))),
                features: vec![
                    (FeatureKind::Cnn, vec![0.5, -1.5]),
                    (FeatureKind::ColorHistogram, vec![]),
                ],
            },
        ]
    }

    /// One op of every kind and every optional shape: pixels, an empty
    /// and a 480-float vector, a marker and none, a region, a machine
    /// source, an FOV, an `Augmented` origin, a marker table and an
    /// empty one.
    fn every_shape() -> Vec<WalOp> {
        let mut ops = sample_ops();
        ops.push(WalOp::IngestUpload {
            marker: None,
            id: ImageId(2),
            meta: ImageMeta {
                fov: Some(Fov::new(GeoPoint::new(34.05, -118.24), 123.4, 60.0, 80.5)),
                ..meta(3, &["street", "λ"])
            },
            origin: ImageOrigin::Augmented {
                parent: ImageId(1),
                op: "flip_h".into(),
            },
            pixels: None,
            features: vec![(
                FeatureKind::SiftBow,
                (0..480).map(|i| (i as f32).sin()).collect(),
            )],
        });
        ops.push(WalOp::Annotate(Annotation {
            id: AnnotationId(1),
            image: ImageId(2),
            classification: ClassificationId(0),
            label: 0,
            confidence: 0.25,
            source: AnnotationSource::Machine(ModelId(9)),
            region: Some(RegionOfInterest {
                x: 1,
                y: 2,
                width: 3,
                height: 4,
            }),
        }));
        ops.push(WalOp::UploadMarkers(vec![
            ("edge7-s13".into(), ImageId(1), 0),
            ("λ".into(), ImageId(2), u64::MAX),
        ]));
        ops.push(WalOp::UploadMarkers(Vec::new()));
        ops
    }

    /// A segment holding `ops`, and the offset at which each record ends
    /// (leading entry: the header's end).
    fn segment(ops: &[WalOp]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        let mut ends = vec![bytes.len()];
        for op in ops {
            bytes.extend_from_slice(&frame(&op.encode()));
            ends.push(bytes.len());
        }
        (bytes, ends)
    }

    /// A scan run to its end: the intact ops and where they end.
    struct Scanned {
        ops: Vec<WalOp>,
        valid_len: usize,
    }

    fn scan_bytes(bytes: &[u8]) -> Result<Scanned, WalError> {
        let mut scan = scan(Path::new("test.log"), bytes)?;
        let ops = scan.by_ref().collect::<Result<_, _>>()?;
        Ok(Scanned {
            ops,
            valid_len: scan.valid_len(),
        })
    }

    /// What `DurableStore::open` does with its live segment: scan, then
    /// reopen for appending. Returns the torn byte count last.
    fn open_recover(path: &Path) -> Result<(Wal, Vec<WalOp>, u64), WalError> {
        let bytes = std::fs::read(path)?;
        let scanned = scan_bytes(&bytes)?;
        let wal = Wal::resume(path, scanned.valid_len as u64)?;
        let torn = (bytes.len() - scanned.valid_len) as u64;
        Ok((wal, scanned.ops, torn))
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-wal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn ops_roundtrip_through_encode_decode() {
        for op in every_shape() {
            let payload = op.encode();
            assert_eq!(
                first_difference(
                    &[WalOp::decode(&payload).unwrap()],
                    std::slice::from_ref(&op)
                ),
                None
            );
            // `encode_into` appends: what is already in the buffer stays.
            let mut buf = vec![0xAA];
            op.encode_into(&mut buf);
            assert_eq!(buf[0], 0xAA);
            assert_eq!(buf[1..], payload[..]);
        }
    }

    #[test]
    fn float_vectors_roundtrip_bit_exactly() {
        let vector = vec![
            -0.0f32,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::NAN,
        ];
        let op = WalOp::PutFeature {
            image: ImageId(1),
            kind: FeatureKind::Cnn,
            vector: vector.clone(),
        };
        let Ok(WalOp::PutFeature { vector: back, .. }) = WalOp::decode(&op.encode()) else {
            panic!("feature op did not decode");
        };
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&vector));
    }

    /// The format, byte for byte. A change here is a format change:
    /// bump the version in [`SEGMENT_MAGIC`] with it.
    #[test]
    fn golden_bytes_pin_the_format() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        assert_eq!(hex(&SEGMENT_MAGIC), "5456445057414c03");
        let small_meta = ImageMeta {
            uploader: UserId(2),
            gps: GeoPoint::new(1.0, -2.0),
            fov: None,
            captured_at: -1,
            uploaded_at: 3,
            keywords: vec!["k".into()],
        };
        let golden: Vec<(WalOp, &str)> = vec![
            (
                WalOp::AddImage {
                    id: ImageId(1),
                    meta: small_meta.clone(),
                    origin: ImageOrigin::Original,
                    pixels: Some(pixel_blob(&Image::from_raw(1, 1, vec![7, 8, 9]))),
                },
                concat!(
                    "01",               // tag
                    "0100000000000000", // id
                    "0200000000000000", // uploader
                    "000000000000f03f", // lat 1.0
                    "00000000000000c0", // lon -2.0
                    "00",               // no fov
                    "ffffffffffffffff", // captured_at -1
                    "0300000000000000", // uploaded_at
                    "01000000",         // one keyword
                    "01000000",         // of one byte
                    "6b",               // "k"
                    "00",               // original
                    "02",               // coded pixels
                    "0100000000000000", // width
                    "0100000000000000", // height
                    "03000000",         // a three byte code
                    "6e20a0",           // of 7, 8, 9 (`pixels::tests`)
                ),
            ),
            (
                WalOp::PutFeature {
                    image: ImageId(1),
                    kind: FeatureKind::Cnn,
                    vector: vec![1.0, -0.0],
                },
                concat!(
                    "02",               // tag
                    "0100000000000000", // image
                    "02",               // Cnn
                    "02000000",         // two floats
                    "0000803f",         // 1.0
                    "00000080",         // -0.0
                ),
            ),
            // Ten floats, eight of them `+0.0`: the bitmap form. `-0.0`
            // has a bit set, so it is kept.
            (
                WalOp::PutFeature {
                    image: ImageId(1),
                    kind: FeatureKind::Cnn,
                    vector: vec![0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
                },
                concat!(
                    "02",               // tag
                    "0100000000000000", // image
                    "82",               // Cnn, sparse
                    "0a000000",         // ten floats
                    "04",               // kept: element 2
                    "02",               // and element 9
                    "00000040",         // 2.0
                    "00000080",         // -0.0
                ),
            ),
            (
                WalOp::RegisterScheme {
                    id: ClassificationId(4),
                    name: "s".into(),
                    labels: vec!["a".into(), "bc".into()],
                },
                concat!(
                    "03",               // tag
                    "0400000000000000", // id
                    "01000000",         // name: one byte
                    "73",               // "s"
                    "02000000",         // two labels
                    "01000000",
                    "61", // "a"
                    "02000000",
                    "6263", // "bc"
                ),
            ),
            (
                WalOp::Annotate(Annotation {
                    id: AnnotationId(5),
                    image: ImageId(1),
                    classification: ClassificationId(4),
                    label: 1,
                    confidence: 0.5,
                    source: AnnotationSource::Machine(ModelId(6)),
                    region: Some(RegionOfInterest {
                        x: 1,
                        y: 2,
                        width: 3,
                        height: 4,
                    }),
                }),
                concat!(
                    "04",               // tag
                    "0500000000000000", // id
                    "0100000000000000", // image
                    "0400000000000000", // classification
                    "0100000000000000", // label
                    "0000003f",         // confidence 0.5
                    "01",               // machine
                    "0600000000000000", // model
                    "01",               // region present
                    "0100000000000000", // x
                    "0200000000000000", // y
                    "0300000000000000", // width
                    "0400000000000000", // height
                ),
            ),
            (
                WalOp::IngestUpload {
                    marker: Some("m".into()),
                    id: ImageId(7),
                    meta: ImageMeta {
                        fov: Some(Fov::new(GeoPoint::new(1.0, -2.0), 90.0, 60.0, 100.0)),
                        keywords: vec![],
                        ..small_meta
                    },
                    origin: ImageOrigin::Augmented {
                        parent: ImageId(1),
                        op: "f".into(),
                    },
                    pixels: None,
                    features: vec![(FeatureKind::ColorHistogram, vec![0.5])],
                },
                concat!(
                    "05",               // tag
                    "01",               // marker present
                    "01000000",         // of one byte
                    "6d",               // "m"
                    "0700000000000000", // id
                    "0200000000000000", // uploader
                    "000000000000f03f", // lat
                    "00000000000000c0", // lon
                    "01",               // fov present
                    "000000000000f03f", // camera lat
                    "00000000000000c0", // camera lon
                    "0000000000805640", // heading 90
                    "0000000000004e40", // angle 60
                    "0000000000005940", // radius 100
                    "ffffffffffffffff", // captured_at
                    "0300000000000000", // uploaded_at
                    "00000000",         // no keywords
                    "01",               // augmented
                    "0100000000000000", // parent
                    "01000000",         // op: one byte
                    "66",               // "f"
                    "00",               // no pixels
                    "01000000",         // one feature
                    "00",               // ColorHistogram
                    "01000000",         // one float
                    "0000003f",         // 0.5
                ),
            ),
            (
                WalOp::UploadMarkers(vec![("m".into(), ImageId(7), 9)]),
                concat!(
                    "06",               // tag
                    "01000000",         // one marker
                    "01000000",         // key: one byte
                    "6d",               // "m"
                    "0700000000000000", // image
                    "0900000000000000", // sequence
                ),
            ),
            // What closes a base whose store holds no marker.
            (WalOp::UploadMarkers(Vec::new()), "0600000000"),
        ];
        for (op, expected) in &golden {
            assert_eq!(hex(&op.encode()), *expected, "{op:?}");
        }
        // What builds before the pixel code wrote for the first op: the
        // same fields, the pixels raw under tag 1. It reads as the op.
        let (coded_op, coded) = &golden[0];
        let legacy = coded.replace(
            concat!(
                "02",
                "0100000000000000",
                "0100000000000000",
                "03000000",
                "6e20a0"
            ),
            concat!(
                "01",
                "0100000000000000",
                "0100000000000000",
                "03000000",
                "070809"
            ),
        );
        assert_ne!(&legacy, coded);
        let bytes: Vec<u8> = (0..legacy.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&legacy[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            first_difference(
                &[WalOp::decode(&bytes).unwrap()],
                std::slice::from_ref(coded_op)
            ),
            None
        );
        // The frame around a payload: its length, its CRC, then itself.
        assert_eq!(
            hex(&frame(b"123456789")),
            concat!("09000000", "2639f4cb", "313233343536373839")
        );
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::create(&path).unwrap();
        for op in sample_ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        let (_, ops, torn) = open_recover(&path).unwrap();
        assert_eq!(first_difference(&ops, &sample_ops()), None);
        assert_eq!(torn, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_at_every_prefix() {
        let ops = sample_ops();
        let (full, ends) = segment(&ops);
        let path = temp_path("torn");
        // From byte 0: the header's own crash prefixes are cuts too.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, recovered, _) = open_recover(&path).unwrap();
            // The recovered prefix is exactly the ops whose full
            // records fit in the cut.
            let intact = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1);
            assert_eq!(
                first_difference(&recovered, &ops[..intact]),
                None,
                "cut at byte {cut}"
            );
            // After recovery the file holds exactly the header and the
            // intact records.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                ends[intact] as u64,
                "cut at byte {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_batch_matches_per_op_bytes_and_recovers() {
        let ops = sample_ops();
        let per_op = temp_path("batch-perop");
        let batched = temp_path("batch-grouped");
        std::fs::remove_file(&per_op).ok();
        std::fs::remove_file(&batched).ok();
        let mut a = Wal::create(&per_op).unwrap();
        for op in &ops {
            a.append(op).unwrap();
        }
        let mut b = Wal::create(&batched).unwrap();
        b.append_batch(&ops).unwrap();
        b.append_batch(&[]).unwrap(); // no-op, no bytes
        drop((a, b));
        assert_eq!(
            std::fs::read(&per_op).unwrap(),
            std::fs::read(&batched).unwrap(),
            "group commit must be byte-identical to per-op appends"
        );
        // ... and to the header plus `frame(encode())` of each op.
        assert_eq!(std::fs::read(&batched).unwrap(), segment(&ops).0);
        let (_, recovered, torn) = open_recover(&batched).unwrap();
        assert_eq!(first_difference(&recovered, &ops), None);
        assert_eq!(torn, 0);
        std::fs::remove_file(&per_op).ok();
        std::fs::remove_file(&batched).ok();
    }

    #[test]
    fn crash_mid_batch_recovers_all_or_prefix() {
        // A torn group-committed batch must recover as an in-order
        // prefix of the batch at every possible crash offset.
        let ops = sample_ops();
        let (full, ends) = segment(&ops);
        let path = temp_path("batch-torn");
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, recovered, _) = open_recover(&path).unwrap();
            let intact = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1);
            assert_eq!(
                first_difference(&recovered, &ops[..intact]),
                None,
                "cut at byte {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_payload_detected_as_torn() {
        let (mut bytes, _) = segment(&sample_ops()[1..2]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let path = temp_path("bitflip");
        std::fs::write(&path, &bytes).unwrap();
        let (_, ops, torn) = open_recover(&path).unwrap();
        assert!(ops.is_empty());
        assert!(torn > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovered_wal_accepts_new_appends() {
        let path = temp_path("reappend");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&sample_ops()[1]).unwrap();
        drop(wal);
        // Simulate a torn append after the good record.
        let torn_record = frame(&sample_ops()[0].encode());
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn_record[..torn_record.len() / 2]).unwrap();
        drop(f);
        let (mut wal, ops, torn) = open_recover(&path).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(torn, (torn_record.len() / 2) as u64);
        wal.append(&sample_ops()[2]).unwrap();
        drop(wal);
        let (_, ops, torn) = open_recover(&path).unwrap();
        assert_eq!(first_difference(&ops, &sample_ops()[1..3]), None);
        assert_eq!(torn, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_and_half_stamped_segments_open_empty_and_are_stamped() {
        let path = temp_path("blank");
        // A strict prefix of the magic, or zeros where the header's page
        // was never written.
        let zeros = [0; SEGMENT_MAGIC.len()];
        let heads = (0..SEGMENT_MAGIC.len())
            .map(|cut| &SEGMENT_MAGIC[..cut])
            .chain((1..=zeros.len()).map(|cut| &zeros[..cut]));
        for head in heads {
            std::fs::write(&path, head).unwrap();
            let (mut wal, ops, torn) = open_recover(&path).unwrap();
            assert!(ops.is_empty());
            assert_eq!(torn, head.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), SEGMENT_MAGIC);
            wal.append(&sample_ops()[1]).unwrap();
            drop(wal);
            let (_, ops, torn) = open_recover(&path).unwrap();
            assert_eq!(first_difference(&ops, &sample_ops()[1..2]), None);
            assert_eq!(torn, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zeroed_tail_is_torn_not_a_stream_of_empty_records() {
        // `crc32(b"") == 0`, so eight zero bytes would frame an empty
        // payload with a matching checksum if `len = 0` were a record.
        let (mut bytes, ends) = segment(&sample_ops()[..2]);
        bytes.extend_from_slice(&[0; 4096]);
        let scanned = scan_bytes(&bytes).unwrap();
        assert_eq!(first_difference(&scanned.ops, &sample_ops()[..2]), None);
        assert_eq!(scanned.valid_len, ends[2]);
        // A whole zeroed file is not a journal of this format at all.
        assert!(matches!(
            scan_bytes(&[0; 64]),
            Err(WalError::UnsupportedFormat { .. })
        ));
        // And a checksummed payload whose tag is 0 is corrupt, not an op.
        let mut tagged = SEGMENT_MAGIC.to_vec();
        tagged.extend_from_slice(&frame(&[0]));
        assert!(matches!(
            scan_bytes(&tagged),
            Err(WalError::Corrupt { record: 0, .. })
        ));
    }

    /// What a scan of damaged bytes may come to: an in-order prefix of
    /// the ops that were written plus a torn tail (returns how many), or
    /// a typed error (returns `None`).
    fn prefix_or_typed_error(bytes: &[u8], ops: &[WalOp], what: &str) -> Option<usize> {
        match scan_bytes(bytes) {
            Ok(scanned) => {
                assert!(scanned.valid_len <= bytes.len(), "{what}");
                assert!(scanned.ops.len() <= ops.len(), "{what}");
                assert_eq!(
                    first_difference(&scanned.ops, &ops[..scanned.ops.len()]),
                    None,
                    "{what}"
                );
                Some(scanned.ops.len())
            }
            Err(WalError::Corrupt { .. } | WalError::UnsupportedFormat { .. }) => None,
            Err(WalError::Io(e)) => panic!("{what}: scanning does no i/o, got {e}"),
        }
    }

    #[test]
    fn hostile_bytes_scan_to_a_prefix_or_a_typed_error() {
        let ops = every_shape();
        let (full, ends) = segment(&ops);
        // Every truncation point: exactly the records that fit.
        for cut in 0..=full.len() {
            let intact = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1);
            let what = format!("cut at byte {cut}");
            assert_eq!(
                prefix_or_typed_error(&full[..cut], &ops, &what),
                Some(intact),
                "{what}"
            );
        }
        // Every single-bit flip: the damaged record and everything after
        // it are a torn tail (or the damage is called out); nothing
        // before it is lost or reordered.
        let mut flipped = full.clone();
        for byte in 0..full.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                let what = format!("bit {bit} of byte {byte}");
                if let Some(recovered) = prefix_or_typed_error(&flipped, &ops, &what) {
                    let before = ends.iter().filter(|&&e| e <= byte).count() - 1;
                    assert_eq!(recovered, before, "{what}");
                }
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn length_bombs_are_refused_without_allocating_for_them() {
        // A record header claiming 4 GiB, with nothing behind it.
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 12]);
        let scanned = scan_bytes(&bytes).unwrap();
        assert!(scanned.ops.is_empty());
        assert_eq!(scanned.valid_len, SEGMENT_MAGIC.len());
        // ... and one just past the limit, which is torn whatever follows.
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_RECORD_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(scan_bytes(&bytes).unwrap().valid_len, SEGMENT_MAGIC.len());

        // Counts of `u32::MAX` inside payloads whose checksum is right:
        // each must fail on the count, not try to reserve room for it.
        let bomb = u32::MAX.to_le_bytes();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        // PutFeature: float count.
        let mut p = vec![TAG_PUT_FEATURE];
        le::put_u64(&mut p, 1);
        p.push(2);
        p.extend_from_slice(&bomb);
        payloads.push(p);
        // RegisterScheme: name length, then label count.
        let mut p = vec![TAG_REGISTER_SCHEME];
        le::put_u64(&mut p, 1);
        p.extend_from_slice(&bomb);
        payloads.push(p);
        let mut p = vec![TAG_REGISTER_SCHEME];
        le::put_u64(&mut p, 1);
        le::put_bytes(&mut p, b"s");
        p.extend_from_slice(&bomb);
        payloads.push(p);
        // AddImage: keyword count, then the byte count of a code or of
        // an older build's raw pixels.
        let image_payload = |keywords: &[u8], pixels: Option<(u8, &[u8])>| {
            let mut p = vec![TAG_ADD_IMAGE];
            le::put_u64(&mut p, 1);
            le::put_u64(&mut p, 1);
            p.extend_from_slice(&[0; 16]); // gps
            p.push(0); // no fov
            p.extend_from_slice(&[0; 16]); // timestamps
            p.extend_from_slice(keywords);
            if let Some((tag, len)) = pixels {
                p.push(0); // original
                p.push(tag);
                p.extend_from_slice(&[1; 16]); // width, height
                p.extend_from_slice(len);
            }
            p
        };
        payloads.push(image_payload(&bomb, None));
        payloads.push(image_payload(&[0; 4], Some((PIXELS_CODED, &bomb))));
        payloads.push(image_payload(&[0; 4], Some((PIXELS_RAW, &bomb))));
        // PutFeature: a sparse float count, whose bitmap alone is past
        // the record's end.
        let mut p = vec![TAG_PUT_FEATURE];
        le::put_u64(&mut p, 1);
        p.push(FEATURE_SPARSE | 2);
        p.extend_from_slice(&bomb);
        payloads.push(p);
        // IngestUpload: feature count.
        let mut p = vec![TAG_INGEST_UPLOAD, 0];
        le::put_u64(&mut p, 1);
        le::put_u64(&mut p, 1);
        p.extend_from_slice(&[0; 16]);
        p.push(0);
        p.extend_from_slice(&[0; 16]);
        p.extend_from_slice(&[0; 4]); // no keywords
        p.push(0); // original
        p.push(0); // no pixels
        p.extend_from_slice(&bomb);
        payloads.push(p);
        // UploadMarkers: marker count, then a key length.
        let mut p = vec![TAG_UPLOAD_MARKERS];
        p.extend_from_slice(&bomb);
        payloads.push(p);
        let mut p = vec![TAG_UPLOAD_MARKERS];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&bomb);
        payloads.push(p);
        for payload in &payloads {
            // Padding after the count must not make it plausible either.
            for pad in [0usize, 64] {
                let mut payload = payload.clone();
                payload.resize(payload.len() + pad, 0);
                let message = WalOp::decode(&payload).unwrap_err();
                assert!(message.contains("count"), "{message}");
                let mut bytes = SEGMENT_MAGIC.to_vec();
                bytes.extend_from_slice(&frame(&payload));
                assert!(matches!(
                    scan_bytes(&bytes),
                    Err(WalError::Corrupt { record: 0, .. })
                ));
            }
        }
    }

    /// The scanner as it was before it read through a window: one
    /// record at a time over bytes already in memory.
    fn scan_serial(bytes: &[u8]) -> Result<Scanned, WalError> {
        let Some(mut rest) = bytes.strip_prefix(&SEGMENT_MAGIC) else {
            assert!(SEGMENT_MAGIC.starts_with(bytes), "not a segment");
            return Ok(Scanned {
                ops: Vec::new(),
                valid_len: 0,
            });
        };
        let mut scanned = Scanned {
            ops: Vec::new(),
            valid_len: SEGMENT_MAGIC.len(),
        };
        while let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], body)) =
            rest.split_first_chunk::<RECORD_HEADER_LEN>()
        {
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            if len == 0 || len > MAX_RECORD_BYTES {
                break;
            }
            let Some((payload, after)) = body.split_at_checked(len) else {
                break;
            };
            if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
                break;
            }
            scanned
                .ops
                .push(WalOp::decode(payload).map_err(|message| WalError::Corrupt {
                    record: scanned.ops.len(),
                    message,
                })?);
            scanned.valid_len += RECORD_HEADER_LEN + len;
            rest = after;
        }
        Ok(scanned)
    }

    /// Scans `bytes` through the window and checks that it ends exactly
    /// where the serial scanner does: the same ops and the same
    /// `valid_len`.
    fn scan_matches_serial(bytes: &[u8], what: &str) -> Scanned {
        let serial = scan_serial(bytes).unwrap();
        let windowed = scan_bytes(bytes).unwrap();
        assert_eq!(windowed.valid_len, serial.valid_len, "{what}");
        assert_eq!(first_difference(&windowed.ops, &serial.ops), None, "{what}");
        windowed
    }

    /// An op whose record payload is exactly `len` bytes (at least 17):
    /// a scheme with no labels and a name of the right length.
    fn op_of_len(len: usize) -> WalOp {
        WalOp::RegisterScheme {
            id: ClassificationId(len as u64),
            name: "n".repeat(len - 17),
            labels: Vec::new(),
        }
    }

    /// The segment offset at which the first window ends.
    const WINDOW_END: usize = SEGMENT_MAGIC.len() + SCAN_WINDOW_BYTES;

    #[test]
    fn a_record_straddling_the_window_recovers_as_the_serial_scan_does() {
        // The first record ends 0, 3 (inside the next header) and 100
        // (inside the next payload) bytes before the window does.
        for short in [0, 3, 100] {
            let first = SCAN_WINDOW_BYTES - RECORD_HEADER_LEN - short;
            let ops = vec![op_of_len(first), op_of_len(500), op_of_len(40)];
            let (full, ends) = segment(&ops);
            assert_eq!(ends[1], WINDOW_END - short);
            let scanned = scan_matches_serial(&full, &format!("{short} short"));
            assert_eq!(scanned.ops.len(), 3);
            // Cut anywhere around the window's end, and inside the
            // straddling record: exactly the records that fit.
            for cut in (WINDOW_END - 120..WINDOW_END + 40).chain([full.len() - 1]) {
                let scanned =
                    scan_matches_serial(&full[..cut], &format!("{short} short, cut {cut}"));
                let intact = ends.iter().filter(|&&e| e <= cut).count() - 1;
                assert_eq!(scanned.ops.len(), intact, "{short} short, cut {cut}");
            }
        }
    }

    #[test]
    fn a_record_longer_than_the_window_gets_a_window_of_its_length() {
        let big = SCAN_WINDOW_BYTES * 5 / 2;
        let ops = vec![op_of_len(40), op_of_len(big), op_of_len(40)];
        let (full, ends) = segment(&ops);
        let mut scan = scan(Path::new("test.log"), &full[..]).unwrap();
        assert_eq!(scan.by_ref().map(Result::unwrap).count(), 3);
        assert_eq!(scan.valid_len(), full.len());
        assert!(scan.window.capacity() >= RECORD_HEADER_LEN + big);
        scan_matches_serial(&full, "whole");
        for cut in [ends[1] + 1, ends[2] - 1, ends[2], full.len() - 1] {
            scan_matches_serial(&full[..cut], &format!("cut {cut}"));
        }
    }

    #[test]
    fn a_claimed_length_past_the_end_is_torn_and_gets_no_allocation() {
        let claim = (MAX_RECORD_BYTES / 2) as u32;
        // The lying header opens a window, once after a window's worth
        // of records and once first in the segment.
        for before in [
            vec![op_of_len(SCAN_WINDOW_BYTES - RECORD_HEADER_LEN)],
            vec![],
        ] {
            let (mut bytes, ends) = segment(&before);
            bytes.extend_from_slice(&claim.to_le_bytes());
            bytes.extend_from_slice(&[0xA5; 4]);
            bytes.extend(std::iter::repeat_n(7u8, SCAN_WINDOW_BYTES * 3 / 2));
            let mut scan = scan(Path::new("test.log"), &bytes[..]).unwrap();
            assert_eq!(scan.by_ref().map(Result::unwrap).count(), before.len());
            assert_eq!(scan.valid_len(), ends[before.len()]);
            // The window grew with the bytes the segment holds, never
            // toward the claim.
            assert!(scan.window.capacity() < 4 * SCAN_WINDOW_BYTES);
            scan_matches_serial(&bytes, "length past the end");
        }
    }

    #[test]
    fn a_checksum_failure_in_a_later_window_ends_the_scan_at_that_record() {
        // Records 0-14 (a sixteenth of a window each) fit the first
        // window, record 15 straddles its end and records 16-19 lie in
        // the second.
        let ops: Vec<WalOp> = (0..20).map(|_| op_of_len(SCAN_WINDOW_BYTES / 16)).collect();
        let (full, ends) = segment(&ops);
        assert!(ends[15] < WINDOW_END && WINDOW_END < ends[16]);
        scan_matches_serial(&full, "intact");
        // Damage a record in the first window, the straddling one, one in
        // the second window, and two at once: the earliest damaged record
        // is where the scan ends.
        for damaged in [vec![6], vec![15], vec![17], vec![6, 17], vec![2, 6]] {
            let mut bytes = full.clone();
            for &record in &damaged {
                bytes[ends[record] + RECORD_HEADER_LEN + 99] ^= 0x10;
            }
            let first = damaged[0];
            let scanned = scan_matches_serial(&bytes, &format!("{damaged:?}"));
            assert_eq!(scanned.ops.len(), first, "{damaged:?}");
            assert_eq!(scanned.valid_len, ends[first], "{damaged:?}");
        }
    }

    #[test]
    fn checksummed_garbage_is_corrupt_not_torn() {
        let good = sample_ops()[1].encode();
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_utf8 = good.clone();
        let last = bad_utf8.len() - 1;
        bad_utf8[last] = 0xff; // the final label's only byte
        let cases: [(&str, &[u8]); 4] = [
            ("unknown tag", &[9, 0, 0]),
            ("trailing byte", &trailing),
            ("bad utf-8", &bad_utf8),
            ("short field", &good[..good.len() - 1]),
        ];
        for (what, payload) in cases {
            let (mut bytes, ends) = segment(&sample_ops()[..1]);
            bytes.extend_from_slice(&frame(payload));
            assert!(
                matches!(scan_bytes(&bytes), Err(WalError::Corrupt { record: 1, .. })),
                "{what}"
            );
            // The same bytes with a wrong checksum are merely torn.
            let crc_at = ends[1] + 4;
            bytes[crc_at] ^= 0xff;
            let scanned = scan_bytes(&bytes).unwrap();
            assert_eq!(scanned.ops.len(), 1, "{what}");
            assert_eq!(scanned.valid_len, ends[1], "{what}");
        }
    }
}
