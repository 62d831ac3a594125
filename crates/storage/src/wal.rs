//! Append-only write-ahead log for [`crate::store::VisualStore`]
//! mutations.
//!
//! Every mutation is journaled — and fsynced — *before* it is applied
//! to the in-memory store, so an operation that returned `Ok` is
//! guaranteed to survive a crash. Records are framed as
//!
//! ```text
//! <len> <crc32> <payload>\n
//! ```
//!
//! where `len` is the payload's byte length in decimal, `crc32` is the
//! IEEE CRC-32 of the payload bytes as eight lowercase hex digits, and
//! `payload` is the op as one JSON object rendered by
//! [`crate::codec`]. The framing makes a torn tail detectable without
//! trusting the payload: a crash mid-append leaves a record whose
//! length, checksum, or terminator doesn't line up, and recovery
//! truncates the file back to the last intact record
//! ([`Wal::open_recover`]).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tvdp_vision::{FeatureKind, Image};

use crate::annotation::Annotation;
use crate::codec::{self, Value};
use crate::ids::{ClassificationId, ImageId};
use crate::record::{ImageMeta, ImageOrigin};

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
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { record, message } => {
                write!(f, "corrupt wal record {record}: {message}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A pixel payload as an op carries it: `(width, height, raw RGB bytes)`.
pub type PixelBlob = (usize, usize, Vec<u8>);

/// Moves an image's pixels into the shape an op carries.
pub fn pixel_blob(image: Image) -> PixelBlob {
    (image.width(), image.height(), image.into_raw())
}

/// One store mutation — the unit every write path hands to
/// [`crate::VisualStore::apply_batch`] and, on a durable store, the
/// journal. Ops carry explicit ids (allocated by the caller, or peeked
/// under the mutation lock), so replay reproduces the exact same rows.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// [`crate::store::VisualStore::add_image`] with its assigned id.
    AddImage {
        /// Id the store assigned.
        id: ImageId,
        /// Upload-time metadata.
        meta: ImageMeta,
        /// Provenance.
        origin: ImageOrigin,
        /// Pixel payload, if any.
        pixels: Option<PixelBlob>,
    },
    /// [`crate::store::VisualStore::put_feature`].
    PutFeature {
        /// Image the vector belongs to.
        image: ImageId,
        /// Feature family.
        kind: FeatureKind,
        /// The vector.
        vector: Vec<f32>,
    },
    /// [`crate::store::VisualStore::register_scheme`] with its assigned
    /// id.
    RegisterScheme {
        /// Id the store assigned.
        id: ClassificationId,
        /// Unique scheme name.
        name: String,
        /// Label vocabulary.
        labels: Vec<String>,
    },
    /// [`crate::store::VisualStore::annotate`]; the annotation carries
    /// its assigned id.
    Annotate(Annotation),
    /// [`crate::store::VisualStore::ingest_upload`] — one atomic
    /// composite record: the image row, its feature vectors, and the
    /// upload's idempotency marker land together or not at all. The
    /// WAL's all-or-nothing framing of this record is what makes an
    /// acked-once upload ingested-exactly-once across crashes: a torn
    /// append leaves neither the rows nor the marker, so the client's
    /// retry re-ingests cleanly; an intact record replays both, so the
    /// retry deduplicates.
    IngestUpload {
        /// Idempotency key the uploading client attached.
        marker: String,
        /// Id the store assigned.
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
}

impl WalOp {
    /// Renders the op as its JSON payload (unframed).
    pub fn encode(&self) -> String {
        let v = match self {
            WalOp::AddImage {
                id,
                meta,
                origin,
                pixels,
            } => tag(
                "AddImage",
                Value::Obj(vec![
                    ("id".into(), Value::num(id.raw())),
                    ("meta".into(), codec::encode_meta(meta)),
                    ("origin".into(), codec::encode_origin(origin)),
                    ("pixels".into(), encode_pixels(pixels)),
                ]),
            ),
            WalOp::PutFeature {
                image,
                kind,
                vector,
            } => tag(
                "PutFeature",
                Value::Obj(vec![
                    ("image".into(), Value::num(image.raw())),
                    ("kind".into(), codec::encode_kind(*kind)),
                    ("vector".into(), codec::encode_vector(vector)),
                ]),
            ),
            WalOp::RegisterScheme { id, name, labels } => tag(
                "RegisterScheme",
                Value::Obj(vec![
                    ("id".into(), Value::num(id.raw())),
                    ("name".into(), Value::str(name.clone())),
                    (
                        "labels".into(),
                        Value::Arr(labels.iter().map(|l| Value::str(l.clone())).collect()),
                    ),
                ]),
            ),
            WalOp::Annotate(a) => tag("Annotate", codec::encode_annotation(a)),
            WalOp::IngestUpload {
                marker,
                id,
                meta,
                origin,
                pixels,
                features,
            } => {
                let features = Value::Arr(
                    features
                        .iter()
                        .map(|(kind, vector)| {
                            Value::Obj(vec![
                                ("kind".into(), codec::encode_kind(*kind)),
                                ("vector".into(), codec::encode_vector(vector)),
                            ])
                        })
                        .collect(),
                );
                tag(
                    "IngestUpload",
                    Value::Obj(vec![
                        ("marker".into(), Value::str(marker.clone())),
                        ("id".into(), Value::num(id.raw())),
                        ("meta".into(), codec::encode_meta(meta)),
                        ("origin".into(), codec::encode_origin(origin)),
                        ("pixels".into(), encode_pixels(pixels)),
                        ("features".into(), features),
                    ]),
                )
            }
        };
        v.render()
    }

    /// Decodes an op from its JSON payload.
    pub fn decode(payload: &str) -> Result<WalOp, String> {
        let v = codec::parse(payload)?;
        let (name, body) = match &v {
            Value::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
            _ => return Err("expected a single-key op object".into()),
        };
        match name.as_str() {
            "AddImage" => Ok(WalOp::AddImage {
                id: ImageId(codec::num_field(body, "id")?),
                meta: codec::decode_meta(codec::field(body, "meta")?)?,
                origin: codec::decode_origin(codec::field(body, "origin")?)?,
                pixels: decode_pixels(codec::field(body, "pixels")?)?,
            }),
            "PutFeature" => Ok(WalOp::PutFeature {
                image: ImageId(codec::num_field(body, "image")?),
                kind: codec::decode_kind(codec::field(body, "kind")?)?,
                vector: codec::decode_vector(codec::field(body, "vector")?)?,
            }),
            "RegisterScheme" => {
                let labels = codec::arr_field(body, "labels")?
                    .iter()
                    .map(|l| match l {
                        Value::Str(s) => Ok(s.clone()),
                        _ => Err("labels: expected strings".to_string()),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(WalOp::RegisterScheme {
                    id: ClassificationId(codec::num_field(body, "id")?),
                    name: codec::str_field(body, "name")?.to_string(),
                    labels,
                })
            }
            "Annotate" => Ok(WalOp::Annotate(codec::decode_annotation(body)?)),
            "IngestUpload" => {
                let features = codec::arr_field(body, "features")?
                    .iter()
                    .map(|entry| {
                        Ok((
                            codec::decode_kind(codec::field(entry, "kind")?)?,
                            codec::decode_vector(codec::field(entry, "vector")?)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(WalOp::IngestUpload {
                    marker: codec::str_field(body, "marker")?.to_string(),
                    id: ImageId(codec::num_field(body, "id")?),
                    meta: codec::decode_meta(codec::field(body, "meta")?)?,
                    origin: codec::decode_origin(codec::field(body, "origin")?)?,
                    pixels: decode_pixels(codec::field(body, "pixels")?)?,
                    features,
                })
            }
            other => Err(format!("unknown op tag `{other}`")),
        }
    }
}

fn tag(name: &str, payload: Value) -> Value {
    Value::Obj(vec![(name.to_string(), payload)])
}

fn encode_pixels(pixels: &Option<PixelBlob>) -> Value {
    match pixels {
        None => Value::Null,
        Some((w, h, raw)) => Value::Obj(vec![
            ("width".into(), Value::num(*w)),
            ("height".into(), Value::num(*h)),
            ("raw".into(), Value::str(codec::hex_encode(raw))),
        ]),
    }
}

fn decode_pixels(v: &Value) -> Result<Option<PixelBlob>, String> {
    match v {
        Value::Null => Ok(None),
        p => {
            let raw = codec::hex_decode(codec::str_field(p, "raw")?)?;
            Ok(Some((
                codec::num_field(p, "width")?,
                codec::num_field(p, "height")?,
                raw,
            )))
        }
    }
}

/// IEEE CRC-32 (the polynomial used by zip/gzip/PNG), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Frames one op payload as a full WAL record
/// (`<len> <crc32> <payload>\n`). Exposed so fault-injection tests can
/// materialize arbitrary crash prefixes of an append.
pub fn frame(payload: &str) -> String {
    format!(
        "{} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Result of scanning raw WAL bytes: the intact records and where they
/// end.
struct Scan {
    ops: Vec<WalOp>,
    /// Byte offset just past the last intact record; everything after
    /// is a torn tail.
    valid_len: usize,
}

/// Scans raw WAL bytes, stopping at the first torn record. A record
/// whose checksum verifies but whose payload doesn't decode is a hard
/// error (see [`WalError::Corrupt`]).
fn scan(bytes: &[u8]) -> Result<Scan, WalError> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let start = pos;
        let torn = |ops: Vec<WalOp>| Scan {
            ops,
            valid_len: start,
        };
        // <len> as ASCII decimal, capped well below overflow; a longer
        // length prefix is torn garbage, not a real record.
        let mut len: usize = 0;
        let mut digits = 0;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() && digits < 12 {
            len = len * 10 + (bytes[pos] - b'0') as usize;
            digits += 1;
            pos += 1;
        }
        if digits == 0 || digits >= 12 || bytes.get(pos) != Some(&b' ') {
            return Ok(torn(ops));
        }
        // 8 hex digits, a space, `len` payload bytes, a newline.
        let crc_end = pos + 9;
        let payload_start = crc_end + 1;
        let Some(payload_end) = payload_start.checked_add(len) else {
            return Ok(torn(ops));
        };
        if payload_end >= bytes.len()
            || bytes.get(crc_end) != Some(&b' ')
            || bytes[payload_end] != b'\n'
        {
            return Ok(torn(ops));
        }
        let crc_claimed = std::str::from_utf8(&bytes[pos + 1..crc_end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        let payload = &bytes[payload_start..payload_end];
        match crc_claimed {
            Some(c) if crc32(payload) == c => {}
            _ => return Ok(torn(ops)),
        }
        let text = std::str::from_utf8(payload).map_err(|_| WalError::Corrupt {
            record: ops.len(),
            message: "non-utf8 payload with intact checksum".into(),
        })?;
        let op = WalOp::decode(text).map_err(|message| WalError::Corrupt {
            record: ops.len(),
            message,
        })?;
        ops.push(op);
        pos = payload_end + 1;
    }
    Ok(Scan {
        ops,
        valid_len: pos,
    })
}

/// An open write-ahead log. Appends go straight to disk and are
/// fsynced before returning, so an `Ok` from [`Wal::append`] means the
/// op survives a crash.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes known to hold only intact, fsynced records. A failed
    /// append may leave torn bytes past this mark;
    /// [`Wal::repair_tail`] truncates back to it.
    valid_len: u64,
    /// Optional injected write-fault script (chaos tests only).
    fault: Option<Arc<crate::fault::WriteFaultPlan>>,
}

impl Wal {
    /// Creates a fresh, empty WAL at `path` (truncating any existing
    /// file) and fsyncs it plus its parent directory so the file
    /// itself survives a crash.
    pub fn create(path: &Path) -> Result<Wal, WalError> {
        let file = File::create(path)?;
        file.sync_all()?;
        crate::persist::fsync_parent(path)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            valid_len: 0,
            fault: None,
        })
    }

    /// Opens the WAL at `path` (creating it empty if absent), recovers
    /// every intact record, and truncates any torn tail left by a
    /// crash mid-append. Returns the log handle positioned for
    /// appending, the recovered ops in append order, and how many torn
    /// bytes were dropped.
    pub fn open_recover(path: &Path) -> Result<(Wal, Vec<WalOp>, u64), WalError> {
        if !path.exists() {
            let wal = Wal::create(path)?;
            return Ok((wal, Vec::new(), 0));
        }
        let bytes = std::fs::read(path)?;
        let scanned = scan(&bytes)?;
        let torn = (bytes.len() - scanned.valid_len) as u64;
        if torn > 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(scanned.valid_len as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                valid_len: scanned.valid_len as u64,
                fault: None,
            },
            scanned.ops,
            torn,
        ))
    }

    /// Installs (or removes) an injected write-fault script. Every
    /// later [`Wal::append`] / [`Wal::append_batch`] consults the plan
    /// before touching the file; an armed plan makes the write leave
    /// only its torn prefix on disk and fail with the plan's error.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<crate::fault::WriteFaultPlan>>) {
        self.fault = plan;
    }

    /// One guarded physical append: fault plan first, then
    /// `write_all` + `sync_data`, advancing the valid-byte mark only
    /// on full success.
    fn guarded_write(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if let Some(plan) = &self.fault {
            if let Some((prefix, e)) = plan.intercept(bytes.len()) {
                // The torn prefix really lands on disk (and is synced)
                // so recovery sees exactly what a crashed or
                // out-of-space append would have left behind.
                if prefix > 0 {
                    self.file.write_all(&bytes[..prefix])?;
                    self.file.sync_data()?;
                }
                return Err(WalError::Io(e));
            }
        }
        self.file.write_all(bytes)?;
        self.file.sync_data()?;
        self.valid_len += bytes.len() as u64;
        Ok(())
    }

    /// Truncates any torn bytes a failed append left past the last
    /// intact record and syncs, returning how many bytes were dropped.
    /// After `Ok`, the log is byte-identical to one that never saw the
    /// failed append, and appending may resume.
    pub fn repair_tail(&mut self) -> Result<u64, WalError> {
        let on_disk = self.file.metadata()?.len();
        let torn = on_disk.saturating_sub(self.valid_len);
        if torn > 0 {
            self.file.set_len(self.valid_len)?;
            // A freshly created WAL writes through a plain (non-append)
            // handle whose cursor the torn write advanced; park it back
            // at the truncation point or the next append would leave a
            // NUL gap that recovery reads as a torn tail.
            self.file.seek(SeekFrom::Start(self.valid_len))?;
            self.file.sync_all()?;
        }
        Ok(torn)
    }

    /// Appends one op and fsyncs before returning: a batch of one.
    pub fn append(&mut self, op: &WalOp) -> Result<(), WalError> {
        self.append_batch(std::slice::from_ref(op))
    }

    /// Group commit: appends every op as its own framed record but pays
    /// a *single* `write_all` + `sync_data` for the whole batch. On-disk
    /// bytes are identical to `ops.iter().map(append)` — recovery sees
    /// per-op records either way — so a crash mid-batch recovers an
    /// in-order prefix of the batch (all-or-prefix), and an `Ok` return
    /// means every op in the batch survives. An empty batch is a no-op
    /// (no write, no fsync).
    pub fn append_batch(&mut self, ops: &[WalOp]) -> Result<(), WalError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for op in ops {
            buf.push_str(&frame(&op.encode()));
        }
        self.guarded_write(buf.as_bytes())
    }

    /// Scans every record of the WAL at `path` without opening it for
    /// appending and without truncating anything: returns the intact
    /// ops plus the torn trailing byte count. Used for *sealed* WAL
    /// segments, which are never written again — a torn tail there is
    /// the caller's decision to reject, not silently repair.
    pub fn read_all(path: &Path) -> Result<(Vec<WalOp>, u64), WalError> {
        let bytes = std::fs::read(path)?;
        let scanned = scan(&bytes)?;
        let torn = (bytes.len() - scanned.valid_len) as u64;
        Ok((scanned.ops, torn))
    }

    /// Current size of the log in bytes.
    pub fn len_bytes(&self) -> Result<u64, WalError> {
        Ok(self.file.metadata()?.len())
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationSource;
    use crate::ids::{AnnotationId, UserId};
    use tvdp_geo::GeoPoint;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddImage {
                id: ImageId(0),
                meta: ImageMeta {
                    uploader: UserId(1),
                    gps: GeoPoint::new(34.0, -118.25),
                    fov: None,
                    captured_at: 100,
                    uploaded_at: 110,
                    keywords: vec!["wal \"quoted\"".into()],
                },
                origin: ImageOrigin::Original,
                pixels: Some((1, 1, vec![7, 8, 9])),
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
                marker: "edge7-s13".into(),
                id: ImageId(1),
                meta: ImageMeta {
                    uploader: UserId(2),
                    gps: GeoPoint::new(34.1, -118.2),
                    fov: None,
                    captured_at: 200,
                    uploaded_at: 210,
                    keywords: vec![],
                },
                origin: ImageOrigin::Original,
                pixels: Some((1, 2, vec![1, 2, 3, 4, 5, 6])),
                features: vec![
                    (FeatureKind::Cnn, vec![0.5, -1.5]),
                    (FeatureKind::ColorHistogram, vec![]),
                ],
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-wal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_roundtrip_through_encode_decode() {
        for op in sample_ops() {
            let back = WalOp::decode(&op.encode()).unwrap();
            assert_eq!(back, op);
        }
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
        let (_, ops, torn) = Wal::open_recover(&path).unwrap();
        assert_eq!(ops, sample_ops());
        assert_eq!(torn, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_at_every_prefix() {
        let ops = sample_ops();
        let mut full = String::new();
        for op in &ops {
            full.push_str(&frame(&op.encode()));
        }
        let path = temp_path("torn");
        for cut in 0..full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let (_, recovered, _) = Wal::open_recover(&path).unwrap();
            // The recovered prefix is exactly the ops whose full
            // records fit in the cut.
            let mut expect = Vec::new();
            let mut consumed = 0;
            for op in &ops {
                let rec = frame(&op.encode());
                if consumed + rec.len() <= cut {
                    consumed += rec.len();
                    expect.push(op.clone());
                } else {
                    break;
                }
            }
            assert_eq!(recovered, expect, "cut at byte {cut}");
            // After recovery the file holds exactly the intact
            // records.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), consumed as u64);
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
        let (_, recovered, torn) = Wal::open_recover(&batched).unwrap();
        assert_eq!(recovered, ops);
        assert_eq!(torn, 0);
        std::fs::remove_file(&per_op).ok();
        std::fs::remove_file(&batched).ok();
    }

    #[test]
    fn crash_mid_batch_recovers_all_or_prefix() {
        // A torn group-committed batch must recover as an in-order
        // prefix of the batch at every possible crash offset.
        let ops = sample_ops();
        let mut full = String::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            full.push_str(&frame(&op.encode()));
            boundaries.push(full.len());
        }
        let path = temp_path("batch-torn");
        for cut in 0..=full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let (_, recovered, _) = Wal::open_recover(&path).unwrap();
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(recovered, ops[..intact].to_vec(), "cut at byte {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_payload_detected_as_torn() {
        let op = &sample_ops()[1];
        let mut bytes = frame(&op.encode()).into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let path = temp_path("bitflip");
        std::fs::write(&path, &bytes).unwrap();
        let (_, ops, torn) = Wal::open_recover(&path).unwrap();
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
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"999 deadbeef {\"half").unwrap();
        drop(f);
        let (mut wal, ops, torn) = Wal::open_recover(&path).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(torn > 0);
        wal.append(&sample_ops()[2]).unwrap();
        drop(wal);
        let (_, ops, torn) = Wal::open_recover(&path).unwrap();
        assert_eq!(ops, vec![sample_ops()[1].clone(), sample_ops()[2].clone()]);
        assert_eq!(torn, 0);
        std::fs::remove_file(&path).ok();
    }
}
