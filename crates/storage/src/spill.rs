//! Cold-chunk spill files: the on-disk side of the feature arena's
//! bounded-memory story.
//!
//! Compaction writes cold (frozen, non-tail) [`tvdp_kernel::FeatureSlab`]
//! chunks into per-chunk `spill-<kind>-<dim>-<chunk>.bin` files inside
//! the durable store directory, then swaps the resident floats for a
//! [`DiskChunkLoader`] handle. Reads stay behind the arena's
//! `RowSource` abstraction: the first access to a spilled row reloads
//! its whole chunk exactly once.
//!
//! Spill files follow the same crash-safety rules as every other
//! durable artifact (PR 4 protocol): staged `.tmp` write, flush,
//! `sync_all`, atomic rename, parent-directory fsync. Because arena
//! chunks are write-once, a spill file's contents never go stale —
//! re-spilling a reloaded chunk reuses the existing file. On open the
//! store rebuilds fully resident from the snapshot + WAL, so leftover
//! `spill-*` files (including `.tmp` stragglers) are crash debris and
//! are swept.
//!
//! Format (v1, unquantized chunk): one ASCII header line
//! `tvdp-spill <floats> <crc32>\n` followed by the floats as
//! little-endian `f32` bytes. When the chunk carries a quantized mirror
//! the header gains two fields — `tvdp-spill <floats> <crc32> <codes>
//! <dim>\n` — and the body appends the quantization block after the
//! floats: per-dimension minima (`dim` LE `f32`), per-dimension scales
//! (`dim` LE `f32`), the decode-error radius `eps` (one LE `f32`), then
//! the `u8` codes. The CRC always covers the **whole** body, so codes
//! spill in the same CRC frame as their chunk and a torn or bit-flipped
//! spill is detected on reload rather than silently corrupting query
//! results.
//!
//! Failures surface as typed [`SpillError`]s carrying the offending
//! path (plus the claimed/actual CRC on checksum mismatches), so a
//! corrupt file reached mid-query is a diagnosable, recoverable error
//! rather than a stringly one.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tvdp_kernel::quant::QuantChunk;
use tvdp_kernel::ChunkLoader;
use tvdp_vision::FeatureKind;

use crate::le;
use crate::wal::crc32;

/// A spill file could not be written or read back.
///
/// Every variant names the offending path: spill reloads happen lazily
/// on the query path, long after the compaction that wrote the file,
/// and "checksum mismatch" without a path is undebuggable at that
/// distance.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying filesystem operation failed.
    Io {
        /// Spill file (or its staged `.tmp`) being accessed.
        path: PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// The file has no newline-terminated header line.
    MissingHeader {
        /// Offending file.
        path: PathBuf,
    },
    /// The header line exists but does not parse as a spill header.
    MalformedHeader {
        /// Offending file.
        path: PathBuf,
        /// What specifically failed to parse.
        detail: &'static str,
    },
    /// The declared geometry disagrees with the caller's expectation or
    /// with the actual body size (truncated or padded file).
    LengthMismatch {
        /// Offending file.
        path: PathBuf,
        /// Floats the caller expected the chunk to hold.
        expected_floats: usize,
        /// Floats the header declares.
        declared_floats: usize,
        /// Bytes actually present after the header.
        body_bytes: usize,
    },
    /// The body does not hash to the header's CRC32.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// CRC the header claims.
        claimed: u32,
        /// CRC of the bytes on disk.
        actual: u32,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            SpillError::MissingHeader { path } => {
                write!(f, "{}: missing spill header", path.display())
            }
            SpillError::MalformedHeader { path, detail } => {
                write!(f, "{}: malformed spill header: {detail}", path.display())
            }
            SpillError::LengthMismatch {
                path,
                expected_floats,
                declared_floats,
                body_bytes,
            } => write!(
                f,
                "{}: expected {expected_floats} floats, file declares {declared_floats} \
                 with {body_bytes} body bytes",
                path.display()
            ),
            SpillError::ChecksumMismatch {
                path,
                claimed,
                actual,
            } => write!(
                f,
                "{}: spill checksum mismatch (header {claimed:08x}, body {actual:08x})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SpillError {
    /// The spill file the error is about.
    pub fn path(&self) -> &Path {
        match self {
            SpillError::Io { path, .. }
            | SpillError::MissingHeader { path }
            | SpillError::MalformedHeader { path, .. }
            | SpillError::LengthMismatch { path, .. }
            | SpillError::ChecksumMismatch { path, .. } => path,
        }
    }
}

/// Filename-safe tag for a feature kind, stable across releases (it is
/// part of the on-disk spill naming scheme).
pub fn kind_tag(kind: FeatureKind) -> &'static str {
    match kind {
        FeatureKind::ColorHistogram => "colorhist",
        FeatureKind::SiftBow => "siftbow",
        FeatureKind::Cnn => "cnn",
    }
}

/// Path of the spill file for one frozen chunk of one feature slab.
pub fn spill_path(dir: &Path, kind: FeatureKind, dim: u32, chunk: usize) -> PathBuf {
    dir.join(format!("spill-{}-{dim}-{chunk}.bin", kind_tag(kind)))
}

/// Whether `name` is a spill artifact (including a staged `.tmp`) that
/// recovery should sweep on open.
pub fn is_spill_debris(name: &str) -> bool {
    name.starts_with("spill-") && (name.ends_with(".bin") || name.ends_with(".bin.tmp"))
}

/// Shared spill/reload counters, updated by the writer and by every
/// [`DiskChunkLoader`] handed out against it. Reads are diagnostic
/// (compaction reports), so plain monotonic counters suffice.
#[derive(Debug, Default)]
pub struct SpillStats {
    chunks_spilled: AtomicU64,
    bytes_spilled: AtomicU64,
    chunks_reloaded: AtomicU64,
    bytes_reloaded: AtomicU64,
}

impl SpillStats {
    /// Total chunks written to spill files so far.
    pub fn chunks_spilled(&self) -> u64 {
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counter; no ordering dependency with any other memory access")
        self.chunks_spilled.load(Ordering::Relaxed)
    }

    /// Total float bytes written to spill files so far.
    pub fn bytes_spilled(&self) -> u64 {
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counter; no ordering dependency with any other memory access")
        self.bytes_spilled.load(Ordering::Relaxed)
    }

    /// Total chunks reloaded from spill files so far.
    pub fn chunks_reloaded(&self) -> u64 {
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counter; no ordering dependency with any other memory access")
        self.chunks_reloaded.load(Ordering::Relaxed)
    }

    /// Total float bytes reloaded from spill files so far.
    pub fn bytes_reloaded(&self) -> u64 {
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counter; no ordering dependency with any other memory access")
        self.bytes_reloaded.load(Ordering::Relaxed)
    }
}

/// Writes one chunk's floats — and, when present, its quantized mirror
/// — to its spill file with the staged-rename protocol and returns the
/// body bytes written. If the file already exists (a re-spill of a
/// previously reloaded chunk) nothing is written — chunks are
/// write-once, so the existing copy is current — and `Ok(0)` is
/// returned.
pub fn write_spill(
    dir: &Path,
    kind: FeatureKind,
    dim: u32,
    chunk: usize,
    data: &[f32],
    quant: Option<&QuantChunk>,
    stats: &SpillStats,
) -> Result<u64, SpillError> {
    let path = spill_path(dir, kind, dim, chunk);
    if path.exists() {
        return Ok(0);
    }
    let mut body = Vec::new();
    le::put_f32s(&mut body, data);
    if let Some(q) = quant {
        let p = q.params();
        le::put_f32s(&mut body, p.min());
        le::put_f32s(&mut body, p.scale());
        le::put_f32s(&mut body, &[p.eps()]);
        body.extend_from_slice(q.codes());
    }
    let mut contents = match quant {
        None => format!("tvdp-spill {} {:08x}\n", data.len(), crc32(&body)),
        Some(q) => format!(
            "tvdp-spill {} {:08x} {} {}\n",
            data.len(),
            crc32(&body),
            q.codes().len(),
            q.params().dim(),
        ),
    }
    .into_bytes();
    contents.extend_from_slice(&body);
    let tmp = path.with_file_name(format!("spill-{}-{dim}-{chunk}.bin.tmp", kind_tag(kind)));
    let io = |at: &Path| {
        let at = at.to_path_buf();
        move |source: std::io::Error| SpillError::Io { path: at, source }
    };
    {
        let mut f = File::create(&tmp).map_err(io(&tmp))?;
        f.write_all(&contents).map_err(io(&tmp))?;
        f.flush().map_err(io(&tmp))?;
        f.sync_all().map_err(io(&tmp))?;
    }
    std::fs::rename(&tmp, &path).map_err(io(&path))?;
    crate::persist::fsync_parent(&path).map_err(io(&path))?;
    // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counters; no ordering dependency with any other memory access")
    stats.chunks_spilled.fetch_add(1, Ordering::Relaxed);
    stats
        .bytes_spilled
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counters; no ordering dependency with any other memory access")
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    Ok(body.len() as u64)
}

/// What a spill file holds: the chunk's floats plus its quantized
/// mirror when one was spilled alongside them.
#[derive(Debug)]
pub struct SpillPayload {
    /// The frozen chunk's row data, bit-exact.
    pub floats: Vec<f32>,
    /// The chunk's quantized mirror (v2 files only).
    pub quant: Option<QuantChunk>,
}

/// Reads a spill file back, verifying the header and CRC.
pub fn read_spill(path: &Path, expect_floats: usize) -> Result<SpillPayload, SpillError> {
    let contents = std::fs::read(path).map_err(|source| SpillError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let err_at = |detail: &'static str| SpillError::MalformedHeader {
        path: path.to_path_buf(),
        detail,
    };
    let nl =
        contents
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| SpillError::MissingHeader {
                path: path.to_path_buf(),
            })?;
    let header =
        std::str::from_utf8(&contents[..nl]).map_err(|_| err_at("non-utf8 header line"))?;
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.first().copied() != Some("tvdp-spill") {
        return Err(err_at("bad magic"));
    }
    // v1 = magic + floats + crc; v2 adds codes + dim.
    if fields.len() != 3 && fields.len() != 5 {
        return Err(err_at("wrong field count"));
    }
    let floats: usize = fields[1].parse().map_err(|_| err_at("bad float count"))?;
    let crc_claimed =
        u32::from_str_radix(fields[2], 16).map_err(|_| err_at("bad checksum field"))?;
    let quant_geometry = if fields.len() == 5 {
        let codes: usize = fields[3].parse().map_err(|_| err_at("bad code count"))?;
        let qdim: usize = fields[4].parse().map_err(|_| err_at("bad code dim"))?;
        if qdim == 0 || !codes.is_multiple_of(qdim) {
            return Err(err_at("code count not a multiple of dim"));
        }
        Some((codes, qdim))
    } else {
        None
    };
    let body = &contents[nl + 1..];
    let quant_bytes = quant_geometry.map_or(0, |(codes, qdim)| qdim * 8 + 4 + codes);
    if floats != expect_floats || body.len() != floats * 4 + quant_bytes {
        return Err(SpillError::LengthMismatch {
            path: path.to_path_buf(),
            expected_floats: expect_floats,
            declared_floats: floats,
            body_bytes: body.len(),
        });
    }
    let actual = crc32(body);
    if actual != crc_claimed {
        return Err(SpillError::ChecksumMismatch {
            path: path.to_path_buf(),
            claimed: crc_claimed,
            actual,
        });
    }
    let quant = quant_geometry.map(|(codes, qdim)| {
        let mut at = floats * 4;
        let min = le::f32s(&body[at..at + qdim * 4]);
        at += qdim * 4;
        let scale = le::f32s(&body[at..at + qdim * 4]);
        at += qdim * 4;
        let eps = f32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
        at += 4;
        QuantChunk::from_parts(min, scale, eps, body[at..at + codes].to_vec())
    });
    Ok(SpillPayload {
        floats: le::f32s(&body[..floats * 4]),
        quant,
    })
}

/// [`ChunkLoader`] that reloads spilled chunks from a durable store
/// directory, counting reloads into shared [`SpillStats`].
#[derive(Debug)]
pub struct DiskChunkLoader {
    dir: PathBuf,
    kind: FeatureKind,
    dim: u32,
    floats_per_chunk: usize,
    stats: Arc<SpillStats>,
}

impl DiskChunkLoader {
    /// A loader for the `(kind, dim)` slab spilled under `dir`.
    pub fn new(
        dir: PathBuf,
        kind: FeatureKind,
        dim: u32,
        floats_per_chunk: usize,
        stats: Arc<SpillStats>,
    ) -> DiskChunkLoader {
        DiskChunkLoader {
            dir,
            kind,
            dim,
            floats_per_chunk,
            stats,
        }
    }
}

impl ChunkLoader for DiskChunkLoader {
    fn load(&self, index: usize) -> Arc<[f32]> {
        let path = spill_path(&self.dir, self.kind, self.dim, index);
        let data = match read_spill(&path, self.floats_per_chunk) {
            Ok(payload) => payload.floats,
            Err(m) => {
                // tvdp-lint: allow(no_panic, reason = "a spilled chunk that cannot be reloaded is unrecoverable data corruption under the arena's infallible RowSource contract; aborting beats serving wrong feature vectors")
                panic!("spill reload failed: {m}");
            }
        };
        // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counters; no ordering dependency with any other memory access")
        self.stats.chunks_reloaded.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_reloaded
            // tvdp-lint: allow(atomic_ordering, reason = "monotonic diagnostic counters; no ordering dependency with any other memory access")
            .fetch_add((data.len() * 4) as u64, Ordering::Relaxed);
        Arc::from(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-spill-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn spill_roundtrips_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let stats = SpillStats::default();
        let data: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        let written = write_spill(&dir, FeatureKind::Cnn, 8, 3, &data, None, &stats).unwrap();
        assert_eq!(written, 512 * 4);
        assert_eq!(stats.chunks_spilled(), 1);
        let back = read_spill(&spill_path(&dir, FeatureKind::Cnn, 8, 3), 512).unwrap();
        assert_eq!(
            back.floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(back.quant.is_none());
        // Re-spill of an existing file is a no-op.
        assert_eq!(
            write_spill(&dir, FeatureKind::Cnn, 8, 3, &data, None, &stats).unwrap(),
            0
        );
        assert_eq!(stats.chunks_spilled(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_spill_roundtrips_codes_in_same_frame() {
        let dir = temp_dir("quant-roundtrip");
        let stats = SpillStats::default();
        let dim = 8usize;
        let data: Vec<f32> = (0..64 * dim).map(|i| (i as f32 * 0.37).cos()).collect();
        let quant = QuantChunk::encode(&data, dim);
        let written = write_spill(
            &dir,
            FeatureKind::Cnn,
            dim as u32,
            0,
            &data,
            Some(&quant),
            &stats,
        )
        .unwrap();
        // Body = floats + min + scale + eps + codes, all CRC-framed together.
        assert_eq!(written as usize, data.len() * 4 + dim * 8 + 4 + data.len());
        let back = read_spill(
            &spill_path(&dir, FeatureKind::Cnn, dim as u32, 0),
            data.len(),
        )
        .unwrap();
        assert_eq!(
            back.floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let q = back.quant.expect("quant section");
        assert_eq!(q.codes(), quant.codes());
        assert_eq!(q.params().eps().to_bits(), quant.params().eps().to_bits());
        for d in 0..dim {
            assert_eq!(
                q.params().min()[d].to_bits(),
                quant.params().min()[d].to_bits()
            );
            assert_eq!(
                q.params().scale()[d].to_bits(),
                quant.params().scale()[d].to_bits()
            );
        }
        // A flipped bit anywhere in the quant section trips the shared CRC.
        let path = spill_path(&dir, FeatureKind::Cnn, dim as u32, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // last code byte
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_spill(&path, data.len()),
            Err(SpillError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loader_reloads_and_counts() {
        let dir = temp_dir("loader");
        let stats = Arc::new(SpillStats::default());
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        write_spill(&dir, FeatureKind::SiftBow, 4, 0, &data, None, &stats).unwrap();
        let loader = DiskChunkLoader::new(dir.clone(), FeatureKind::SiftBow, 4, 64, stats.clone());
        let back = loader.load(0);
        assert_eq!(&back[..], &data[..]);
        assert_eq!(stats.chunks_reloaded(), 1);
        assert_eq!(stats.bytes_reloaded(), 64 * 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_spill_detected() {
        let dir = temp_dir("corrupt");
        let stats = SpillStats::default();
        let data = vec![1.0f32; 16];
        write_spill(
            &dir,
            FeatureKind::ColorHistogram,
            16,
            1,
            &data,
            None,
            &stats,
        )
        .unwrap();
        let path = spill_path(&dir, FeatureKind::ColorHistogram, 16, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_spill(&path, 16).unwrap_err();
        match &err {
            SpillError::ChecksumMismatch {
                path: p,
                claimed,
                actual,
            } => {
                assert_eq!(p, &path);
                assert_ne!(claimed, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("checksum"));
        assert!(err.to_string().contains(&path.display().to_string()));
        // Wrong expected length is also refused, with the path attached.
        let err = read_spill(&path, 15).unwrap_err();
        match &err {
            SpillError::LengthMismatch {
                path: p,
                expected_floats,
                declared_floats,
                ..
            } => {
                assert_eq!(p, &path);
                assert_eq!(*expected_floats, 15);
                assert_eq!(*declared_floats, 16);
            }
            other => panic!("expected length mismatch, got {other:?}"),
        }
        // A missing file carries the path through the Io variant.
        let gone = dir.join("spill-cnn-4-99.bin");
        assert!(matches!(read_spill(&gone, 1), Err(SpillError::Io { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn debris_naming() {
        assert!(is_spill_debris("spill-cnn-8-0.bin"));
        assert!(is_spill_debris("spill-cnn-8-0.bin.tmp"));
        assert!(!is_spill_debris("base-3.seg"));
        assert!(!is_spill_debris("wal-3.log"));
    }
}
