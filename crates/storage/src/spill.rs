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
//! Format: one ASCII header line `tvdp-spill <floats> <crc32>\n`
//! followed by the floats as little-endian `f32` bytes, which is the
//! whole body the CRC covers: a torn or bit-flipped spill is detected
//! on reload rather than silently corrupting query results. Any other
//! header field count is a malformed header (files written before
//! PR 23 had five: they also carried quantized codes).
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

/// Writes one chunk's floats to its spill file with the staged-rename
/// protocol and returns the body bytes written. If the file already
/// exists (a re-spill of a previously reloaded chunk) nothing is
/// written — chunks are write-once, so the existing copy is current —
/// and `Ok(0)` is returned.
pub fn write_spill(
    dir: &Path,
    kind: FeatureKind,
    dim: u32,
    chunk: usize,
    data: &[f32],
    stats: &SpillStats,
) -> Result<u64, SpillError> {
    let path = spill_path(dir, kind, dim, chunk);
    if path.exists() {
        return Ok(0);
    }
    let mut body = Vec::new();
    le::put_f32s(&mut body, data);
    let mut contents = format!("tvdp-spill {} {:08x}\n", data.len(), crc32(&body)).into_bytes();
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

/// Reads a spill file's floats back, bit-exact, verifying the header
/// and CRC.
pub fn read_spill(path: &Path, expect_floats: usize) -> Result<Vec<f32>, SpillError> {
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
    if fields.len() != 3 {
        return Err(err_at("wrong field count"));
    }
    let floats: usize = fields[1].parse().map_err(|_| err_at("bad float count"))?;
    let crc_claimed =
        u32::from_str_radix(fields[2], 16).map_err(|_| err_at("bad checksum field"))?;
    let body = &contents[nl + 1..];
    if floats != expect_floats || body.len() != floats * 4 {
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
    Ok(le::f32s(body))
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
            Ok(floats) => floats,
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
        let written = write_spill(&dir, FeatureKind::Cnn, 8, 3, &data, &stats).unwrap();
        assert_eq!(written, 512 * 4);
        assert_eq!(stats.chunks_spilled(), 1);
        let back = read_spill(&spill_path(&dir, FeatureKind::Cnn, 8, 3), 512).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // The counter is the float bytes, nothing else rides along.
        assert_eq!(stats.bytes_spilled(), 512 * 4);
        // Re-spill of an existing file is a no-op.
        assert_eq!(
            write_spill(&dir, FeatureKind::Cnn, 8, 3, &data, &stats).unwrap(),
            0
        );
        assert_eq!(stats.chunks_spilled(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The header of the files that also carried quantized codes (two
    /// more fields, a longer body) is not a format the reader knows,
    /// even when its CRC and lengths are self-consistent.
    #[test]
    fn five_field_header_is_malformed() {
        let dir = temp_dir("five-field");
        let data = [0.25f32, -1.5, 3.0, 8.0];
        let mut body = Vec::new();
        le::put_f32s(&mut body, &data);
        body.extend_from_slice(&[0u8; 2 * 8 + 4 + 4]);
        let path = dir.join("spill-cnn-2-0.bin");
        let mut contents = format!("tvdp-spill 4 {:08x} 4 2\n", crc32(&body)).into_bytes();
        contents.extend_from_slice(&body);
        std::fs::write(&path, &contents).unwrap();
        match read_spill(&path, 4).unwrap_err() {
            SpillError::MalformedHeader { path: p, detail } => {
                assert_eq!(p, path);
                assert_eq!(detail, "wrong field count");
            }
            other => panic!("expected malformed header, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loader_reloads_and_counts() {
        let dir = temp_dir("loader");
        let stats = Arc::new(SpillStats::default());
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        write_spill(&dir, FeatureKind::SiftBow, 4, 0, &data, &stats).unwrap();
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
        write_spill(&dir, FeatureKind::ColorHistogram, 16, 1, &data, &stats).unwrap();
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
