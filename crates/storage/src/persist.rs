//! Publishing a base segment.
//!
//! A base segment is a journal segment ([`crate::wal`]: the same
//! [`SEGMENT_MAGIC`] header, the same CRC-framed records) holding the
//! ops that rebuild a store on an empty one
//! ([`crate::store::Snapshot::into_ops`]). Compaction publishes its cut
//! as one through [`write_base`] and recovery reads it back with the
//! journal's own scanner and the store's validator, so there is one
//! encoder, one scanner and one validator for every row that reaches
//! disk.
//!
//! Writing is crash-safe: the bytes go to a sibling `<name>.tmp` file,
//! which is `fsync`ed, atomically renamed over the destination, and
//! made durable by an `fsync` of the parent directory. A crash at any
//! byte offset leaves either the complete old file or the complete new
//! one — never a torn one.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::recovery::DurableError;
use crate::wal::{self, WalOp, SEGMENT_MAGIC};

/// Ops encoded per write while rendering a base segment.
const BASE_WRITE_OPS: usize = 2048;

/// The sibling temporary path a base segment stages its bytes in before
/// the atomic rename (`<name>.tmp` in the same directory). Exposed so
/// tests can plant crash debris.
pub fn staging_path(path: &Path) -> std::io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "base segment path has no file name",
        )
    })?;
    let mut tmp = name.to_os_string();
    tmp.push(".tmp");
    Ok(path.with_file_name(tmp))
}

/// Fsyncs the directory containing `path`, making a rename, create, or
/// unlink of that path itself durable. Every staged-rename site in the
/// crate (base publish, WAL create/rotate, segment removal) must call
/// this after the metadata operation — the PR 4 protocol.
pub(crate) fn fsync_parent(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    File::open(parent)?.sync_all()
}

/// Publishes `ops` as the base segment at `dest`: stages the header and
/// the records (encoded [`BASE_WRITE_OPS`] at a time), fsyncs, renames
/// over `dest` and fsyncs the parent. Returns the segment's size in
/// bytes. On any error the staging file is removed.
pub(crate) fn write_base(dest: &Path, ops: &[WalOp]) -> Result<u64, DurableError> {
    let staging = staging_path(dest)?;
    let published = stage_and_rename(&staging, dest, ops);
    if published.is_err() {
        std::fs::remove_file(&staging).ok();
    }
    published
}

fn stage_and_rename(staging: &Path, dest: &Path, ops: &[WalOp]) -> Result<u64, DurableError> {
    let mut file = File::create(staging)?;
    file.write_all(&SEGMENT_MAGIC)?;
    let mut buf = Vec::new();
    for chunk in ops.chunks(BASE_WRITE_OPS) {
        buf.clear();
        wal::push_records(&mut buf, chunk)?;
        file.write_all(&buf)?;
    }
    file.sync_all()?;
    let len = file.metadata()?.len();
    std::fs::rename(staging, dest)?;
    fsync_parent(dest)?;
    Ok(len)
}
