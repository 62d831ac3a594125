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
//! made durable by an `fsync` of the parent directory, each through
//! [`crate::disk`]. Whichever of those steps a crash lands after, the
//! directory holds the complete old base or the complete new one, never
//! a torn one; a fold that returned has its base durable.

use std::path::{Path, PathBuf};

use crate::disk;
use crate::recovery::DurableError;
use crate::wal::{self, WalOp, SEGMENT_MAGIC};

/// Ops encoded per write while rendering a base segment.
const BASE_WRITE_OPS: usize = 2048;

/// The sibling temporary path a base segment stages its bytes in before
/// the atomic rename: `<name>.tmp` in the same directory.
fn staging_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Publishes `ops` as the base segment at `dest`: stages the header and
/// the records (encoded [`BASE_WRITE_OPS`] at a time), fsyncs, renames
/// over `dest` and fsyncs the parent. Returns the segment's size in
/// bytes. On any error the staging file is removed.
pub(crate) fn write_base(dest: &Path, ops: &[WalOp]) -> Result<u64, DurableError> {
    let staging = staging_path(dest);
    let published = stage_and_rename(&staging, dest, ops);
    if published.is_err() {
        disk::remove(&staging).ok();
    }
    published
}

fn stage_and_rename(staging: &Path, dest: &Path, ops: &[WalOp]) -> Result<u64, DurableError> {
    let mut file = disk::create(staging)?;
    disk::write(&mut file, staging, &SEGMENT_MAGIC)?;
    let mut buf = Vec::new();
    for chunk in ops.chunks(BASE_WRITE_OPS) {
        buf.clear();
        wal::push_records(&mut buf, chunk)?;
        disk::write(&mut file, staging, &buf)?;
    }
    disk::sync_all(&file, staging)?;
    let len = file.metadata()?.len();
    disk::rename(staging, dest)?;
    disk::sync_parent(dest)?;
    Ok(len)
}
