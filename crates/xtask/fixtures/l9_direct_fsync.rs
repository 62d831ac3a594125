//! Fixture: L9 durable-calls-one-owner violation — syncing, cutting
//! and renaming files outside `tvdp_storage::disk` hides a step of the
//! crash protocol from the hook the crash explorer records. Clippy
//! under the root `clippy.toml` must reject each of the four calls.

use std::fs::File;
use std::io;
use std::path::Path;

/// A hand-rolled publish: stage, cut, sync, rename.
pub fn publish(staging: &Path, dest: &Path, file: &File, len: u64) -> io::Result<()> {
    file.set_len(len)?;
    file.sync_data()?;
    file.sync_all()?;
    std::fs::rename(staging, dest)
}
