//! Every operation by which `tvdp-storage` changes a disk: creating a
//! file or a directory, writing, `sync_data`/`sync_all`, `set_len`,
//! renaming, removing and syncing a directory. Nothing else in the crate
//! calls the `std::fs` functions that make bytes durable (the root
//! `clippy.toml`'s L9 keeps them here), so the order of these calls is
//! the whole of the crash protocol.
//!
//! Each call reports to the calling thread's hook, if it installed one
//! with [`set_hook`], before it touches the disk. The hook sees the
//! operation ([`Op`]) and may fail it ([`Fault`]): a failed write keeps
//! the prefix the fault names, as a full disk or a dying device leaves
//! it, and any other failed operation does nothing. A crash explorer
//! records the trace of a workload through it and the fault tests fill
//! the disk with it; a thread with no hook pays one thread-local read
//! per operation and nothing more.

#![expect(
    clippy::disallowed_methods,
    reason = "L9 owner: the crate's one home of the calls that make bytes durable"
)]

use std::cell::Cell;
use std::fs::File;
use std::io::{self, Seek, Write};
use std::path::Path;

/// One disk-changing operation as the hook sees it, before it happens.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// A file created empty, or an existing one truncated to nothing.
    Create(&'a Path),
    /// A new directory.
    CreateDir(&'a Path),
    /// `bytes` written at `offset` of the file.
    Write {
        /// The file.
        path: &'a Path,
        /// Where the first byte lands.
        offset: u64,
        /// What is written.
        bytes: &'a [u8],
    },
    /// A file's `sync_data` or `sync_all`: every write to it so far is
    /// durable once this succeeds.
    Sync(&'a Path),
    /// A file cut (or extended with zeros) to `len` bytes.
    SetLen {
        /// The file.
        path: &'a Path,
        /// Its new length.
        len: u64,
    },
    /// `from` renamed over `to`, in one directory.
    Rename {
        /// The old name.
        from: &'a Path,
        /// The new name.
        to: &'a Path,
    },
    /// A file removed.
    Remove(&'a Path),
    /// A directory synced: every create, rename and removal in it so
    /// far is durable once this succeeds.
    SyncDir(&'a Path),
}

/// A hook's verdict that an operation fails.
#[derive(Debug)]
pub struct Fault {
    /// For a write, the bytes of it that land before it fails;
    /// ignored by every other operation.
    pub kept: usize,
    /// What the operation returns.
    pub error: io::Error,
}

/// A thread's observer of its own disk operations: `Some` fails the
/// operation.
pub type Hook = fn(&Op<'_>) -> Option<Fault>;

thread_local! {
    static HOOK: Cell<Option<Hook>> = const { Cell::new(None) };
}

/// Installs `hook` on the calling thread (`None` removes it) and
/// returns the one it replaces. Other threads are unaffected.
// tvdp-lint: allow(dead_api, reason = "(a) test support: the crash explorer and the full-disk tests install their hook through it")
pub fn set_hook(hook: Option<Hook>) -> Option<Hook> {
    HOOK.replace(hook)
}

/// Reports `op` and returns the error of a hook that fails it.
fn report(op: Op<'_>) -> io::Result<()> {
    match HOOK.get().and_then(|hook| hook(&op)) {
        Some(fault) => Err(fault.error),
        None => Ok(()),
    }
}

/// Creates the file at `path` empty, truncating one that exists, for
/// writing.
pub fn create(path: &Path) -> io::Result<File> {
    report(Op::Create(path))?;
    File::create(path)
}

/// Creates the directory `dir` and whichever of its ancestors are
/// missing, each followed by a sync of its parent so that its entry
/// survives a crash. An existing directory is left as it is.
pub fn create_dir(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        create_dir(parent)?;
    }
    report(Op::CreateDir(dir))?;
    std::fs::create_dir(dir)?;
    sync_parent(dir)
}

/// Writes all of `bytes` to `file` (opened from `path`) at its cursor.
pub fn write(file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(hook) = HOOK.get() {
        let offset = file.stream_position()?;
        if let Some(fault) = hook(&Op::Write {
            path,
            offset,
            bytes,
        }) {
            file.write_all(bytes.get(..fault.kept).unwrap_or(bytes))?;
            return Err(fault.error);
        }
    }
    file.write_all(bytes)
}

/// `file.sync_data()`.
pub fn sync_data(file: &File, path: &Path) -> io::Result<()> {
    report(Op::Sync(path))?;
    file.sync_data()
}

/// `file.sync_all()`.
pub fn sync_all(file: &File, path: &Path) -> io::Result<()> {
    report(Op::Sync(path))?;
    file.sync_all()
}

/// `file.set_len(len)`.
pub fn set_len(file: &File, path: &Path, len: u64) -> io::Result<()> {
    report(Op::SetLen { path, len })?;
    file.set_len(len)
}

/// Renames `from` over `to`.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    report(Op::Rename { from, to })?;
    std::fs::rename(from, to)
}

/// Removes the file at `path`.
pub fn remove(path: &Path) -> io::Result<()> {
    report(Op::Remove(path))?;
    std::fs::remove_file(path)
}

/// Syncs the directory holding `path`, making a create, rename or
/// removal of `path` itself durable.
pub fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    report(Op::SyncDir(parent))?;
    File::open(parent)?.sync_all()
}
