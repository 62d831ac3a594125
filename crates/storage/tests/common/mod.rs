//! What the storage suites share: a scratch directory that removes
//! itself.

use std::path::{Path, PathBuf};

/// A scratch directory under the temp dir, removed when dropped — by a
/// failing test's unwinding too.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `name` under the temp dir, emptied of what an earlier run left.
    pub fn new(name: String) -> Self {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
