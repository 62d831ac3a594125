//! A module whose one item is re-exported and never called.

/// Re-exported by the crate root, called by nothing.
pub fn lonely() -> u32 {
    11
}
