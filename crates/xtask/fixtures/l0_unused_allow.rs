//! Fixture: L0 violation — a well-formed allow annotation whose rule
//! never fires on the annotated line. Stale suppressions would mask
//! the next real regression at that line, so they must be deleted.

/// The code below the allow is clean; the suppression is dead weight.
pub fn add_one(x: u64) -> u64 {
    // tvdp-lint: allow(float_reduction, reason = "left behind after the float sum was refactored away")
    x + 1
}
