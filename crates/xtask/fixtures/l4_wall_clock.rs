//! Fixture: L4 violations — ambient wall-clock time in a result path
//! makes answers irreproducible. Clippy under the root `clippy.toml`
//! must reject it.

use std::time::Instant;

/// Timing-dependent results cannot be replayed.
pub fn elapsed_score(base: f64) -> f64 {
    let t = Instant::now();
    base + t.elapsed().as_secs_f64()
}
