//! Fixture: L4 violations — ambient wall-clock time and randomness in
//! a result path make answers irreproducible.

use std::time::Instant;

/// Timing-dependent results cannot be replayed.
pub fn elapsed_score(base: f64) -> f64 {
    let t = Instant::now();
    base + t.elapsed().as_secs_f64()
}

/// Unseeded randomness differs per process; the workspace PRNG
/// (`tvdp_kernel::rng::Rng`) is always seeded.
pub fn jitter() -> f64 {
    let mut rng = thread_rng();
    rng.gen_range(0.0..1.0)
}
