//! Fixture: L4 violations in transport-shaped code — the exact
//! mistakes the resilience layer must not make. Retry timing read from
//! the host clock and jitter from an unseeded RNG would make a chaos
//! schedule unreplayable.

use std::time::{Instant, SystemTime};

/// Backoff deadline derived from the host clock.
pub fn retry_deadline_ms(budget_ms: u64) -> u64 {
    let started = Instant::now();
    budget_ms.saturating_sub(started.elapsed().as_millis() as u64)
}

/// Upload stamped with ambient wall-clock time.
pub fn stamp_upload() -> u64 {
    match SystemTime::now().elapsed() {
        Ok(d) => d.as_millis() as u64,
        Err(_) => 0,
    }
}

/// Jitter from an unseeded RNG differs per process; the workspace PRNG
/// (`tvdp_kernel::rng::Rng`) is always seeded.
pub fn backoff_jitter(base_ms: u64) -> u64 {
    let mut rng = thread_rng();
    base_ms + rng.gen_range(0..base_ms.max(1))
}
