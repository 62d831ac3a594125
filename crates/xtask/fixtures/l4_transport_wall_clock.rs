//! Fixture: L4 violations in transport-shaped code — the exact
//! mistakes the resilience layer must not make. Retry timing read from
//! the host clock would make a chaos schedule unreplayable. Clippy
//! under the root `clippy.toml` must reject it.

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
