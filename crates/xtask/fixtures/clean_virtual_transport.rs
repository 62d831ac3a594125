//! Fixture: the conforming counterpart of `l4_transport_wall_clock.rs`
//! — a miniature retry loop on a caller-advanced virtual clock with a
//! seeded RNG, the shape `tvdp_edge::transport` actually uses. The
//! linter must pass it with no findings.

use tvdp_kernel::rng::Rng;

/// Virtual milliseconds; advanced explicitly, never read from the host.
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock {
    now_ms: i64,
}

impl VirtualClock {
    /// A clock starting at `start_ms`.
    pub fn new(start_ms: i64) -> Self {
        VirtualClock { now_ms: start_ms }
    }

    /// The virtual analogue of sleeping.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms as i64);
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }
}

/// Seeded-jitter exponential backoff: replayable for a given seed.
pub fn backoff_ms(retry: u32, base_ms: u64, seed: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(seed ^ retry as u64);
    let raw = base_ms.saturating_mul(1u64 << retry.min(16));
    let factor: f64 = rng.gen_range(0.8..1.2);
    (raw as f64 * factor) as u64
}

/// A retry loop that only ever advances the virtual clock.
pub fn drain_retries(clock: &mut VirtualClock, attempts: u32, base_ms: u64, seed: u64) -> i64 {
    for retry in 0..attempts {
        clock.advance(backoff_ms(retry, base_ms, seed));
    }
    clock.now_ms()
}
