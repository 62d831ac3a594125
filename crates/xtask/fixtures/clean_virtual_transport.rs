//! Fixture: the conforming counterpart of `l4_transport_wall_clock.rs`
//! — a miniature retry loop on a caller-advanced virtual clock, the
//! shape `tvdp_edge::transport` actually uses. Both clippy under the
//! root `clippy.toml` and `cargo xtask lint` must pass it with no
//! findings.

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

/// Exponential backoff: a pure function of the attempt number.
pub fn backoff_ms(retry: u32, base_ms: u64) -> u64 {
    base_ms.saturating_mul(1u64 << retry.min(16))
}

/// A retry loop that only ever advances the virtual clock.
pub fn drain_retries(clock: &mut VirtualClock, attempts: u32, base_ms: u64) -> i64 {
    for retry in 0..attempts {
        clock.advance(backoff_ms(retry, base_ms));
    }
    clock.now_ms()
}
