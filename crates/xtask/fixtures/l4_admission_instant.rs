//! Fixture: L4 violations — wall-clock *types* with no `::now()` call
//! in sight. An admission ticket that stores an `Instant`, or a
//! deadline threaded through as `SystemTime`, smuggles host time into
//! the decision path just as surely as calling the clock inline; the
//! decisions stop replaying. Clippy under the root `clippy.toml` must
//! reject it.

use std::time::{Duration, SystemTime};

/// Admission ticket stamped with a host-clock point instead of the
/// caller's virtual `now_ms`.
pub struct Ticket {
    pub admitted_at: std::time::Instant,
}

/// Deadline as a wall-clock point instead of virtual-clock ms.
pub fn push_deadline(start: SystemTime, budget_ms: u64) -> SystemTime {
    start + Duration::from_millis(budget_ms)
}
