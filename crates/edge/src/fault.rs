//! Deterministic network-fault injection for the upload transport.
//!
//! The storage layer's disk faults are injected through
//! `tvdp_storage::disk`'s per-thread hook: a write that keeps a byte
//! prefix and fails, a failed `fsync`, a failed removal. A city uplink
//! has a different failure menu, but the same testing philosophy
//! applies: every fault is *planned*, either scripted attempt-by-attempt
//! or drawn from a seeded RNG, so a chaos run replays bit-for-bit.
//! [`FaultPlan`] is the planner; [`crate::transport::EdgeTransport`]
//! consumes one planned [`Fault`] per delivery attempt and overlays the
//! partition windows, all on a virtual millisecond clock (lint L4
//! forbids wall-clock time in library code).

use tvdp_kernel::rng::Rng;

/// One injected fault, applied to a single delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt goes through unharmed.
    None,
    /// The request is lost before reaching the server; the client waits
    /// out its attempt timeout, the server never sees the bytes.
    DropRequest,
    /// The server receives and processes the request but the
    /// acknowledgement is lost — the at-least-once delivery hazard that
    /// makes idempotency keys necessary.
    DropReply,
    /// Payload bytes are flipped in flight; the server detects the
    /// checksum mismatch and rejects the attempt.
    Corrupt,
    /// The round trip takes this many extra milliseconds; if the total
    /// exceeds the attempt timeout the reply is discarded *after* the
    /// server processed it (same hazard as [`Fault::DropReply`]).
    Stall(u64),
}

/// A half-open virtual-time window `[from_ms, until_ms)` during which
/// the link is down and attempts fail fast without reaching the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First millisecond of the outage.
    pub from_ms: i64,
    /// First millisecond after the outage.
    pub until_ms: i64,
}

/// Per-attempt fault probabilities for the seeded mode.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Probability the request is dropped en route.
    pub drop_request: f64,
    /// Probability the acknowledgement is dropped on the way back.
    pub drop_reply: f64,
    /// Probability of in-flight payload corruption.
    pub corrupt: f64,
    /// Probability of a latency spike.
    pub stall: f64,
    /// Extra round-trip milliseconds a spike adds.
    pub stall_ms: u64,
}

impl FaultRates {
    /// A lossy-but-live urban link: some of everything.
    pub fn lossy() -> Self {
        FaultRates {
            drop_request: 0.15,
            drop_reply: 0.05,
            corrupt: 0.05,
            stall: 0.10,
            stall_ms: 900,
        }
    }
}

#[derive(Debug, Clone)]
enum Mode {
    /// Fixed attempt-by-attempt script; exhausted entries mean no fault.
    Scripted { faults: Vec<Fault>, cursor: usize },
    /// Faults drawn from a seeded RNG at the given rates.
    Seeded { rng: Rng, rates: FaultRates },
}

/// A deterministic plan of network faults.
///
/// ```
/// use tvdp_edge::fault::{Fault, FaultPlan};
///
/// let mut plan = FaultPlan::scripted(vec![Fault::DropRequest, Fault::None]);
/// assert_eq!(plan.next_fault(), Fault::DropRequest);
/// assert_eq!(plan.next_fault(), Fault::None);
/// assert_eq!(plan.next_fault(), Fault::None); // script exhausted
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    mode: Mode,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn reliable() -> Self {
        FaultPlan::scripted(Vec::new())
    }

    /// A plan that replays `faults` one per attempt, then behaves
    /// reliably.
    pub fn scripted(faults: Vec<Fault>) -> Self {
        FaultPlan {
            mode: Mode::Scripted { faults, cursor: 0 },
            partitions: Vec::new(),
        }
    }

    /// A plan drawing faults at `rates` from an RNG seeded with `seed`.
    pub fn seeded(rates: FaultRates, seed: u64) -> Self {
        FaultPlan {
            mode: Mode::Seeded {
                rng: Rng::seed_from_u64(seed),
                rates,
            },
            partitions: Vec::new(),
        }
    }

    /// Adds link-outage windows on top of the per-attempt faults.
    pub fn with_partitions(mut self, partitions: Vec<Partition>) -> Self {
        self.partitions = partitions;
        self
    }

    /// Whether the link is partitioned at virtual time `now_ms`.
    pub fn partitioned_at(&self, now_ms: i64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.from_ms <= now_ms && now_ms < p.until_ms)
    }

    /// The fault for the next delivery attempt (partitions are checked
    /// separately via [`FaultPlan::partitioned_at`] because they depend
    /// on the clock, not the attempt count).
    pub fn next_fault(&mut self) -> Fault {
        match &mut self.mode {
            Mode::Scripted { faults, cursor } => {
                let f = faults.get(*cursor).copied().unwrap_or(Fault::None);
                *cursor = cursor.saturating_add(1);
                f
            }
            Mode::Seeded { rng, rates } => {
                // One uniform draw per attempt, carved into disjoint
                // probability bands so rates compose predictably.
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut edge = rates.drop_request;
                if u < edge {
                    return Fault::DropRequest;
                }
                edge += rates.drop_reply;
                if u < edge {
                    return Fault::DropReply;
                }
                edge += rates.corrupt;
                if u < edge {
                    return Fault::Corrupt;
                }
                edge += rates.stall;
                if u < edge {
                    return Fault::Stall(rates.stall_ms);
                }
                Fault::None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_replays_then_goes_quiet() {
        let mut plan = FaultPlan::scripted(vec![Fault::Corrupt, Fault::Stall(500)]);
        assert_eq!(plan.next_fault(), Fault::Corrupt);
        assert_eq!(plan.next_fault(), Fault::Stall(500));
        assert_eq!(plan.next_fault(), Fault::None);
    }

    #[test]
    fn seeded_plan_is_reproducible() {
        let draw = || {
            let mut p = FaultPlan::seeded(FaultRates::lossy(), 42);
            (0..64).map(|_| p.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
        // A lossy plan actually injects something.
        assert!(draw().iter().any(|f| *f != Fault::None));
    }

    #[test]
    fn partitions_are_half_open_windows() {
        let plan = FaultPlan::reliable().with_partitions(vec![Partition {
            from_ms: 100,
            until_ms: 200,
        }]);
        assert!(!plan.partitioned_at(99));
        assert!(plan.partitioned_at(100));
        assert!(plan.partitioned_at(199));
        assert!(!plan.partitioned_at(200));
    }

    #[test]
    fn zero_rates_never_fault() {
        let mut p = FaultPlan::seeded(
            FaultRates {
                drop_request: 0.0,
                drop_reply: 0.0,
                corrupt: 0.0,
                stall: 0.0,
                stall_ms: 0,
            },
            7,
        );
        for _ in 0..32 {
            assert_eq!(p.next_fault(), Fault::None);
        }
    }
}
