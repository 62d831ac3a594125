//! Per-device circuit breakers and the fleet health view.
//!
//! A device whose uplink keeps failing should stop hammering the link:
//! after `failure_threshold` consecutive send failures the breaker
//! *opens* and sheds traffic for `cooldown_ms` of virtual time, then
//! transitions to *half-open* and lets probe sends through — a run of
//! `probe_successes` closes it again, a single probe failure re-opens
//! it. All timing is virtual (caller-supplied `now_ms`), matching the
//! transport's clock.
//!
//! [`FleetHealth`] aggregates one breaker per device into the device-
//! health view the dispatcher consults for degraded-mode decisions.

use std::collections::BTreeMap;

/// Breaker tuning, in virtual milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BreakerConfig {
    /// Consecutive send failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker sheds before allowing probes.
    pub cooldown_ms: u64,
    /// Consecutive half-open probe successes that close it again.
    pub probe_successes: u32,
    /// Minimum virtual time between half-open probes. Half-open admits
    /// at most **one in-flight probe** at a time regardless; this adds
    /// a deterministic pacing floor on top, so a recovering server sees
    /// one probe per interval per device instead of a thundering herd
    /// the instant the cooldown elapses. `0` paces only by the
    /// one-in-flight bound.
    pub probe_interval_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 5_000,
            probe_successes: 2,
            probe_interval_ms: 0,
        }
    }
}

/// The classic three-state breaker machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed,
    /// Tripped: traffic is shed until the cooldown elapses.
    Open,
    /// Probing: limited traffic; successes close, a failure re-opens.
    HalfOpen,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until_ms: i64,
    },
    HalfOpen {
        probe_streak: u32,
        /// A probe was admitted and its outcome has not been recorded
        /// yet; further sends are shed until it resolves.
        inflight: bool,
        /// Earliest virtual time the next probe may be admitted.
        next_probe_at_ms: i64,
    },
}

/// One device's breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: State::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// Whether a send may proceed at virtual time `now_ms`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits the call as a probe. Half-open admits at most one
    /// in-flight probe, no sooner than `probe_interval_ms` after the
    /// previous probe resolved.
    pub fn allow(&mut self, now_ms: i64) -> bool {
        match self.state {
            State::Closed { .. } => true,
            State::HalfOpen {
                probe_streak,
                inflight,
                next_probe_at_ms,
            } => {
                if inflight || now_ms < next_probe_at_ms {
                    return false;
                }
                self.state = State::HalfOpen {
                    probe_streak,
                    inflight: true,
                    next_probe_at_ms,
                };
                true
            }
            State::Open { until_ms } => {
                if now_ms >= until_ms {
                    // This call is the first probe.
                    self.state = State::HalfOpen {
                        probe_streak: 0,
                        inflight: true,
                        next_probe_at_ms: now_ms,
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records an acknowledged send. In half-open this resolves the
    /// in-flight probe and starts the pacing interval for the next one.
    pub fn record_success(&mut self, now_ms: i64) {
        match self.state {
            State::Closed { .. } => {
                self.state = State::Closed {
                    consecutive_failures: 0,
                };
            }
            State::HalfOpen { probe_streak, .. } => {
                let streak = probe_streak + 1;
                if streak >= self.config.probe_successes {
                    self.state = State::Closed {
                        consecutive_failures: 0,
                    };
                } else {
                    self.state = State::HalfOpen {
                        probe_streak: streak,
                        inflight: false,
                        next_probe_at_ms: now_ms
                            .saturating_add(self.config.probe_interval_ms as i64),
                    };
                }
            }
            // A success while open can only be a stale report; ignore.
            State::Open { .. } => {}
        }
    }

    /// Records a failed send (exhausted retries or budget).
    pub fn record_failure(&mut self, now_ms: i64) {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let fails = consecutive_failures + 1;
                if fails >= self.config.failure_threshold {
                    self.trip(now_ms);
                } else {
                    self.state = State::Closed {
                        consecutive_failures: fails,
                    };
                }
            }
            // One failed probe re-opens for a full cooldown.
            State::HalfOpen { .. } => self.trip(now_ms),
            State::Open { .. } => {}
        }
    }

    fn trip(&mut self, now_ms: i64) {
        self.state = State::Open {
            until_ms: now_ms.saturating_add(self.config.cooldown_ms as i64),
        };
    }

    /// Current public state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Consecutive failures counted so far (closed state only).
    pub fn consecutive_failures(&self) -> u32 {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => consecutive_failures,
            _ => 0,
        }
    }

    /// When an open breaker starts probing again, if open.
    pub fn open_until_ms(&self) -> Option<i64> {
        match self.state {
            State::Open { until_ms } => Some(until_ms),
            _ => None,
        }
    }
}

/// One row of the device-health view.
#[derive(Debug, Clone)]
pub struct DeviceHealth {
    /// Device identifier.
    pub device: u64,
    /// Breaker state at the time of the view.
    pub state: BreakerState,
    /// Consecutive failures while closed.
    pub consecutive_failures: u32,
    /// For open breakers, when probing resumes.
    pub open_until_ms: Option<i64>,
}

/// Per-device breakers for a fleet, plus the health view built from
/// them. Keyed by device id in a `BTreeMap` so the view order is
/// deterministic (lint L2).
#[derive(Debug, Clone)]
pub struct FleetHealth {
    config: BreakerConfig,
    breakers: BTreeMap<u64, CircuitBreaker>,
}

impl FleetHealth {
    /// An empty fleet; breakers are created on first touch.
    pub fn new(config: BreakerConfig) -> Self {
        FleetHealth {
            config,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker for `device`, created closed if unseen.
    pub fn breaker(&mut self, device: u64) -> &mut CircuitBreaker {
        let config = self.config;
        self.breakers
            .entry(device)
            .or_insert_with(|| CircuitBreaker::new(config))
    }

    /// A deterministic snapshot of every tracked device's health.
    pub fn view(&self) -> Vec<DeviceHealth> {
        self.breakers
            .iter()
            .map(|(device, b)| DeviceHealth {
                device: *device,
                state: b.state(),
                consecutive_failures: b.consecutive_failures(),
                open_until_ms: b.open_until_ms(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 1_000,
            probe_successes: 2,
            probe_interval_ms: 0,
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(config());
        b.record_failure(0);
        b.record_failure(10);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 2);
        b.record_failure(20);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(21));
        assert_eq!(b.open_until_ms(), Some(1_020));
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new(config());
        b.record_failure(0);
        b.record_failure(10);
        b.record_success(20);
        b.record_failure(30);
        b.record_failure(40);
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_probing_closes_after_streak() {
        let mut b = CircuitBreaker::new(config());
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(!b.allow(500));
        assert!(b.allow(1_100), "cooldown elapsed, probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(1_110);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        b.record_success(1_120);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let mut b = CircuitBreaker::new(config());
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(b.allow(1_100));
        b.record_failure(1_150);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(2_000));
        assert!(b.allow(2_200));
    }

    #[test]
    fn half_open_admits_one_probe_at_a_time() {
        let mut b = CircuitBreaker::new(config());
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(b.allow(1_100), "cooldown elapsed, first probe admitted");
        // The probe has not resolved: every further send is shed, no
        // matter how often the transport asks.
        for t in 1_101..1_110 {
            assert!(!b.allow(t), "second concurrent probe must be shed");
        }
        b.record_success(1_110);
        assert!(b.allow(1_110), "resolved probe frees the slot");
        b.record_success(1_111);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_interval_paces_half_open_deterministically() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            probe_interval_ms: 200,
            probe_successes: 3,
            ..config()
        });
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(b.allow(1_100));
        b.record_success(1_150);
        // Next probe no earlier than 1_150 + 200.
        assert!(!b.allow(1_200));
        assert!(!b.allow(1_349));
        assert!(b.allow(1_350));
        b.record_success(1_360);
        assert!(!b.allow(1_400), "interval restarts from each resolution");
        assert!(b.allow(1_560));
        b.record_success(1_560);
        assert_eq!(b.state(), BreakerState::Closed, "third success closes");
    }

    #[test]
    fn failed_probe_reopens_even_with_pacing() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            probe_interval_ms: 200,
            ..config()
        });
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(b.allow(1_100));
        b.record_failure(1_150);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_until_ms(), Some(2_150));
    }

    #[test]
    fn fleet_view_is_deterministic_and_complete() {
        let mut fleet = FleetHealth::new(config());
        for device in [3u64, 1, 2] {
            fleet.breaker(device);
        }
        for _ in 0..3 {
            fleet.breaker(2).record_failure(0);
        }
        let view = fleet.view();
        let ids: Vec<u64> = view.iter().map(|h| h.device).collect();
        assert_eq!(ids, vec![1, 2, 3], "sorted by device id");
        let open = view.iter().filter(|h| h.state == BreakerState::Open);
        assert_eq!(open.count(), 1);
        let h2 = &view[1];
        assert_eq!(h2.state, BreakerState::Open);
        assert!(h2.open_until_ms.is_some());
    }
}
