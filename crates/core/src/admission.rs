//! Deterministic cost-based admission control.
//!
//! The controller models the platform as a single virtual-time server
//! with a configurable capacity in *work units* per second. Every
//! request is priced in units before it runs (segment cardinality for
//! queries, batch size for ingest, a flat charge for dispatch) and
//! admission is a pure function of `(backlog, class, cost, now)`:
//!
//! * the request would start when the current backlog drains
//!   (`max(backlog_done_at, now)`),
//! * if that start is further away than the class's queueing-delay
//!   bound, the request is **shed** with a typed
//!   [`PlatformError::Overloaded`] carrying a deterministic
//!   `retry_after_ms` hint,
//! * otherwise it is admitted and the backlog advances by the
//!   request's modeled service time.
//!
//! The per-class delay bounds implement priority shedding: dispatch
//! (cheap to retry, the device will repeat) gets the tightest bound and
//! sheds first, interactive queries next, ingest (carrying data the
//! platform exists to keep) sheds last. No wall clock, no real queues,
//! no background threads — the same request sequence against the same
//! config always produces the same admit/shed decisions, which is what
//! lets the load harness emit byte-identical numbers across pool
//! widths.

use tvdp_kernel::sync::Mutex;

use crate::error::PlatformError;

/// Workload class of an admission request, in shed-first order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestClass {
    /// Edge dispatch — retried by the device transport anyway; shed
    /// first.
    Dispatch,
    /// Interactive query traffic.
    Query,
    /// Uploads and annotations — the data the platform exists to keep;
    /// shed last.
    Ingest,
}

impl RequestClass {
    /// Stable lowercase name, used in stats and API bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestClass::Dispatch => "dispatch",
            RequestClass::Query => "query",
            RequestClass::Ingest => "ingest",
        }
    }

    const ALL: [RequestClass; 3] = [
        RequestClass::Dispatch,
        RequestClass::Query,
        RequestClass::Ingest,
    ];

    fn idx(self) -> usize {
        match self {
            RequestClass::Dispatch => 0,
            RequestClass::Query => 1,
            RequestClass::Ingest => 2,
        }
    }
}

/// Capacity budget and per-class queueing-delay bounds.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Modeled serving capacity in work units per virtual second. One
    /// unit ≈ one scatter-unit dispatch or one scanned/returned row
    /// (see `ShardedEngine::estimate_query_units`).
    pub capacity_units_per_sec: u64,
    /// Maximum modeled queueing delay (virtual ms) a dispatch request
    /// tolerates before being shed.
    pub dispatch_max_delay_ms: i64,
    /// Maximum modeled queueing delay (virtual ms) for queries.
    pub query_max_delay_ms: i64,
    /// Maximum modeled queueing delay (virtual ms) for ingest.
    pub ingest_max_delay_ms: i64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity_units_per_sec: 1_000_000,
            dispatch_max_delay_ms: 50,
            query_max_delay_ms: 250,
            ingest_max_delay_ms: 1_000,
        }
    }
}

impl AdmissionConfig {
    fn max_delay_ms(&self, class: RequestClass) -> i64 {
        match class {
            RequestClass::Dispatch => self.dispatch_max_delay_ms,
            RequestClass::Query => self.query_max_delay_ms,
            RequestClass::Ingest => self.ingest_max_delay_ms,
        }
    }
}

/// Proof of admission: the modeled queueing delay the request absorbed
/// and when the virtual server will get to it. Latency accounting in
/// the load harness starts from `virtual_start_ms`.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct AdmissionTicket {
    /// The admitted class.
    pub class: RequestClass,
    /// The priced cost.
    pub cost_units: u64,
    /// Modeled wait behind the existing backlog, in virtual ms.
    pub queued_delay_ms: i64,
    /// Virtual time the request's service begins.
    pub virtual_start_ms: i64,
}

/// Counters for one class plus the aggregate, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Work units admitted.
    pub admitted_units: u64,
}

/// A deterministic snapshot of the controller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Totals across classes.
    pub total: ClassStats,
    /// Per-class counters, indexed dispatch / query / ingest.
    pub per_class: [ClassStats; 3],
}

impl AdmissionStats {
    /// Counters for one class.
    pub fn class(&self, class: RequestClass) -> ClassStats {
        self.per_class[class.idx()]
    }

    /// Stable rendering order for reports: shed-first class order.
    pub fn classes() -> [RequestClass; 3] {
        RequestClass::ALL
    }
}

#[derive(Debug, Default)]
struct AdmState {
    /// Virtual time at which everything admitted so far has drained.
    backlog_done_at_ms: i64,
    stats: AdmissionStats,
}

/// The admission controller. One per serving surface; every mutation
/// and query handler asks it before doing work.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<AdmState>,
}

impl AdmissionController {
    /// A controller with the given budget, empty backlog.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            state: Mutex::new(AdmState::default()),
        }
    }

    /// Prices `cost_units` of `class` work at virtual time `now_ms`.
    /// Admits (advancing the backlog) or sheds with
    /// [`PlatformError::Overloaded`]; either way the decision and the
    /// retry hint are pure functions of the controller's state.
    pub fn admit(
        &self,
        class: RequestClass,
        cost_units: u64,
        now_ms: i64,
    ) -> Result<AdmissionTicket, PlatformError> {
        let mut s = self.state.lock();
        let start = s.backlog_done_at_ms.max(now_ms);
        let delay = start - now_ms;
        let bound = self.config.max_delay_ms(class);
        if delay > bound {
            s.stats.total.shed += 1;
            s.stats.per_class[class.idx()].shed += 1;
            return Err(PlatformError::Overloaded {
                retry_after_ms: (delay - bound).max(1),
            });
        }
        // Ceil division: even a 1-unit request occupies the server for
        // at least one whole virtual millisecond once capacity is
        // finite, so unbounded request rates cannot be free.
        let per_sec = self.config.capacity_units_per_sec.max(1);
        let service_ms = (cost_units.max(1) * 1_000).div_ceil(per_sec).max(1) as i64;
        s.backlog_done_at_ms = start + service_ms;
        s.stats.total.admitted += 1;
        s.stats.total.admitted_units += cost_units;
        let pc = &mut s.stats.per_class[class.idx()];
        pc.admitted += 1;
        pc.admitted_units += cost_units;
        Ok(AdmissionTicket {
            class,
            cost_units,
            queued_delay_ms: delay,
            virtual_start_ms: start,
        })
    }

    /// Modeled backlog still queued ahead of a request arriving at
    /// `now_ms`, in virtual ms. Zero when the server is idle.
    pub fn backlog_ms(&self, now_ms: i64) -> i64 {
        (self.state.lock().backlog_done_at_ms - now_ms).max(0)
    }

    /// Snapshot of the admit/shed counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            capacity_units_per_sec: 1_000, // 1 unit == 1 virtual ms
            dispatch_max_delay_ms: 10,
            query_max_delay_ms: 50,
            ingest_max_delay_ms: 100,
        })
    }

    #[test]
    fn admits_until_the_class_delay_bound_then_sheds() {
        let ctl = tight();
        // Each 20-unit request adds 20 ms of backlog; queries tolerate
        // 50 ms of queueing, so requests 1-3 admit (delays 0/20/40) and
        // request 4 (delay 60) sheds.
        for expected_delay in [0, 20, 40] {
            let t = ctl.admit(RequestClass::Query, 20, 0).unwrap();
            assert_eq!(t.queued_delay_ms, expected_delay);
        }
        let err = ctl.admit(RequestClass::Query, 20, 0).unwrap_err();
        match err {
            PlatformError::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 10),
            other => panic!("expected Overloaded, got {other}"),
        }
        let stats = ctl.stats();
        assert_eq!(stats.total.admitted, 3);
        assert_eq!(stats.total.shed, 1);
        assert_eq!(stats.class(RequestClass::Query).shed, 1);
    }

    #[test]
    fn sheds_cheap_to_retry_classes_first() {
        let ctl = tight();
        // 30 ms of backlog: past dispatch's 10 ms bound, inside query's
        // 50 ms and ingest's 100 ms.
        let _ = ctl.admit(RequestClass::Ingest, 30, 0).unwrap();
        assert!(ctl.admit(RequestClass::Dispatch, 1, 0).is_err());
        assert!(ctl.admit(RequestClass::Query, 1, 0).is_ok());
        assert!(ctl.admit(RequestClass::Ingest, 1, 0).is_ok());
    }

    #[test]
    fn backlog_drains_with_virtual_time() {
        let ctl = tight();
        let _ = ctl.admit(RequestClass::Ingest, 100, 0).unwrap();
        assert_eq!(ctl.backlog_ms(0), 100);
        assert_eq!(ctl.backlog_ms(60), 40);
        assert_eq!(ctl.backlog_ms(200), 0);
        // After the drain, dispatch admits again.
        let t = ctl.admit(RequestClass::Dispatch, 1, 200).unwrap();
        assert_eq!(t.queued_delay_ms, 0);
        assert_eq!(t.virtual_start_ms, 200);
    }

    #[test]
    fn decisions_are_deterministic() {
        let script = [
            (RequestClass::Ingest, 40u64, 0i64),
            (RequestClass::Query, 10, 5),
            (RequestClass::Dispatch, 1, 5),
            (RequestClass::Query, 200, 6),
            (RequestClass::Ingest, 7, 100),
        ];
        let run = || {
            let ctl = tight();
            let decisions: Vec<String> = script
                .iter()
                .map(|&(c, units, now)| match ctl.admit(c, units, now) {
                    Ok(t) => format!("ok d={} s={}", t.queued_delay_ms, t.virtual_start_ms),
                    Err(e) => format!("err {e}"),
                })
                .collect();
            (decisions, ctl.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retry_after_is_enough_to_get_admitted() {
        let ctl = tight();
        let _ = ctl.admit(RequestClass::Ingest, 500, 0).unwrap(); // 500 ms backlog
        let err = ctl.admit(RequestClass::Query, 1, 0).unwrap_err();
        let PlatformError::Overloaded { retry_after_ms } = err else {
            panic!("expected Overloaded");
        };
        // Waiting exactly the hint brings the delay back to the bound.
        let _ = ctl.admit(RequestClass::Query, 1, retry_after_ms).unwrap();
    }
}
