//! Crowd workers.
use tvdp_geo::GeoPoint;

/// Identifies a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

/// A participant who can perform photo tasks near their location
/// (GeoCrowd's worker model: a spatial region of acceptance plus a
/// maximum number of tasks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Worker identifier.
    pub id: WorkerId,
    /// Current position.
    pub location: GeoPoint,
    /// Maximum travel distance to a task, metres.
    pub range_m: f64,
    /// Maximum number of tasks this worker accepts per round.
    pub capacity: usize,
}

impl Worker {
    /// Creates a worker; panics on degenerate range/capacity.
    pub fn new(id: WorkerId, location: GeoPoint, range_m: f64, capacity: usize) -> Self {
        assert!(range_m > 0.0, "non-positive range");
        assert!(capacity >= 1, "zero capacity");
        Self {
            id,
            location,
            range_m,
            capacity,
        }
    }

    /// Whether this worker can reach `p`.
    pub fn can_reach(&self, p: &GeoPoint) -> bool {
        self.location.fast_distance_m(p) <= self.range_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_respects_range() {
        let w = Worker::new(WorkerId(1), GeoPoint::new(34.0, -118.25), 500.0, 3);
        let near = w.location.destination(90.0, 400.0);
        let far = w.location.destination(90.0, 800.0);
        assert!(w.can_reach(&near));
        assert!(!w.can_reach(&far));
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn zero_capacity_rejected() {
        let _ = Worker::new(WorkerId(1), GeoPoint::new(0.0, 0.0), 100.0, 0);
    }
}
