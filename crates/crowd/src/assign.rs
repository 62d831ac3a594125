//! Worker-task assignment.
//!
//! Implements the two assignment strategies of the GeoCrowd line of work
//! the paper builds on (refs \[12\]\[13\]): a cheap greedy heuristic and
//! exact maximum task assignment via augmenting-path bipartite matching,
//! both respecting worker ranges and capacities.

use std::collections::HashMap;

use crate::task::{SpatialTask, TaskId};
use crate::worker::{Worker, WorkerId};

/// The outcome of an assignment round.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Assigned (worker, task) pairs.
    pub pairs: Vec<(WorkerId, TaskId)>,
    /// Tasks no reachable worker could take.
    pub unassigned: Vec<TaskId>,
    /// Sum of worker-to-task distances over assigned pairs, metres.
    pub total_travel_m: f64,
}

/// Greedy assignment: tasks in input order each take the nearest worker
/// with remaining capacity. Fast (`O(tasks × workers)`) but can strand
/// tasks a different pairing would have served.
pub fn assign_greedy(workers: &[Worker], tasks: &[SpatialTask]) -> Assignment {
    let mut remaining: HashMap<WorkerId, usize> =
        workers.iter().map(|w| (w.id, w.capacity)).collect();
    let mut pairs = Vec::new();
    let mut unassigned = Vec::new();
    let mut total_travel = 0.0;
    for task in tasks {
        let best = workers
            .iter()
            .filter(|w| remaining[&w.id] > 0 && w.can_reach(&task.location))
            .min_by(|a, b| {
                a.location
                    .fast_distance_m(&task.location)
                    .total_cmp(&b.location.fast_distance_m(&task.location))
            });
        match best {
            Some(w) => {
                if let Some(slots) = remaining.get_mut(&w.id) {
                    *slots -= 1;
                }
                // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                total_travel += w.location.fast_distance_m(&task.location);
                pairs.push((w.id, task.id));
            }
            None => unassigned.push(task.id),
        }
    }
    Assignment {
        pairs,
        unassigned,
        total_travel_m: total_travel,
    }
}

/// Maximum task assignment: expands each worker into `capacity` slots and
/// runs Kuhn's augmenting-path bipartite matching, maximizing the number
/// of assigned tasks (the MTA objective of GeoCrowd).
pub fn assign_matching(workers: &[Worker], tasks: &[SpatialTask]) -> Assignment {
    // Slot w_s for each worker unit of capacity.
    let mut slot_owner = Vec::new(); // slot -> worker index
    for (wi, w) in workers.iter().enumerate() {
        for _ in 0..w.capacity {
            slot_owner.push(wi);
        }
    }
    // Adjacency: task -> reachable slots.
    let adj: Vec<Vec<usize>> = tasks
        .iter()
        .map(|t| {
            slot_owner
                .iter()
                .enumerate()
                .filter(|(_, &wi)| workers[wi].can_reach(&t.location))
                .map(|(s, _)| s)
                .collect()
        })
        .collect();

    let mut slot_match: Vec<Option<usize>> = vec![None; slot_owner.len()]; // slot -> task
    let mut task_match: Vec<Option<usize>> = vec![None; tasks.len()]; // task -> slot

    fn try_augment(
        t: usize,
        adj: &[Vec<usize>],
        slot_match: &mut [Option<usize>],
        task_match: &mut [Option<usize>],
        visited: &mut [bool],
    ) -> bool {
        for &s in &adj[t] {
            if visited[s] {
                continue;
            }
            visited[s] = true;
            let free = match slot_match[s] {
                None => true,
                Some(other) => try_augment(other, adj, slot_match, task_match, visited),
            };
            if free {
                slot_match[s] = Some(t);
                task_match[t] = Some(s);
                return true;
            }
        }
        false
    }

    for t in 0..tasks.len() {
        let mut visited = vec![false; slot_owner.len()];
        try_augment(t, &adj, &mut slot_match, &mut task_match, &mut visited);
    }

    let mut pairs = Vec::new();
    let mut unassigned = Vec::new();
    let mut total_travel = 0.0;
    for (t, task) in tasks.iter().enumerate() {
        match task_match[t] {
            Some(s) => {
                let w = &workers[slot_owner[s]];
                // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                total_travel += w.location.fast_distance_m(&task.location);
                pairs.push((w.id, task.id));
            }
            None => unassigned.push(task.id),
        }
    }
    Assignment {
        pairs,
        unassigned,
        total_travel_m: total_travel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;

    fn p(dx_m: f64) -> GeoPoint {
        GeoPoint::new(34.0, -118.25).destination(90.0, dx_m)
    }

    /// A direction-free task worth one point.
    fn task(id: u64, location: GeoPoint) -> SpatialTask {
        SpatialTask {
            id: TaskId(id),
            location,
            required_heading: None,
            reward: 1,
        }
    }

    #[test]
    fn greedy_assigns_nearest() {
        let workers = vec![
            Worker::new(WorkerId(1), p(0.0), 1000.0, 1),
            Worker::new(WorkerId(2), p(500.0), 1000.0, 1),
        ];
        let tasks = vec![task(1, p(450.0))];
        let a = assign_greedy(&workers, &tasks);
        assert_eq!(a.pairs, vec![(WorkerId(2), TaskId(1))]);
        assert!(a.unassigned.is_empty());
        assert!((a.total_travel_m - 50.0).abs() < 2.0);
    }

    #[test]
    fn matching_beats_greedy_on_crossing_case() {
        // Worker A can reach both tasks; worker B only task 1. Greedy
        // (task order 1 then 2) sends A to task 1 (closer), stranding
        // task 2; matching serves both.
        let workers = vec![
            Worker::new(WorkerId(1), p(0.0), 2000.0, 1),   // A
            Worker::new(WorkerId(2), p(-200.0), 300.0, 1), // B: only near task 1
        ];
        let tasks = vec![task(1, p(-50.0)), task(2, p(1500.0))];
        let g = assign_greedy(&workers, &tasks);
        let m = assign_matching(&workers, &tasks);
        assert_eq!(g.pairs.len(), 1, "greedy strands task 2");
        assert_eq!(m.pairs.len(), 2, "matching serves both");
        assert!(m.unassigned.is_empty());
    }

    #[test]
    fn capacity_respected() {
        let workers = vec![Worker::new(WorkerId(1), p(0.0), 5000.0, 2)];
        let tasks: Vec<SpatialTask> = (0..4).map(|i| task(i, p(i as f64 * 100.0))).collect();
        for a in [
            assign_greedy(&workers, &tasks),
            assign_matching(&workers, &tasks),
        ] {
            assert_eq!(a.pairs.len(), 2);
            assert_eq!(a.unassigned.len(), 2);
        }
    }

    #[test]
    fn unreachable_tasks_unassigned() {
        let workers = vec![Worker::new(WorkerId(1), p(0.0), 100.0, 5)];
        let tasks = vec![task(1, p(5000.0))];
        for a in [
            assign_greedy(&workers, &tasks),
            assign_matching(&workers, &tasks),
        ] {
            assert_eq!(a.pairs.len(), 0);
            assert_eq!(a.unassigned, vec![TaskId(1)]);
        }
    }

    #[test]
    fn matching_never_worse_than_greedy_randomized() {
        use tvdp_kernel::rng::Rng;
        let mut rng = Rng::seed_from_u64(3);
        for round in 0..10 {
            let workers: Vec<Worker> = (0..8)
                .map(|i| {
                    Worker::new(
                        WorkerId(i),
                        p(rng.gen_range(0.0..3000.0)),
                        rng.gen_range(200.0..800.0),
                        rng.gen_range(1..3),
                    )
                })
                .collect();
            let tasks: Vec<SpatialTask> = (0..15)
                .map(|i| task(i, p(rng.gen_range(0.0..3000.0))))
                .collect();
            let g = assign_greedy(&workers, &tasks);
            let m = assign_matching(&workers, &tasks);
            assert!(
                m.pairs.len() >= g.pairs.len(),
                "round {round}: matching {} < greedy {}",
                m.pairs.len(),
                g.pairs.len()
            );
            // Every assignment is within range.
            for (wid, tid) in m.pairs.iter().chain(g.pairs.iter()) {
                let w = workers.iter().find(|w| w.id == *wid).unwrap();
                let t = tasks.iter().find(|t| t.id == *tid).unwrap();
                assert!(w.can_reach(&t.location));
            }
        }
    }
}
