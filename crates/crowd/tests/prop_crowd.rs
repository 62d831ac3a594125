//! Property-based tests of the crowdsourcing substrate.

use tvdp_crowd::{assign_greedy, assign_matching, SpatialTask, TaskId, Worker, WorkerId};
use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};

const CASES: u64 = 64;

fn la_point(rng: &mut Rng) -> GeoPoint {
    GeoPoint::new(rng.gen_range(34.0..34.05), rng.gen_range(-118.3..-118.25))
}

fn workers(rng: &mut Rng) -> Vec<Worker> {
    (0..rng.gen_range(1..12u64))
        .map(|i| {
            let p = la_point(rng);
            Worker::new(
                WorkerId(i),
                p,
                rng.gen_range(100.0..2_000.0),
                rng.gen_range(1..4),
            )
        })
        .collect()
}

fn tasks(rng: &mut Rng) -> Vec<SpatialTask> {
    (0..rng.gen_range(1..25u64))
        .map(|i| SpatialTask {
            id: TaskId(i),
            location: la_point(rng),
            required_heading: None,
            reward: 1,
        })
        .collect()
}

#[test]
fn assignments_are_valid() {
    for_each_case(CASES, |_, rng| {
        let workers = workers(rng);
        let tasks = tasks(rng);
        for assignment in [
            assign_greedy(&workers, &tasks),
            assign_matching(&workers, &tasks),
        ] {
            // Every assigned pair is within range.
            for (wid, tid) in &assignment.pairs {
                let w = workers.iter().find(|w| w.id == *wid).expect("known worker");
                let t = tasks.iter().find(|t| t.id == *tid).expect("known task");
                assert!(w.can_reach(&t.location));
            }
            // No task assigned twice; assigned + unassigned partition.
            let mut seen: Vec<TaskId> = assignment.pairs.iter().map(|(_, t)| *t).collect();
            seen.extend(&assignment.unassigned);
            seen.sort();
            let mut expected: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
            expected.sort();
            assert_eq!(seen, expected);
            // Capacities respected.
            for w in &workers {
                let load = assignment
                    .pairs
                    .iter()
                    .filter(|(wid, _)| *wid == w.id)
                    .count();
                assert!(load <= w.capacity, "worker {} over capacity", w.id);
            }
            // Travel accounting is non-negative and finite.
            assert!(assignment.total_travel_m.is_finite());
            assert!(assignment.total_travel_m >= 0.0);
        }
    });
}

#[test]
fn matching_never_assigns_fewer() {
    for_each_case(CASES, |_, rng| {
        let workers = workers(rng);
        let tasks = tasks(rng);
        let greedy = assign_greedy(&workers, &tasks);
        let matching = assign_matching(&workers, &tasks);
        assert!(
            matching.pairs.len() >= greedy.pairs.len(),
            "matching {} < greedy {}",
            matching.pairs.len(),
            greedy.pairs.len()
        );
    });
}

#[test]
fn matching_is_maximal() {
    for_each_case(CASES, |_, rng| {
        let workers = workers(rng);
        let tasks = tasks(rng);
        // No unassigned task may have a reachable worker with spare
        // capacity (otherwise the matching is not even maximal).
        let assignment = assign_matching(&workers, &tasks);
        for tid in &assignment.unassigned {
            let t = tasks.iter().find(|t| t.id == *tid).expect("known task");
            for w in &workers {
                if !w.can_reach(&t.location) {
                    continue;
                }
                let load = assignment
                    .pairs
                    .iter()
                    .filter(|(wid, _)| *wid == w.id)
                    .count();
                assert!(
                    load >= w.capacity,
                    "task {tid} unassigned but worker {} reachable with spare capacity",
                    w.id
                );
            }
        }
    });
}
