//! End-to-end iterative campaign simulation.
//!
//! Plays the paper's acquisition loop: plan tasks from coverage gaps →
//! assign to workers → workers (probabilistically) capture FOVs →
//! accumulate coverage → repeat until the goal or the round budget is
//! exhausted.

use tvdp_kernel::rng::Rng;

use tvdp_geo::{CoverageGrid, CoverageReport, Fov};

use crate::assign::{assign_greedy, assign_matching};
use crate::campaign::Campaign;
use crate::worker::{Worker, WorkerId};

/// Which assignment algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignStrategy {
    /// Nearest-available-worker heuristic.
    Greedy,
    /// Maximum bipartite matching.
    Matching,
}

/// Simulation knobs.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of simulated workers.
    pub n_workers: usize,
    /// Worker travel range, metres.
    pub worker_range_m: f64,
    /// Tasks a worker accepts per round.
    pub worker_capacity: usize,
    /// Probability an assigned task actually produces a photo.
    pub completion_rate: f64,
    /// Task budget per round.
    pub round_budget: usize,
    /// Maximum rounds before giving up.
    pub max_rounds: usize,
    /// Assignment algorithm.
    pub strategy: AssignStrategy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            n_workers: 20,
            worker_range_m: 600.0,
            worker_capacity: 4,
            completion_rate: 0.85,
            round_budget: 200,
            max_rounds: 12,
            strategy: AssignStrategy::Matching,
            seed: 0xCA4D,
        }
    }
}

/// Per-round and final statistics of a simulated campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Coverage after each round.
    pub rounds: Vec<CoverageReport>,
    /// Total tasks issued.
    pub tasks_issued: usize,
    /// Total tasks completed (photos captured).
    pub tasks_completed: usize,
    /// Whether the campaign goal was met.
    pub satisfied: bool,
}

/// Runs the iterative loop, returning the per-round coverage trajectory
/// and the captured FOVs.
pub fn simulate_campaign(
    campaign: &Campaign,
    config: &SimulationConfig,
) -> (CampaignReport, Vec<Fov>) {
    let mut rng = Rng::seed_from_u64(config.seed);
    let region = campaign.spec.region;
    // Workers scattered uniformly over the region.
    let workers: Vec<Worker> = (0..config.n_workers)
        .map(|i| {
            let lat = rng.gen_range(region.min_lat..region.max_lat);
            let lon = rng.gen_range(region.min_lon..region.max_lon);
            Worker::new(
                WorkerId(i as u64),
                tvdp_geo::GeoPoint::new(lat, lon),
                config.worker_range_m,
                config.worker_capacity,
            )
        })
        .collect();

    let mut grid = CoverageGrid::new(campaign.spec);
    let mut captured = Vec::new();
    let mut report = CampaignReport {
        rounds: Vec::new(),
        tasks_issued: 0,
        tasks_completed: 0,
        satisfied: false,
    };
    let mut next_task_id = 0u64;

    for _ in 0..config.max_rounds {
        if campaign.satisfied(&grid) {
            break;
        }
        let round = campaign.plan_round(&grid, next_task_id, config.round_budget);
        next_task_id += round.tasks.len() as u64;
        report.tasks_issued += round.tasks.len();
        let assignment = match config.strategy {
            AssignStrategy::Greedy => assign_greedy(&workers, &round.tasks),
            AssignStrategy::Matching => assign_matching(&workers, &round.tasks),
        };
        for (_, task_id) in &assignment.pairs {
            if !rng.gen_bool(config.completion_rate) {
                continue;
            }
            let Some(task) = round.tasks.iter().find(|t| t.id == *task_id) else {
                continue;
            };
            // The worker stands a little off the exact spot and aims
            // roughly along the requested heading.
            let pos = task
                .location
                .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..12.0));
            let heading = task
                .required_heading
                .unwrap_or_else(|| rng.gen_range(0.0..360.0))
                + rng.gen_range(-10.0..10.0);
            let fov = Fov::new(
                pos,
                heading,
                rng.gen_range(50.0..70.0),
                rng.gen_range(60.0..120.0),
            );
            grid.add_fov(&fov);
            captured.push(fov);
            report.tasks_completed += 1;
        }
        report.rounds.push(grid.report());
    }
    report.satisfied = campaign.satisfied(&grid);
    (report, captured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::{BBox, CoverageSpec, GeoPoint};

    fn campaign(min_sectors: usize) -> Campaign {
        let sw = GeoPoint::new(34.02, -118.29);
        let ne = sw.destination(0.0, 400.0);
        let e = sw.destination(90.0, 400.0);
        let spec = CoverageSpec::new(BBox::new(sw.lat, sw.lon, ne.lat, e.lon), 100.0, 8);
        Campaign::new("test", spec, min_sectors, 1)
    }

    #[test]
    fn coverage_increases_monotonically() {
        let (report, fovs) = simulate_campaign(&campaign(3), &SimulationConfig::default());
        assert!(!report.rounds.is_empty());
        for w in report.rounds.windows(2) {
            assert!(w[1].direction_coverage >= w[0].direction_coverage - 1e-12);
        }
        assert_eq!(report.tasks_completed, fovs.len());
        assert!(report.tasks_completed <= report.tasks_issued);
    }

    #[test]
    fn easy_goal_gets_satisfied() {
        let config = SimulationConfig {
            max_rounds: 20,
            ..Default::default()
        };
        let (report, _) = simulate_campaign(&campaign(1), &config);
        assert!(
            report.satisfied,
            "goal of 1 sector/cell should be reachable: {report:?}"
        );
    }

    #[test]
    fn zero_completion_rate_never_covers() {
        let config = SimulationConfig {
            completion_rate: 0.0,
            max_rounds: 3,
            ..Default::default()
        };
        let (report, fovs) = simulate_campaign(&campaign(1), &config);
        assert!(!report.satisfied);
        assert!(fovs.is_empty());
        assert_eq!(report.tasks_completed, 0);
        assert!(report.tasks_issued > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let config = SimulationConfig::default();
        let (r1, f1) = simulate_campaign(&campaign(2), &config);
        let (r2, f2) = simulate_campaign(&campaign(2), &config);
        assert_eq!(r1.tasks_completed, r2.tasks_completed);
        assert_eq!(f1.len(), f2.len());
        assert_eq!(r1.rounds.len(), r2.rounds.len());
    }

    #[test]
    fn iterative_rounds_beat_single_round() {
        // With a small per-round budget, later rounds must add coverage.
        let config = SimulationConfig {
            round_budget: 30,
            max_rounds: 6,
            ..Default::default()
        };
        let (report, _) = simulate_campaign(&campaign(4), &config);
        assert!(report.rounds.len() > 1);
        let first = report.rounds[0].direction_coverage;
        let last = report.rounds.last().unwrap().direction_coverage;
        assert!(last > first, "rounds added nothing: {first} -> {last}");
    }
}
