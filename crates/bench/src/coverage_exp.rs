//! Section III experiment: iterative spatial crowdsourcing until the
//! coverage goal is met, with the greedy-vs-matching assignment ablation.

use tvdp_crowd::simulate::AssignStrategy;
use tvdp_crowd::{simulate_campaign, Campaign, SimulationConfig};
use tvdp_geo::{BBox, CoverageSpec, GeoPoint};

/// Configuration for the campaign experiment.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// Region edge length in metres.
    pub region_m: f64,
    /// Coverage cell size in metres.
    pub cell_m: f64,
    /// Required distinct direction sectors per cell.
    pub min_sectors: usize,
    /// Simulated workers.
    pub n_workers: usize,
    /// Worker travel range in metres (small ranges make assignment
    /// quality matter).
    pub worker_range_m: f64,
    /// Task budget per round.
    pub round_budget: usize,
    /// Maximum rounds.
    pub max_rounds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self {
            region_m: 600.0,
            cell_m: 100.0,
            min_sectors: 4,
            n_workers: 25,
            worker_range_m: 160.0,
            round_budget: 250,
            max_rounds: 15,
            seed: 0xC0F,
        }
    }
}

/// One strategy's trajectory.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Direction coverage after each round.
    pub coverage_per_round: Vec<f64>,
    /// Tasks issued in total.
    pub tasks_issued: usize,
    /// Tasks completed in total.
    pub tasks_completed: usize,
    /// Whether the goal was met within the round budget.
    pub satisfied: bool,
}

/// The experiment result: one outcome per assignment strategy.
#[derive(Debug, Clone)]
pub struct CoverageResult {
    /// Greedy and matching outcomes.
    pub outcomes: Vec<StrategyOutcome>,
}

fn build_campaign(config: &CoverageConfig) -> Campaign {
    let sw = GeoPoint::new(34.02, -118.29);
    let ne = sw.destination(0.0, config.region_m);
    let e = sw.destination(90.0, config.region_m);
    let spec = CoverageSpec::new(BBox::new(sw.lat, sw.lon, ne.lat, e.lon), config.cell_m, 8);
    Campaign::new("coverage-experiment", spec, config.min_sectors, 1)
}

/// Runs both assignment strategies on the same campaign.
pub fn run_coverage(config: &CoverageConfig) -> CoverageResult {
    let campaign = build_campaign(config);
    let outcomes = [AssignStrategy::Greedy, AssignStrategy::Matching]
        .into_iter()
        .map(|strategy| {
            let sim = SimulationConfig {
                n_workers: config.n_workers,
                worker_range_m: config.worker_range_m,
                round_budget: config.round_budget,
                max_rounds: config.max_rounds,
                strategy,
                seed: config.seed,
                ..Default::default()
            };
            let (report, _) = simulate_campaign(&campaign, &sim);
            StrategyOutcome {
                strategy: format!("{strategy:?}"),
                coverage_per_round: report.rounds.iter().map(|r| r.direction_coverage).collect(),
                tasks_issued: report.tasks_issued,
                tasks_completed: report.tasks_completed,
                satisfied: report.satisfied,
            }
        })
        .collect();
    CoverageResult { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_strategies_make_progress() {
        let result = run_coverage(&CoverageConfig {
            region_m: 300.0,
            max_rounds: 8,
            ..Default::default()
        });
        assert_eq!(result.outcomes.len(), 2);
        for o in &result.outcomes {
            assert!(!o.coverage_per_round.is_empty());
            let last = *o.coverage_per_round.last().unwrap();
            assert!(last > 0.2, "{} stalled at {last}", o.strategy);
            assert!(o.tasks_completed <= o.tasks_issued);
        }
    }

    #[test]
    fn matching_completes_at_least_as_many_tasks() {
        let result = run_coverage(&CoverageConfig {
            region_m: 400.0,
            n_workers: 8,
            round_budget: 120,
            max_rounds: 4,
            ..Default::default()
        });
        let greedy = &result.outcomes[0];
        let matching = &result.outcomes[1];
        // Same seed, same workers: matching assigns a superset count per
        // round, so over the run it cannot complete fewer tasks by more
        // than stochastic completion noise; allow a small slack.
        assert!(
            matching.tasks_completed + 10 >= greedy.tasks_completed,
            "matching {} vs greedy {}",
            matching.tasks_completed,
            greedy.tasks_completed
        );
    }
}
