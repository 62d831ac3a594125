//! Coverage-driven campaign planning.
//!
//! A campaign declares a region and a coverage goal ("every cell seen
//! from at least `min_sectors` directions"). Each round inspects the
//! current [`CoverageGrid`] and emits one photo task per missing
//! (cell, direction) pair — the iterative spatial crowdsourcing loop of
//! the paper's Section III.
use tvdp_geo::{CoverageGrid, CoverageSpec, GeoPoint};

use crate::task::{SpatialTask, TaskId};

/// A visual-data collection campaign.
///
/// ```
/// use tvdp_crowd::Campaign;
/// use tvdp_geo::{BBox, CoverageGrid, CoverageSpec};
///
/// let region = BBox::new(34.02, -118.29, 34.024, -118.285);
/// let spec = CoverageSpec::new(region, 100.0, 8);
/// let campaign = Campaign::new("pilot", spec, 2, 5);
/// // Nothing photographed yet: the first round wants every cell twice.
/// let grid = CoverageGrid::new(spec);
/// let round = campaign.plan_round(&grid, 0, 1_000);
/// assert!(!round.tasks.is_empty());
/// assert!(!campaign.satisfied(&grid));
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Human-readable name.
    pub name: String,
    /// Coverage model: region, cell size, direction sectors.
    pub spec: CoverageSpec,
    /// A cell is satisfied once covered in this many distinct sectors.
    pub min_sectors: usize,
    /// Reward offered per task.
    pub reward: u32,
}

impl Campaign {
    /// Creates a campaign; `min_sectors` must not exceed the sector count.
    pub fn new(
        name: impl Into<String>,
        spec: CoverageSpec,
        min_sectors: usize,
        reward: u32,
    ) -> Self {
        assert!(
            (1..=spec.sectors).contains(&min_sectors),
            "min_sectors {min_sectors} out of range 1..={}",
            spec.sectors
        );
        Self {
            name: name.into(),
            spec,
            min_sectors,
            reward,
        }
    }

    /// Plans the next round against the current coverage state: one task
    /// per missing (cell, sector), located at the cell centre, directed
    /// along the missing sector. Task ids start at `next_task_id`.
    ///
    /// Caps the round at `max_tasks` (budget), preferring the least
    /// covered cells first.
    pub fn plan_round(
        &self,
        grid: &CoverageGrid,
        next_task_id: u64,
        max_tasks: usize,
    ) -> CampaignRound {
        let mut under = grid.undercovered(self.min_sectors);
        // Least-covered first: the most missing sectors.
        under.sort_by_key(|(_, missing)| std::cmp::Reverse(missing.len()));
        let mut tasks = Vec::new();
        let mut id = next_task_id;
        'outer: for (cell, missing) in &under {
            let center: GeoPoint = grid.cell_bbox(*cell).center();
            // Only request up to the sectors still needed for the goal.
            let covered = grid.cell_mask(*cell).count_ones() as usize;
            let needed = self.min_sectors.saturating_sub(covered);
            for &sector in missing.iter().take(needed) {
                tasks.push(SpatialTask::directed(
                    TaskId(id),
                    center,
                    grid.sector_heading(sector),
                    self.reward,
                ));
                id += 1;
                if tasks.len() >= max_tasks {
                    break 'outer;
                }
            }
        }
        CampaignRound {
            tasks,
            cells_below_goal: under.len(),
        }
    }

    /// Whether the coverage goal is met: no cell below `min_sectors`.
    pub fn satisfied(&self, grid: &CoverageGrid) -> bool {
        grid.undercovered(self.min_sectors).is_empty()
    }
}

/// One planned round of tasks.
#[derive(Debug, Clone)]
pub struct CampaignRound {
    /// The photo tasks to dispatch.
    pub tasks: Vec<SpatialTask>,
    /// How many cells are still below the goal.
    pub cells_below_goal: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_geo::{BBox, Fov};

    fn small_spec() -> CoverageSpec {
        let sw = GeoPoint::new(34.02, -118.29);
        let ne = sw.destination(0.0, 300.0);
        let e = sw.destination(90.0, 300.0);
        CoverageSpec::new(BBox::new(sw.lat, sw.lon, ne.lat, e.lon), 100.0, 8)
    }

    #[test]
    fn fresh_campaign_wants_everything() {
        let spec = small_spec();
        let campaign = Campaign::new("c", spec, 2, 1);
        let grid = CoverageGrid::new(spec);
        let round = campaign.plan_round(&grid, 0, 1000);
        let cells = grid.report().total_cells;
        // Every cell needs min_sectors tasks.
        assert_eq!(round.tasks.len(), cells * 2);
        assert_eq!(round.cells_below_goal, cells);
        assert!(!campaign.satisfied(&grid));
        // Task ids are sequential from 0.
        assert_eq!(round.tasks[0].id, TaskId(0));
        assert_eq!(
            round.tasks.last().unwrap().id,
            TaskId(round.tasks.len() as u64 - 1)
        );
    }

    #[test]
    fn budget_caps_round_size() {
        let spec = small_spec();
        let campaign = Campaign::new("c", spec, 4, 1);
        let grid = CoverageGrid::new(spec);
        let round = campaign.plan_round(&grid, 0, 5);
        assert_eq!(round.tasks.len(), 5);
    }

    #[test]
    fn satisfied_after_dense_coverage() {
        let spec = small_spec();
        let campaign = Campaign::new("c", spec, 1, 1);
        let mut grid = CoverageGrid::new(spec);
        // Photograph every cell centre in one direction with a wide view.
        for (cell, _) in grid.undercovered(1) {
            let center = grid.cell_bbox(cell).center();
            grid.add_fov(&Fov::new(center, 0.0, 360.0, 80.0));
        }
        assert!(campaign.satisfied(&grid));
        let round = campaign.plan_round(&grid, 0, 100);
        assert!(round.tasks.is_empty());
        assert_eq!(round.cells_below_goal, 0);
    }

    #[test]
    fn planned_tasks_target_missing_sectors_only() {
        let spec = small_spec();
        let campaign = Campaign::new("c", spec, 2, 1);
        let mut grid = CoverageGrid::new(spec);
        // Cover every cell from the north sector only.
        for (cell, _) in grid.undercovered(1) {
            let center = grid.cell_bbox(cell).center();
            grid.add_fov(&Fov::new(center, grid.sector_heading(0), 40.0, 60.0));
        }
        let round = campaign.plan_round(&grid, 0, 10_000);
        // Each cell already has >= 1 sector; only one more is requested.
        assert_eq!(round.tasks.len(), grid.report().total_cells);
        for t in &round.tasks {
            let h = t.required_heading.expect("directed task");
            assert!(
                tvdp_geo::angular_diff_deg(h, grid.sector_heading(0)) > 20.0,
                "task re-requests the covered sector"
            );
        }
    }

    #[test]
    #[should_panic(expected = "min_sectors")]
    fn bad_goal_rejected() {
        let spec = small_spec();
        let _ = Campaign::new("c", spec, 9, 1);
    }
}
