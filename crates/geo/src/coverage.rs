//! Spatial coverage measurement of geo-tagged visual data.
//!
//! Implements the direction-aware coverage model the paper relies on for
//! evaluating dataset adequacy (Section III, citing Alfarrarjeh et al.,
//! "Spatial coverage measurement of geo-tagged visual data", BigMM 2018):
//! the region of interest is discretized into grid cells, and each cell
//! tracks *which compass direction sectors* have been photographed. A cell
//! seen only from the north is not fully covered — a streetscape dataset
//! should view each location from several directions.
//!
//! The resulting [`CoverageReport`] drives iterative spatial crowdsourcing:
//! under-covered cells/directions become the targets of the next campaign.

use crate::bbox::BBox;
use crate::fov::Fov;
use crate::point::GeoPoint;
use crate::METERS_PER_DEG_LAT;

/// Parameters of the coverage model.
#[derive(Debug, Clone, Copy)]
pub struct CoverageSpec {
    /// Region of interest.
    pub region: BBox,
    /// Edge length of a grid cell in metres.
    pub cell_size_m: f64,
    /// Number of compass direction sectors per cell (the paper's model uses
    /// 8: N, NE, E, SE, S, SW, W, NW).
    pub sectors: usize,
}

impl CoverageSpec {
    /// Creates a spec; panics on degenerate parameters.
    pub fn new(region: BBox, cell_size_m: f64, sectors: usize) -> Self {
        assert!(cell_size_m > 0.0, "cell size must be positive");
        assert!((1..=64).contains(&sectors), "sectors must be in 1..=64");
        Self {
            region,
            cell_size_m,
            sectors,
        }
    }
}

/// Identifies one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Row (south to north).
    pub row: u32,
    /// Column (west to east).
    pub col: u32,
}

/// Aggregate coverage statistics over the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageReport {
    /// Cells touched by at least one FOV / total cells.
    pub cell_coverage: f64,
    /// Covered (cell, sector) pairs / total pairs — the direction-aware
    /// coverage measure.
    pub direction_coverage: f64,
    /// Total number of grid cells.
    pub total_cells: usize,
    /// Cells with at least one covered sector.
    pub covered_cells: usize,
    /// Number of FOVs accumulated.
    pub fov_count: usize,
}

/// A grid accumulating directional coverage from FOVs.
#[derive(Debug, Clone)]
pub struct CoverageGrid {
    spec: CoverageSpec,
    rows: u32,
    cols: u32,
    /// Per cell: bitmask of covered sectors (bit `s` = sector `s` covered).
    cells: Vec<u64>,
    fov_count: usize,
}

impl CoverageGrid {
    /// Builds an empty grid over `spec.region`.
    pub fn new(spec: CoverageSpec) -> Self {
        let mean_lat = ((spec.region.min_lat + spec.region.max_lat) / 2.0).to_radians();
        let height_m = (spec.region.max_lat - spec.region.min_lat) * METERS_PER_DEG_LAT;
        let width_m =
            (spec.region.max_lon - spec.region.min_lon) * METERS_PER_DEG_LAT * mean_lat.cos();
        let rows = (height_m / spec.cell_size_m).ceil().max(1.0) as u32;
        let cols = (width_m / spec.cell_size_m).ceil().max(1.0) as u32;
        Self {
            spec,
            rows,
            cols,
            cells: vec![0; (rows * cols) as usize],
            fov_count: 0,
        }
    }

    /// The spec this grid was built from.
    pub fn spec(&self) -> &CoverageSpec {
        &self.spec
    }

    /// Geographic rectangle of a cell.
    pub fn cell_bbox(&self, cell: CellId) -> BBox {
        let r = &self.spec.region;
        let dlat = (r.max_lat - r.min_lat) / self.rows as f64;
        let dlon = (r.max_lon - r.min_lon) / self.cols as f64;
        BBox::new(
            r.min_lat + cell.row as f64 * dlat,
            r.min_lon + cell.col as f64 * dlon,
            r.min_lat + (cell.row + 1) as f64 * dlat,
            r.min_lon + (cell.col + 1) as f64 * dlon,
        )
    }

    /// The cell containing `p`, if inside the region.
    pub fn cell_of(&self, p: &GeoPoint) -> Option<CellId> {
        let r = &self.spec.region;
        if !r.contains(p) {
            return None;
        }
        let dlat = (r.max_lat - r.min_lat) / self.rows as f64;
        let dlon = (r.max_lon - r.min_lon) / self.cols as f64;
        let row = (((p.lat - r.min_lat) / dlat) as u32).min(self.rows - 1);
        let col = (((p.lon - r.min_lon) / dlon) as u32).min(self.cols - 1);
        Some(CellId { row, col })
    }

    fn sector_of(&self, heading_deg: f64) -> usize {
        let w = 360.0 / self.spec.sectors as f64;
        ((crate::angle::normalize_deg(heading_deg) / w) as usize).min(self.spec.sectors - 1)
    }

    /// Accumulates one FOV into the grid: every cell intersected by the
    /// sector is marked covered in each direction sector the FOV's aperture
    /// spans.
    pub fn add_fov(&mut self, fov: &Fov) {
        self.fov_count += 1;
        // Sector bits spanned by the viewing aperture.
        let mut bits: u64 = 0;
        let range = fov.direction_range();
        let w = 360.0 / self.spec.sectors as f64;
        for s in 0..self.spec.sectors {
            let sector_center = (s as f64 + 0.5) * w;
            if range.contains(sector_center) || self.sector_of(fov.heading_deg) == s {
                bits |= 1 << s;
            }
        }
        // Restrict the scan to cells under the scene-location MBR.
        let mbr = fov.scene_location();
        let Some(lo) = self.clamped_cell(mbr.min_lat, mbr.min_lon) else {
            return;
        };
        let Some(hi) = self.clamped_cell(mbr.max_lat, mbr.max_lon) else {
            return;
        };
        for row in lo.row..=hi.row {
            for col in lo.col..=hi.col {
                let cell = CellId { row, col };
                if fov.intersects_bbox(&self.cell_bbox(cell)) {
                    self.cells[(row * self.cols + col) as usize] |= bits;
                }
            }
        }
    }

    /// Cell index for a (possibly out-of-region) coordinate, clamped to the
    /// grid; `None` when the grid region is empty.
    fn clamped_cell(&self, lat: f64, lon: f64) -> Option<CellId> {
        let r = &self.spec.region;
        let lat = lat.clamp(r.min_lat, r.max_lat);
        let lon = lon.clamp(r.min_lon, r.max_lon);
        self.cell_of(&GeoPoint::new(lat, lon))
    }

    /// Covered-sector bitmask of a cell.
    pub fn cell_mask(&self, cell: CellId) -> u64 {
        self.cells[(cell.row * self.cols + cell.col) as usize]
    }

    /// Aggregate coverage statistics.
    pub fn report(&self) -> CoverageReport {
        let total = self.cells.len();
        let covered = self.cells.iter().filter(|&&m| m != 0).count();
        let sector_pairs: u32 = self.cells.iter().map(|m| m.count_ones()).sum();
        CoverageReport {
            cell_coverage: covered as f64 / total as f64,
            direction_coverage: sector_pairs as f64 / (total * self.spec.sectors) as f64,
            total_cells: total,
            covered_cells: covered,
            fov_count: self.fov_count,
        }
    }

    /// Cells covered in fewer than `min_sectors` directions, with the list
    /// of missing sector indices — the work-list for the next
    /// crowdsourcing campaign round.
    pub fn undercovered(&self, min_sectors: usize) -> Vec<(CellId, Vec<usize>)> {
        let mut out = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let cell = CellId { row, col };
                let mask = self.cell_mask(cell);
                if (mask.count_ones() as usize) < min_sectors {
                    let missing = (0..self.spec.sectors)
                        .filter(|s| mask & (1 << s) == 0)
                        .collect();
                    out.push((cell, missing));
                }
            }
        }
        out
    }

    /// Compass heading (sector centre) for a sector index.
    pub fn sector_heading(&self, sector: usize) -> f64 {
        (sector as f64 + 0.5) * 360.0 / self.spec.sectors as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_region() -> BBox {
        // ~500 m x 500 m near USC.
        let sw = GeoPoint::new(34.02, -118.29);
        let ne = sw.destination(0.0, 500.0);
        let ne = GeoPoint::new(ne.lat, sw.destination(90.0, 500.0).lon);
        BBox::new(sw.lat, sw.lon, ne.lat, ne.lon)
    }

    fn grid() -> CoverageGrid {
        CoverageGrid::new(CoverageSpec::new(small_region(), 100.0, 8))
    }

    #[test]
    fn empty_grid_has_zero_coverage() {
        let g = grid();
        let r = g.report();
        assert_eq!(r.cell_coverage, 0.0);
        assert_eq!(r.direction_coverage, 0.0);
        assert_eq!(r.fov_count, 0);
        assert!(r.total_cells >= 25);
    }

    #[test]
    fn one_fov_covers_some_cells_one_direction_band() {
        let mut g = grid();
        let cam = g.spec().region.center();
        g.add_fov(&Fov::new(cam, 0.0, 60.0, 150.0));
        let r = g.report();
        assert!(r.covered_cells >= 1);
        assert!(r.cell_coverage > 0.0 && r.cell_coverage < 1.0);
        // Direction coverage must be lower than cell coverage: only northern
        // sectors are marked.
        assert!(r.direction_coverage < r.cell_coverage);
    }

    #[test]
    fn camera_cell_is_covered() {
        let mut g = grid();
        let cam = g.spec().region.center();
        g.add_fov(&Fov::new(cam, 90.0, 60.0, 120.0));
        let cell = g.cell_of(&cam).unwrap();
        assert_ne!(g.cell_mask(cell), 0);
    }

    #[test]
    fn eight_directions_fill_direction_coverage_of_camera_cell() {
        let mut g = grid();
        let cam = g.spec().region.center();
        for s in 0..8 {
            g.add_fov(&Fov::new(cam, g.sector_heading(s), 46.0, 120.0));
        }
        let cell = g.cell_of(&cam).unwrap();
        assert_eq!(g.cell_mask(cell).count_ones(), 8);
    }

    #[test]
    fn undercovered_lists_missing_sectors() {
        let mut g = grid();
        let cam = g.spec().region.center();
        g.add_fov(&Fov::new(cam, 0.0, 46.0, 120.0));
        let cell = g.cell_of(&cam).unwrap();
        let under = g.undercovered(8);
        let entry = under
            .iter()
            .find(|(c, _)| *c == cell)
            .expect("cell is undercovered");
        assert!(entry.1.len() < 8, "some sector must be covered");
        assert!(!entry.1.is_empty());
        // Fully uncovered cells miss all 8.
        let corner = CellId { row: 0, col: 0 };
        if g.cell_mask(corner) == 0 {
            let e = under.iter().find(|(c, _)| *c == corner).unwrap();
            assert_eq!(e.1.len(), 8);
        }
    }

    #[test]
    fn fov_outside_region_is_harmless() {
        let mut g = grid();
        let far = GeoPoint::new(35.0, -117.0);
        g.add_fov(&Fov::new(far, 0.0, 60.0, 100.0));
        assert_eq!(g.report().covered_cells, 0);
        assert_eq!(g.report().fov_count, 1);
    }

    #[test]
    fn cell_of_roundtrips_with_cell_bbox() {
        let g = grid();
        for row in 0..g.rows {
            for col in 0..g.cols {
                let cell = CellId { row, col };
                let center = g.cell_bbox(cell).center();
                assert_eq!(g.cell_of(&center), Some(cell));
            }
        }
    }

    #[test]
    fn coverage_monotone_in_fovs() {
        let mut g = grid();
        let cam = g.spec().region.center();
        let mut last = 0.0;
        for s in 0..8 {
            g.add_fov(&Fov::new(cam, g.sector_heading(s), 60.0, 200.0));
            let c = g.report().direction_coverage;
            assert!(c >= last, "coverage decreased: {c} < {last}");
            last = c;
        }
        assert!(last > 0.0);
    }
}
