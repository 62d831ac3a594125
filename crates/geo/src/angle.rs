//! Compass-angle arithmetic for viewing directions.
//!
//! Viewing directions (`θ` in the FOV model) live on a circle, so plain
//! interval arithmetic does not apply: ranges may wrap through north
//! (e.g. `350°..10°`). [`AngularRange`] models such wrap-around intervals.

/// Normalizes an angle in degrees into `[0, 360)`.
pub fn normalize_deg(deg: f64) -> f64 {
    let d = deg % 360.0;
    if d < 0.0 {
        d + 360.0
    } else {
        d
    }
}

/// Smallest absolute difference between two compass angles, in `[0, 180]`.
pub fn angular_diff_deg(a: f64, b: f64) -> f64 {
    let d = (normalize_deg(a) - normalize_deg(b)).abs();
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

/// A closed arc of compass directions, possibly wrapping through north.
///
/// Stored as a start angle and a non-negative width, so the arc covers
/// `start .. start + width` (mod 360). A width of `360` covers everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngularRange {
    start: f64,
    width: f64,
}

impl AngularRange {
    /// The full circle.
    pub const FULL: AngularRange = AngularRange {
        start: 0.0,
        width: 360.0,
    };

    /// An arc beginning at `start` degrees, spanning `width` degrees
    /// clockwise. `width` is clamped to `[0, 360]`.
    pub fn new(start: f64, width: f64) -> Self {
        Self {
            start: normalize_deg(start),
            width: width.clamp(0.0, 360.0),
        }
    }

    /// An arc centred on `center` with total `width` degrees.
    pub fn centered(center: f64, width: f64) -> Self {
        let w = width.clamp(0.0, 360.0);
        Self::new(center - w / 2.0, w)
    }

    /// Start angle in `[0, 360)`.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Width in degrees in `[0, 360]`.
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Whether the arc covers the whole circle.
    pub fn is_full(&self) -> bool {
        self.width >= 360.0
    }

    /// Whether compass angle `deg` lies on the arc (inclusive endpoints).
    pub fn contains(&self, deg: f64) -> bool {
        if self.is_full() {
            return true;
        }
        let offset = normalize_deg(normalize_deg(deg) - self.start);
        offset <= self.width
    }

    /// Whether the two arcs share any direction.
    pub fn overlaps(&self, other: &AngularRange) -> bool {
        if self.is_full() || other.is_full() {
            return true;
        }
        self.contains(other.start)
            || other.contains(self.start)
            || self.contains(normalize_deg(other.start + other.width))
            || other.contains(normalize_deg(self.start + self.width))
    }

    /// The smallest arc containing both arcs. Returns [`AngularRange::FULL`]
    /// when no proper containing arc smaller than the circle exists.
    pub fn union(&self, other: &AngularRange) -> AngularRange {
        if self.is_full() || other.is_full() {
            return AngularRange::FULL;
        }
        // Try both candidate hulls (starting at either arc's start) and keep
        // the narrower one that covers both.
        let hull_from = |a: &AngularRange, b: &AngularRange| -> f64 {
            let end_a = a.width;
            let b_start = normalize_deg(b.start - a.start);
            let b_end = b_start + b.width;
            end_a.max(b_end)
        };
        let w1 = hull_from(self, other);
        let w2 = hull_from(other, self);
        if w1 <= w2 {
            AngularRange::new(self.start, w1.min(360.0))
        } else {
            AngularRange::new(other.start, w2.min(360.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_wraps_both_directions() {
        assert_eq!(normalize_deg(370.0), 10.0);
        assert_eq!(normalize_deg(-10.0), 350.0);
        assert_eq!(normalize_deg(720.0), 0.0);
        assert_eq!(normalize_deg(0.0), 0.0);
    }

    #[test]
    fn angular_diff_takes_short_way() {
        assert_eq!(angular_diff_deg(350.0, 10.0), 20.0);
        assert_eq!(angular_diff_deg(0.0, 180.0), 180.0);
        assert_eq!(angular_diff_deg(90.0, 90.0), 0.0);
        assert_eq!(angular_diff_deg(-10.0, 10.0), 20.0);
    }

    #[test]
    fn range_contains_without_wrap() {
        let r = AngularRange::new(30.0, 60.0); // 30..90
        assert!(r.contains(30.0));
        assert!(r.contains(60.0));
        assert!(r.contains(90.0));
        assert!(!r.contains(91.0));
        assert!(!r.contains(29.0));
        assert!(!r.contains(200.0));
    }

    #[test]
    fn range_contains_with_wrap() {
        let r = AngularRange::new(350.0, 20.0); // 350..10
        assert!(r.contains(350.0));
        assert!(r.contains(0.0));
        assert!(r.contains(10.0));
        assert!(!r.contains(11.0));
        assert!(!r.contains(349.0));
    }

    #[test]
    fn centered_range() {
        let r = AngularRange::centered(0.0, 60.0); // 330..30
        assert!(r.contains(330.0));
        assert!(r.contains(0.0));
        assert!(r.contains(30.0));
        assert!(!r.contains(31.0));
        assert_eq!(r.start(), 330.0);
    }

    #[test]
    fn overlaps_cases() {
        let a = AngularRange::new(0.0, 90.0);
        let b = AngularRange::new(80.0, 90.0);
        let c = AngularRange::new(180.0, 90.0);
        let wrap = AngularRange::new(350.0, 20.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&wrap));
        assert!(!c.overlaps(&wrap));
        assert!(a.overlaps(&AngularRange::FULL));
    }

    #[test]
    fn union_covers_both() {
        let a = AngularRange::new(10.0, 20.0);
        let b = AngularRange::new(50.0, 20.0);
        let u = a.union(&b);
        for deg in [10.0, 30.0, 50.0, 70.0] {
            assert!(u.contains(deg), "{deg} not in union");
        }
        assert!(u.width() <= 61.0, "union too wide: {}", u.width());
    }

    #[test]
    fn union_across_north() {
        let a = AngularRange::new(340.0, 30.0); // 340..10
        let b = AngularRange::new(5.0, 30.0); // 5..35
        let u = a.union(&b);
        assert!(u.contains(340.0));
        assert!(u.contains(0.0));
        assert!(u.contains(35.0));
        assert!(u.width() <= 56.0, "width {}", u.width());
    }

    #[test]
    fn full_range_contains_everything() {
        for deg in 0..360 {
            assert!(AngularRange::FULL.contains(deg as f64));
        }
    }
}
