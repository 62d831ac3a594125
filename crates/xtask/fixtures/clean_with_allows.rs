//! Fixture: a file the linter must pass — conforming code plus
//! correctly annotated escape hatches.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ordered collections keep iteration reproducible.
pub fn totals(by_key: BTreeMap<u64, f64>) -> Vec<(u64, f64)> {
    by_key.into_iter().collect()
}

/// Two escape hatches stacked over one line, each for its own rule.
pub fn drain_total(count: &AtomicU64, xs: &[f64]) -> f64 {
    // tvdp-lint: allow(atomic_ordering, reason = "Relaxed: a statistics counter that orders nothing")
    // tvdp-lint: allow(float_reduction, reason = "fixture exercises stacked allows; rows arrive in id order")
    count.load(Ordering::Relaxed) as f64 + xs.iter().sum::<f64>()
}

/// A documented traversal order justifies a float sum.
pub fn total(xs: &[f64]) -> f64 {
    // tvdp-lint: allow(float_reduction, reason = "callers pass rows in id order; fixture exercises the escape hatch")
    xs.iter().sum()
}
