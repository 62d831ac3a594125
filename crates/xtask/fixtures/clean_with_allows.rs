//! Fixture: a file the linter must pass — conforming code plus
//! correctly annotated escape hatches.

use std::collections::{BTreeMap, HashMap};

/// Ordered collections keep iteration reproducible.
pub fn totals(by_key: BTreeMap<u64, f64>) -> Vec<(u64, f64)> {
    by_key.into_iter().collect()
}

/// Order-insensitive folds over hash maps are sound; the escape hatch
/// documents why.
pub fn sum(values: &HashMap<u64, f64>) -> f64 {
    // tvdp-lint: allow(determinism, reason = "addition order does not reach results after the final sort upstream")
    // tvdp-lint: allow(float_reduction, reason = "fixture exercises stacked allows; order is absorbed upstream")
    values.values().sum()
}

/// A documented traversal order justifies a float sum.
pub fn total(xs: &[f64]) -> f64 {
    // tvdp-lint: allow(float_reduction, reason = "callers pass rows in id order; fixture exercises the escape hatch")
    xs.iter().sum()
}
