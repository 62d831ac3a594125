//! Fixture: L2 determinism violations — hash collections, whose
//! iteration order can leak into results. Clippy's `disallowed_types`
//! fires at every path that names one: the import and each parameter
//! type.

use std::collections::{HashMap, HashSet};

/// Iteration order of a `HashMap` is nondeterministic; collecting it
/// into an output vector leaks that order to callers.
pub fn scores_to_vec(scores: HashMap<u64, f64>) -> Vec<(u64, f64)> {
    scores.into_iter().collect()
}

/// Same bug class through a `for` loop over a `HashSet`.
pub fn first_ids(ids: HashSet<u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for id in ids {
        out.push(id);
    }
    out
}

/// Lookup-only use is sound: the escape hatch says why, and nothing
/// fires under it.
#[expect(clippy::disallowed_types, reason = "lookup only: nothing iterates the map")]
pub fn lookup(m: &HashMap<u64, f64>, k: u64) -> Option<f64> {
    m.get(&k).copied()
}
