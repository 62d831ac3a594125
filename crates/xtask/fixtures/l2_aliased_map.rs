//! Fixture: L2 through a `type` alias and a fully qualified path. The
//! map is received under the alias's name and iterated; no line spells
//! a binding of `HashMap`, and clippy's `disallowed_types` fires at the
//! alias and at the expression path.

/// A score table whose type no longer spells `HashMap`.
pub type Index = std::collections::HashMap<u64, f64>;

/// Iterating the aliased map leaks its order to callers.
pub fn ranked(scores: Index) -> Vec<(u64, f64)> {
    scores.into_iter().collect()
}

/// An empty table, built through the fully qualified path.
pub fn empty() -> Index {
    std::collections::HashMap::new()
}
