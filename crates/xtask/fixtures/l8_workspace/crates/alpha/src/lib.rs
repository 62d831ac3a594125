//! The items L8 checks, one per case.

pub mod inner;

// Case: an item that only a `use` re-exports is not reached.
pub use inner::lonely;

/// A counter that `tvdp-beta` resets.
pub struct Counter {
    n: u32,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter { n: 0 }
    }

    /// Counts one.
    pub fn bump(&mut self) {
        self.n += 1;
    }

    /// Back to zero: called.
    pub fn reset(&mut self) {
        self.n = 0;
    }
}

/// A gauge whose level `tvdp-beta` reads.
pub struct Gauge {
    level: u32,
}

impl Gauge {
    /// A gauge at `level`.
    pub fn new(level: u32) -> Gauge {
        Gauge { level }
    }

    /// The current level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Case: an uncalled `reset` beside `Counter`'s called one. A name
    /// matcher keeps it alive; rustc does not.
    pub fn reset(&mut self) {
        self.level = 0;
    }
}

/// Case: a type named only in its own `impl` blocks.
pub struct Batcher {
    n: usize,
}

impl Batcher {
    /// An empty batcher.
    pub fn new() -> Batcher {
        Batcher { n: 0 }
    }
}

impl Default for Batcher {
    fn default() -> Self {
        Batcher::new()
    }
}

/// Case: called only by `#[cfg(test)]` code and an integration test.
pub fn helper() -> usize {
    0
}

/// Case: an allowed item that gained a caller (`tvdp-beta` calls it),
/// so L0 reports the allow as stale.
// tvdp-lint: allow(dead_api, reason = "(c) paper capability with no route yet")
pub fn capability() -> u32 {
    7
}

/// An allowed item nothing calls: the allow is used, nothing fires.
// tvdp-lint: allow(dead_api, reason = "(a) test support: the fixture's own tests")
pub fn kept() -> u32 {
    8
}

/// Reached from a root example.
pub fn shown() -> u32 {
    9
}

/// Reached only from the benchmark stand-in, which the probe does not
/// build.
pub fn bench_only() -> u32 {
    10
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_counts_nothing() {
        assert_eq!(super::helper(), 0);
    }
}
