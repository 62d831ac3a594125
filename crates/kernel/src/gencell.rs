//! Generation publication: lock-free-for-readers snapshot handoff.
//!
//! A [`GenCell`] holds an `Arc` to an immutable *generation* — a frozen
//! snapshot of some index or arena state. Writers build the next
//! generation off to the side and [`GenCell::store`] it with a single
//! pointer swap; readers [`GenCell::load`] the current generation as a
//! cheap `Arc` clone and keep using it for as long as they like,
//! unaffected by later swaps. Readers therefore never block on writers
//! and never observe a half-built state: a generation is immutable from
//! the moment it is published.
//!
//! This is the **only** sanctioned publication primitive for shared
//! mutable-by-replacement state outside the pool (rule L3, the root
//! `clippy.toml`, flags ad-hoc `std::sync` locks). Internally
//! it is a [`crate::sync::RwLock`] held only for the duration of an
//! `Arc` clone or pointer store — nanoseconds, never across user code —
//! so the determinism contract holds trivially: a `load` returns
//! whichever generation was most recently published, and computed
//! values depend only on that generation's contents. Being a `sync`
//! lock, it reports to a model checker's hook like every other lock.

use std::sync::Arc;

use crate::sync::RwLock;

/// A cell publishing immutable generations of `T` to concurrent
/// readers. See the module docs for the reader/writer contract.
#[derive(Debug)]
pub struct GenCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> GenCell<T> {
    /// Creates a cell publishing `initial` as the first generation.
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            current: RwLock::new(initial),
        }
    }

    /// Returns the most recently published generation. The returned
    /// `Arc` stays valid (and immutable) regardless of later
    /// [`GenCell::store`] calls.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Publishes `next` as the new current generation. In-flight
    /// readers keep the generation they loaded; new readers see `next`.
    pub fn store(&self, next: Arc<T>) {
        *self.current.write() = next;
    }
}

impl<T: Default> Default for GenCell<T> {
    fn default() -> Self {
        Self::new(Arc::new(T::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_last_store() {
        let cell = GenCell::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn old_generation_survives_swap() {
        let cell = GenCell::new(Arc::new(vec![1, 2, 3]));
        let old = cell.load();
        cell.store(Arc::new(vec![4]));
        assert_eq!(*old, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![4]);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a writer and readers must race on real OS threads to exercise publication"
    )]
    fn concurrent_readers_always_see_a_complete_generation() {
        let cell = Arc::new(GenCell::new(Arc::new(vec![0u64; 64])));
        std::thread::scope(|s| {
            for worker in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for i in 0..500u64 {
                        if worker == 0 {
                            // Writer: publish generations where every
                            // element equals the generation number.
                            cell.store(Arc::new(vec![i; 64]));
                        } else {
                            // Readers: a loaded generation must be
                            // internally consistent.
                            let g = cell.load();
                            let first = g[0];
                            assert!(g.iter().all(|&x| x == first));
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn default_publishes_default_value() {
        let cell: GenCell<u32> = GenCell::default();
        assert_eq!(*cell.load(), 0);
    }
}
