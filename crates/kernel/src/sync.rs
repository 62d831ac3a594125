//! The workspace's one lock wrapper: [`Mutex`] and [`RwLock`] over
//! `std::sync` with guard-returning lock methods and no poisoning.
//!
//! A lock whose holder panicked is recovered, not propagated: every
//! critical section in the workspace leaves its data valid at each step
//! (single-field updates, or a batch applied after validation), so the
//! next holder sees a consistent value. The root `clippy.toml` (L3) keeps
//! `std::sync` locks out of every other crate, so this is the only place
//! the poisoning decision is made.

#![expect(
    clippy::disallowed_types,
    reason = "L3 owner: the workspace's one wrapper over `std::sync` locks"
)]

use std::sync::{self, PoisonError};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Readers-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Direct access through exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the holder must die on a thread of its own to poison the std lock"
    )]
    fn a_panic_while_holding_does_not_poison_the_next_holder() {
        let m = Arc::new(Mutex::new(1u32));
        let rw: Arc<RwLock<u32>> = Arc::default();
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let died = std::thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = rw2.write();
            *g = 2;
            *w = 2;
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*m.lock(), 2);
        assert_eq!(*rw.read(), 2);
        *rw.write() = 3;
        assert_eq!(*rw.read(), 3);
        let mut rw = Arc::into_inner(rw).expect("sole owner");
        assert_eq!(*rw.get_mut(), 3);
    }
}
