//! The workspace's one lock wrapper: [`Mutex`] and [`RwLock`] over
//! `std::sync` with guard-returning lock methods and no poisoning.
//!
//! A lock whose holder panicked is recovered, not propagated: every
//! critical section in the workspace leaves its data valid at each step
//! (single-field updates, or a batch applied after validation), so the
//! next holder sees a consistent value. `cargo xtask lint` (L3) keeps
//! `std::sync` locks out of every other crate, so this is the only place
//! the poisoning decision is made.

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

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Direct access through exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Readers-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

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
    fn a_panic_while_holding_does_not_poison_the_next_holder() {
        let m = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(1u32));
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
        let mut m = Arc::into_inner(m).expect("sole owner");
        assert_eq!(*m.get_mut(), 2);
        assert_eq!(m.into_inner(), 2);
        assert_eq!(Arc::into_inner(rw).expect("sole owner").into_inner(), 3);
    }
}
