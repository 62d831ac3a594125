//! The workspace's one set of locks: [`Mutex`] and [`RwLock`] over
//! `std::sync` with guard-returning lock methods and no poisoning, and
//! the per-thread [`Hook`] a model checker schedules them through.
//!
//! A lock whose holder panicked is recovered, not propagated: every
//! critical section in the workspace leaves its data valid at each step
//! (single-field updates, or a batch applied after validation), so the
//! next holder sees a consistent value. The root `clippy.toml` (L3) keeps
//! `std::sync` locks out of every other crate, so this is the only place
//! the poisoning decision is made.
//!
//! Every acquire reports to the calling thread's hook, if it installed
//! one with [`set_hook`], before the lock is taken, and every release
//! reports once the lock is free again (a guard's drop, on an unwinding
//! thread too). A thread with no hook pays one thread-local read per
//! operation and nothing more.

#![expect(
    clippy::disallowed_types,
    reason = "L3 owner: the workspace's one wrapper over `std::sync` locks"
)]

use std::any::type_name;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// What a reported lock operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// [`Mutex::lock`].
    Lock,
    /// A [`MutexGuard`] drops.
    Unlock,
    /// [`RwLock::read`].
    Read,
    /// A [`RwLockReadGuard`] drops.
    Unread,
    /// [`RwLock::write`].
    Write,
    /// A [`RwLockWriteGuard`] drops.
    Unwrite,
}

/// One lock operation as the hook sees it.
#[derive(Debug, Clone, Copy)]
pub struct LockEvent {
    /// The lock's address: the same for every operation on one lock
    /// while it lives.
    pub lock: usize,
    /// What the operation does.
    pub op: LockOp,
    /// The type the lock guards, as `std::any::type_name` spells it.
    pub guards: &'static str,
}

impl LockEvent {
    fn new<L: ?Sized, T: ?Sized>(lock: &L, op: LockOp) -> Self {
        LockEvent {
            lock: std::ptr::from_ref(lock).cast::<()>() as usize,
            op,
            guards: type_name::<T>(),
        }
    }
}

/// A thread's observer of its own lock operations. It runs on the
/// operating thread, before an acquire takes the lock and after a
/// release has given it up, and may block that thread.
pub type Hook = fn(LockEvent);

thread_local! {
    static HOOK: Cell<Option<Hook>> = const { Cell::new(None) };
}

/// Installs `hook` on the calling thread (`None` removes it) and
/// returns the one it replaces. Other threads are unaffected.
pub fn set_hook(hook: Option<Hook>) -> Option<Hook> {
    HOOK.replace(hook)
}

#[inline]
fn report(event: LockEvent) {
    if let Some(hook) = HOOK.get() {
        hook(event);
    }
}

/// Reports its release when dropped. Each guard declares it after the
/// `std` guard, and fields drop in declaration order, so the report
/// comes once the lock is free.
#[derive(Debug)]
struct Release(LockEvent);

impl Drop for Release {
    fn drop(&mut self) {
        report(self.0);
    }
}

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
        report(LockEvent::new::<_, T>(self, LockOp::Lock));
        MutexGuard {
            inner: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            _release: Release(LockEvent::new::<_, T>(self, LockOp::Unlock)),
        }
    }
}

/// Holds a [`Mutex`]; dropping it releases the lock.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
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
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        report(LockEvent::new::<_, T>(self, LockOp::Read));
        RwLockReadGuard {
            inner: self.0.read().unwrap_or_else(PoisonError::into_inner),
            _release: Release(LockEvent::new::<_, T>(self, LockOp::Unread)),
        }
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        report(LockEvent::new::<_, T>(self, LockOp::Write));
        RwLockWriteGuard {
            inner: self.0.write().unwrap_or_else(PoisonError::into_inner),
            _release: Release(LockEvent::new::<_, T>(self, LockOp::Unwrite)),
        }
    }

    /// Direct access through exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared hold of a [`RwLock`]; dropping it releases the hold.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive hold of a [`RwLock`]; dropping it releases the lock.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _release: Release,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenCell;
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Arc;

    thread_local! {
        static SEEN: RefCell<Vec<(usize, LockOp)>> = const { RefCell::new(Vec::new()) };
    }

    fn record(event: LockEvent) {
        SEEN.with_borrow_mut(|seen| seen.push((event.lock, event.op)));
    }

    fn addr<L>(lock: &L) -> usize {
        std::ptr::from_ref(lock).cast::<()>() as usize
    }

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

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the hook must be installed on a thread other than the one taking the locks"
    )]
    fn a_thread_without_a_hook_reports_to_no_hook() {
        let (m, rw) = (Mutex::new(0u8), RwLock::new(0u8));
        let cell = GenCell::new(Arc::new(0u8));
        std::thread::scope(|s| {
            let (installed, done) = (
                std::sync::mpsc::channel::<()>(),
                std::sync::mpsc::channel::<()>(),
            );
            let hooked = s.spawn(move || {
                set_hook(Some(record));
                installed.0.send(()).ok();
                done.1.recv().ok();
                SEEN.with_borrow(Vec::len)
            });
            installed.1.recv().ok();
            *m.lock() += 1;
            *rw.write() += 1;
            let _ = *rw.read();
            cell.store(cell.load());
            done.0.send(()).ok();
            assert_eq!(hooked.join().ok(), Some(0), "the hooked thread saw nothing");
        });
        assert!(SEEN.with_borrow(Vec::is_empty), "this thread has no hook");
    }

    #[test]
    fn a_hooked_thread_reports_every_acquire_then_release_in_program_order() {
        let (m, rw) = (Mutex::new(0u8), RwLock::new(0u8));
        let cell = GenCell::new(Arc::new(0u8));
        assert!(set_hook(Some(record)).is_none());
        *m.lock() += 1;
        let _ = *rw.read();
        *rw.write() += 1;
        let generation = cell.load();
        cell.store(generation);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = m.lock();
            panic::resume_unwind(Box::new("dies holding the mutex"));
        }));
        assert!(unwound.is_err());
        assert!(set_hook(None).is_some());
        *m.lock() += 1; // no longer reported
        let (m, rw) = (addr(&m), addr(&rw));
        let seen = SEEN.with_borrow(Clone::clone);
        let gen_lock = seen[6].0;
        assert_ne!(gen_lock, rw, "the cell's lock is its own");
        use LockOp::*;
        assert_eq!(
            seen,
            [
                (m, Lock),
                (m, Unlock),
                (rw, Read),
                (rw, Unread),
                (rw, Write),
                (rw, Unwrite),
                (gen_lock, Read),
                (gen_lock, Unread),
                (gen_lock, Write),
                (gen_lock, Unwrite),
                (m, Lock),
                (m, Unlock),
            ]
        );
    }
}
