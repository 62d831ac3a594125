//! Schedulable stand-ins for the synchronization primitives the
//! workspace builds on.
//!
//! Each shim wraps its value in an `Arc<Mutex<T>>` so the
//! *data* access is always race-free; what the model checker explores
//! is the *ordering* of accesses. Every operation announces itself to
//! the scheduler ([`crate::exec`]) and parks until granted, so a model
//! built from these types has exactly one schedulable point per
//! primitive operation — the granularity at which real-world atomics
//! and lock acquisitions interleave.
//!
//! Lock guards hold a **local clone** of the protected value and write
//! it back on release. Between acquire and release the scheduler marks
//! the object held, so no other model thread can observe the stale
//! shared copy — the clone is invisible to the model. This sidesteps
//! self-referential guard lifetimes without any `unsafe`.
//!
//! Outside a checker run (plain unit tests, setup/`finally` closures)
//! every operation degrades to a direct, unscheduled access, so model
//! fixtures stay debuggable with ordinary `cargo test` tooling.

#![expect(
    clippy::disallowed_types,
    reason = "L3 owner: a shim's value lives in a `std::sync::Mutex` so data access stays race-free while the scheduler orders it"
)]

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Shared storage for a shim value. Poisoning is recovered: model
/// threads panic by design (assertion = counterexample) and the data
/// mutex is only ever held for a clone or a write-back.
#[derive(Debug)]
struct Cell<T>(std::sync::Mutex<T>);

impl<T> Cell<T> {
    fn new(value: T) -> Cell<T> {
        Cell(std::sync::Mutex::new(value))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

use crate::exec::{hash_of, Hooks, Inner, ObjId, ObjKind, Op, OpKind};

/// Bounds every shim-wrapped value must satisfy: clonable (guards copy
/// in/out), hashable (state pruning), and sendable across the model's
/// threads.
pub trait Value: Clone + Hash + Debug + Send + 'static {}
impl<T: Clone + Hash + Debug + Send + 'static> Value for T {}

/// Registration handle shared by all shim types.
#[derive(Clone)]
struct Reg {
    inner: Option<(Arc<Inner>, ObjId)>,
    name: &'static str,
}

impl Reg {
    fn new(name: &'static str, kind: ObjKind, value_hash: u64) -> Reg {
        Reg {
            inner: Hooks::register(name, kind, value_hash),
            name,
        }
    }

    fn schedule(&self, kind: OpKind, verb: &str) {
        if let Some((inner, id)) = &self.inner {
            let desc = format!("{verb}({})", self.name);
            Hooks::schedule(
                inner,
                Op {
                    kind,
                    obj: Some(*id),
                },
                &desc,
            );
        }
    }

    fn record(&self, observed: u64, new_value: u64) {
        if let Some((inner, id)) = &self.inner {
            Hooks::record(inner, Some(*id), observed, new_value);
        }
    }
}

/// A model atomic cell: every `load`/`store`/`rmw` is one schedulable
/// point, and read-modify-write is indivisible (matching the hardware
/// primitive the real code's `AtomicUsize`/`GenCell` swaps rely on).
#[derive(Clone)]
pub struct Atomic<T: Value> {
    data: Arc<Cell<T>>,
    reg: Reg,
}

impl<T: Value> Atomic<T> {
    /// Creates (and, inside a checker run, registers) an atomic cell.
    /// Must be called during model setup, never from a model thread.
    pub fn new(name: &'static str, value: T) -> Atomic<T> {
        let h = hash_of(&value);
        Atomic {
            data: Arc::new(Cell::new(value)),
            reg: Reg::new(name, ObjKind::Atomic, h),
        }
    }

    /// Atomic read.
    pub fn load(&self) -> T {
        self.reg.schedule(OpKind::AtomicLoad, "load");
        let v = self.data.lock().clone();
        let h = hash_of(&v);
        self.reg.record(h, h);
        v
    }

    /// Atomic overwrite.
    pub fn store(&self, value: T) {
        self.reg.schedule(OpKind::AtomicStore, "store");
        let h = hash_of(&value);
        *self.data.lock() = value;
        self.reg.record(0, h);
    }

    /// Indivisible read-modify-write; returns the previous value.
    pub fn rmw<F: FnOnce(&T) -> T>(&self, f: F) -> T {
        self.reg.schedule(OpKind::AtomicRmw, "rmw");
        let mut d = self.data.lock();
        let old = d.clone();
        let new = f(&old);
        let hn = hash_of(&new);
        *d = new;
        drop(d);
        self.reg.record(hash_of(&old), hn);
        old
    }
}

/// A model mutex. `lock` is a schedulable point that blocks while the
/// mutex is held elsewhere; releasing (guard drop) is a second
/// schedulable point, mirroring the two ordering edges of a real lock.
#[derive(Clone)]
pub struct Mutex<T: Value> {
    data: Arc<Cell<T>>,
    reg: Reg,
}

impl<T: Value> Mutex<T> {
    /// Creates (and registers) a model mutex during setup.
    pub fn new(name: &'static str, value: T) -> Mutex<T> {
        let h = hash_of(&value);
        Mutex {
            data: Arc::new(Cell::new(value)),
            reg: Reg::new(name, ObjKind::Mutex, h),
        }
    }

    /// Acquires the mutex, parking this model thread until the
    /// scheduler finds a schedule where it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.reg.schedule(OpKind::MutexLock, "lock");
        let local = self.data.lock().clone();
        let h = hash_of(&local);
        self.reg.record(h, h);
        MutexGuard {
            owner: self,
            local: Some(local),
        }
    }
}

/// Exclusive guard for [`Mutex`]; writes the (possibly mutated) local
/// copy back at release.
pub struct MutexGuard<'a, T: Value> {
    owner: &'a Mutex<T>,
    local: Option<T>,
}

impl<T: Value> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[expect(
        clippy::expect_used,
        reason = "local is Some from lock() until drop(); Deref after drop is unreachable"
    )]
    fn deref(&self) -> &T {
        self.local.as_ref().expect("guard value present until drop")
    }
}

impl<T: Value> DerefMut for MutexGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "local is Some from lock() until drop(); Deref after drop is unreachable"
    )]
    fn deref_mut(&mut self) -> &mut T {
        self.local.as_mut().expect("guard value present until drop")
    }
}

impl<T: Value> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let Some(local) = self.local.take() else {
            return;
        };
        let h = hash_of(&local);
        *self.owner.data.lock() = local;
        // During a panic unwind `schedule` is a no-op (the scheduler
        // observes the thread finishing instead), so the write-back
        // above is best-effort and the abort path stays deadlock-free.
        self.owner.reg.schedule(OpKind::MutexUnlock, "unlock");
        self.owner.reg.record(0, h);
    }
}

/// A model reader-writer lock with writer-exclusion semantics matching
/// `std::sync::RwLock` as `GenCell` uses it: readers share, a writer
/// waits for exclusivity.
#[derive(Clone)]
pub struct RwLock<T: Value> {
    data: Arc<Cell<T>>,
    reg: Reg,
}

impl<T: Value> RwLock<T> {
    /// Creates (and registers) a model rwlock during setup.
    pub fn new(name: &'static str, value: T) -> RwLock<T> {
        let h = hash_of(&value);
        RwLock {
            data: Arc::new(Cell::new(value)),
            reg: Reg::new(name, ObjKind::RwLock, h),
        }
    }

    /// Acquires a shared read guard (blocks while a writer holds the
    /// lock).
    pub fn read(&self) -> RwReadGuard<'_, T> {
        self.reg.schedule(OpKind::RwRead, "read");
        let local = self.data.lock().clone();
        let h = hash_of(&local);
        self.reg.record(h, h);
        RwReadGuard {
            owner: self,
            local,
            released: false,
        }
    }

    /// Acquires the exclusive write guard (blocks while any reader or
    /// writer holds the lock).
    pub fn write(&self) -> RwWriteGuard<'_, T> {
        self.reg.schedule(OpKind::RwWrite, "write");
        let local = self.data.lock().clone();
        let h = hash_of(&local);
        self.reg.record(h, h);
        RwWriteGuard {
            owner: self,
            local: Some(local),
        }
    }
}

/// Shared guard for [`RwLock`]; read-only view of the value as of
/// acquisition.
pub struct RwReadGuard<'a, T: Value> {
    owner: &'a RwLock<T>,
    local: T,
    released: bool,
}

impl<T: Value> Deref for RwReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.local
    }
}

impl<T: Value> Drop for RwReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        self.owner.reg.schedule(OpKind::RwUnlockRead, "unread");
    }
}

/// Exclusive guard for [`RwLock`]; writes the local copy back at
/// release.
pub struct RwWriteGuard<'a, T: Value> {
    owner: &'a RwLock<T>,
    local: Option<T>,
}

impl<T: Value> Deref for RwWriteGuard<'_, T> {
    type Target = T;
    #[expect(
        clippy::expect_used,
        reason = "local is Some from write() until drop(); Deref after drop is unreachable"
    )]
    fn deref(&self) -> &T {
        self.local.as_ref().expect("guard value present until drop")
    }
}

impl<T: Value> DerefMut for RwWriteGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "local is Some from write() until drop(); Deref after drop is unreachable"
    )]
    fn deref_mut(&mut self) -> &mut T {
        self.local.as_mut().expect("guard value present until drop")
    }
}

impl<T: Value> Drop for RwWriteGuard<'_, T> {
    fn drop(&mut self) {
        let Some(local) = self.local.take() else {
            return;
        };
        let h = hash_of(&local);
        *self.owner.data.lock() = local;
        self.owner.reg.schedule(OpKind::RwUnlockWrite, "unwrite");
        self.owner.reg.record(0, h);
    }
}
