//! `tvdp-check`: a deterministic, exhaustive-interleaving model
//! checker for TVDP's concurrency protocols, run on the shipped code.
//!
//! Loom-in-spirit but hand-rolled to honor the workspace invariants
//! (no wall-clock, no ambient randomness, no extra dependencies): a
//! model is a plain closure that builds shipped state, spawns model
//! threads with [`spawn`], and asserts its invariants inline or in a
//! [`finally`] postcondition. Each model thread installs the checker as
//! its `tvdp_kernel::sync` hook, so every lock the workspace takes —
//! `sync::Mutex`, `sync::RwLock` and the lock inside every `GenCell` —
//! is a scheduling point. [`Checker::check`] then runs the model under
//! *every* interleaving of those operations (optionally bounded by
//! preemption count) and reports either exhaustion or a counterexample
//! trace.
//!
//! `tests/protocols.rs` drives the shipped protocols through it:
//! `GenCell` publish/read, `ShardedEngine::index_image` against
//! `try_execute_with_pool`, `DurableStore::apply_batch`'s
//! journal-before-apply, `AdmissionController::admit`, and the edge
//! `CircuitBreaker` behind a `sync::Mutex`. Beside them, one small model
//! per bug class, each a deliberately broken use of the same locks,
//! shows the checker catches what the shipped code avoids.

mod exec;

pub use exec::{finally, spawn, Checker, CheckerConfig, Report};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tvdp_kernel::sync::{Mutex, RwLock};

    /// Two increments that read and write the counter under separate
    /// lock holds: the textbook lost update. The checker must find it.
    fn lost_update_model() {
        let c = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let c = Arc::clone(&c);
            spawn(move || {
                let v = *c.lock();
                *c.lock() = v + 1;
            });
        }
        finally(move || {
            assert_eq!(*c.lock(), 2, "increment lost");
        });
    }

    /// Same counter, incremented under one lock hold: correct under
    /// every schedule.
    fn rmw_model() {
        let c = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let c = Arc::clone(&c);
            spawn(move || {
                *c.lock() += 1;
            });
        }
        finally(move || {
            assert_eq!(*c.lock(), 2, "increment lost");
        });
    }

    #[test]
    fn finds_lost_update() {
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(lost_update_model);
        let v = report.violation.expect("lost update must be found");
        assert!(v.contains("increment lost"), "got: {v}");
        assert!(
            report.trace.iter().any(|l| l.contains("lock(Mutex<u32>)")),
            "the counterexample's trace names the lock: {:?}",
            report.trace
        );
    }

    #[test]
    fn rmw_increment_is_correct_under_all_schedules() {
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(rmw_model);
        assert!(report.passed(), "violation: {:?}", report.violation);
        assert!(report.schedules > 1, "must explore multiple schedules");
    }

    #[test]
    fn zero_preemption_bound_misses_the_race() {
        // With no preemptions allowed, each thread runs to completion
        // once started — the lost update needs one preemption between
        // the read and the write, so the bounded search comes up empty.
        let mut ck = Checker::new(CheckerConfig {
            preemption_bound: Some(0),
            ..CheckerConfig::default()
        });
        let report = ck.check(lost_update_model);
        assert!(
            report.passed(),
            "bound 0 cannot interleave mid-thread: {:?}",
            report.violation
        );
    }

    #[test]
    fn one_preemption_suffices_for_lost_update() {
        let mut ck = Checker::new(CheckerConfig {
            preemption_bound: Some(1),
            ..CheckerConfig::default()
        });
        let report = ck.check(lost_update_model);
        assert!(report.violation.is_some(), "bound 1 must expose the race");
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            let mut ck = Checker::new(CheckerConfig::default());
            let r = ck.check(lost_update_model);
            (r.schedules, r.violation, r.trace)
        };
        assert_eq!(run(), run(), "same model, same config => same exploration");
    }

    #[test]
    fn deadlock_is_reported() {
        // Classic ABBA deadlock across two mutexes.
        let model = || {
            let a = Arc::new(Mutex::new(0u8));
            let b = Arc::new(Mutex::new(0u16));
            {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                });
            }
            spawn(move || {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        };
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(model);
        let v = report.violation.expect("ABBA deadlock must be found");
        assert!(v.contains("deadlock"), "got: {v}");
        assert!(v.contains("blocked on lock(Mutex<u16>)"), "got: {v}");
    }

    #[test]
    fn rwlock_writer_excludes_readers() {
        // A writer publishes two fields together under the write lock;
        // readers must never see them out of sync.
        let model = || {
            let cell = Arc::new(RwLock::new((0u32, 0u32)));
            {
                let cell = Arc::clone(&cell);
                spawn(move || {
                    let mut g = cell.write();
                    g.0 = 7;
                    g.1 = 7;
                });
            }
            spawn(move || {
                let g = cell.read();
                assert_eq!(g.0, g.1, "torn read through RwLock");
            });
        };
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(model);
        assert!(report.passed(), "violation: {:?}", report.violation);
    }
}
