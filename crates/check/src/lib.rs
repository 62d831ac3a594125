//! `tvdp-check`: a deterministic, exhaustive-interleaving model
//! checker for TVDP's concurrency protocols.
//!
//! Loom-in-spirit but hand-rolled to honor the workspace invariants
//! (no wall-clock, no ambient randomness, no extra dependencies): a
//! model is a plain closure that builds [`shim`] primitives, spawns
//! model threads with [`spawn`], and asserts its invariants inline or
//! in a [`finally`] postcondition. [`Checker::check`] then runs the
//! model under *every* interleaving of its primitive operations
//! (optionally bounded by preemption count), pruning revisited states
//! by hash, and reports either exhaustion or a counterexample trace.
//!
//! The five protocol models under [`models`] are the reason this crate
//! exists: GenCell publish/read, shard append/seal vs scatter/gather
//! readers, WAL journal-before-apply, the edge circuit breaker, and
//! admission control.
//! Each ships with deliberately broken mutant variants proving the
//! checker actually distinguishes correct protocols from subtly wrong
//! ones — see `tests/protocols.rs`.

mod exec;
pub mod models;
pub mod shim;

pub use exec::{finally, spawn, Checker, CheckerConfig, Report, Violation};

#[cfg(test)]
mod tests {
    use super::*;

    /// Two unsynchronized read-modify-write-as-two-ops increments on a
    /// counter: the textbook lost update. The checker must find it.
    fn lost_update_model() {
        let c = shim::Atomic::new("counter", 0u32);
        for _ in 0..2 {
            let c = c.clone();
            spawn(move || {
                let v = c.load();
                c.store(v + 1);
            });
        }
        let c2 = c.clone();
        finally(move || {
            assert_eq!(c2.load(), 2, "increment lost");
        });
    }

    /// Same counter, but incremented with an indivisible rmw: correct
    /// under every schedule.
    fn rmw_model() {
        let c = shim::Atomic::new("counter", 0u32);
        for _ in 0..2 {
            let c = c.clone();
            spawn(move || {
                c.rmw(|v| v + 1);
            });
        }
        let c2 = c.clone();
        finally(move || {
            assert_eq!(c2.load(), 2, "increment lost");
        });
    }

    #[test]
    fn finds_lost_update() {
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(lost_update_model);
        let v = report.violation.expect("lost update must be found");
        assert!(v.message.contains("increment lost"), "got: {}", v.message);
        assert!(!v.trace.is_empty(), "counterexample must carry a trace");
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
        // load and store, so the bounded search must come up empty.
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
    fn pruning_reduces_schedules_with_same_verdict() {
        let mut full = Checker::new(CheckerConfig {
            prune_states: false,
            ..CheckerConfig::default()
        });
        let unpruned = full.check(rmw_model);
        let mut pruned = Checker::new(CheckerConfig::default());
        let with_pruning = pruned.check(rmw_model);
        assert!(unpruned.passed() && with_pruning.passed());
        assert!(
            with_pruning.schedules <= unpruned.schedules,
            "pruning must not expand the search: {} > {}",
            with_pruning.schedules,
            unpruned.schedules
        );
        assert!(
            with_pruning.pruned > 0,
            "model revisits states; some must prune"
        );
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            let mut ck = Checker::new(CheckerConfig::default());
            let r = ck.check(lost_update_model);
            (r.schedules, r.violation.map(|v| (v.message, v.trace)))
        };
        assert_eq!(run(), run(), "same model, same config => same exploration");
    }

    #[test]
    fn deadlock_is_reported() {
        // Classic ABBA deadlock across two mutexes.
        let model = || {
            let a = shim::Mutex::new("a", 0u8);
            let b = shim::Mutex::new("b", 0u8);
            {
                let (a, b) = (a.clone(), b.clone());
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
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
    }

    #[test]
    fn rwlock_writer_excludes_readers() {
        // A writer publishes two fields together under the write lock;
        // readers must never see them out of sync.
        let model = || {
            let cell = shim::RwLock::new("cell", (0u32, 0u32));
            {
                let cell = cell.clone();
                spawn(move || {
                    let mut g = cell.write();
                    g.0 = 7;
                    g.1 = 7;
                });
            }
            let cell2 = cell.clone();
            spawn(move || {
                let g = cell2.read();
                assert_eq!(g.0, g.1, "torn read through RwLock");
            });
        };
        let mut ck = Checker::new(CheckerConfig::default());
        let report = ck.check(model);
        assert!(report.passed(), "violation: {:?}", report.violation);
    }
}
