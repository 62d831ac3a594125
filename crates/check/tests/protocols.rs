//! Model-check TVDP's five load-bearing concurrency protocols, and
//! prove the checker has teeth by asserting it catches a deliberately
//! broken mutant of each.
//!
//! Correct models must pass with `complete == true` — the (bounded)
//! interleaving space was explored to exhaustion, not sampled. Mutant
//! models must produce a counterexample carrying a non-empty schedule
//! trace.

use tvdp_check::{models, Checker, CheckerConfig, Report};

fn explore(model: fn(), preemption_bound: Option<usize>) -> Report {
    let mut checker = Checker::new(CheckerConfig {
        preemption_bound,
        ..CheckerConfig::default()
    });
    checker.check(model)
}

fn assert_exhaustively_correct(report: &Report, what: &str) {
    assert!(
        report.complete,
        "{what}: exploration did not finish (schedules: {})",
        report.schedules
    );
    if let Some(v) = &report.violation {
        panic!(
            "{what}: unexpected counterexample: {}\ntrace:\n  {}",
            v.message,
            v.trace.join("\n  ")
        );
    }
    assert!(
        report.schedules > 1,
        "{what}: a one-schedule exploration checked nothing concurrent"
    );
}

fn assert_mutant_caught(report: &Report, what: &str, expect_in_message: &str) {
    let v = report.violation.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: mutant not caught in {} schedules",
            report.schedules
        )
    });
    assert!(
        v.message.contains(expect_in_message),
        "{what}: wrong violation; expected {expect_in_message:?} in message, got: {}",
        v.message
    );
    assert!(
        !v.trace.is_empty(),
        "{what}: counterexample must carry the failing schedule trace"
    );
}

// --- Protocol 1: GenCell publish/read -------------------------------

#[test]
fn gencell_publish_read_has_no_torn_generations() {
    let report = explore(models::gencell::correct, None);
    assert_exhaustively_correct(&report, "gencell correct (unbounded)");
}

#[test]
fn gencell_mutant_two_atomic_publish_is_caught() {
    let report = explore(models::gencell::mutant_torn_publish, None);
    assert_mutant_caught(&report, "gencell torn-publish mutant", "torn generation");
}

// --- Protocol 2: shard append+seal vs scatter/gather readers --------

#[test]
fn shard_seal_publish_is_linearizable() {
    let report = explore(models::shard::correct, None);
    assert_exhaustively_correct(&report, "shard correct (unbounded)");
}

#[test]
fn shard_mutant_publish_outside_lock_is_caught() {
    let report = explore(models::shard::mutant_publish_outside_lock, None);
    assert_mutant_caught(
        &report,
        "shard publish-outside-lock mutant",
        "final snapshot must hold both rows",
    );
}

#[test]
fn shard_mutant_seal_losing_tail_is_caught() {
    let report = explore(models::shard::mutant_seal_loses_tail, None);
    assert_mutant_caught(
        &report,
        "shard seal-loses-tail mutant",
        "final snapshot must hold both rows",
    );
}

// --- Protocol 3: WAL journal-before-apply ---------------------------

#[test]
fn wal_acked_records_are_always_recoverable() {
    let report = explore(models::wal::correct, None);
    assert_exhaustively_correct(&report, "wal correct (unbounded)");
}

#[test]
fn wal_mutant_apply_before_journal_is_caught() {
    let report = explore(models::wal::mutant_apply_before_journal, None);
    assert_mutant_caught(
        &report,
        "wal apply-before-journal mutant",
        "acked but not journaled",
    );
}

// --- Protocol 4: circuit-breaker transitions ------------------------

#[test]
fn breaker_loses_no_transitions_under_concurrent_probes() {
    let report = explore(models::breaker::correct, None);
    assert_exhaustively_correct(&report, "breaker correct (unbounded)");
}

#[test]
fn breaker_half_open_probes_resolve_legally() {
    let report = explore(models::breaker::correct_half_open_probe, None);
    assert_exhaustively_correct(&report, "breaker half-open correct (unbounded)");
}

#[test]
fn breaker_mutant_racy_read_modify_write_is_caught() {
    let report = explore(models::breaker::mutant_racy_read_modify_write, None);
    assert_mutant_caught(&report, "breaker racy-rmw mutant", "a transition was lost");
}

// --- Protocol 5: admission control (no ack after shed) --------------

#[test]
fn admission_never_acks_a_shed_request() {
    let report = explore(models::admission::correct, None);
    assert_exhaustively_correct(&report, "admission correct (unbounded)");
}

#[test]
fn admission_mutant_ack_after_shed_is_caught() {
    let report = explore(models::admission::mutant_ack_after_shed, None);
    assert_mutant_caught(
        &report,
        "admission ack-after-shed mutant",
        "acked without admission",
    );
}

// --- Bounded-preemption sanity --------------------------------------

#[test]
fn bounded_preemption_still_catches_every_mutant() {
    // Two preemptions are enough for each protocol bug — the bound the
    // CI suite would fall back to if a future model's unbounded space
    // grows too large.
    let bound = Some(2);
    assert_mutant_caught(
        &explore(models::gencell::mutant_torn_publish, bound),
        "gencell mutant at bound 2",
        "torn generation",
    );
    assert_mutant_caught(
        &explore(models::shard::mutant_publish_outside_lock, bound),
        "shard mutant at bound 2",
        "final snapshot must hold both rows",
    );
    assert_mutant_caught(
        &explore(models::wal::mutant_apply_before_journal, bound),
        "wal mutant at bound 2",
        "acked but not journaled",
    );
    assert_mutant_caught(
        &explore(models::breaker::mutant_racy_read_modify_write, bound),
        "breaker mutant at bound 2",
        "a transition was lost",
    );
    assert_mutant_caught(
        &explore(models::admission::mutant_ack_after_shed, bound),
        "admission mutant at bound 2",
        "acked without admission",
    );
}
