//! Model-check TVDP's load-bearing concurrency protocols on the code
//! that ships, and prove the checker has teeth by asserting it catches
//! a deliberately broken model of each bug class.
//!
//! Every scenario below builds shipped types — `GenCell`,
//! `ShardedEngine`, `DurableStore`, `AdmissionController`,
//! `CircuitBreaker` behind a `sync::Mutex` — and the checker schedules
//! their own locks. A scenario must pass with `complete == true` (the
//! bounded interleaving space was explored to exhaustion, not sampled)
//! after more than one schedule, with the shipped locks in its trace.
//! A mutant must produce a counterexample carrying its schedule trace.

use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tvdp_check::{finally, spawn, Checker, CheckerConfig, Report};
use tvdp_core::{AdmissionConfig, AdmissionController, RequestClass};
use tvdp_edge::{BreakerConfig, BreakerState, CircuitBreaker};
use tvdp_geo::GeoPoint;
use tvdp_kernel::sync::Mutex;
use tvdp_kernel::{GenCell, Pool};
use tvdp_query::{EngineConfig, Query, ShardedEngine, TemporalField};
use tvdp_storage::{
    wal, DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp,
};

fn explore(model: impl Fn(), preemption_bound: Option<usize>) -> Report {
    let mut checker = Checker::new(CheckerConfig {
        preemption_bound,
        ..CheckerConfig::default()
    });
    checker.check(model)
}

/// Passes `report` as an exhaustive, violation-free exploration of more
/// than one schedule whose trace names each of `locks`.
fn assert_exhaustively_correct(report: &Report, what: &str, locks: &[&str]) {
    if let Some(v) = &report.violation {
        panic!(
            "{what}: unexpected counterexample: {v}\ntrace:\n  {}",
            report.trace.join("\n  ")
        );
    }
    assert!(
        report.complete,
        "{what}: exploration did not finish (schedules: {})",
        report.schedules
    );
    assert!(
        report.schedules > 1,
        "{what}: a one-schedule exploration checked nothing concurrent"
    );
    for lock in locks {
        assert!(
            report.trace.iter().any(|line| line.contains(lock)),
            "{what}: no operation on {lock} in the trace:\n  {}",
            report.trace.join("\n  ")
        );
    }
}

fn assert_mutant_caught(report: &Report, what: &str, expect_in_message: &str) {
    let v = report.violation.as_ref().unwrap_or_else(|| {
        panic!(
            "{what}: mutant not caught in {} schedules",
            report.schedules
        )
    });
    assert!(
        v.contains(expect_in_message),
        "{what}: wrong violation; expected {expect_in_message:?} in message, got: {v}"
    );
    assert!(
        !report.trace.is_empty(),
        "{what}: counterexample must carry the failing schedule trace"
    );
}

// --- Protocol 1: GenCell publish/read -------------------------------

/// Generations the writer publishes (generation 0 is the initial one).
const GENERATIONS: u32 = 2;

/// A writer publishes `(segments, tail)` pairs through one `GenCell`
/// while a reader loads twice: every load is one whole generation, and
/// generations never go backwards.
fn gencell_scenario() {
    let cell = Arc::new(GenCell::new(Arc::new((0u32, 0u32))));
    {
        let cell = Arc::clone(&cell);
        spawn(move || {
            for g in 1..=GENERATIONS {
                cell.store(Arc::new((g, g)));
            }
        });
    }
    {
        let cell = Arc::clone(&cell);
        spawn(move || {
            let mut last = 0u32;
            for _ in 0..2 {
                let (seg, tail) = *cell.load();
                assert_eq!(seg, tail, "torn generation: segments {seg} vs tail {tail}");
                assert!(seg >= last, "generation went backwards: {seg} after {last}");
                last = seg;
            }
        });
    }
    finally(move || {
        assert_eq!(
            *cell.load(),
            (GENERATIONS, GENERATIONS),
            "final generation incomplete"
        );
    });
}

/// Mutant: segments and tail published through two cells, the bug one
/// `GenCell` per generation exists to prevent. A reader between the two
/// stores sees a torn generation.
fn gencell_mutant_torn_publish() {
    let segments = Arc::new(GenCell::new(Arc::new(0u32)));
    let tail = Arc::new(GenCell::new(Arc::new(0u32)));
    {
        let (segments, tail) = (Arc::clone(&segments), Arc::clone(&tail));
        spawn(move || {
            for g in 1..=GENERATIONS {
                segments.store(Arc::new(g));
                tail.store(Arc::new(g));
            }
        });
    }
    spawn(move || {
        for _ in 0..2 {
            let (seg, t) = (*segments.load(), *tail.load());
            assert_eq!(seg, t, "torn generation: segments {seg} vs tail {t}");
        }
    });
}

#[test]
fn gencell_publish_read_has_no_torn_generations() {
    let report = explore(gencell_scenario, None);
    assert_exhaustively_correct(&report, "GenCell (unbounded)", &["RwLock<Arc<(u32, u32)>>"]);
}

#[test]
fn gencell_mutant_two_atomic_publish_is_caught() {
    let report = explore(gencell_mutant_torn_publish, None);
    assert_mutant_caught(&report, "gencell torn-publish mutant", "torn generation");
}

// --- Protocol 2: the engine's one writer vs scatter/gather readers ---

/// A metadata-only row at `id`.
fn row(id: ImageId) -> WalOp {
    WalOp::AddImage {
        id,
        meta: ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0, -118.25),
            fov: None,
            captured_at: 100 + id.0 as i64,
            uploaded_at: 110,
            keywords: Vec::new(),
        },
        origin: ImageOrigin::Original,
        pixels: None,
    }
}

/// Every indexed row, through the shipped read path.
fn indexed_rows(engine: &ShardedEngine) -> Vec<u64> {
    let everything = Query::Temporal {
        field: TemporalField::Captured,
        from: i64::MIN,
        to: i64::MAX,
    };
    let rows = engine
        .try_execute_with_pool(&everything, &Pool::serial())
        .expect("a temporal query is always admitted");
    rows.iter().map(|r| r.image.0).collect()
}

/// Two writers `index_image` one stored row each into an engine that
/// seals at `seal_cap`, while a reader queries twice. On a serial pool
/// every lock operation is a model thread's. Each answer holds known
/// rows at most once, an answered row stays answered, and once both
/// writers return the engine answers both rows.
fn shard_scenario(seal_cap: usize) {
    let store = Arc::new(VisualStore::new());
    let engine = Arc::new(ShardedEngine::with_seal_cap_with_pool(
        vec![Arc::clone(&store)],
        EngineConfig::default(),
        seal_cap,
        &Pool::serial(),
    ));
    store
        .apply_batch(vec![row(ImageId(0)), row(ImageId(1))])
        .expect("two fresh rows");
    for id in 0..2 {
        let engine = Arc::clone(&engine);
        spawn(move || engine.index_image(0, ImageId(id)));
    }
    {
        let engine = Arc::clone(&engine);
        spawn(move || {
            let first = indexed_rows(&engine);
            let second = indexed_rows(&engine);
            for answer in [&first, &second] {
                let mut unique = answer.clone();
                unique.dedup();
                assert_eq!(&unique, answer, "duplicated row in {answer:?}");
                assert!(answer.iter().all(|&r| r < 2), "unknown row in {answer:?}");
            }
            for r in &first {
                assert!(
                    second.contains(r),
                    "row {r} un-published: saw {first:?} then {second:?}"
                );
            }
        });
    }
    finally(move || {
        assert_eq!(indexed_rows(&engine), [0, 1], "both rows indexed");
        assert_eq!(engine.len(), 2);
    });
}

/// Writer state of the shard mutants: the tail and sealed segments.
#[derive(Clone, Debug, Default)]
struct Writer {
    pending: Vec<u32>,
    segments: Vec<Vec<u32>>,
}

/// Two writers append one row each under the writer mutex, seal at two
/// rows and publish `(segments, tail)` through a `GenCell` — with the
/// bug `publish_outside_lock` or `seal_loses_tail` switches on.
fn shard_mutant(publish_outside_lock: bool, seal_loses_tail: bool) {
    let writer = Arc::new(Mutex::new(Writer::default()));
    let published = Arc::new(GenCell::new(Arc::new(Writer::default())));
    for row in 1..=2u32 {
        let (writer, published) = (Arc::clone(&writer), Arc::clone(&published));
        spawn(move || {
            let mut w = writer.lock();
            w.pending.push(row);
            if w.pending.len() >= 2 {
                if seal_loses_tail {
                    w.pending.clear(); // BUG: rows gone before the copy
                }
                let sealed = std::mem::take(&mut w.pending);
                w.segments.push(sealed);
            }
            let snapshot = Arc::new(w.clone());
            if publish_outside_lock {
                drop(w); // BUG: lock released before the publish
            }
            published.store(snapshot);
        });
    }
    finally(move || {
        let snapshot = published.load();
        let mut rows: Vec<u32> = snapshot.segments.concat();
        rows.extend(&snapshot.pending);
        rows.sort_unstable();
        assert_eq!(rows, [1, 2], "final snapshot must hold both rows");
    });
}

/// Unbounded, the two writers and the reader make over 30,000
/// schedules; two preemptions make 1,698 at seal cap 1 and 1,802 at 2.
fn assert_shard_scenario_correct(seal_cap: usize) {
    let report = explore(|| shard_scenario(seal_cap), Some(2));
    assert_exhaustively_correct(
        &report,
        &format!("ShardedEngine at seal cap {seal_cap} (bound 2)"),
        &[
            "Mutex<WriterState>",
            "RwLock<Arc<Generation>>",
            "RwLock<Tables>",
        ],
    );
}

#[test]
fn shard_seal_publish_is_linearizable() {
    assert_shard_scenario_correct(1);
}

#[test]
fn shard_seal_publish_is_linearizable_when_every_other_index_seals() {
    assert_shard_scenario_correct(2);
}

#[test]
fn shard_mutant_publish_outside_lock_is_caught() {
    let report = explore(|| shard_mutant(true, false), None);
    assert_mutant_caught(
        &report,
        "shard publish-outside-lock mutant",
        "final snapshot must hold both rows",
    );
}

#[test]
fn shard_mutant_seal_losing_tail_is_caught() {
    let report = explore(|| shard_mutant(false, true), None);
    assert_mutant_caught(
        &report,
        "shard seal-loses-tail mutant",
        "final snapshot must hold both rows",
    );
}

// --- Protocol 3: WAL journal-before-apply ---------------------------

/// A store directory under the temp dir, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tvdp-check-durable-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The image ids the journal file holds, read from disk.
fn journaled(dir: &ScratchDir) -> Vec<u64> {
    let path = dir.0.join("wal-0.log");
    let file = File::open(&path).expect("the live journal");
    wal::scan(&path, file)
        .expect("a v3 segment")
        .map(|op| match op.expect("an intact record") {
            WalOp::AddImage { id, .. } => id.0,
            other => panic!("unexpected record {other:?}"),
        })
        .collect()
}

/// A writer commits two rows through `DurableStore::apply_batch` while
/// an observer reads the store and then the journal file: a row the
/// store shows is already in the journal (the journal only grows, so
/// that read order is sound).
fn durable_scenario() {
    let dir = Arc::new(ScratchDir::new());
    let (durable, _) = DurableStore::open(&dir.0).expect("a fresh store directory");
    let store = durable.store_arc();
    spawn(move || {
        for id in 0..2 {
            durable
                .apply_batch(vec![row(ImageId(id))])
                .expect("a valid row");
        }
    });
    {
        let dir = Arc::clone(&dir);
        spawn(move || {
            let applied = store.len() as u64; // rows arrive in id order
            let journal = journaled(&dir);
            for id in 0..applied {
                assert!(
                    journal.contains(&id),
                    "row {id} applied but not journaled: journal {journal:?}"
                );
            }
        });
    }
    finally(move || {
        assert_eq!(journaled(&dir), [0, 1], "both commits journaled");
    });
}

/// Mutant: apply and ack land before the journal write, the crash
/// window recovery cannot paper over. An observer that reads the acks
/// and then the journal catches it.
fn wal_mutant_apply_before_journal() {
    let journal = Arc::new(Mutex::new(Vec::<u32>::new()));
    let acked = Arc::new(Mutex::new(Vec::<u32>::new()));
    {
        let (journal, acked) = (Arc::clone(&journal), Arc::clone(&acked));
        spawn(move || {
            for r in [7, 8] {
                acked.lock().push(r); // BUG: acked before it is journaled
                journal.lock().push(r);
            }
        });
    }
    spawn(move || {
        let acked = acked.lock().clone();
        let journal = journal.lock().clone();
        for r in &acked {
            assert!(
                journal.contains(r),
                "record {r} acked but not journaled: journal {journal:?}"
            );
        }
    });
}

#[test]
fn wal_acked_records_are_always_recoverable() {
    // Unbounded is 560 schedules, each with its own store directory and
    // four fsyncs (0.33 s); two preemptions make 64.
    let report = explore(durable_scenario, Some(2));
    assert_exhaustively_correct(
        &report,
        "DurableStore::apply_batch (bound 2)",
        &["Mutex<Journal>", "RwLock<Tables>"],
    );
}

#[test]
fn wal_mutant_apply_before_journal_is_caught() {
    let report = explore(wal_mutant_apply_before_journal, None);
    assert_mutant_caught(
        &report,
        "wal apply-before-journal mutant",
        "acked but not journaled",
    );
}

// --- Protocol 4: circuit-breaker transitions ------------------------

/// Two concurrent failing probes against a threshold of two: every
/// schedule must leave the breaker open.
const BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 2,
    cooldown_ms: 1_000,
    probe_successes: 1,
    probe_interval_ms: 0,
};

/// Each probe records its failure inside the breaker's critical
/// section, as `FleetHealth` callers hold `&mut` access for the whole
/// read-modify-write.
fn breaker_scenario() {
    let breaker = Arc::new(Mutex::new(CircuitBreaker::new(BREAKER)));
    for t in 0..2i64 {
        let breaker = Arc::clone(&breaker);
        spawn(move || breaker.lock().record_failure(t));
    }
    finally(move || {
        assert_eq!(
            breaker.lock().state(),
            BreakerState::Open,
            "two failures at threshold two must open the breaker (a transition was lost)"
        );
    });
}

/// An open breaker whose cooldown elapsed admits one probe; a
/// concurrent success and failure leave it open or closed, never in
/// between.
fn breaker_half_open_scenario() {
    let mut start = CircuitBreaker::new(BREAKER);
    start.record_failure(0);
    start.record_failure(1); // open until 1_001 virtual ms
    let breaker = Arc::new(Mutex::new(start));
    for succeed in [true, false] {
        let breaker = Arc::clone(&breaker);
        spawn(move || {
            let mut b = breaker.lock();
            if b.allow(2_000) {
                if succeed {
                    b.record_success(2_000);
                } else {
                    b.record_failure(2_000);
                }
            }
        });
    }
    finally(move || {
        let state = breaker.lock().state();
        assert!(
            matches!(state, BreakerState::Open | BreakerState::Closed),
            "after a success probe and a failure probe the breaker must \
             have resolved to open or closed, got {state:?}"
        );
    });
}

/// Mutant: clone-mutate-writeback outside one critical section. Two
/// probes start from the same snapshot and one failure is lost.
fn breaker_mutant_racy_read_modify_write() {
    let breaker = Arc::new(Mutex::new(CircuitBreaker::new(BREAKER)));
    for t in 0..2i64 {
        let breaker = Arc::clone(&breaker);
        spawn(move || {
            let mut local = breaker.lock().clone(); // BUG: lock dropped here
            local.record_failure(t);
            *breaker.lock() = local; // last write wins
        });
    }
    finally(move || {
        assert_eq!(
            breaker.lock().state(),
            BreakerState::Open,
            "two failures at threshold two must open the breaker (a transition was lost)"
        );
    });
}

#[test]
fn breaker_loses_no_transitions_under_concurrent_probes() {
    let report = explore(breaker_scenario, None);
    assert_exhaustively_correct(
        &report,
        "CircuitBreaker (unbounded)",
        &["Mutex<CircuitBreaker>"],
    );
}

#[test]
fn breaker_half_open_probes_resolve_legally() {
    let report = explore(breaker_half_open_scenario, None);
    assert_exhaustively_correct(
        &report,
        "CircuitBreaker half-open (unbounded)",
        &["Mutex<CircuitBreaker>"],
    );
}

#[test]
fn breaker_mutant_racy_read_modify_write_is_caught() {
    let report = explore(breaker_mutant_racy_read_modify_write, None);
    assert_mutant_caught(&report, "breaker racy-rmw mutant", "a transition was lost");
}

// --- Protocol 5: admission control (no ack after shed) --------------

/// One unit per virtual ms and a 20 ms query bound: of two concurrent
/// 30-unit requests at time 0 the first admits and the second, queued
/// 30 ms behind it, sheds.
fn controller() -> Arc<AdmissionController> {
    Arc::new(AdmissionController::new(AdmissionConfig {
        capacity_units_per_sec: 1_000,
        query_max_delay_ms: 20,
        ..AdmissionConfig::default()
    }))
}

const COST: u64 = 30;

/// An observer reads the acks and then the controller's admitted count:
/// acks never outnumber admissions (admissions only grow, so that read
/// order is sound).
fn spawn_ack_observer(acked: Arc<Mutex<Vec<u32>>>, gate: Arc<AdmissionController>) {
    spawn(move || {
        let acked = acked.lock().clone();
        let admitted = gate.stats().total.admitted;
        assert!(
            acked.len() as u64 <= admitted,
            "request acked without admission: acked {acked:?}, admitted {admitted}"
        );
    });
}

/// Two requests go through `AdmissionController::admit`, and each is
/// acked only on a ticket.
fn admission_scenario() {
    let gate = controller();
    let acked = Arc::new(Mutex::new(Vec::new()));
    for id in [7, 8] {
        let (gate, acked) = (Arc::clone(&gate), Arc::clone(&acked));
        spawn(move || {
            if gate.admit(RequestClass::Query, COST, 0).is_ok() {
                acked.lock().push(id);
            }
        });
    }
    spawn_ack_observer(Arc::clone(&acked), Arc::clone(&gate));
    finally(move || {
        let stats = gate.stats().total;
        assert_eq!((stats.admitted, stats.shed), (1, 1), "one fits the bound");
        assert_eq!(acked.lock().len(), 1, "exactly the admitted request acked");
    });
}

/// Mutant: ack optimistically, consult the controller second, roll the
/// ack back on shed. An observer between ack and rollback sees a shed
/// request acked.
fn admission_mutant_ack_after_shed() {
    let gate = controller();
    let acked = Arc::new(Mutex::new(Vec::new()));
    for id in [7, 8] {
        let (gate, acked) = (Arc::clone(&gate), Arc::clone(&acked));
        spawn(move || {
            acked.lock().push(id); // BUG: acked before the verdict
            if gate.admit(RequestClass::Query, COST, 0).is_err() {
                acked.lock().retain(|&a| a != id);
            }
        });
    }
    spawn_ack_observer(acked, gate);
}

#[test]
fn admission_never_acks_a_shed_request() {
    // Unbounded is over 30,000 schedules; two preemptions make 562.
    let report = explore(admission_scenario, Some(2));
    assert_exhaustively_correct(
        &report,
        "AdmissionController::admit (bound 2)",
        &["Mutex<AdmState>"],
    );
}

#[test]
fn admission_mutant_ack_after_shed_is_caught() {
    let report = explore(admission_mutant_ack_after_shed, None);
    assert_mutant_caught(
        &report,
        "admission ack-after-shed mutant",
        "acked without admission",
    );
}

// --- Bounded-preemption sanity --------------------------------------

#[test]
fn bounded_preemption_still_catches_every_mutant() {
    // Two preemptions are enough for each protocol bug.
    let bound = Some(2);
    assert_mutant_caught(
        &explore(gencell_mutant_torn_publish, bound),
        "gencell mutant at bound 2",
        "torn generation",
    );
    assert_mutant_caught(
        &explore(|| shard_mutant(true, false), bound),
        "shard publish-outside-lock mutant at bound 2",
        "final snapshot must hold both rows",
    );
    assert_mutant_caught(
        &explore(|| shard_mutant(false, true), bound),
        "shard seal-loses-tail mutant at bound 2",
        "final snapshot must hold both rows",
    );
    assert_mutant_caught(
        &explore(wal_mutant_apply_before_journal, bound),
        "wal mutant at bound 2",
        "acked but not journaled",
    );
    assert_mutant_caught(
        &explore(breaker_mutant_racy_read_modify_write, bound),
        "breaker mutant at bound 2",
        "a transition was lost",
    );
    assert_mutant_caught(
        &explore(admission_mutant_ack_after_shed, bound),
        "admission mutant at bound 2",
        "acked without admission",
    );
}
