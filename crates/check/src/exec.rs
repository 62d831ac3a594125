//! The deterministic DFS scheduler behind the model checker.
//!
//! One *execution* runs a model program — a setup closure that creates
//! [`crate::shim`] objects and [`spawn`]s threads — under one explicit
//! schedule. Model threads are real OS threads, but they never run
//! freely: every shim operation first *announces* itself and parks
//! until the controller grants it the baton, so exactly one model
//! thread makes progress at any instant and the interleaving is fully
//! determined by the controller's sequence of choices.
//!
//! The controller explores the choice tree depth-first: each execution
//! replays a recorded prefix of decisions and extends it with
//! first-available choices; backtracking flips the last decision that
//! still has an untried alternative. Two knobs bound the walk:
//!
//! * **preemption bounding** — [`CheckerConfig::preemption_bound`]
//!   caps how many times a schedule may switch away from a thread that
//!   could have kept running (context switches forced by blocking are
//!   free). Most protocol bugs show up within two preemptions.
//! * **state-hash pruning** — [`CheckerConfig::prune_states`] hashes
//!   the scheduler-visible state (per-thread progress and observation
//!   history, every shim object's value, remaining preemption budget)
//!   at each new decision point; a revisited state's subtree is
//!   identical to the first visit's, so no alternatives are enqueued.
//!   Sound for deterministic model bodies, which the checker requires.
//!
//! A *violation* is an assertion failure inside a model thread or the
//! `finally` closure, a deadlock (threads alive, none enabled), or a
//! runaway execution (step cap). The first violation stops exploration
//! and is reported with the full per-step trace of its schedule — the
//! counterexample.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "L3 owner: model threads are real OS threads, parked on a `std::sync` condvar until the scheduler grants them the baton"
)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Exploration bounds and toggles.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Maximum number of *preemptive* context switches per schedule
    /// (`None` = unbounded, fully exhaustive). A switch away from a
    /// blocked or finished thread never counts.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules; hitting it marks the report
    /// incomplete rather than running forever.
    pub max_schedules: usize,
    /// Per-execution step cap; exceeding it is reported as a violation
    /// (a model spinning on shared state cannot terminate under an
    /// adversarial schedule).
    pub max_steps: usize,
    /// Collapse decision points whose system state was already visited.
    pub prune_states: bool,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            preemption_bound: None,
            max_schedules: 500_000,
            max_steps: 10_000,
            prune_states: true,
        }
    }
}

/// A counterexample: what went wrong and the schedule that got there.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Assertion message, deadlock description, or step-cap notice.
    pub message: String,
    /// One line per scheduling step of the failing execution, in
    /// order: `t<id>: <operation>(<object>)`.
    pub trace: Vec<String>,
}

/// The outcome of exploring one model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules (executions) actually run.
    pub schedules: usize,
    /// Decision points collapsed by state-hash pruning.
    pub pruned: usize,
    /// `true` when the bounded choice tree was explored to exhaustion
    /// (no violation, no schedule-cap stop).
    pub complete: bool,
    /// The first counterexample found, if any.
    pub violation: Option<Violation>,
}

impl Report {
    /// `true` when exploration finished with no counterexample.
    pub fn passed(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

/// Index of a registered shim object within one execution.
pub(crate) type ObjId = usize;

/// What a parked thread is asking to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Thread start (the first schedulable point of every thread).
    Begin,
    /// `shim::Atomic` load.
    AtomicLoad,
    /// `shim::Atomic` store.
    AtomicStore,
    /// `shim::Atomic` read-modify-write.
    AtomicRmw,
    /// `shim::Mutex` acquire (enabled only while free).
    MutexLock,
    /// `shim::Mutex` release.
    MutexUnlock,
    /// `shim::RwLock` shared acquire (enabled while no writer).
    RwRead,
    /// `shim::RwLock` exclusive acquire (enabled while free).
    RwWrite,
    /// `shim::RwLock` shared release.
    RwUnlockRead,
    /// `shim::RwLock` exclusive release.
    RwUnlockWrite,
}

/// An announced operation: the kind plus its target object.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub kind: OpKind,
    pub obj: Option<ObjId>,
}

/// Kinds of registered shim objects (drives enabledness rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
    RwLock,
}

/// Scheduler-visible state of one shim object.
#[derive(Debug)]
pub(crate) struct ObjState {
    pub name: &'static str,
    /// Mutex held / RwLock writer present.
    pub locked: bool,
    /// RwLock shared holders.
    pub readers: usize,
    /// Hash of the current value (updated by mutating ops).
    pub value_hash: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    /// Announced an op, parked until granted.
    Waiting,
    /// Granted the baton; executing up to its next announce.
    Running,
    /// Body returned (or unwound).
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: ThreadStatus,
    op: Option<Op>,
    ops_done: usize,
    /// Running hash of everything this thread has observed through
    /// shim operations; together with `ops_done` it pins down the
    /// thread's local state (bodies are deterministic).
    obs_hash: u64,
}

/// Which phase of an execution we are in; shim ops only schedule
/// during `Running` (setup and `finally` are single-threaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Setup,
    Running,
    Final,
}

type Body = Box<dyn FnOnce() + Send + 'static>;

/// Everything the controller and the model threads share.
pub(crate) struct Sched {
    pub(crate) phase: Phase,
    threads: Vec<ThreadState>,
    pub(crate) objects: Vec<ObjState>,
    /// Thread currently granted the baton.
    grant: Option<usize>,
    /// Execution is being torn down; parked threads must unwind.
    abort: bool,
    violation: Option<Violation>,
    trace: Vec<String>,
    steps: usize,
    bodies: Vec<Body>,
    finals: Vec<Body>,
}

/// One execution's shared core: the schedule state plus its condvar.
pub(crate) struct Inner {
    pub(crate) m: Mutex<Sched>,
    pub(crate) cv: Condvar,
}

impl Inner {
    /// Locks the schedule state, recovering from poison: model threads
    /// panic *by design* (assertion = counterexample), and the
    /// scheduler state is kept consistent by construction, not by
    /// poisoning.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Condvar wait with the same poison recovery.
    fn wait<'a>(&self, g: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }
}

/// Sentinel panic payload used to unwind parked model threads when an
/// execution aborts; never reported as a violation.
struct AbortExecution;

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static IN_MODEL: Cell<bool> = const { Cell::new(false) };
}

#[derive(Clone)]
struct Ctx {
    inner: Arc<Inner>,
    tid: Option<usize>,
}

/// Install (once per process) a panic hook that keeps intentional
/// model-thread panics — the checker's bread and butter — off stderr.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_MODEL.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Hash any value with the std hasher (fixed-key SipHash: stable
/// within a process, which is all pruning needs).
pub(crate) fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn fnv_fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The current execution context, if this thread is inside a checker
/// run (model threads and the controller during setup/finally).
fn current() -> Option<Ctx> {
    CURRENT.with_borrow(Clone::clone)
}

/// Registers a model thread. Only valid inside the setup closure of
/// [`Checker::check`]; the thread starts running once exploration of
/// the execution begins, under the explored schedule.
///
/// # Panics
///
/// Panics when called outside a checker setup closure.
pub fn spawn<F: FnOnce() + Send + 'static>(body: F) {
    #[expect(
        clippy::panic,
        reason = "documented API misuse panic: spawn outside setup is a programmer error"
    )]
    let Some(ctx) = current() else {
        panic!("tvdp_check::spawn used outside Checker::check setup");
    };
    let mut s = ctx.inner.lock();
    assert!(
        s.phase == Phase::Setup,
        "spawn is only valid during model setup (before threads run)"
    );
    s.bodies.push(Box::new(body));
}

/// Registers a postcondition closure, run single-threaded after every
/// model thread of the execution has finished. Assertion failures in
/// it are reported as violations with the schedule's trace.
///
/// # Panics
///
/// Panics when called outside a checker setup closure.
pub fn finally<F: FnOnce() + Send + 'static>(check: F) {
    #[expect(
        clippy::panic,
        reason = "documented API misuse panic: finally outside setup is a programmer error"
    )]
    let Some(ctx) = current() else {
        panic!("tvdp_check::finally used outside Checker::check setup");
    };
    let mut s = ctx.inner.lock();
    assert!(
        s.phase == Phase::Setup,
        "finally is only valid during model setup"
    );
    s.finals.push(Box::new(check));
}

/// Shim-side hooks into the current execution. All return quickly when
/// the calling code runs outside a checker (direct mode), so shim-built
/// types stay usable in plain unit tests.
pub(crate) struct Hooks;

impl Hooks {
    /// Registers a shim object, returning its id, or `None` in direct
    /// mode. Objects must be created during setup so ids (and state
    /// hashes) are schedule-independent.
    pub(crate) fn register(
        name: &'static str,
        _kind: ObjKind,
        value_hash: u64,
    ) -> Option<(Arc<Inner>, ObjId)> {
        let ctx = current()?;
        let mut s = ctx.inner.lock();
        assert!(
            s.phase == Phase::Setup,
            "shim objects must be created during model setup, \
             not from running model threads"
        );
        s.objects.push(ObjState {
            name,
            locked: false,
            readers: 0,
            value_hash,
        });
        let id = s.objects.len() - 1;
        Some((Arc::clone(&ctx.inner), id))
    }

    /// Whether the calling thread is a scheduled model thread (as
    /// opposed to the controller in setup/finally or plain test code).
    fn scheduled_tid(inner: &Arc<Inner>) -> Option<usize> {
        let ctx = current()?;
        let tid = ctx.tid?;
        if !Arc::ptr_eq(&ctx.inner, inner) {
            return None;
        }
        Some(tid)
    }

    /// Announces `op` and parks until the scheduler grants it. Returns
    /// after the grant: the caller then performs the operation's data
    /// access exclusively (every other model thread is parked until
    /// this thread's next announce).
    pub(crate) fn schedule(inner: &Arc<Inner>, op: Op, desc: &str) {
        let Some(tid) = Self::scheduled_tid(inner) else {
            return; // direct mode: setup, finally, or plain tests
        };
        if std::thread::panicking() {
            // Guard drops during an unwind must not re-enter the
            // scheduler (a parked thread cannot be unparked by a
            // panicking sibling); perform the op silently.
            return;
        }
        let mut s = inner.lock();
        if s.abort {
            drop(s);
            #[expect(
                clippy::panic,
                reason = "unwinds a model thread out of an aborted execution; `worker_main` catches the `AbortExecution` payload"
            )]
            panic::panic_any(AbortExecution);
        }
        s.threads[tid].status = ThreadStatus::Waiting;
        s.threads[tid].op = Some(op);
        inner.cv.notify_all();
        while s.grant != Some(tid) {
            if s.abort {
                drop(s);
                #[expect(
                    clippy::panic,
                    reason = "unwinds a model thread out of an aborted execution; `worker_main` catches the `AbortExecution` payload"
                )]
                panic::panic_any(AbortExecution);
            }
            s = inner.wait(s);
        }
        // Granted. Do the bookkeeping the scheduler needs for
        // enabledness, then run the data access outside the lock.
        s.grant = None;
        s.threads[tid].op = None;
        s.threads[tid].ops_done += 1;
        s.steps += 1;
        let line = format!("t{tid}: {desc}");
        s.trace.push(line);
        if let Some(oid) = op.obj {
            let o = &mut s.objects[oid];
            match op.kind {
                OpKind::MutexLock | OpKind::RwWrite => o.locked = true,
                OpKind::MutexUnlock | OpKind::RwUnlockWrite => o.locked = false,
                OpKind::RwRead => o.readers += 1,
                OpKind::RwUnlockRead => o.readers = o.readers.saturating_sub(1),
                _ => {}
            }
        }
    }

    /// Records the data outcome of the op just performed: what this
    /// thread observed (folded into its observation hash) and the
    /// object's new value hash.
    pub(crate) fn record(inner: &Arc<Inner>, obj: Option<ObjId>, observed: u64, new_value: u64) {
        let Some(tid) = Self::scheduled_tid(inner) else {
            return;
        };
        if std::thread::panicking() {
            return;
        }
        let mut s = inner.lock();
        let prior = s.threads[tid].obs_hash;
        s.threads[tid].obs_hash = fnv_fold(fnv_fold(prior, observed), 0x9e37);
        if let Some(oid) = obj {
            s.objects[oid].value_hash = new_value;
        }
    }
}

/// One recorded scheduling decision in the DFS trail.
#[derive(Debug, Clone)]
struct Decision {
    /// Candidate thread ids, in the order DFS tries them.
    candidates: Vec<usize>,
    /// Index into `candidates` taken by the current execution.
    chosen: usize,
}

/// Outcome of a single execution.
struct ExecOutcome {
    violation: Option<Violation>,
}

/// The model checker: owns the DFS trail, the seen-state set, and the
/// exploration counters across executions of one model.
pub struct Checker {
    config: CheckerConfig,
    seen: BTreeSet<u64>,
    pruned: usize,
}

impl Checker {
    /// A fresh checker with the given bounds.
    pub fn new(config: CheckerConfig) -> Self {
        install_quiet_hook();
        Checker {
            config,
            seen: BTreeSet::new(),
            pruned: 0,
        }
    }

    /// Explores every (bounded) interleaving of `model`. The closure
    /// runs once per execution: it creates shim state, [`spawn`]s the
    /// model threads, and may register a [`finally`] postcondition.
    /// Returns at the first violation or when the choice tree is
    /// exhausted.
    pub fn check<F: Fn()>(&mut self, model: F) -> Report {
        let mut trail: Vec<Decision> = Vec::new();
        let mut replay_len = 0usize;
        let mut schedules = 0usize;
        loop {
            if schedules >= self.config.max_schedules {
                return Report {
                    schedules,
                    pruned: self.pruned,
                    complete: false,
                    violation: None,
                };
            }
            schedules += 1;
            let outcome = self.run_one(&model, &mut trail, replay_len);
            if let Some(v) = outcome.violation {
                return Report {
                    schedules,
                    pruned: self.pruned,
                    complete: false,
                    violation: Some(v),
                };
            }
            // Backtrack: flip the deepest decision with an untried
            // alternative, drop everything after it.
            let next = trail
                .iter()
                .rposition(|d| d.chosen + 1 < d.candidates.len());
            match next {
                None => {
                    return Report {
                        schedules,
                        pruned: self.pruned,
                        complete: true,
                        violation: None,
                    };
                }
                Some(i) => {
                    trail.truncate(i + 1);
                    trail[i].chosen += 1;
                    replay_len = i + 1;
                }
            }
        }
    }

    /// Runs one execution: setup, scheduled run, teardown, finally.
    fn run_one<F: Fn()>(
        &mut self,
        model: &F,
        trail: &mut Vec<Decision>,
        replay_len: usize,
    ) -> ExecOutcome {
        let inner = Arc::new(Inner {
            m: Mutex::new(Sched {
                phase: Phase::Setup,
                threads: Vec::new(),
                objects: Vec::new(),
                grant: None,
                abort: false,
                violation: None,
                trace: Vec::new(),
                steps: 0,
                bodies: Vec::new(),
                finals: Vec::new(),
            }),
            cv: Condvar::new(),
        });

        // --- Setup (single-threaded, shim ops run direct). ---
        CURRENT.with_borrow_mut(|c| {
            *c = Some(Ctx {
                inner: Arc::clone(&inner),
                tid: None,
            })
        });
        IN_MODEL.set(true);
        let setup = panic::catch_unwind(AssertUnwindSafe(&model));
        IN_MODEL.set(false);
        if let Err(p) = setup {
            CURRENT.with_borrow_mut(|c| *c = None);
            return ExecOutcome {
                violation: Some(Violation {
                    message: format!("setup panicked: {}", payload_msg(p.as_ref())),
                    trace: Vec::new(),
                }),
            };
        }

        // --- Spawn the model threads; they park at their Begin op. ---
        let (bodies, n) = {
            let mut s = inner.lock();
            let bodies = std::mem::take(&mut s.bodies);
            let n = bodies.len();
            s.threads = (0..n)
                .map(|_| ThreadState {
                    status: ThreadStatus::Running, // until Begin announced
                    op: None,
                    ops_done: 0,
                    obs_hash: 0xcbf2_9ce4_8422_2325,
                })
                .collect();
            s.phase = Phase::Running;
            (bodies, n)
        };
        let mut handles = Vec::with_capacity(n);
        for (tid, body) in bodies.into_iter().enumerate() {
            let inner2 = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_main(inner2, tid, body)));
        }

        // --- Drive the schedule. ---
        self.drive(&inner, trail, replay_len);
        for h in handles {
            let _ = h.join();
        }

        // --- Finally (single-threaded again). ---
        let finals = {
            let mut s = inner.lock();
            s.phase = Phase::Final;
            std::mem::take(&mut s.finals)
        };
        let had_violation = inner.lock().violation.is_some();
        if !had_violation {
            for f in finals {
                IN_MODEL.set(true);
                let r = panic::catch_unwind(AssertUnwindSafe(f));
                IN_MODEL.set(false);
                if let Err(p) = r {
                    let mut s = inner.lock();
                    let trace = s.trace.clone();
                    s.violation = Some(Violation {
                        message: format!("postcondition failed: {}", payload_msg(p.as_ref())),
                        trace,
                    });
                    break;
                }
            }
        }
        CURRENT.with_borrow_mut(|c| *c = None);
        let v = inner.lock().violation.clone();
        ExecOutcome { violation: v }
    }

    /// The controller loop: wait for quiescence, decide, grant.
    fn drive(&mut self, inner: &Arc<Inner>, trail: &mut Vec<Decision>, replay_len: usize) {
        let mut pos = 0usize;
        let mut preemptions = 0usize;
        let mut prev: Option<usize> = None;
        let mut s = inner.lock();
        loop {
            while s.threads.iter().any(|t| t.status == ThreadStatus::Running)
                && s.violation.is_none()
            {
                s = inner.wait(s);
            }
            if s.violation.is_some() {
                Self::tear_down(inner, s);
                return;
            }
            if s.threads.iter().all(|t| t.status == ThreadStatus::Finished) {
                return;
            }
            if s.steps > self.config.max_steps {
                let trace = s.trace.clone();
                s.violation = Some(Violation {
                    message: format!(
                        "step cap exceeded ({} ops): model cannot terminate under an \
                         adversarial schedule (unbounded spin on shared state?)",
                        self.config.max_steps
                    ),
                    trace,
                });
                Self::tear_down(inner, s);
                return;
            }
            let enabled = enabled_threads(&s);
            if enabled.is_empty() {
                let trace = s.trace.clone();
                let stuck = blocked_summary(&s);
                s.violation = Some(Violation {
                    message: format!("deadlock: no runnable thread ({stuck})"),
                    trace,
                });
                Self::tear_down(inner, s);
                return;
            }

            let chosen_tid = if pos < replay_len.min(trail.len()) {
                let d = &trail[pos];
                let tid = d.candidates[d.chosen];
                if !enabled.contains(&tid) {
                    let trace = s.trace.clone();
                    s.violation = Some(Violation {
                        message: "replay diverged: recorded thread no longer enabled \
                                  (model body is nondeterministic)"
                            .to_string(),
                        trace,
                    });
                    Self::tear_down(inner, s);
                    return;
                }
                tid
            } else {
                let mut candidates = enabled.clone();
                // Preemption bounding: out of budget, stick with the
                // previous thread while it can still run.
                if let Some(bound) = self.config.preemption_bound {
                    if preemptions >= bound {
                        if let Some(p) = prev {
                            if enabled.contains(&p) {
                                candidates = vec![p];
                            }
                        }
                    }
                }
                if self.config.prune_states {
                    let key = state_key(&s, preemptions);
                    if !self.seen.insert(key) {
                        // Subtree already explored from this state:
                        // follow one path through, register no
                        // alternatives.
                        if candidates.len() > 1 {
                            candidates.truncate(1);
                            self.pruned += 1;
                        }
                    }
                }
                trail.push(Decision {
                    candidates: candidates.clone(),
                    chosen: 0,
                });
                candidates[0]
            };
            if let Some(p) = prev {
                if p != chosen_tid && enabled.contains(&p) {
                    preemptions += 1;
                }
            }
            prev = Some(chosen_tid);
            pos += 1;
            s.threads[chosen_tid].status = ThreadStatus::Running;
            s.grant = Some(chosen_tid);
            inner.cv.notify_all();
        }
    }

    /// Unwinds every still-parked thread after a violation/deadlock.
    fn tear_down(inner: &Inner, mut s: MutexGuard<'_, Sched>) {
        s.abort = true;
        inner.cv.notify_all();
        while !s.threads.iter().all(|t| t.status == ThreadStatus::Finished) {
            s = inner.wait(s);
        }
    }
}

fn enabled_threads(s: &Sched) -> Vec<usize> {
    let mut out = Vec::new();
    for (tid, t) in s.threads.iter().enumerate() {
        if t.status != ThreadStatus::Waiting {
            continue;
        }
        let Some(op) = t.op else { continue };
        let ok = match (op.kind, op.obj) {
            (OpKind::MutexLock | OpKind::RwWrite, Some(o)) => {
                let obj = &s.objects[o];
                !obj.locked && (op.kind == OpKind::MutexLock || obj.readers == 0)
            }
            (OpKind::RwRead, Some(o)) => !s.objects[o].locked,
            _ => true,
        };
        if ok {
            out.push(tid);
        }
    }
    out
}

fn blocked_summary(s: &Sched) -> String {
    let mut parts = Vec::new();
    for (tid, t) in s.threads.iter().enumerate() {
        if t.status == ThreadStatus::Waiting {
            if let Some(op) = t.op {
                let name = op.obj.map_or("?", |o| s.objects[o].name);
                parts.push(format!("t{tid} blocked on {:?}({name})", op.kind));
            }
        }
    }
    parts.join(", ")
}

fn state_key(s: &Sched, preemptions: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_fold(h, preemptions as u64);
    for t in &s.threads {
        h = fnv_fold(h, t.status as u64);
        h = fnv_fold(h, t.ops_done as u64);
        h = fnv_fold(h, t.obs_hash);
        if let Some(op) = t.op {
            h = fnv_fold(h, op.kind as u64);
            h = fnv_fold(h, op.obj.map_or(u64::MAX, |o| o as u64));
        }
    }
    for o in &s.objects {
        h = fnv_fold(h, u64::from(o.locked));
        h = fnv_fold(h, o.readers as u64);
        h = fnv_fold(h, o.value_hash);
    }
    h
}

fn worker_main(inner: Arc<Inner>, tid: usize, body: Body) {
    CURRENT.with_borrow_mut(|c| {
        *c = Some(Ctx {
            inner: Arc::clone(&inner),
            tid: Some(tid),
        })
    });
    IN_MODEL.set(true);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        Hooks::schedule(
            &inner,
            Op {
                kind: OpKind::Begin,
                obj: None,
            },
            "begin",
        );
        body();
    }));
    let mut s = inner.lock();
    s.threads[tid].status = ThreadStatus::Finished;
    s.threads[tid].op = None;
    if let Err(p) = result {
        if p.downcast_ref::<AbortExecution>().is_none() && s.violation.is_none() {
            let trace = s.trace.clone();
            s.violation = Some(Violation {
                message: payload_msg(p.as_ref()),
                trace,
            });
            s.abort = true;
        }
    }
    inner.cv.notify_all();
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(m) = p.downcast_ref::<&'static str>() {
        (*m).to_string()
    } else if let Some(m) = p.downcast_ref::<String>() {
        m.clone()
    } else {
        "model thread panicked".to_string()
    }
}
