//! The deterministic DFS scheduler behind the model checker.
//!
//! One *execution* runs a model program — a setup closure that builds
//! shipped state and [`spawn`]s threads — under one explicit schedule.
//! Model threads are real OS threads, but they never run freely: each
//! installs [`on_lock`] as its `tvdp_kernel::sync` hook, so at every
//! acquire of a `sync` lock (and so of every `GenCell`) the thread
//! parks before taking the lock, and at every release it parks after
//! freeing it, until it is granted the baton. Exactly one model thread
//! makes progress at any instant, and the interleaving is fully
//! determined by the sequence of grants. A lock is known by its address
//! from its first operation on; nothing registers it beforehand.
//!
//! The thread that leaves the system quiescent — every model thread
//! announced or finished — makes the next decision itself, so a step
//! that keeps the same thread running costs no context switch. The
//! decisions explore the choice tree depth-first: each execution
//! replays a recorded prefix of decisions and extends it with
//! first-available choices; backtracking flips the last decision that
//! still has an untried alternative. [`CheckerConfig::preemption_bound`]
//! caps how many times a schedule may switch away from a thread that
//! could have kept running (context switches forced by blocking are
//! free). Most protocol bugs show up within two preemptions.
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
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use tvdp_kernel::sync::{self as kernel_sync, LockEvent, LockOp};

/// Exploration bounds.
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
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            preemption_bound: None,
            max_schedules: 500_000,
            max_steps: 10_000,
        }
    }
}

/// The outcome of exploring one model.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules (executions) actually run.
    pub schedules: usize,
    /// `true` when the bounded choice tree was explored to exhaustion
    /// (no violation, no schedule-cap stop).
    pub complete: bool,
    /// What went wrong in the first counterexample found, if any: an
    /// assertion message, a deadlock description or a step-cap notice.
    pub violation: Option<String>,
    /// One line per scheduling step of the last schedule run — the
    /// counterexample's, when there is one — in order:
    /// `t<id>: <operation>(<lock>)`.
    pub trace: Vec<String>,
}

impl Report {
    /// `true` when exploration finished with no counterexample.
    pub fn passed(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

/// Scheduler-visible state of one lock.
#[derive(Debug, Clone, Copy, Default)]
struct LockState {
    /// Mutex held / RwLock writer present.
    locked: bool,
    /// RwLock shared holders.
    readers: usize,
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

struct ThreadState {
    status: ThreadStatus,
    /// The announced acquire; `None` while the thread waits to start
    /// or to go on after a release, which it always may.
    op: Option<LockEvent>,
    /// What the thread parks on until granted, so a grant wakes the
    /// granted thread alone.
    wake: Arc<Condvar>,
    /// The thread's body until its start is granted: only then is it
    /// sent to a model thread, which wakes no other.
    start: Option<Body>,
}

/// Which phase of an execution we are in; `spawn` and `finally` are
/// only valid during `Setup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Running,
    Final,
}

type Body = Box<dyn FnOnce() + Send + 'static>;

/// Everything one execution's threads share.
struct Sched {
    phase: Phase,
    threads: Vec<ThreadState>,
    /// Every lock a model thread has operated on, by address.
    locks: BTreeMap<usize, LockState>,
    /// Thread currently granted the baton.
    grant: Option<usize>,
    /// Execution is being torn down; parked threads must unwind.
    abort: bool,
    violation: Option<String>,
    /// Each grant in order: the thread and its operation (`None`: its
    /// start). Rendered as text only for the report.
    trace: Vec<(usize, Option<LockEvent>)>,
    bodies: Vec<Body>,
    finals: Vec<Body>,
    /// Where each thread's body is sent to run.
    workers: Vec<mpsc::Sender<Body>>,
    config: CheckerConfig,
    /// The DFS trail: the first `replay_len` decisions are replayed,
    /// later ones are pushed as this execution makes them.
    trail: Vec<Decision>,
    replay_len: usize,
    /// Decisions made so far in this execution.
    pos: usize,
    preemptions: usize,
    /// The thread granted last.
    prev: Option<usize>,
}

impl Sched {
    /// The lock state after `event` (applied at its grant).
    fn apply(&mut self, event: LockEvent) {
        let l = self.locks.entry(event.lock).or_default();
        match event.op {
            LockOp::Lock | LockOp::Write => l.locked = true,
            LockOp::Unlock | LockOp::Unwrite => l.locked = false,
            LockOp::Read => l.readers += 1,
            LockOp::Unread => l.readers = l.readers.saturating_sub(1),
        }
    }

    /// Whether `event` could proceed now.
    fn enabled(&self, event: LockEvent) -> bool {
        let l = self.locks.get(&event.lock).copied().unwrap_or_default();
        match event.op {
            LockOp::Lock | LockOp::Read => !l.locked,
            LockOp::Write => !l.locked && l.readers == 0,
            LockOp::Unlock | LockOp::Unread | LockOp::Unwrite => true,
        }
    }

    /// Records `message` unless a violation is already recorded, and
    /// tears the execution down: every parked thread wakes to unwind.
    fn fail(&mut self, message: String) {
        self.violation.get_or_insert(message);
        self.abort = true;
        for t in &mut self.threads {
            if t.start.take().is_some() {
                t.status = ThreadStatus::Finished;
            }
            t.wake.notify_one();
        }
    }

    /// Wakes the thread granted the baton, starting it on its model
    /// thread if this is its first grant.
    fn wake_granted(&mut self) {
        let Some(tid) = self.grant else { return };
        match self.threads[tid].start.take() {
            Some(body) => {
                if self.workers[tid].send(body).is_err() {
                    self.fail(format!("model thread {tid} is gone"));
                }
            }
            None => self.threads[tid].wake.notify_one(),
        }
    }

    /// Puts `tid`'s operation (`None`: its start) on the trace and
    /// into effect on its lock.
    fn record(&mut self, tid: usize, op: Option<LockEvent>) {
        self.trace.push((tid, op));
        if let Some(event) = op {
            self.apply(event);
        }
    }

    /// Makes the next scheduling decision once no model thread is
    /// running: grants the baton to one enabled thread, or ends the
    /// execution with a violation. Does nothing while a thread runs,
    /// after an abort, or once every thread has finished.
    fn decide(&mut self) {
        if self.abort
            || self
                .threads
                .iter()
                .any(|t| t.status == ThreadStatus::Running)
            || self
                .threads
                .iter()
                .all(|t| t.status == ThreadStatus::Finished)
        {
            return;
        }
        if self.trace.len() > self.config.max_steps {
            return self.fail(format!(
                "step cap exceeded ({} ops): model cannot terminate under an \
                 adversarial schedule (unbounded spin on shared state?)",
                self.config.max_steps
            ));
        }
        let enabled: Vec<usize> = (0..self.threads.len())
            .filter(|&tid| {
                let t = &self.threads[tid];
                t.status == ThreadStatus::Waiting && t.op.is_none_or(|event| self.enabled(event))
            })
            .collect();
        if enabled.is_empty() {
            let stuck = blocked_summary(self);
            return self.fail(format!("deadlock: no runnable thread ({stuck})"));
        }
        let chosen = if self.pos < self.replay_len {
            let d = &self.trail[self.pos];
            let tid = d.candidates[d.chosen];
            if !enabled.contains(&tid) {
                return self.fail(
                    "replay diverged: recorded thread no longer enabled \
                     (model body is nondeterministic)"
                        .to_string(),
                );
            }
            tid
        } else {
            let mut candidates = enabled.clone();
            // Preemption bounding: out of budget, stick with the
            // previous thread while it can still run.
            if let (Some(bound), Some(p)) = (self.config.preemption_bound, self.prev) {
                if self.preemptions >= bound && enabled.contains(&p) {
                    candidates = vec![p];
                }
            }
            let tid = candidates[0];
            self.trail.push(Decision {
                candidates,
                chosen: 0,
            });
            tid
        };
        if let Some(p) = self.prev {
            if p != chosen && enabled.contains(&p) {
                self.preemptions += 1;
            }
        }
        self.prev = Some(chosen);
        self.pos += 1;
        self.threads[chosen].status = ThreadStatus::Running;
        self.grant = Some(chosen);
    }
}

/// One execution's shared core: the schedule state, and the condvar
/// the controller waits on until every model thread has finished.
struct Inner {
    m: Mutex<Sched>,
    finished: Condvar,
}

impl Inner {
    /// Locks the schedule state, recovering from poison: model threads
    /// panic *by design* (assertion = counterexample), and the
    /// scheduler state is kept consistent by construction, not by
    /// poisoning.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Condvar wait with [`Inner::lock`]'s poison recovery.
fn wait<'a>(cv: &Condvar, g: MutexGuard<'a, Sched>) -> MutexGuard<'a, Sched> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
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

/// `a::b::C<d::E>` as `C<E>`: a type name without its paths.
fn short_type_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut word = String::new();
    for c in name.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' || c == ':' {
            word.push(c);
        } else {
            out.push_str(word.rsplit("::").next().unwrap_or(""));
            word.clear();
            out.push(c);
        }
    }
    out.pop();
    out
}

/// A trace as text, one `t<id>: <operation>(<lock>)` line per grant.
fn render(trace: &[(usize, Option<LockEvent>)]) -> Vec<String> {
    trace
        .iter()
        .map(|&(tid, op)| format!("t{tid}: {}", op.map_or_else(|| "begin".into(), describe)))
        .collect()
}

/// A trace line's operation: `write(RwLock<Arc<Generation>>)`.
fn describe(event: LockEvent) -> String {
    let (verb, kind) = match event.op {
        LockOp::Lock => ("lock", "Mutex"),
        LockOp::Unlock => ("unlock", "Mutex"),
        LockOp::Read => ("read", "RwLock"),
        LockOp::Unread => ("unread", "RwLock"),
        LockOp::Write => ("write", "RwLock"),
        LockOp::Unwrite => ("unwrite", "RwLock"),
    };
    format!("{verb}({kind}<{}>)", short_type_name(event.guards))
}

/// The `tvdp_kernel::sync` hook every model thread installs: each lock
/// operation becomes a scheduling point. An unwinding thread's releases
/// free their locks without parking (a parked thread cannot be unparked
/// by a panicking sibling).
fn on_lock(event: LockEvent) {
    let Some(Ctx {
        inner,
        tid: Some(tid),
    }) = current()
    else {
        return;
    };
    if std::thread::panicking() {
        inner.lock().apply(event);
        return;
    }
    schedule(&inner, tid, event);
}

/// Parks the calling model thread at `op` until the scheduler grants
/// it the baton: before an acquire, which takes effect at the grant, or
/// after a release, which took effect when the lock was freed — so
/// another thread may run between a release and what follows it. On
/// return the caller runs alone until its next lock operation.
fn schedule(inner: &Inner, tid: usize, op: LockEvent) {
    let mut s = inner.lock();
    let acquire = matches!(op.op, LockOp::Lock | LockOp::Read | LockOp::Write);
    if !acquire {
        s.record(tid, Some(op));
    }
    s.threads[tid].status = ThreadStatus::Waiting;
    s.threads[tid].op = acquire.then_some(op);
    s.decide();
    if s.grant != Some(tid) {
        s.wake_granted();
        let wake = Arc::clone(&s.threads[tid].wake);
        while s.grant != Some(tid) {
            if s.abort {
                drop(s);
                #[expect(
                    clippy::panic,
                    reason = "unwinds a model thread out of an aborted execution; `worker_main` catches the `AbortExecution` payload"
                )]
                panic::panic_any(AbortExecution);
            }
            s = wait(&wake, s);
        }
    }
    s.grant = None;
    if acquire {
        s.record(tid, Some(op));
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

/// The model checker: explores every (bounded) schedule of one model
/// at a time.
pub struct Checker {
    config: CheckerConfig,
    /// The model threads, kept from one execution to the next (spawning
    /// them per schedule tripled the suite's time): each runs the bodies
    /// sent to it, and is joined when the checker drops.
    workers: Vec<(mpsc::Sender<Body>, JoinHandle<()>)>,
}

impl Drop for Checker {
    fn drop(&mut self) {
        for (bodies, thread) in self.workers.drain(..) {
            drop(bodies);
            let _ = thread.join(); // a model thread catches its body's panic
        }
    }
}

impl Checker {
    /// A fresh checker with the given bounds.
    pub fn new(config: CheckerConfig) -> Self {
        install_quiet_hook();
        Checker {
            config,
            workers: Vec::new(),
        }
    }

    /// Explores every (bounded) interleaving of `model`. The closure
    /// runs once per execution: it builds the state under test,
    /// [`spawn`]s the model threads, and may register a [`finally`]
    /// postcondition. Returns at the first violation or when the choice
    /// tree is exhausted.
    pub fn check<F: Fn()>(&mut self, model: F) -> Report {
        let mut trail: Vec<Decision> = Vec::new();
        let mut replay_len = 0usize;
        let mut schedules = 0usize;
        loop {
            schedules += 1;
            let (violation, trace) = self.run_one(&model, &mut trail, replay_len);
            // Backtrack: flip the deepest decision with an untried
            // alternative, drop everything after it.
            let next = trail
                .iter()
                .rposition(|d| d.chosen + 1 < d.candidates.len());
            let Some(i) = next.filter(|_| violation.is_none()) else {
                return Report {
                    schedules,
                    complete: violation.is_none(),
                    violation,
                    trace: render(&trace),
                };
            };
            if schedules >= self.config.max_schedules {
                return Report {
                    schedules,
                    complete: false,
                    violation: None,
                    trace: render(&trace),
                };
            }
            trail.truncate(i + 1);
            trail[i].chosen += 1;
            replay_len = i + 1;
        }
    }

    /// Runs one execution: setup, scheduled run, finally, replaying
    /// and then extending `trail`. Returns its violation, if any, and
    /// its trace.
    fn run_one<F: Fn()>(
        &mut self,
        model: &F,
        trail: &mut Vec<Decision>,
        replay_len: usize,
    ) -> (Option<String>, Vec<(usize, Option<LockEvent>)>) {
        let inner = Arc::new(Inner {
            m: Mutex::new(Sched {
                phase: Phase::Setup,
                threads: Vec::new(),
                locks: BTreeMap::new(),
                grant: None,
                abort: false,
                violation: None,
                trace: Vec::new(),
                bodies: Vec::new(),
                finals: Vec::new(),
                workers: Vec::new(),
                config: self.config,
                trail: std::mem::take(trail),
                replay_len,
                pos: 0,
                preemptions: 0,
                prev: None,
            }),
            finished: Condvar::new(),
        });

        // --- Setup (single-threaded; this thread has no lock hook). ---
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
            inner
                .lock()
                .fail(format!("setup panicked: {}", payload_msg(p.as_ref())));
        }

        // --- Run the model threads: every thread waits to start, the
        // first grant starts one, and each thread's next announce (or
        // its end) makes the next decision. ---
        let mut s = inner.lock();
        let bodies = std::mem::take(&mut s.bodies);
        let bodies = if s.abort { Vec::new() } else { bodies };
        while self.workers.len() < bodies.len() {
            let (sender, received) = mpsc::channel::<Body>();
            let thread = std::thread::spawn(move || received.into_iter().for_each(|body| body()));
            self.workers.push((sender, thread));
        }
        s.workers = self.workers[..bodies.len()]
            .iter()
            .map(|(sender, _)| sender.clone())
            .collect();
        s.threads = bodies
            .into_iter()
            .enumerate()
            .map(|(tid, body)| {
                let inner = Arc::clone(&inner);
                let start: Body = Box::new(move || worker_main(inner, tid, body));
                ThreadState {
                    status: ThreadStatus::Waiting,
                    op: None,
                    wake: Arc::default(),
                    start: Some(start),
                }
            })
            .collect();
        s.phase = Phase::Running;
        s.decide();
        s.wake_granted();
        while s.threads.iter().any(|t| t.status != ThreadStatus::Finished) {
            s = wait(&inner.finished, s);
        }
        drop(s);

        // --- Finally (single-threaded again). ---
        let finals = {
            let mut s = inner.lock();
            s.phase = Phase::Final;
            std::mem::take(&mut s.finals)
        };
        if inner.lock().violation.is_none() {
            for f in finals {
                IN_MODEL.set(true);
                let r = panic::catch_unwind(AssertUnwindSafe(f));
                IN_MODEL.set(false);
                if let Err(p) = r {
                    inner
                        .lock()
                        .fail(format!("postcondition failed: {}", payload_msg(p.as_ref())));
                    break;
                }
            }
        }
        CURRENT.with_borrow_mut(|c| *c = None);
        let mut s = inner.lock();
        *trail = std::mem::take(&mut s.trail);
        (s.violation.take(), std::mem::take(&mut s.trace))
    }
}

fn blocked_summary(s: &Sched) -> String {
    let parts: Vec<String> = s
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == ThreadStatus::Waiting)
        .filter_map(|(tid, t)| Some(format!("t{tid} blocked on {}", describe(t.op?))))
        .collect();
    parts.join(", ")
}

fn worker_main(inner: Arc<Inner>, tid: usize, body: Body) {
    CURRENT.with_borrow_mut(|c| {
        *c = Some(Ctx {
            inner: Arc::clone(&inner),
            tid: Some(tid),
        })
    });
    IN_MODEL.set(true);
    kernel_sync::set_hook(Some(on_lock));
    {
        let mut s = inner.lock();
        s.grant = None;
        s.record(tid, None);
    }
    let result = panic::catch_unwind(AssertUnwindSafe(body));
    kernel_sync::set_hook(None);
    CURRENT.with_borrow_mut(|c| *c = None);
    let mut s = inner.lock();
    s.threads[tid].status = ThreadStatus::Finished;
    s.threads[tid].op = None;
    if let Err(p) = result {
        if p.downcast_ref::<AbortExecution>().is_none() {
            s.fail(payload_msg(p.as_ref()));
        }
    }
    s.decide();
    s.wake_granted();
    if s.threads.iter().all(|t| t.status == ThreadStatus::Finished) {
        inner.finished.notify_one();
    }
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

#[cfg(test)]
mod tests {
    use super::short_type_name;

    #[test]
    fn type_names_lose_their_paths() {
        assert_eq!(
            short_type_name("alloc::sync::Arc<tvdp_query::sharded::Generation>"),
            "Arc<Generation>"
        );
        assert_eq!(
            short_type_name("std::collections::BTreeMap<(a::K, u32), alloc::sync::Arc<b::V>>"),
            "BTreeMap<(K, u32), Arc<V>>"
        );
    }
}
