//! Deterministic fault injection for durability tests.
//!
//! A crash during a write leaves an arbitrary prefix of the intended
//! bytes on disk. [`FailingWriter`] reproduces exactly that — it
//! accepts bytes until a preset budget is exhausted, then fails every
//! subsequent call — so a torture test can "kill" a snapshot save or a
//! WAL append at every byte offset and check that reopening the store
//! lands on the pre- or post-write state, never a torn third one.
//!
//! [`WriteFaultPlan`] is the *live* counterpart: a shareable, armable
//! fault script a running [`crate::Wal`] consults before each physical
//! write. Arming it makes the next append accept a chosen byte prefix
//! (the torn tail a real disk-full leaves behind) and then fail with a
//! typed error; the plan keeps failing until [`WriteFaultPlan::clear`]
//! simulates the operator freeing disk space. Chaos tests use it to
//! drive a [`crate::DurableStore`] through its
//! Ok → ReadOnly → Degraded → Ok health cycle without touching the
//! real filesystem's capacity.

use std::io::{Error, Write};
use std::sync::Arc;

use tvdp_kernel::sync::Mutex;

/// Which error an injected write fault reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O failure (a dying disk, a yanked mount).
    Io,
    /// `ENOSPC` — the filesystem is full. Raw OS error 28, so
    /// `Error::kind()` reports it exactly as a real disk-full would.
    Enospc,
}

impl FaultKind {
    fn to_error(self) -> Error {
        match self {
            FaultKind::Io => Error::other("injected write fault"),
            // 28 == ENOSPC on every unix the workspace targets; going
            // through the raw OS error keeps `kind()` faithful.
            FaultKind::Enospc => Error::from_raw_os_error(28),
        }
    }
}

/// A [`Write`] sink that dies after `budget` bytes.
///
/// The bytes accepted before death are exactly the prefix a real crash
/// would have left on disk; the caller materializes them as file
/// contents and runs recovery against them.
///
/// ```
/// use std::io::Write;
/// use tvdp_storage::fault::FailingWriter;
///
/// let mut w = FailingWriter::new(5);
/// assert_eq!(w.write(b"hello world").unwrap(), 5); // partial write
/// assert!(w.write(b"!").is_err()); // budget exhausted
/// assert_eq!(w.into_written(), b"hello");
/// ```
#[derive(Debug)]
// tvdp-lint: allow(dead_api, reason = "(a) test support: the durability suite cuts journal writes at every byte with it")
pub struct FailingWriter {
    written: Vec<u8>,
    budget: usize,
    kind: FaultKind,
}

impl FailingWriter {
    /// A writer that accepts exactly `budget` bytes before failing
    /// with a generic I/O error.
    pub fn new(budget: usize) -> Self {
        Self::with_kind(budget, FaultKind::Io)
    }

    /// A writer with an explicit failure kind.
    pub fn with_kind(budget: usize, kind: FaultKind) -> Self {
        FailingWriter {
            written: Vec::new(),
            budget,
            kind,
        }
    }

    /// Consumes the writer, yielding the simulated on-disk prefix.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: the durability suite reads back what reached the writer")
    pub fn into_written(self) -> Vec<u8> {
        self.written
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.budget == 0 {
            return Err(self.kind.to_error());
        }
        let n = buf.len().min(self.budget);
        self.written.extend_from_slice(&buf[..n]);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One armed fault: accept `budget` more bytes, then fail with `kind`.
#[derive(Debug, Clone, Copy)]
struct Armed {
    budget: usize,
    kind: FaultKind,
}

/// State behind the shared plan handle.
#[derive(Debug, Default)]
struct PlanState {
    armed: Option<Armed>,
    /// Once a fault has fired the disk "stays full": every later write
    /// fails outright (zero-byte prefix) until [`WriteFaultPlan::clear`].
    tripped: Option<FaultKind>,
}

/// A deterministic, shareable write-fault script for a live WAL.
///
/// Install a handle with `DurableStore::set_write_fault_plan`, then:
///
/// * [`WriteFaultPlan::arm`] — the next physical WAL write accepts at
///   most `budget` bytes (the torn prefix) and fails with `kind`;
///   every subsequent write fails with the same kind and a zero-byte
///   prefix, exactly like a volume that filled up and stayed full.
/// * [`WriteFaultPlan::clear`] — the fault lifts; writes succeed again.
///
/// The plan is consulted *before* bytes reach the file, under the
/// journal lock, so the sequence of injected failures is a pure
/// function of the mutation sequence — deterministic across runs and
/// pool widths.
#[derive(Debug, Default)]
pub struct WriteFaultPlan {
    state: Mutex<PlanState>,
}

impl WriteFaultPlan {
    /// A cleared plan behind a shareable handle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the plan: the next write accepts at most `budget` bytes,
    /// then this and every following write fail with `kind` until
    /// [`WriteFaultPlan::clear`].
    pub fn arm(&self, budget: usize, kind: FaultKind) {
        let mut s = self.state.lock();
        s.armed = Some(Armed { budget, kind });
        s.tripped = None;
    }

    /// [`WriteFaultPlan::arm`] with [`FaultKind::Enospc`].
    // tvdp-lint: allow(dead_api, reason = "(a) test support: the durability and resilience suites' disk-full cases")
    pub fn arm_enospc(&self, budget: usize) {
        self.arm(budget, FaultKind::Enospc);
    }

    /// Lifts the fault: writes succeed again (disk space freed).
    pub fn clear(&self) {
        *self.state.lock() = PlanState::default();
    }

    /// Consulted by the WAL before a physical write of `len` bytes.
    /// `None` means the write proceeds normally; `Some((prefix, e))`
    /// means at most `prefix` bytes may reach the file and the append
    /// must fail with `e`.
    pub(crate) fn intercept(&self, len: usize) -> Option<(usize, Error)> {
        let mut s = self.state.lock();
        if let Some(kind) = s.tripped {
            return Some((0, kind.to_error()));
        }
        let armed = s.armed.take()?;
        s.tripped = Some(armed.kind);
        Some((armed.budget.min(len), armed.kind.to_error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dies_exactly_at_budget() {
        let payload = b"abcdefgh";
        for budget in 0..=payload.len() {
            let mut w = FailingWriter::new(budget);
            let result = w.write_all(payload);
            if budget >= payload.len() {
                assert!(result.is_ok());
            } else {
                assert!(result.is_err());
            }
            assert_eq!(w.into_written(), &payload[..budget.min(payload.len())]);
        }
    }

    #[test]
    fn partial_then_error_matches_write_contract() {
        let mut w = FailingWriter::new(3);
        assert_eq!(w.write(b"abcde").unwrap(), 3);
        assert!(w.write(b"de").is_err());
        assert_eq!(w.into_written(), b"abc");
    }

    #[test]
    fn enospc_reports_storage_full() {
        let mut w = FailingWriter::with_kind(0, FaultKind::Enospc);
        let e = w.write(b"x").unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28), "must surface ENOSPC: {e}");
    }

    #[test]
    fn plan_arms_trips_and_clears() {
        let plan = WriteFaultPlan::new();
        assert!(plan.intercept(100).is_none(), "cleared plan lets writes by");

        plan.arm_enospc(7);
        let (prefix, e) = plan.intercept(100).unwrap();
        assert_eq!(prefix, 7, "first failed write keeps the torn prefix");
        assert_eq!(e.raw_os_error(), Some(28));

        // The disk stays full: later writes fail with no prefix.
        let (prefix, _) = plan.intercept(50).unwrap();
        assert_eq!(prefix, 0);

        plan.clear();
        assert!(plan.intercept(10).is_none(), "cleared fault lifts");
    }

    #[test]
    fn plan_prefix_is_capped_by_write_length() {
        let plan = WriteFaultPlan::new();
        plan.arm(1_000, FaultKind::Io);
        let (prefix, _) = plan.intercept(12).unwrap();
        assert_eq!(prefix, 12, "prefix cannot exceed the write itself");
    }
}
