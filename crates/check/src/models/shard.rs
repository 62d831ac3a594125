//! The engine's one writer append+seal vs concurrent scatter/gather
//! readers.
//!
//! The production `ShardedEngine` indexes one store with one writer: it
//! appends rows into a `pending` buffer under the writer mutex, seals
//! `pending` into an immutable segment when it reaches `seal_cap`, and
//! publishes the `{segments, tail}` snapshot — *while still holding the
//! lock* — through its one `GenCell`. Readers never touch the writer
//! state; they only load published snapshots.
//!
//! The linearizability obligations modeled here:
//!
//! * **No lost rows**: every appended row is in the published snapshot
//!   once the append's critical section has published (and sealing
//!   moves rows, never drops them).
//! * **No duplicated rows**: a row appears exactly once across
//!   `segments ∪ tail`.
//! * **Snapshot monotonicity**: a reader that saw row r keeps seeing
//!   it in every later snapshot (published snapshots only grow).
//!
//! Two mutants reintroduce real bugs: publishing *after* releasing
//! the writer lock (two writers can publish out of order, un-publishing
//! a row), and a seal that clears `pending` before copying it into the
//! sealed segment (rows vanish at exactly `seal_cap`).

use crate::shim;
use crate::{finally, spawn};

/// Writer state behind the writer mutex: the mutable tail plus sealed
/// segments.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct Writer {
    pending: Vec<u32>,
    segments: Vec<Vec<u32>>,
}

/// Published snapshot: what scatter/gather readers see.
#[derive(Clone, Debug, Hash, PartialEq, Eq, Default)]
struct Snapshot {
    segments: Vec<Vec<u32>>,
    tail: Vec<u32>,
}

impl Snapshot {
    fn rows(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.segments.iter().flatten().copied().collect();
        out.extend_from_slice(&self.tail);
        out
    }
}

/// Seal cap used by the models: two writers × one row each means the
/// second append seals, exercising the move-to-segment path in every
/// schedule where both writers run.
const SEAL_CAP: usize = 2;

fn assert_rows_valid(rows: &[u32], context: &str) {
    let mut seen = rows.to_vec();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        rows.len(),
        "{context}: duplicated row in snapshot {rows:?}"
    );
    for r in rows {
        assert!(
            (1..=2).contains(r),
            "{context}: unknown row {r} in snapshot {rows:?}"
        );
    }
}

fn reader_body(published: shim::Atomic<Snapshot>) {
    let first = published.load().rows();
    assert_rows_valid(&first, "first load");
    let second = published.load().rows();
    assert_rows_valid(&second, "second load");
    for r in &first {
        assert!(
            second.contains(r),
            "row {r} un-published: saw {first:?} then {second:?}"
        );
    }
}

/// Correct protocol: append, seal at cap, and publish all happen
/// inside the writer critical section; the snapshot swap is the
/// linearization point.
pub fn correct() {
    let writer = shim::Mutex::new(
        "writer",
        Writer {
            pending: Vec::new(),
            segments: Vec::new(),
        },
    );
    let published = shim::Atomic::new("published", Snapshot::default());
    for row in 1..=2u32 {
        let writer = writer.clone();
        let published = published.clone();
        spawn(move || {
            let mut w = writer.lock();
            w.pending.push(row);
            if w.pending.len() >= SEAL_CAP {
                let sealed = std::mem::take(&mut w.pending);
                w.segments.push(sealed);
            }
            published.store(Snapshot {
                segments: w.segments.clone(),
                tail: w.pending.clone(),
            });
            drop(w);
        });
    }
    {
        let published = published.clone();
        spawn(move || reader_body(published));
    }
    let published = published.clone();
    finally(move || {
        let mut rows = published.load().rows();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2], "final snapshot must hold both rows");
    });
}

/// Mutant: the snapshot is computed under the lock but *stored after
/// releasing it*. Two writers can then publish in the wrong order,
/// overwriting the newer snapshot with the older one — a reader sees a
/// row appear and then vanish, and the final snapshot can be missing a
/// row entirely.
pub fn mutant_publish_outside_lock() {
    let writer = shim::Mutex::new(
        "writer",
        Writer {
            pending: Vec::new(),
            segments: Vec::new(),
        },
    );
    let published = shim::Atomic::new("published", Snapshot::default());
    for row in 1..=2u32 {
        let writer = writer.clone();
        let published = published.clone();
        spawn(move || {
            let mut w = writer.lock();
            w.pending.push(row);
            if w.pending.len() >= SEAL_CAP {
                let sealed = std::mem::take(&mut w.pending);
                w.segments.push(sealed);
            }
            let snap = Snapshot {
                segments: w.segments.clone(),
                tail: w.pending.clone(),
            };
            drop(w); // BUG: lock released before the publish
            published.store(snap);
        });
    }
    let published = published.clone();
    finally(move || {
        let mut rows = published.load().rows();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2], "final snapshot must hold both rows");
    });
}

/// Mutant: sealing clears `pending` *before* copying it into the
/// sealed segment, so the rows that triggered the seal are dropped on
/// the floor. Every schedule in which both appends land loses data.
pub fn mutant_seal_loses_tail() {
    let writer = shim::Mutex::new(
        "writer",
        Writer {
            pending: Vec::new(),
            segments: Vec::new(),
        },
    );
    let published = shim::Atomic::new("published", Snapshot::default());
    for row in 1..=2u32 {
        let writer = writer.clone();
        let published = published.clone();
        spawn(move || {
            let mut w = writer.lock();
            w.pending.push(row);
            if w.pending.len() >= SEAL_CAP {
                w.pending.clear(); // BUG: rows gone before the copy
                let sealed = std::mem::take(&mut w.pending);
                w.segments.push(sealed);
            }
            published.store(Snapshot {
                segments: w.segments.clone(),
                tail: w.pending.clone(),
            });
            drop(w);
        });
    }
    let published = published.clone();
    finally(move || {
        let mut rows = published.load().rows();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2], "final snapshot must hold both rows");
    });
}
