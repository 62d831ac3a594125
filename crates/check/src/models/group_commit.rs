//! Group commit: many enqueued ops, one fsync, then — and only then —
//! the acks.
//!
//! The production storage engine (`tvdp-storage`'s
//! `DurableStore::apply_batch` over `Wal::append_batch`) lands every op
//! of a batch as one framed write followed by a single `fsync`, and
//! applies and acks the whole batch only after that sync returns. (The
//! queue the model drains is a scale model of callers handing batches
//! to that one seam; the shipped code has no pending-op queue.) The
//! protocol invariant is `acked ⊆ durable` at *every* instant: a crash
//! between any two steps must still find every acked op in the synced
//! journal. Group commit makes the window subtle — a whole batch is
//! acked at once, so acking even a moment before the (single) fsync
//! exposes N ops, not one.
//!
//! The model runs a producer enqueueing one op next to a committer
//! that enqueues a second op and then drains the queue in up to two
//! commit rounds (drain → fsync → ack). An observer snapshots `acked`
//! and *then* `durable` (sound: `durable` only grows, so an op acked
//! at the first read but missing from the later durable read was
//! really unsynced when acked). The mutant acks the drained batch
//! before the fsync — the crash-window bug a bounded exploration
//! catches within two preemptions.

use crate::shim;
use crate::{finally, spawn};

/// Ops the two threads enqueue (producer: 7, committer: 8).
const OPS: [u32; 2] = [7, 8];

/// Drains the pending queue and commits it as one group: a single
/// fsync marks the whole batch durable atomically, then every op in
/// the batch is acked. The mutant flips the last two steps.
fn commit_round(
    pending: &shim::Mutex<Vec<u32>>,
    durable: &shim::Atomic<Vec<u32>>,
    acked: &shim::Atomic<Vec<u32>>,
    fsyncs: &shim::Atomic<u32>,
    fsync_first: bool,
) {
    let batch = std::mem::take(&mut *pending.lock());
    if batch.is_empty() {
        return;
    }
    let extend = |v: &Vec<u32>| {
        let mut v = v.clone();
        v.extend_from_slice(&batch);
        v
    };
    if fsync_first {
        // One write + one fsync covers the whole batch...
        durable.rmw(extend);
        fsyncs.rmw(|n| n + 1);
        // ...and only then does the ack fan out.
        acked.rmw(extend);
    } else {
        // BUG: the batch is acked while the fsync is still in flight —
        // a crash here loses every op in the group, all acked.
        acked.rmw(extend);
        durable.rmw(extend);
        fsyncs.rmw(|n| n + 1);
    }
}

fn observer_body(acked: shim::Atomic<Vec<u32>>, durable: shim::Atomic<Vec<u32>>) {
    let acked_snapshot = acked.load();
    let durable_snapshot = durable.load();
    for op in &acked_snapshot {
        assert!(
            durable_snapshot.contains(op),
            "op {op} acked before its group fsync: acked {acked_snapshot:?}, \
             durable {durable_snapshot:?}"
        );
    }
}

fn build(fsync_first: bool) {
    let pending = shim::Mutex::new("pending", Vec::<u32>::new());
    let durable = shim::Atomic::new("durable", Vec::<u32>::new());
    let acked = shim::Atomic::new("acked", Vec::<u32>::new());
    let fsyncs = shim::Atomic::new("fsyncs", 0u32);
    {
        let pending = pending.clone();
        spawn(move || pending.lock().push(OPS[0]));
    }
    {
        let (pending, durable, acked, fsyncs) = (
            pending.clone(),
            durable.clone(),
            acked.clone(),
            fsyncs.clone(),
        );
        spawn(move || {
            pending.lock().push(OPS[1]);
            // Round 1 commits whatever has been enqueued by now as one
            // group; round 2 sweeps up a late-arriving producer op.
            commit_round(&pending, &durable, &acked, &fsyncs, fsync_first);
            commit_round(&pending, &durable, &acked, &fsyncs, fsync_first);
        });
    }
    {
        let (acked, durable) = (acked.clone(), durable.clone());
        spawn(move || observer_body(acked, durable));
    }
    let (pending, durable, acked, fsyncs) = (
        pending.clone(),
        durable.clone(),
        acked.clone(),
        fsyncs.clone(),
    );
    finally(move || {
        let p = pending.lock().clone();
        let d = durable.load();
        let a = acked.load();
        let n = fsyncs.load();
        // The producer's op may still be pending if it enqueued after
        // both commit rounds; everything drained must be durable+acked.
        for op in OPS {
            if p.contains(&op) {
                continue;
            }
            assert!(
                d.contains(&op),
                "drained op {op} missing from durable {d:?}"
            );
            assert!(a.contains(&op), "drained op {op} missing from acked {a:?}");
        }
        assert_eq!(a, d, "acked and durable must agree once quiescent");
        assert!(
            n as usize <= a.len(),
            "{n} fsync(s) for {} committed op(s): group commit must \
             never sync more than once per op",
            a.len()
        );
    });
}

/// Correct protocol: drain the pending group, fsync once, then ack.
pub fn correct() {
    build(true);
}

/// Mutant: the batch is acked before its single fsync lands, opening
/// a crash window where every op in an acked group is unrecoverable.
/// The observer catches the window within a preemption bound of 2.
pub fn mutant_ack_before_fsync() {
    build(false);
}
