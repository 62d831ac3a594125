//! Crash recovery and the durable store wrapper.
//!
//! A durable store directory holds two kinds of files, both in one
//! format ([`crate::wal`]: a magic+version header, then CRC-framed
//! little-endian records):
//!
//! * `base-<epoch>.seg` — the *base segment*: the store as compaction
//!   last cut it, rendered as the ops that rebuild it
//!   ([`VisualStore::ops`]). The epoch in its name is the WAL epoch it
//!   was cut against; the highest one wins,
//! * `wal-<epoch>.log` — append-only journal segments: every segment
//!   with epoch >= the base's holds mutations since that cut. Only the
//!   highest is live; a lower one was sealed by a compaction that
//!   rotated past it and crashed before publishing its base.
//!
//! [`DurableStore::open`] is open-or-recover, and one scanner
//! ([`crate::wal::scan`], which streams a segment through a bounded
//! window and checks each record's checksum as it reaches it) feeding the
//! store's one validator record by record, each record checked against
//! the state the records before it left: the base (if any), then every
//! live segment in ascending epoch order. The base and the
//! sealed segments must be intact; only the highest journal segment —
//! the one a crash could have torn mid-append — gets its torn tail
//! truncated, or its header stamped if the crash came before even that.
//! Crash debris is swept (a stale `base-*.tmp`, bases and segments older
//! than the winning base, and the `spill-*` files of builds up to PR 24,
//! which wrote cold feature chunks out of memory). A file in any other
//! format — the text journal of builds before v3, the `snapshot.json` of
//! builds up to PR 20 — fails the open with
//! [`DurableError::UnsupportedFormat`] before anything in the directory
//! is touched. Opening, appending, scanning, publishing and folding all
//! fail with that one error type.
//!
//! Compaction is one call, [`DurableStore::compact`]. Under the journal
//! lock — atomically with respect to every mutator — it repairs a torn
//! tail a failed append left (a sealed segment is never repaired), cuts
//! the store's ops ([`VisualStore::ops`]) *and* rotates the live
//! segment, so the cut covers exactly the ops in the segments it seals.
//! Writers then proceed into the new live segment while the fold writes
//! the cut outside the lock, publishes it with the PR 4 staged-rename
//! protocol (stage, fsync, rename, parent fsync) and retires the old
//! base and the folded segments without syncing their removal; writers
//! only ever wait for the cut.
//!
//! Every call that changes the disk goes through [`crate::disk`], whose
//! per-thread hook lets a test fail one or record the trace a crash
//! explorer enumerates crash states from (`tests/crash_states.rs`): a
//! crash keeps every synced effect, any prefix of a file's unsynced
//! writes (or, for a short one, any subset of its pages) and an
//! in-order prefix of a directory's unsynced creates, renames and
//! removals. That is why [`DurableStore::open`] syncs the parent of a
//! directory it creates, and why a zeroed header reads as an unstamped
//! one.
//!
//! Epochs make all of this crash-safe. A base at epoch `B` means
//! "replay every `wal-<e>.log` with `e >= B`, ascending"; the next
//! epoch's empty segment is always created *before* the base naming it
//! is published. A crash on either side of the publish leaves a base
//! whose surviving segments replay to exactly the acknowledged state —
//! ops are never replayed twice and never lost.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tvdp_kernel::sync::Mutex;

use crate::disk;
use crate::persist;
use crate::store::{Replays, StorageError, VisualStore};
use crate::wal::{self, Wal, WalOp};

/// File name of the JSON snapshot that builds up to PR 20 kept in a
/// durable store directory; its presence fails the open.
const LEGACY_SNAPSHOT_FILE: &str = "snapshot.json";

/// Errors from opening, mutating, or compacting a durable store, and
/// from appending to or scanning one of its segments ([`crate::wal`]).
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record with an intact checksum carried an undecodable payload
    /// — version skew or a buggy writer, not a torn write; recovery
    /// refuses rather than silently dropping acknowledged operations.
    Corrupt {
        /// 0-based index of the bad record.
        record: usize,
        /// Decoder message.
        message: String,
    },
    /// The segment does not start with [`crate::wal::SEGMENT_MAGIC`]:
    /// it holds some other format's bytes (or, for a sealed segment,
    /// lost its header). The file is left exactly as found.
    UnsupportedFormat {
        /// The refused segment.
        path: PathBuf,
        /// Its first bytes (at most eight).
        found: Vec<u8>,
    },
    /// A mutation was refused by the store's validator before anything
    /// was journaled.
    Storage(StorageError),
    /// A call the store refuses before touching anything: a second
    /// compaction while one is in flight, or an upload-marker table
    /// offered as a mutation.
    Rejected(String),
    /// Replaying a base or journal segment could not reproduce the
    /// state it records; names the segment and the record.
    Replay(String),
    /// The store is in the read-only degraded state: a journal write
    /// fault (disk full, dying device) tripped it, mutations are being
    /// shed, and reads continue from the applied state. Clears
    /// automatically once a mutation's write probe succeeds again.
    ReadOnly(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::Corrupt { record, message } => {
                write!(f, "corrupt wal record {record}: {message}")
            }
            DurableError::UnsupportedFormat { path, found } => write!(
                f,
                "{} is not a v3 segment (it starts with \"{}\") and is left as found. Text \
                 journals, JSON snapshots and JSON store files come from older builds: commit \
                 0104dbe (PR 20) is the last that reads the JSON form, and `tvdp compact <dir>` \
                 with the build that wrote a text journal folds it into that form",
                path.display(),
                found.escape_ascii()
            ),
            DurableError::Storage(e) => write!(f, "{e}"),
            DurableError::Rejected(m) => write!(f, "rejected: {m}"),
            DurableError::Replay(m) => write!(f, "replay failed: {m}"),
            DurableError::ReadOnly(m) => {
                write!(f, "store is read-only (journal write fault): {m}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<StorageError> for DurableError {
    fn from(e: StorageError) -> Self {
        DurableError::Storage(e)
    }
}

/// What [`DurableStore::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL epoch the store is now on.
    pub epoch: u64,
    /// Whether a base segment existed.
    pub snapshot_found: bool,
    /// Ops replayed from the journal on top of the base (the base's own
    /// records are not counted).
    pub replayed_ops: usize,
    /// Torn trailing bytes truncated from the WAL.
    pub torn_bytes: u64,
    /// Crash-debris files swept (stale staging file, bases and WALs
    /// from older epochs).
    pub debris_removed: usize,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: snapshot {}, {} op(s) replayed, {} torn byte(s) truncated, {} debris file(s) removed",
            self.epoch,
            if self.snapshot_found { "loaded" } else { "absent" },
            self.replayed_ops,
            self.torn_bytes,
            self.debris_removed,
        )
    }
}

/// What a compaction ([`DurableStore::compact`]) accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// WAL epoch after rotation (the new base segment's).
    pub epoch: u64,
    /// Journaled ops folded into the base.
    pub ops_compacted: usize,
    /// Total bytes across the folded journal segments.
    pub wal_bytes_before: u64,
    /// Size of the published base segment, in bytes.
    pub snapshot_bytes: u64,
    /// Journal segments folded into the base.
    pub tiers_merged: usize,
}

impl std::fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: {} op(s) folded into a {} byte snapshot, {} wal byte(s) retired; \
             {} tier(s) merged",
            self.epoch,
            self.ops_compacted,
            self.snapshot_bytes,
            self.wal_bytes_before,
            self.tiers_merged,
        )
    }
}

/// The store's write-path health, a three-state machine:
///
/// ```text
///   Ok ──write fault──▶ ReadOnly ──probe + write succeed──▶ Degraded
///   Degraded ──next write succeeds──▶ Ok
///   Degraded ──write fault──▶ ReadOnly
/// ```
///
/// `ReadOnly` sheds every mutation with a typed
/// [`DurableError::ReadOnly`] (after one cheap recovery probe per
/// attempt); reads are unaffected in every state. `Degraded` is the
/// probation window between the first post-fault success and the
/// confirming second one, so health dashboards can see a store that
/// recovered but has not yet re-proven itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Writes and reads both healthy.
    Ok,
    /// Recovering: the last write succeeded after a fault; one more
    /// success returns the store to [`HealthState::Ok`].
    Degraded,
    /// Mutations are shed; reads continue from the applied state.
    ReadOnly,
}

impl HealthState {
    /// Lowercase wire name (`"ok"` / `"degraded"` / `"read_only"`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read_only",
        }
    }
}

/// A point-in-time health report for one durable store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHealth {
    /// Current write-path state.
    pub state: HealthState,
    /// Journal write faults observed since open.
    pub write_faults: u64,
    /// The most recent write fault's message, until fully recovered.
    pub last_error: Option<String>,
    /// Live WAL epoch.
    pub epoch: u64,
}

struct Journal {
    wal: Wal,
    /// Epoch of the live (highest) segment.
    epoch: u64,
    /// Epoch the current base was cut against; segments in
    /// `base_epoch..=epoch` are the unfolded journal.
    base_epoch: u64,
    /// Unfolded ops across every live segment (never the base's).
    wal_ops: usize,
    /// Write-path health machine (see [`HealthState`]).
    health: HealthState,
    /// Journal write faults observed since open.
    write_faults: u64,
    /// Most recent write fault, until fully recovered.
    last_error: Option<String>,
}

impl Journal {
    /// Journals `ops` as one framed write + one fsync through the
    /// health machine: while `ReadOnly`, first probes recovery by
    /// truncating the torn tail the failed append left; on success the
    /// append proceeds and the state advances (`ReadOnly → Degraded →
    /// Ok`), on failure the mutation is shed with a typed
    /// [`DurableError::ReadOnly`]. Any append failure trips the store to
    /// `ReadOnly` — never a panic, and never a store/journal divergence,
    /// because ops are applied only after their frames are durable.
    fn commit(&mut self, ops: &[WalOp]) -> Result<(), DurableError> {
        if self.health == HealthState::ReadOnly {
            if let Err(e) = self.wal.repair_tail() {
                self.last_error = Some(e.to_string());
                return Err(DurableError::ReadOnly(format!(
                    "torn journal tail could not be repaired: {e}"
                )));
            }
        }
        let entered = self.health;
        match self.wal.append_batch(ops) {
            Ok(()) => {
                self.wal_ops += ops.len();
                self.health = match entered {
                    HealthState::ReadOnly => HealthState::Degraded,
                    _ => HealthState::Ok,
                };
                if self.health == HealthState::Ok {
                    self.last_error = None;
                }
                Ok(())
            }
            Err(e) => {
                self.write_faults += 1;
                let message = e.to_string();
                self.last_error = Some(message.clone());
                self.health = HealthState::ReadOnly;
                if entered == HealthState::ReadOnly {
                    Err(DurableError::ReadOnly(message))
                } else {
                    Err(e)
                }
            }
        }
    }
}

/// A [`VisualStore`] whose every mutation is journaled to a
/// write-ahead log before being applied, making acknowledged writes
/// crash-durable.
///
/// The wrapper must be the directory's sole mutator: mutations
/// serialize on an internal lock so the id journaled for an op is
/// exactly the id the store assigns. Reads go straight to the shared
/// store ([`DurableStore::store_arc`]) without touching the journal.
pub struct DurableStore {
    dir: PathBuf,
    store: Arc<VisualStore>,
    journal: Mutex<Journal>,
    /// Whether a [`DurableStore::compact`] is in flight: a second one
    /// is refused.
    fold_active: Mutex<bool>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

/// Not `wal-*`: a base is not journal growth, and tooling that sizes
/// the journal sums that prefix.
fn base_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("base-{epoch}.seg"))
}

/// The epoch in a `<prefix><epoch><suffix>` file name.
fn epoch_of(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// What [`replay_segment`] got through.
struct Replayed {
    /// Records applied.
    ops: usize,
    /// Offset just past the last intact record.
    valid_len: usize,
    /// Bytes of the file past `valid_len`.
    torn: u64,
    /// Whether the last record was the marker table that ends a base.
    closed: bool,
}

/// Applies the records of the segment at `path`, streamed from the
/// file, to `store`, one at a time and in order — the marker table
/// evicts as it fills, so only the state *at* a record says whether its
/// marker is still held — each through the store's validator. A refused
/// record is a [`DurableError::Replay`] naming the segment and the
/// record; so is a marker table outside a `base` segment, and anything
/// after one.
fn replay_segment(
    store: &mut VisualStore,
    path: &Path,
    base: bool,
) -> Result<Replayed, DurableError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut scan = wal::scan(path, file)?;
    let mut ops = 0usize;
    let mut closed = false;
    for op in &mut scan {
        let op = op?;
        let refused = |m: String| {
            let name = path.file_name().unwrap_or(path.as_os_str());
            DurableError::Replay(format!("{} record {ops}: {m}", name.to_string_lossy()))
        };
        if closed {
            return Err(refused(
                "a record after the marker table that ends a base".into(),
            ));
        }
        if matches!(op, WalOp::UploadMarkers(_)) {
            if !base {
                return Err(refused(
                    "an upload-marker table outside a base segment".into(),
                ));
            }
            closed = true;
        }
        // A replayed upload is never journaled, so a marker the store
        // still holds means the segment disagrees with itself.
        if let Some((_, stored)) = store.replay(op).map_err(|e| refused(e.to_string()))? {
            return Err(refused(format!(
                "upload marker of {stored} journaled twice"
            )));
        }
        ops += 1;
    }
    Ok(Replayed {
        ops,
        valid_len: scan.valid_len(),
        torn: len.saturating_sub(scan.valid_len() as u64),
        closed,
    })
}

/// [`replay_segment`] for a file that is never written again — a base
/// or a sealed journal segment — returning the records applied. Every
/// record in it was fsynced before it was published or rotated away,
/// header first, so a missing header, a torn tail or a base without its
/// closing marker table is corruption, not an interrupted append, and
/// is refused rather than repaired.
fn replay_sealed(store: &mut VisualStore, path: &Path, base: bool) -> Result<usize, DurableError> {
    let replayed = replay_segment(store, path, base)?;
    if replayed.valid_len == 0 {
        // The file is a strict prefix of the header: a few bytes.
        return Err(wal::unsupported(path, &std::fs::read(path)?));
    }
    if replayed.torn > 0 {
        return Err(DurableError::Replay(format!(
            "sealed segment {} has {} torn byte(s)",
            path.display(),
            replayed.torn
        )));
    }
    if base && !replayed.closed {
        return Err(DurableError::Replay(format!(
            "base segment {} ends without its marker table: it was cut short",
            path.display()
        )));
    }
    Ok(replayed.ops)
}

impl DurableStore {
    /// Opens (or creates, its parent synced so that the new directory
    /// survives a crash) the durable store at `dir`, recovering from
    /// any crash: replays the newest base segment, then every live WAL
    /// segment (epoch >= the base's) in ascending order — truncating a
    /// torn tail only on the highest segment, the one a crash could
    /// have torn mid-append — and sweeps crash debris (stale staging
    /// files, bases and segments older than the base, the spill files
    /// of older builds).
    pub fn open(dir: &Path) -> Result<(DurableStore, RecoveryReport), DurableError> {
        disk::create_dir(dir)?;

        // Inventory the directory: bases (the highest wins), journal
        // segments, and debris — staging files (a base that never
        // reached its rename; the published one, if any, is intact) and
        // the cold-chunk files builds up to PR 24 wrote beside the base
        // (`spill-<kind>-<dim>-<chunk>.bin`, staged as `.bin.tmp`).
        let mut bases: Vec<u64> = Vec::new();
        let mut segments: Vec<u64> = Vec::new();
        let mut debris: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if name == LEGACY_SNAPSHOT_FILE {
                let mut found = Vec::new();
                std::fs::File::open(entry.path())?
                    .take(wal::SEGMENT_MAGIC.len() as u64)
                    .read_to_end(&mut found)?;
                return Err(wal::unsupported(&entry.path(), &found));
            } else if let Some(epoch) = epoch_of(&name, "base-", ".seg") {
                bases.push(epoch);
            } else if let Some(epoch) = epoch_of(&name, "wal-", ".log") {
                segments.push(epoch);
            } else if (name.starts_with("spill-")
                && (name.ends_with(".bin") || name.ends_with(".bin.tmp")))
                || (name.starts_with("base-") && name.ends_with(".tmp"))
                // Unparseable epoch: not ours, treat as debris.
                || (name.starts_with("wal-") && name.ends_with(".log"))
            {
                debris.push(entry.path());
            }
        }
        // Bases and segments below the winning base were folded into it
        // before a crash interrupted their removal.
        let base_epoch = bases.iter().copied().max();
        let folded = |epoch: &u64| Some(*epoch) < base_epoch;
        debris.extend(
            bases
                .iter()
                .filter(|e| folded(e))
                .map(|e| base_path(dir, *e)),
        );
        debris.extend(
            segments
                .iter()
                .filter(|e| folded(e))
                .map(|e| wal_path(dir, *e)),
        );
        segments.retain(|e| !folded(e));
        segments.sort_unstable();

        // The base first, and the sweep only once it has replayed whole:
        // a base that is refused leaves what it superseded in place.
        let mut store = VisualStore::new();
        if let Some(epoch) = base_epoch {
            replay_sealed(&mut store, &base_path(dir, epoch), true)?;
        }
        let base_epoch = base_epoch.unwrap_or(0);
        debris.sort();
        for path in &debris {
            disk::remove(path)?;
        }
        if let Some(path) = debris.first() {
            disk::sync_parent(path)?;
        }
        let (live_epoch, sealed) = match segments.split_last() {
            Some((&highest, sealed)) => (highest, sealed),
            None => (base_epoch, &[][..]),
        };
        let mut replayed_ops = 0usize;
        for &epoch in sealed {
            replayed_ops += replay_sealed(&mut store, &wal_path(dir, epoch), false)?;
        }
        let live_path = wal_path(dir, live_epoch);
        let mut torn_bytes = 0u64;
        let wal = if live_path.exists() {
            let replayed = replay_segment(&mut store, &live_path, false)?;
            replayed_ops += replayed.ops;
            torn_bytes = replayed.torn;
            Wal::resume(&live_path, replayed.valid_len as u64)?
        } else {
            Wal::create(&live_path)?
        };

        let report = RecoveryReport {
            epoch: live_epoch,
            snapshot_found: !bases.is_empty(),
            replayed_ops,
            torn_bytes,
            debris_removed: debris.len(),
        };
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                store: Arc::new(store),
                journal: Mutex::new(Journal {
                    wal,
                    epoch: live_epoch,
                    base_epoch,
                    wal_ops: replayed_ops,
                    health: HealthState::Ok,
                    write_faults: 0,
                    last_error: None,
                }),
                fold_active: Mutex::new(false),
            },
            report,
        ))
    }

    /// A shared handle to the underlying store (e.g. to hand to query
    /// engines, which only read).
    pub fn store_arc(&self) -> Arc<VisualStore> {
        Arc::clone(&self.store)
    }

    /// The one durable write path, and group commit —
    /// [`VisualStore::apply_batch`] with the journal write between check
    /// and apply: the batch is validated whole against the store *and*
    /// its own earlier ops, journaled as one framed write + one fsync
    /// ([`Wal::append_batch`]), and only then applied. When this returns
    /// `Ok` the whole batch survives a crash; a refused batch journals
    /// nothing, a failed write applies nothing, and a crash mid-append
    /// recovers an in-order prefix of the batch, none of which was
    /// acknowledged. Ops carry explicit ids: callers allocate them up
    /// front, e.g. from a platform-wide allocator, and replay reproduces
    /// them exactly. Uploads whose idempotency marker is already stored
    /// never reach the journal and are reported as [`Replays`].
    pub fn apply_batch(&self, mut ops: Vec<WalOp>) -> Result<Replays, DurableError> {
        if ops.iter().any(|op| matches!(op, WalOp::UploadMarkers(_))) {
            return Err(DurableError::Rejected(
                "an upload-marker table is a base-segment record, not a mutation".into(),
            ));
        }
        let mut journal = self.journal.lock();
        let replays = self.store.validate_batch(&mut ops)?;
        if !ops.is_empty() {
            journal.commit(&ops)?;
            self.store.apply_validated(ops);
        }
        Ok(replays)
    }

    /// The store's current write-path health (see [`HealthState`]).
    pub fn health(&self) -> StoreHealth {
        let journal = self.journal.lock();
        StoreHealth {
            state: journal.health,
            write_faults: journal.write_faults,
            last_error: journal.last_error.clone(),
            epoch: journal.epoch,
        }
    }

    /// Folds the journal into a fresh base segment and rotates the WAL
    /// to the next epoch. Under the journal lock — atomically with
    /// respect to every mutator — this cuts the store's ops and
    /// rotates the live segment, so the cut covers exactly the ops
    /// journaled so far and nothing that lands afterwards. Writers wait
    /// for that cut only: the base is written, published and the folded
    /// files retired outside the lock.
    ///
    /// Safe against a crash at any point: the next epoch's empty WAL is
    /// created *before* the base naming it is atomically published, and
    /// the superseded base and segments are only removed after —
    /// whichever side of the publish a crash lands on, the surviving
    /// base pairs with intact segments that replay to the acknowledged
    /// state. A fold that fails publishes nothing and leaves no staging
    /// file; its ops stay in the journal and the next call folds them.
    /// A call while another is in flight is [`DurableError::Rejected`].
    pub fn compact(&self) -> Result<CompactionReport, DurableError> {
        {
            let mut active = self.fold_active.lock();
            if *active {
                return Err(DurableError::Rejected(
                    "a compaction is already in progress".into(),
                ));
            }
            *active = true;
        }
        let folded = self.fold();
        *self.fold_active.lock() = false;
        folded
    }

    /// [`DurableStore::compact`] behind its gate.
    fn fold(&self) -> Result<CompactionReport, DurableError> {
        let mut journal = self.journal.lock();
        // A failed append may have left torn bytes in the live segment,
        // and a sealed segment is never repaired: cut them now, or the
        // rotation below seals them and the next open refuses the
        // directory. If that fails, nothing rotates.
        journal.wal.repair_tail()?;
        let mut folded = Vec::new();
        let mut wal_bytes_before = 0u64;
        for epoch in journal.base_epoch..=journal.epoch {
            let path = wal_path(&self.dir, epoch);
            if path.exists() {
                wal_bytes_before += std::fs::metadata(&path)?.len();
                folded.push(path);
            }
        }
        let new_base = journal.epoch + 1;
        let next_wal = Wal::create(&wal_path(&self.dir, new_base))?;
        // The cut happens while the journal lock still excludes every
        // mutator: ops journaled up to here are in the cut and in the
        // sealed segments; ops journaled after go to the new live
        // segment only. Either way nothing can replay twice.
        let cut = self.store.ops();
        let ops_compacted = journal.wal_ops;
        let old_base = journal.base_epoch;
        journal.wal = next_wal;
        journal.epoch = new_base;
        journal.wal_ops = 0;
        drop(journal);

        let dest = base_path(&self.dir, new_base);
        let snapshot_bytes = match persist::write_base(&dest, &cut) {
            Ok(bytes) => bytes,
            Err(e) => {
                // Nothing was published: the sealed segments still
                // replay on open, and the next fold reports their ops.
                self.journal.lock().wal_ops += ops_compacted;
                return Err(e);
            }
        };
        self.journal.lock().base_epoch = new_base;
        // Retire what the new base supersedes. Best-effort, and not
        // synced: the published base outranks the files, so a removal a
        // crash undoes is swept as debris by the next open.
        for path in [&base_path(&self.dir, old_base)].into_iter().chain(&folded) {
            disk::remove(path).ok();
        }
        Ok(CompactionReport {
            epoch: new_base,
            ops_compacted,
            wal_bytes_before,
            snapshot_bytes,
            tiers_merged: folded.len(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::annotation::{Annotation, AnnotationSource, RegionOfInterest};
    use crate::ids::{AnnotationId, ClassificationId, ImageId, UserId};
    use crate::record::{ImageMeta, ImageOrigin};
    use crate::store::first_difference;
    use crate::wal::pixel_blob;
    use tvdp_geo::GeoPoint;
    use tvdp_vision::{FeatureKind, Image};

    /// The upload-marker table of `store`: the last op of its dump.
    pub(crate) fn markers(store: &VisualStore) -> Vec<(String, ImageId, u64)> {
        match store.ops().pop() {
            Some(WalOp::UploadMarkers(markers)) => markers,
            other => panic!("a dump ends in its marker table, not {other:?}"),
        }
    }

    impl DurableStore {
        /// Current WAL size in bytes, header included.
        fn wal_bytes(&self) -> std::io::Result<u64> {
            let epoch = self.journal.lock().epoch;
            Ok(std::fs::metadata(wal_path(&self.dir, epoch))?.len())
        }
    }

    /// Size of a segment holding no record: its header.
    const EMPTY_WAL: u64 = crate::wal::SEGMENT_MAGIC.len() as u64;

    fn meta() -> ImageMeta {
        ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0, -118.25),
            fov: None,
            captured_at: 100,
            uploaded_at: 110,
            keywords: vec!["test".into()],
        }
    }

    /// A scratch directory under the temp dir, removed when dropped —
    /// by a failing test's unwinding too.
    pub(crate) struct Scratch(PathBuf);

    impl std::ops::Deref for Scratch {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for Scratch {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    pub(crate) fn temp_dir(name: &str) -> Scratch {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-recovery-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        Scratch(p)
    }

    /// An image at the store's next id, journaled as a batch of one.
    fn journal_image(
        ds: &DurableStore,
        origin: ImageOrigin,
        pixels: Option<Image>,
    ) -> Result<ImageId, DurableError> {
        let id = ds.store.peek_next_image_id();
        ds.apply_batch(vec![WalOp::AddImage {
            id,
            meta: meta(),
            origin,
            pixels: pixels.as_ref().map(pixel_blob),
        }])?;
        Ok(id)
    }

    /// A human label at the store's next annotation id.
    fn annotate(
        ds: &DurableStore,
        image: ImageId,
        classification: ClassificationId,
        label: usize,
        confidence: f32,
    ) -> Result<Replays, DurableError> {
        ds.apply_batch(vec![WalOp::Annotate(Annotation {
            id: ds.store.peek_next_annotation_id(),
            image,
            classification,
            label,
            confidence,
            source: AnnotationSource::Human(UserId(1)),
            region: None,
        })])
    }

    /// A keyed upload at the store's next id: the id it landed at (or
    /// was already stored at) and whether it was a replay.
    fn upload(
        ds: &DurableStore,
        marker: &str,
        features: Vec<(FeatureKind, Vec<f32>)>,
    ) -> (ImageId, bool) {
        let id = ds.store.peek_next_image_id();
        let replays = ds
            .apply_batch(vec![WalOp::IngestUpload {
                marker: Some(marker.into()),
                id,
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: None,
                features,
            }])
            .unwrap();
        replays
            .first()
            .map_or((id, false), |&(_, stored)| (stored, true))
    }

    fn feature(image: ImageId, kind: FeatureKind, vector: Vec<f32>) -> WalOp {
        WalOp::PutFeature {
            image,
            kind,
            vector,
        }
    }

    fn scheme(id: u64, name: &str, labels: &[&str]) -> WalOp {
        WalOp::RegisterScheme {
            id: ClassificationId(id),
            name: name.into(),
            labels: labels.iter().map(|l| l.to_string()).collect(),
        }
    }

    fn populate(ds: &DurableStore) -> (ImageId, ClassificationId) {
        let img = journal_image(
            ds,
            ImageOrigin::Original,
            Some(Image::from_fn(2, 2, |x, y| [x as u8, y as u8, 3])),
        )
        .unwrap();
        let cls = ds.store.peek_next_classification_id();
        ds.apply_batch(vec![scheme(cls.raw(), "cleanliness", &["clean", "dirty"])])
            .unwrap();
        ds.apply_batch(vec![feature(img, FeatureKind::Cnn, vec![0.5, 0.25])])
            .unwrap();
        annotate(ds, img, cls, 1, 0.8).unwrap();
        (img, cls)
    }

    #[test]
    fn acked_mutations_survive_reopen_without_compaction() {
        let dir = temp_dir("reopen");
        let (ds, report) = DurableStore::open(&dir).unwrap();
        assert!(!report.snapshot_found);
        let (img, cls) = populate(&ds);
        let live = ds.store.ops();
        drop(ds);

        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 4);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        assert_eq!(ds2.store.annotations_of(img).len(), 1);
        assert!(ds2.store.scheme(cls).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let dir = temp_dir("compact");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let (img, _) = populate(&ds);
        // Two more full arena chunks of CNN rows (builds up to PR 24
        // spilled all but the newest frozen chunk here).
        let rows = 2 * tvdp_kernel::ROWS_PER_CHUNK;
        let ops = (1..=rows)
            .map(|i| WalOp::IngestUpload {
                marker: None,
                id: ImageId(img.raw() + i as u64),
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: None,
                features: vec![(FeatureKind::Cnn, vec![i as f32, -(i as f32)])],
            })
            .collect();
        ds.apply_batch(ops).unwrap();
        let live = ds.store.ops();
        let before = ds.wal_bytes().unwrap();
        assert!(before > EMPTY_WAL);
        let report = ds.compact().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.ops_compacted, 4 + rows);
        assert_eq!(report.wal_bytes_before, before);
        assert_eq!(ds.wal_bytes().unwrap(), EMPTY_WAL);
        assert_eq!(first_difference(&ds.store.ops(), &live), None);
        // The journal is the only format a compaction writes: no
        // `spill-*` file beside the base.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["base-1.seg", "wal-1.log"]);
        // The base is the cut rendered as records, across every batch
        // the writer encodes.
        assert_eq!(
            std::fs::read(dir.join("base-1.seg")).unwrap(),
            render(&live)
        );
        drop(ds);

        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert!(report.snapshot_found);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_after_compaction_replay_on_top_of_snapshot() {
        let dir = temp_dir("post-compact");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let (img, cls) = populate(&ds);
        ds.compact().unwrap();
        annotate(&ds, img, cls, 0, 0.4).unwrap();
        let live = ds.store.ops();
        drop(ds);
        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        // The base's own records were not replayed ops, so the next fold
        // counts only what the journal held.
        assert_eq!(ds2.compact().unwrap().ops_compacted, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_mutations_are_never_journaled() {
        let dir = temp_dir("rejected");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let wal0 = ds.wal_bytes().unwrap();
        assert!(ds
            .apply_batch(vec![feature(ImageId(9), FeatureKind::Cnn, vec![1.0])])
            .is_err());
        let augmented = ImageOrigin::Augmented {
            parent: ImageId(9),
            op: "flip".into(),
        };
        assert!(journal_image(&ds, augmented, None).is_err());
        assert!(matches!(
            ds.apply_batch(vec![scheme(0, "bad", &[])]),
            Err(DurableError::Storage(StorageError::BadVocabulary(_)))
        ));
        assert!(matches!(
            annotate(&ds, ImageId(0), ClassificationId(0), 0, 1.5),
            Err(DurableError::Storage(StorageError::BadConfidence(_)))
        ));
        assert_eq!(ds.wal_bytes().unwrap(), wal0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_upload_dedups_across_restart_and_compaction() {
        let dir = temp_dir("idem-upload");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let features = vec![(FeatureKind::Cnn, vec![1.0, -2.0])];
        let (id, replayed) = upload(&ds, "edge0-s7", features);
        assert!(!replayed);
        // A same-process retry dedups without growing the journal.
        let wal_after_first = ds.wal_bytes().unwrap();
        let (again, replayed) = upload(&ds, "edge0-s7", vec![]);
        assert!(replayed);
        assert_eq!(again, id);
        assert_eq!(ds.wal_bytes().unwrap(), wal_after_first);
        drop(ds);

        // The ack was lost and the server restarted: the retry still
        // finds the marker after WAL replay.
        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 1);
        let (after, replayed) = upload(&ds2, "edge0-s7", vec![]);
        assert!(replayed);
        assert_eq!(after, id);
        assert_eq!(ds2.store.len(), 1);
        assert_eq!(
            ds2.store.feature(id, FeatureKind::Cnn).unwrap(),
            vec![1.0, -2.0]
        );

        // Compaction folds the marker into the snapshot.
        ds2.compact().unwrap();
        drop(ds2);
        let (ds3, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 0);
        let (after, replayed) = upload(&ds3, "edge0-s7", vec![]);
        assert!(replayed);
        assert_eq!(after, id);
        assert_eq!(ds3.store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_key_reused_after_its_marker_was_evicted_replays_as_journaled() {
        use crate::store::UPLOAD_MARKER_CAPACITY;
        let dir = temp_dir("marker-reuse");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let upload = |i: u64, marker: &str| WalOp::IngestUpload {
            marker: Some(marker.into()),
            id: ImageId(i),
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![],
        };
        let n = UPLOAD_MARKER_CAPACITY as u64 + 1;
        let fill = (0..n).map(|i| upload(i, &format!("m{i}"))).collect();
        assert!(ds.apply_batch(fill).unwrap().is_empty());
        // "m0" was evicted, so the same key is a fresh upload again and
        // the journal now names that marker twice — legitimately.
        assert!(ds.apply_batch(vec![upload(n, "m0")]).unwrap().is_empty());
        let live = ds.store.ops();
        drop(ds);
        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops as u64, n + 1);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn three_tables_of_keyed_uploads_replay_to_the_live_marker_table() {
        use crate::store::UPLOAD_MARKER_CAPACITY;
        use std::collections::BTreeMap;
        let dir = temp_dir("marker-churn");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        // The table as a scan would keep it: the lowest sequence goes.
        let mut model: BTreeMap<String, (ImageId, u64)> = BTreeMap::new();
        let mut seq = 0;
        let uploads = 3 * UPLOAD_MARKER_CAPACITY;
        // Keys come back after `capacity + 1024` others, their markers
        // evicted before the batch that reuses them starts; every 100th
        // upload retries the previous key, whose marker is held, and is
        // skipped.
        let key = |i: usize| format!("k{}", i % (UPLOAD_MARKER_CAPACITY + 1024));
        for first in (0..uploads).step_by(512) {
            let batch: Vec<WalOp> = (first..first + 512)
                .map(|i| WalOp::IngestUpload {
                    marker: Some(if i % 100 == 99 { key(i - 1) } else { key(i) }),
                    id: ImageId(i as u64),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                    features: Vec::new(),
                })
                .collect();
            let replays = ds.apply_batch(batch).unwrap();
            let retried: Vec<u64> = replays.iter().map(|(id, _)| id.raw()).collect();
            let expected: Vec<u64> = (first as u64..first as u64 + 512)
                .filter(|i| i % 100 == 99)
                .collect();
            assert_eq!(retried, expected);
            for i in (first..first + 512).filter(|i| i % 100 != 99) {
                model.insert(key(i), (ImageId(i as u64), seq));
                seq += 1;
                if model.len() > UPLOAD_MARKER_CAPACITY {
                    let oldest = model.iter().min_by_key(|(_, (_, s))| *s).unwrap();
                    let oldest = oldest.0.clone();
                    model.remove(&oldest);
                }
            }
        }
        let model: Vec<(String, ImageId, u64)> = model
            .into_iter()
            .map(|(key, (id, seq))| (key, id, seq))
            .collect();
        assert_eq!(markers(&ds.store), model);
        let live = ds.store.ops();
        drop(ds);
        let (ds, report) = DurableStore::open(&dir).unwrap();
        let retries = (0..uploads).filter(|i| i % 100 == 99).count();
        assert_eq!(report.replayed_ops, uploads - retries);
        assert_eq!(markers(&ds.store), model);
        assert_eq!(first_difference(&ds.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_composite_upload_record_is_all_or_nothing() {
        use crate::wal::{frame, SEGMENT_MAGIC};
        let dir = temp_dir("torn-upload");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let id = ds.store.peek_next_image_id();
        drop(ds);
        // Keyed or not, an upload is one record.
        for marker in [Some("edge1-s42"), None] {
            let op = WalOp::IngestUpload {
                marker: marker.map(String::from),
                id,
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: Some(pixel_blob(&Image::from_raw(2, 2, vec![9u8; 12]))),
                features: vec![(FeatureKind::Cnn, vec![0.5, 0.25])],
            };
            let mut segment = SEGMENT_MAGIC.to_vec();
            segment.extend_from_slice(&frame(&op.encode()));
            let wal_file = dir.join("wal-0.log");
            // Crash the append at every byte offset, the segment header's
            // included: recovery must see either the whole upload (rows +
            // marker) or none of it — never an image without its
            // features or marker.
            for cut in 0..=segment.len() {
                std::fs::write(&wal_file, &segment[..cut]).unwrap();
                let (ds, report) = DurableStore::open(&dir).unwrap();
                if cut == segment.len() {
                    assert_eq!(report.replayed_ops, 1);
                    assert_eq!(ds.store.len(), 1);
                    assert_eq!(ds.store.upload_marker("edge1-s42"), marker.map(|_| id));
                    assert_eq!(
                        ds.store.feature(id, FeatureKind::Cnn).unwrap(),
                        vec![0.5, 0.25]
                    );
                } else {
                    assert_eq!(report.replayed_ops, 0, "cut at byte {cut}");
                    assert_eq!(ds.store.len(), 0, "cut at byte {cut}");
                    assert!(
                        ds.store.upload_marker("edge1-s42").is_none(),
                        "cut at byte {cut}"
                    );
                }
                drop(ds);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_debris_is_swept_on_open() {
        let dir = temp_dir("debris");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        populate(&ds);
        ds.compact().unwrap(); // base epoch is now 1
        drop(ds);
        // Plant an interrupted publish, a superseded base and a folded
        // segment whose removals were interrupted, an interrupted spill,
        // and a stale spill file.
        std::fs::write(dir.join("base-2.seg.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("base-0.seg"), b"stale").unwrap();
        std::fs::write(dir.join("wal-0.log"), b"stale").unwrap();
        std::fs::write(dir.join("spill-cnn-2-0.bin.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("spill-cnn-2-0.bin"), b"stale").unwrap();
        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.debris_removed, 5);
        assert_eq!(report.epoch, 1);
        assert!(!dir.join("base-2.seg.tmp").exists());
        assert!(!dir.join("base-0.seg").exists());
        assert!(dir.join("base-1.seg").exists());
        assert!(!dir.join("wal-0.log").exists());
        assert!(!dir.join("spill-cnn-2-0.bin").exists());
        assert_eq!(ds2.store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Leaves `dir` as a compaction that rotated to `epoch` and crashed
    /// before publishing its base leaves it: the segment below is sealed
    /// and `wal-<epoch>.log` is a fresh one holding its header.
    fn crash_after_rotation(dir: &Path, epoch: u64) {
        std::fs::write(wal_path(dir, epoch), crate::wal::SEGMENT_MAGIC).unwrap();
    }

    #[test]
    fn sealed_segments_replay_in_epoch_order_on_open() {
        let dir = temp_dir("sealed");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let (img, cls) = populate(&ds); // 4 ops in segment 0
        drop(ds);
        crash_after_rotation(&dir, 1);
        let (ds, report) = DurableStore::open(&dir).unwrap();
        assert_eq!((report.epoch, report.replayed_ops), (1, 4));
        annotate(&ds, img, cls, 0, 0.5).unwrap(); // 1 op in segment 1
        drop(ds);
        crash_after_rotation(&dir, 2);
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let hist = feature(img, FeatureKind::ColorHistogram, vec![0.1, 0.2]);
        ds.apply_batch(vec![hist]).unwrap(); // 1 op in segment 2
        let live = ds.store.ops();
        drop(ds);

        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.replayed_ops, 6);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        // The next fold takes every segment at once.
        let folded = ds2.compact().unwrap();
        assert_eq!((folded.epoch, folded.ops_compacted), (3, 6));
        assert_eq!(folded.tiers_merged, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_sealed_segment_is_a_hard_error() {
        let dir = temp_dir("torn-sealed");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        populate(&ds);
        drop(ds);
        crash_after_rotation(&dir, 1);
        // Tear the sealed segment's tail: every record in it was
        // fsynced before the rotation, so this is corruption.
        let sealed = dir.join("wal-0.log");
        let bytes = std::fs::read(&sealed).unwrap();
        std::fs::write(&sealed, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            DurableStore::open(&dir),
            Err(DurableError::Replay(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_batch_is_atomic_durable_and_validated() {
        let dir = temp_dir("batch");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let img = ds.store.peek_next_image_id();
        let cls = ds.store.peek_next_classification_id();
        let ann = ds.store.peek_next_annotation_id();
        let ops = vec![
            WalOp::AddImage {
                id: img,
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: None,
            },
            WalOp::RegisterScheme {
                id: cls,
                name: "cleanliness".into(),
                labels: vec!["clean".into(), "dirty".into()],
            },
            WalOp::PutFeature {
                image: img,
                kind: FeatureKind::Cnn,
                vector: vec![0.5, 0.25],
            },
            WalOp::Annotate(Annotation {
                id: ann,
                image: img,
                classification: cls,
                label: 1,
                confidence: 0.9,
                source: AnnotationSource::Human(UserId(1)),
                region: None,
            }),
        ];
        ds.apply_batch(ops).unwrap();
        assert_eq!(ds.store.len(), 1);
        assert_eq!(ds.store.annotations_of(img).len(), 1);
        let live = ds.store.ops();

        // A batch with a bad op anywhere journals and applies nothing.
        let wal_before = ds.wal_bytes().unwrap();
        let bad = vec![
            WalOp::AddImage {
                id: ds.store.peek_next_image_id(),
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: None,
            },
            WalOp::Annotate(Annotation {
                id: ds.store.peek_next_annotation_id(),
                image: ImageId(999),
                classification: cls,
                label: 0,
                confidence: 0.5,
                source: AnnotationSource::Human(UserId(1)),
                region: None,
            }),
        ];
        assert!(matches!(
            ds.apply_batch(bad),
            Err(DurableError::Storage(StorageError::UnknownImage(ImageId(
                999
            ))))
        ));
        assert_eq!(ds.wal_bytes().unwrap(), wal_before);
        assert_eq!(first_difference(&ds.store.ops(), &live), None);
        drop(ds);

        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 4);
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_region_past_its_image_is_refused_before_the_journal() {
        let dir = temp_dir("region-bounds");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let cls = ds.store.peek_next_classification_id();
        let label = |image, region| {
            WalOp::Annotate(Annotation {
                id: ds.store.peek_next_annotation_id(),
                image,
                classification: cls,
                label: 0,
                confidence: 1.0,
                source: AnnotationSource::Human(UserId(1)),
                region: Some(region),
            })
        };
        let add_4x3 = |id| WalOp::AddImage {
            id,
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: Some(pixel_blob(&Image::from_fn(4, 3, |_, _| [9, 9, 9]))),
        };
        let region = |x, y, width, height| RegionOfInterest {
            x,
            y,
            width,
            height,
        };
        // A region flush with the edges of an image the same batch adds.
        let img = ds.store.peek_next_image_id();
        ds.apply_batch(vec![
            add_4x3(img),
            WalOp::RegisterScheme {
                id: cls,
                name: "parts".into(),
                labels: vec!["tent".into()],
            },
            label(img, region(0, 0, 4, 3)),
        ])
        .unwrap();

        let wal_before = ds.wal_bytes().unwrap();
        let live = ds.store.ops();
        let next = ds.store.peek_next_image_id();
        for bad in [
            vec![label(img, region(usize::MAX, 0, 1, 1))],
            vec![label(img, region(0, usize::MAX, 1, 1))],
            vec![label(img, region(1, 0, 4, 1))],
            vec![add_4x3(next), label(next, region(0, 1, 1, 3))],
        ] {
            let image = match &bad[bad.len() - 1] {
                WalOp::Annotate(a) => a.image,
                _ => unreachable!(),
            };
            match ds.apply_batch(bad) {
                Err(DurableError::Storage(StorageError::RegionOutOfBounds {
                    image: refused,
                    width: 4,
                    height: 3,
                    ..
                })) => assert_eq!(refused, image),
                other => panic!("expected a region refusal, got {other:?}"),
            }
        }
        assert_eq!(ds.wal_bytes().unwrap(), wal_before, "nothing journaled");
        assert_eq!(first_difference(&ds.store.ops(), &live), None);

        // A row stored without pixels has no bounds to check against.
        let bare = journal_image(&ds, ImageOrigin::Original, None).unwrap();
        ds.apply_batch(vec![label(bare, region(usize::MAX, 7, 1, 1))])
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_validation_sees_earlier_ops_in_the_same_batch() {
        let dir = temp_dir("batch-intra");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let img = ds.store.peek_next_image_id();
        // PutFeature for an image added earlier in the same batch.
        ds.apply_batch(vec![
            WalOp::AddImage {
                id: img,
                meta: meta(),
                origin: ImageOrigin::Original,
                pixels: None,
            },
            WalOp::PutFeature {
                image: img,
                kind: FeatureKind::Cnn,
                vector: vec![1.0],
            },
        ])
        .unwrap();
        // A duplicate id *within* one batch is rejected.
        let next = ds.store.peek_next_image_id();
        let dup = |id| WalOp::AddImage {
            id,
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: None,
        };
        assert!(matches!(
            ds.apply_batch(vec![dup(next), dup(next)]),
            Err(DurableError::Storage(StorageError::DuplicateId { .. }))
        ));
        assert_eq!(ds.store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_fold_publishes_nothing_and_the_next_fold_takes_its_ops() {
        let dir = temp_dir("failed-fold");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let (img, cls) = populate(&ds);
        let listing = || {
            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            files.sort();
            files
        };
        // A directory where the fold stages its base: the staging file
        // cannot be created.
        let blocker = dir.join("base-1.seg.tmp");
        std::fs::create_dir(&blocker).unwrap();
        assert!(matches!(ds.compact(), Err(DurableError::Io(_))));
        assert_eq!(listing(), ["base-1.seg.tmp", "wal-0.log", "wal-1.log"]);
        std::fs::remove_dir(&blocker).unwrap();
        // Writers carry on in the segment the failed fold rotated to.
        annotate(&ds, img, cls, 0, 0.3).unwrap();
        // A directory where the fold publishes its base: the staging
        // file is written whole, its rename fails, and it is removed.
        let blocker = dir.join("base-2.seg");
        std::fs::create_dir(&blocker).unwrap();
        assert!(matches!(ds.compact(), Err(DurableError::Io(_))));
        assert_eq!(
            listing(),
            ["base-2.seg", "wal-0.log", "wal-1.log", "wal-2.log"]
        );
        std::fs::remove_dir(&blocker).unwrap();
        let live = ds.store.ops();

        // A crash here replays every segment to the live state.
        let frozen = temp_dir("failed-fold-frozen");
        std::fs::create_dir_all(&frozen).unwrap();
        for name in ["wal-0.log", "wal-1.log", "wal-2.log"] {
            std::fs::copy(dir.join(name), frozen.join(name)).unwrap();
        }
        let (reopened, report) = DurableStore::open(&frozen).unwrap();
        assert_eq!((report.replayed_ops, report.epoch), (5, 2));
        assert_eq!(first_difference(&reopened.store.ops(), &live), None);
        drop(reopened);
        std::fs::remove_dir_all(&frozen).ok();

        // The next fold takes the failed folds' ops too.
        let report = ds.compact().unwrap();
        assert_eq!(report.epoch, 3);
        assert_eq!(report.ops_compacted, 5);
        assert_eq!(report.tiers_merged, 3);
        assert_eq!(listing(), ["base-3.seg", "wal-3.log"]);
        drop(ds);
        let (ds2, report) = DurableStore::open(&dir).unwrap();
        assert_eq!((report.replayed_ops, report.debris_removed), (0, 0));
        assert_eq!(first_difference(&ds2.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A disk-full hook: every write keeps three bytes and fails.
    fn three_bytes_then_enospc(op: &disk::Op<'_>) -> Option<disk::Fault> {
        matches!(op, disk::Op::Write { .. }).then(|| disk::Fault {
            kept: 3,
            error: std::io::Error::from_raw_os_error(28),
        })
    }

    #[test]
    fn a_fold_repairs_the_torn_tail_it_would_otherwise_seal() {
        let dir = temp_dir("fold-torn-tail");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let img = journal_image(&ds, ImageOrigin::Original, None).unwrap();
        let acked = ds.store.ops();
        let intact = ds.wal_bytes().unwrap();
        disk::set_hook(Some(three_bytes_then_enospc));
        let torn = ds.apply_batch(vec![feature(img, FeatureKind::Cnn, vec![1.0; 4])]);
        disk::set_hook(None);
        assert!(torn.is_err());
        assert_eq!(ds.wal_bytes().unwrap(), intact + 3);
        // The publish fails: the fold rotated past wal-0.log and a crash
        // leaves it sealed.
        std::fs::create_dir(dir.join("base-1.seg")).unwrap();
        assert!(matches!(ds.compact(), Err(DurableError::Io(_))));
        drop(ds);
        std::fs::remove_dir(dir.join("base-1.seg")).unwrap();
        let (reopened, report) = DurableStore::open(&dir).unwrap();
        assert_eq!((report.replayed_ops, report.torn_bytes), (1, 0));
        assert_eq!(first_difference(&reopened.store.ops(), &acked), None);
    }

    #[test]
    fn a_compaction_while_one_is_in_flight_is_refused_and_touches_nothing() {
        let dir = temp_dir("fold-gate");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        populate(&ds);
        let listing = || {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read(e.path()).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let before = listing();
        *ds.fold_active.lock() = true;
        assert!(matches!(ds.compact(), Err(DurableError::Rejected(_))));
        assert_eq!(listing(), before);
        assert_eq!(ds.journal.lock().epoch, 0);
        // Once the fold in flight is done, the next one runs.
        *ds.fold_active.lock() = false;
        let report = ds.compact().unwrap();
        assert_eq!((report.epoch, report.ops_compacted), (1, 4));
        assert!(!*ds.fold_active.lock());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `records` as a segment: the header, then one frame each.
    fn render(records: &[WalOp]) -> Vec<u8> {
        let mut bytes = crate::wal::SEGMENT_MAGIC.to_vec();
        for op in records {
            bytes.extend_from_slice(&crate::wal::frame(&op.encode()));
        }
        bytes
    }

    /// A directory holding `records` as its base segment at epoch 0.
    fn dir_with_base(name: &str, records: &[WalOp]) -> Scratch {
        let dir = temp_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("base-0.seg"), render(records)).unwrap();
        dir
    }

    /// A store holding a row of every kind: an image with pixels, a
    /// CNN feature, a scheme, an annotation, an image without pixels,
    /// and a keyed upload.
    fn populated_store() -> VisualStore {
        let store = VisualStore::new();
        let (img, cls) = (ImageId(0), ClassificationId(0));
        store
            .apply_batch(vec![
                WalOp::AddImage {
                    id: img,
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: Some(pixel_blob(&Image::from_fn(4, 4, |x, y| {
                        [x as u8, y as u8, 9]
                    }))),
                },
                WalOp::RegisterScheme {
                    id: cls,
                    name: "cleanliness".into(),
                    labels: vec!["clean".into(), "dirty".into()],
                },
                WalOp::PutFeature {
                    image: img,
                    kind: FeatureKind::Cnn,
                    vector: vec![0.1, 0.2, 0.3],
                },
                WalOp::Annotate(Annotation {
                    id: AnnotationId(0),
                    image: img,
                    classification: cls,
                    label: 1,
                    confidence: 0.7,
                    source: AnnotationSource::Human(UserId(1)),
                    region: None,
                }),
                WalOp::AddImage {
                    id: ImageId(1),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                },
                WalOp::IngestUpload {
                    marker: Some("edge2-s9".into()),
                    id: ImageId(2),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                    features: vec![(FeatureKind::Cnn, vec![0.9])],
                },
            ])
            .unwrap();
        store
    }

    #[test]
    fn a_dump_rendered_as_a_base_opens_to_the_store_it_was_cut_from() {
        let store = populated_store();
        let rendered = render(&store.ops());
        let dir = dir_with_base("rendered-base", &store.ops());
        let (ds, report) = DurableStore::open(&dir).unwrap();
        assert!(report.snapshot_found);
        assert_eq!((report.replayed_ops, report.torn_bytes), (0, 0));
        let loaded = &ds.store;
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.annotation_count(), 1);
        let ids = loaded.image_ids();
        assert_eq!(
            loaded.feature(ids[0], FeatureKind::Cnn).unwrap(),
            vec![0.1, 0.2, 0.3]
        );
        assert_eq!(loaded.pixels(ids[0]).unwrap().get(1, 2), [1, 2, 9]);
        assert!(loaded.scheme_by_name("cleanliness").is_some());
        assert_eq!(loaded.upload_marker("edge2-s9"), Some(ids[2]));
        assert_eq!(first_difference(&loaded.ops(), &store.ops()), None);
        // What a compaction of that store publishes is the same bytes.
        let report = ds.compact().unwrap();
        assert_eq!(report.snapshot_bytes, rendered.len() as u64);
        assert_eq!(std::fs::read(dir.join("base-1.seg")).unwrap(), rendered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_that_is_not_a_whole_base_segment_is_refused() {
        let dir = temp_dir("not-a-base");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base-0.seg");
        // Refused as found, with nothing created beside it.
        let refused = |bytes: &[u8]| -> DurableError {
            std::fs::write(&base, bytes).unwrap();
            let Err(refusal) = DurableStore::open(&dir) else {
                panic!("{bytes:?} opened");
            };
            assert_eq!(std::fs::read(&base).unwrap(), bytes, "refused untouched");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
            refusal
        };
        // Empty, half a header, another format version, and the JSON
        // store file of older builds: none of them is a sealed segment.
        let json = b"{\"Header\":{\"version\":2,\"wal_epoch\":0}}\n";
        for bytes in [
            &b""[..],
            &crate::wal::SEGMENT_MAGIC[..5],
            b"TVDPWAL\x04",
            json,
        ] {
            let refusal @ DurableError::UnsupportedFormat { .. } = refused(bytes) else {
                panic!("{bytes:?}: not an unsupported-format refusal");
            };
            assert!(refusal.to_string().contains("0104dbe"), "{refusal}");
        }
        // A base cut short or with bytes after its last record is torn,
        // and a base is never repaired by truncation.
        let ops = populated_store().ops();
        let whole = render(&ops);
        let mut longer = whole.clone();
        longer.extend_from_slice(b"{not a record\n");
        for bytes in [&whole[..whole.len() - 1], &longer[..]] {
            let DurableError::Replay(message) = refused(bytes) else {
                panic!("a torn base opened");
            };
            assert!(message.contains("torn"), "{message}");
        }
        // Cut at a record boundary nothing is torn, but the marker table
        // that closes every base is missing.
        assert!(matches!(ops.last(), Some(WalOp::UploadMarkers(_))));
        let DurableError::Replay(message) = refused(&render(&ops[..ops.len() - 1])) else {
            panic!("a base without its last record opened");
        };
        assert!(message.contains("cut short"), "{message}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_base_record_the_validator_refuses_fails_open_naming_the_record() {
        let image = |id: u64, pixels: Option<crate::wal::PixelBlob>| WalOp::IngestUpload {
            marker: None,
            id: ImageId(id),
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels,
            features: vec![(FeatureKind::Cnn, vec![0.5, 0.25])],
        };
        let annotation = |id: u64, image: u64, scheme: u64, label: usize, confidence: f32| {
            WalOp::Annotate(Annotation {
                id: AnnotationId(id),
                image: ImageId(image),
                classification: ClassificationId(scheme),
                label,
                confidence,
                source: AnnotationSource::Human(UserId(1)),
                region: None,
            })
        };
        let markers = |m: &[(&str, u64)]| {
            WalOp::UploadMarkers(
                m.iter()
                    .map(|(key, image)| (key.to_string(), ImageId(*image), 0))
                    .collect(),
            )
        };
        // The head every case shares: a scheme and an image, both valid.
        let head = || vec![scheme(0, "c", &["a", "b"]), image(0, None)];
        let cases: Vec<(&str, WalOp, &str)> = vec![
            (
                "dangling annotation image",
                annotation(0, 77, 0, 0, 0.9),
                "unknown image",
            ),
            (
                "dangling annotation scheme",
                annotation(0, 0, 77, 0, 0.9),
                "unknown classification",
            ),
            (
                "dangling feature",
                feature(ImageId(77), FeatureKind::Cnn, vec![1.0]),
                "unknown image",
            ),
            ("dangling marker", markers(&[("k", 77)]), "unknown image"),
            (
                "duplicate marker",
                markers(&[("k", 0), ("k", 0)]),
                "duplicate upload marker",
            ),
            ("duplicate image id", image(0, None), "already occupied"),
            (
                "duplicate scheme id",
                scheme(0, "d", &["a"]),
                "already occupied",
            ),
            (
                "duplicate scheme name",
                scheme(1, "c", &["a"]),
                "duplicate scheme",
            ),
            ("repeated label", scheme(1, "d", &["a", "a"]), "vocabulary"),
            // 2x2 codes take 2 to 13 bytes.
            (
                "short code",
                image(1, Some((2, 2, vec![0; 1]))),
                "is impossible",
            ),
            (
                "long code",
                image(1, Some((2, 2, vec![0; 14]))),
                "is impossible",
            ),
            (
                "zero-width code",
                image(1, Some((0, 2, vec![]))),
                "is impossible",
            ),
            ("bad confidence", annotation(0, 0, 0, 0, 1.5), "confidence"),
            (
                "nan confidence",
                annotation(0, 0, 0, 0, f32::NAN),
                "confidence",
            ),
            (
                "label out of range",
                annotation(0, 0, 0, 9, 0.9),
                "out of range",
            ),
        ];
        for (what, bad, expected) in cases {
            let mut records = head();
            records.push(bad);
            // A valid record after the bad one must not be reached.
            records.push(image(5, None));
            let dir = dir_with_base("bad-base", &records);
            let before = std::fs::read(dir.join("base-0.seg")).unwrap();
            let Err(DurableError::Replay(message)) = DurableStore::open(&dir) else {
                panic!("{what}: the base opened");
            };
            assert!(
                message.starts_with("base-0.seg record 2: "),
                "{what}: {message}"
            );
            assert!(message.contains(expected), "{what}: {message}");
            assert_eq!(
                std::fs::read(dir.join("base-0.seg")).unwrap(),
                before,
                "{what}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        // A duplicate annotation id needs its first copy in the stream.
        let mut records = head();
        records.extend([annotation(0, 0, 0, 0, 0.9), annotation(0, 0, 0, 1, 0.9)]);
        let dir = dir_with_base("bad-base", &records);
        let Err(DurableError::Replay(message)) = DurableStore::open(&dir) else {
            panic!("a duplicate annotation id opened");
        };
        assert!(
            message.starts_with("base-0.seg record 3: annotation id 0"),
            "{message}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_marker_table_is_refused_outside_a_base_segment() {
        let dir = temp_dir("marker-op-live");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        let (img, _) = populate(&ds);
        let table = WalOp::UploadMarkers(vec![("k".into(), img, 0)]);
        // As a mutation: refused before anything is journaled.
        let wal_before = ds.wal_bytes().unwrap();
        assert!(matches!(
            ds.apply_batch(vec![table.clone()]),
            Err(DurableError::Rejected(_))
        ));
        assert_eq!(ds.wal_bytes().unwrap(), wal_before);
        assert_eq!(ds.health().state, HealthState::Ok);
        assert!(ds.store.upload_marker("k").is_none());
        drop(ds);
        crash_after_rotation(&dir, 1);
        // Forged into a journal segment, live or sealed: the open fails.
        for segment in ["wal-1.log", "wal-0.log"] {
            let path = dir.join(segment);
            let clean = std::fs::read(&path).unwrap();
            let mut forged = clean.clone();
            forged.extend_from_slice(&crate::wal::frame(&table.encode()));
            std::fs::write(&path, forged).unwrap();
            let Err(DurableError::Replay(message)) = DurableStore::open(&dir) else {
                panic!("a marker table in {segment} replayed");
            };
            assert!(message.starts_with(segment), "{message}");
            assert!(message.contains("outside a base segment"), "{message}");
            std::fs::write(&path, clean).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_base_is_a_typed_refusal_never_a_repair() {
        use tvdp_kernel::rng::for_each_case;
        let dir = temp_dir("hostile-base");
        let (ds, _) = DurableStore::open(&dir).unwrap();
        populate(&ds);
        upload(&ds, "edge0-s7", vec![]);
        ds.compact().unwrap();
        let live = ds.store.ops();
        drop(ds);
        let base = dir.join("base-1.seg");
        let whole = std::fs::read(&base).unwrap();
        // What the base superseded, its removal interrupted.
        let superseded = dir.join("base-0.seg");
        std::fs::write(&superseded, crate::wal::SEGMENT_MAGIC).unwrap();
        let refused = |bytes: &[u8], what: &str| {
            std::fs::write(&base, bytes).unwrap();
            match DurableStore::open(&dir) {
                Err(
                    DurableError::Replay(_)
                    | DurableError::Corrupt { .. }
                    | DurableError::UnsupportedFormat { .. },
                ) => {}
                Err(other) => panic!("{what}: untyped refusal {other}"),
                Ok(_) => panic!("{what}: a damaged base opened"),
            }
            // A base is sealed: refused as found, never truncated, and
            // nothing is swept on the word of a base that did not replay.
            assert_eq!(std::fs::read(&base).unwrap(), bytes, "{what}");
            assert!(superseded.exists(), "{what}");
        };
        // Truncation at every offset, the header's included.
        for cut in 0..whole.len() {
            refused(&whole[..cut], &format!("cut at byte {cut}"));
        }
        // Seeded bit flips: CRC-32 catches every single-bit error, and a
        // flipped header is another format or a torn record.
        for_each_case(64, |_, rng| {
            let mut flipped = whole.clone();
            let byte = rng.gen_range(0..whole.len());
            let bit = rng.gen_range(0..8);
            flipped[byte] ^= 1 << bit;
            refused(&flipped, &format!("bit {bit} of byte {byte}"));
        });
        // Length bombs: a record header claiming 4 GiB after the last
        // record, and trailing zeroes.
        let mut bomb = whole.clone();
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        bomb.extend_from_slice(&[0; 12]);
        refused(&bomb, "length bomb");
        let mut zeroes = whole.clone();
        zeroes.extend_from_slice(&[0; 64]);
        refused(&zeroes, "zeroed tail");
        // A checksummed record that does not decode names its index.
        let mut garbage = whole.clone();
        garbage.extend_from_slice(&crate::wal::frame(&[9, 0, 0]));
        std::fs::write(&base, &garbage).unwrap();
        assert!(matches!(
            DurableStore::open(&dir),
            Err(DurableError::Corrupt { .. })
        ));
        // Put back whole, it opens to the state that was compacted.
        std::fs::write(&base, &whole).unwrap();
        let (ds, report) = DurableStore::open(&dir).unwrap();
        assert_eq!((report.replayed_ops, report.torn_bytes), (0, 0));
        assert_eq!(report.debris_removed, 1);
        assert!(!superseded.exists());
        assert_eq!(first_difference(&ds.store.ops(), &live), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
