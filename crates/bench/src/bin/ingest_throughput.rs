//! Sustained durable-ingest benchmark: per-op fsync vs group commit.
//!
//! The question this bench answers: with durability *on* (every acked
//! ingest recoverable after a crash), how many ingests per second can
//! the storage engine sustain, and what does group commit buy?
//!
//! * `per_op_fsync` — the pre-group-commit design: every journaled op
//!   is its own framed write + `fdatasync`. One scripted ingest is
//!   three ops (image row + color-histogram + CNN feature), so three
//!   syncs per acked upload. (The platform itself journals an upload as
//!   one composite `IngestUpload` record; the script keeps the three-op
//!   shape because the sync count per upload is what it compares.)
//! * `group_commit` — `DurableStore::apply_batch`: every op pending at
//!   the commit point rides one framed write and **one** sync, then
//!   the whole batch acks. On-disk bytes are identical to the per-op
//!   journal (torture-verified in `crates/storage/tests/durability.rs`),
//!   so crash recovery semantics are unchanged — only the sync count
//!   drops.
//!
//! Both modes write one `DurableStore`, the platform's one store and
//! one journal, from one writer. The op stream is scripted, so the
//! journal bytes are a pure function of the script — batch size
//! changes wall-clock only, never bytes (held by `crates/core`
//! determinism tests).
//!
//! A second section measures recovery: time to reopen a store whose
//! WAL holds N ops, for N up to 100 000 — and proves the replayed
//! state is *byte-identical* to the no-crash state by compacting both
//! and comparing the bytes of the base segment each publishes.
//!
//! Prints a JSON document to stdout; regenerate the checked-in
//! snapshot with
//! `cargo run --release -p tvdp-bench --bin ingest_throughput > BENCH_ingest.json`.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tvdp_bench::report::{ok, percentile, Acceptance, Header, Kind, Report};
use tvdp_geo::GeoPoint;
use tvdp_storage::{DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, WalOp};
use tvdp_vision::FeatureKind;

/// Acked uploads per mode (each scripted upload journals three ops):
/// enough for the group-commit leg to run long enough to time.
const INGESTS: usize = 3_072;
/// Ops coalesced per group commit (the platform batches a whole API
/// `data/add_batch` call; 64 uploads is its order of magnitude).
const GROUP_INGESTS: usize = 64;
/// WAL lengths (in ops) for the recovery-time section.
const RECOVERY_WAL_OPS: [usize; 3] = [1_000, 10_000, 100_000];
/// Group size used to lay the recovery WALs down quickly.
const RECOVERY_BATCH: usize = 512;
const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];

fn bench_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tvdp-bench-ingest-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    ok(std::fs::create_dir_all(&p), "create bench dir");
    p
}

/// Deterministic upload metadata — no RNG so the journal bytes are a
/// pure function of `seq`.
fn upload_meta(seq: usize) -> ImageMeta {
    ImageMeta {
        uploader: UserId((seq % 20) as u64),
        gps: GeoPoint::new(
            34.0 + (seq % 50) as f64 * 1e-4,
            -118.3 + (seq % 70) as f64 * 1e-4,
        ),
        fov: None,
        captured_at: 1_000 + seq as i64,
        uploaded_at: 1_100 + seq as i64,
        keywords: vec![WORDS[seq % WORDS.len()].into()],
    }
}

/// The three ops one scripted ingest journals: image row, color
/// histogram, CNN feature.
fn upload_ops(seq: usize) -> [WalOp; 3] {
    let id = ImageId(seq as u64);
    let color: Vec<f32> = (0..4).map(|k| ((seq + k) % 7) as f32 * 0.125).collect();
    let cnn: Vec<f32> = (0..8)
        .map(|k| ((seq * 3 + k) % 11) as f32 * 0.25 - 1.0)
        .collect();
    [
        WalOp::AddImage {
            id,
            meta: upload_meta(seq),
            origin: ImageOrigin::Original,
            pixels: None,
        },
        WalOp::PutFeature {
            image: id,
            kind: FeatureKind::ColorHistogram,
            vector: color,
        },
        WalOp::PutFeature {
            image: id,
            kind: FeatureKind::Cnn,
            vector: cnn,
        },
    ]
}

/// Average `fdatasync` latency on the bench volume — the physical
/// constant both modes are made of.
fn fsync_probe_us() -> f64 {
    let dir = bench_dir("probe");
    let path = dir.join("probe.bin");
    let mut f = ok(std::fs::File::create(&path), "probe create");
    let rounds = 64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        ok(f.write_all(&[0u8; 100]), "probe write");
        ok(f.sync_data(), "probe sync");
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    drop(f);
    std::fs::remove_dir_all(&dir).ok();
    us
}

struct IngestRun {
    mode: &'static str,
    fsyncs: usize,
    elapsed_s: f64,
    /// Per-upload ack latencies (µs), sorted: time from the upload
    /// reaching the journal head to its (group's) sync returning.
    ack_us: Vec<f64>,
}

impl IngestRun {
    fn ingests_per_s(&self) -> f64 {
        INGESTS as f64 / self.elapsed_s
    }
    fn json(&self) -> String {
        format!(
            "    {{ \"mode\": \"{}\", \"ingests\": {INGESTS}, \"wal_ops\": {}, \"fsyncs\": {}, \"elapsed_s\": {:.3}, \"ingests_per_s\": {:.0}, \"ack_p50_us\": {:.0}, \"ack_p99_us\": {:.0} }}",
            self.mode,
            INGESTS * 3,
            self.fsyncs,
            self.elapsed_s,
            self.ingests_per_s(),
            percentile(&self.ack_us, 50),
            percentile(&self.ack_us, 99),
        )
    }
}

/// Runs `INGESTS` scripted uploads on one durable store. `group` picks
/// the commit discipline: `apply_batch` per op (three syncs per upload)
/// or per `GROUP_INGESTS`-upload group (one sync).
fn run_ingest(group: bool) -> IngestRun {
    let mode = if group {
        "group_commit"
    } else {
        "per_op_fsync"
    };
    let dir = bench_dir(mode);
    let (ds, _) = ok(DurableStore::open(&dir), "open");
    let mut ack_us = Vec::with_capacity(INGESTS);
    let mut fsyncs = 0usize;
    let t0 = Instant::now();
    if group {
        for lo in (0..INGESTS).step_by(GROUP_INGESTS) {
            let hi = (lo + GROUP_INGESTS).min(INGESTS);
            let ops: Vec<WalOp> = (lo..hi).flat_map(upload_ops).collect();
            let b0 = Instant::now();
            ok(ds.apply_batch(ops), "apply_batch");
            fsyncs += 1;
            let us = b0.elapsed().as_secs_f64() * 1e6;
            // Every upload in the group acks when its group's single
            // sync returns.
            ack_us.extend(std::iter::repeat_n(us, hi - lo));
        }
    } else {
        for seq in 0..INGESTS {
            let b0 = Instant::now();
            for op in upload_ops(seq) {
                ok(ds.apply_batch(vec![op]), "apply per-op");
                fsyncs += 1;
            }
            ack_us.push(b0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    drop(ds);
    std::fs::remove_dir_all(&dir).ok();
    ack_us.sort_unstable_by(f64::total_cmp);
    IngestRun {
        mode,
        fsyncs,
        elapsed_s,
        ack_us,
    }
}

struct RecoveryRun {
    wal_ops: usize,
    wal_bytes: u64,
    recover_s: f64,
    replayed_ops: usize,
    byte_identical: bool,
}

impl RecoveryRun {
    fn json(&self) -> String {
        format!(
            "    {{ \"wal_ops\": {}, \"wal_bytes\": {}, \"recover_s\": {:.3}, \"replayed_ops\": {}, \"replay_ops_per_s\": {:.0}, \"byte_identical_to_no_crash\": {} }}",
            self.wal_ops,
            self.wal_bytes,
            self.recover_s,
            self.replayed_ops,
            self.replayed_ops as f64 / self.recover_s.max(1e-9),
            self.byte_identical,
        )
    }
}

/// Journals `n` AddImage ops into `dir` (group commits of
/// `RECOVERY_BATCH`) and returns the WAL's on-disk size.
fn lay_wal(dir: &Path, n: usize) -> u64 {
    let (ds, _) = ok(DurableStore::open(dir), "open for lay");
    let mut seq = 0usize;
    while seq < n {
        let hi = (seq + RECOVERY_BATCH).min(n);
        let ops: Vec<WalOp> = (seq..hi)
            .map(|i| WalOp::AddImage {
                id: ImageId(i as u64),
                meta: upload_meta(i),
                origin: ImageOrigin::Original,
                pixels: None,
            })
            .collect();
        ok(ds.apply_batch(ops), "lay apply_batch");
        seq = hi;
    }
    ok(std::fs::metadata(dir.join("wal-0.log")), "wal metadata").len()
}

/// The digest of the store in `dir` after a cold open: the FNV-64 of
/// the base segment a compaction of it would publish.
fn reopened_digest(dir: &Path) -> u64 {
    let (ds, _) = ok(DurableStore::open(dir), "open for digest");
    ds.store_arc().digest()
}

/// Times a cold `DurableStore::open` over an `n`-op WAL and proves the
/// replayed state byte-identical to a store that applied the same
/// script without crashing.
fn run_recovery(n: usize) -> RecoveryRun {
    // The "crash" store: journal n ops, drop with the WAL intact.
    let crash_dir = bench_dir(&format!("recover-{n}"));
    let wal_bytes = lay_wal(&crash_dir, n);
    let t0 = Instant::now();
    let (ds, report) = ok(DurableStore::open(&crash_dir), "recovery open");
    let recover_s = t0.elapsed().as_secs_f64();
    let replayed_ops = report.replayed_ops;
    drop(ds);
    // The no-crash control: same script, never reopened.
    let control_dir = bench_dir(&format!("recover-{n}-control"));
    lay_wal(&control_dir, n);
    let byte_identical = reopened_digest(&crash_dir) == reopened_digest(&control_dir);
    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&control_dir).ok();
    RecoveryRun {
        wal_ops: n,
        wal_bytes,
        recover_s,
        replayed_ops,
        byte_identical,
    }
}

fn main() {
    let fsync_us = fsync_probe_us();
    eprintln!(
        "ingest_throughput: {INGESTS} uploads (3 ops each) on one store, group {GROUP_INGESTS}, fdatasync ~{fsync_us:.0} us"
    );

    let runs: Vec<IngestRun> = [false, true]
        .into_iter()
        .map(|group| {
            let run = run_ingest(group);
            eprintln!(
                "  {:<13}: {:>7.0} ingests/s  ({} fsyncs, ack p99 {:>6.0} us)",
                run.mode,
                run.ingests_per_s(),
                run.fsyncs,
                percentile(&run.ack_us, 99),
            );
            run
        })
        .collect();
    let speedup = runs[1].ingests_per_s() / runs[0].ingests_per_s();

    let recoveries: Vec<RecoveryRun> = RECOVERY_WAL_OPS
        .iter()
        .map(|&n| {
            let r = run_recovery(n);
            eprintln!(
                "  recovery {:>7} ops: {:.3}s ({} replayed, byte-identical: {})",
                r.wal_ops, r.recover_s, r.replayed_ops, r.byte_identical
            );
            r
        })
        .collect();
    let big = ok(
        recoveries
            .iter()
            .find(|r| r.wal_ops == 100_000)
            .ok_or("no run"),
        "100k recovery run",
    );

    let description = format!(
        "Sustained durable ingest: {INGESTS} scripted uploads from one writer onto one DurableStore, the platform's one store and journal (the script journals each upload as 3 WAL ops, image + 2 feature vectors; the platform itself journals an upload as one composite IngestUpload record). per_op_fsync = one framed write + fdatasync per op (3 syncs per acked upload, the pre-group-commit design); group_commit = DurableStore::apply_batch coalescing {GROUP_INGESTS} uploads into one framed write + one sync. On-disk WAL bytes (binary records, format v3) are identical across modes (torture- and determinism-verified), so the comparison isolates sync amortization."
    );
    let methodology = format!(
        "All runs on this host's filesystem (fdatasync probe in host); ack latency is the time from an upload reaching the journal head to its group's sync returning — under group commit every upload in a group acks at the group's single sync. Recovery lays an n-op WAL (group commits of {RECOVERY_BATCH}), drops the store without compacting (the crash), then times a cold DurableStore::open; byte_identical_to_no_crash reopens the recovered store and a never-crashed control fed the same script and compares their digests, the FNV-64 of the base segment (base-<epoch>.seg, the journal's record format) a compaction of each would publish."
    );
    let mut out = Report::new(Header {
        description: &description,
        methodology: &methodology,
        regenerate: "cargo run --release -p tvdp-bench --bin ingest_throughput > BENCH_ingest.json",
        kind: Kind::Measured {
            probes: vec![("fdatasync_us", format!("{fsync_us:.0}"))],
        },
    });
    let rows = |rows: Vec<String>| format!("[\n{}\n  ]", rows.join(",\n"));
    out.field(
        "sustained_ingest",
        rows(runs.iter().map(IngestRun::json).collect()),
    )
    .field(
        "recovery",
        rows(recoveries.iter().map(RecoveryRun::json).collect()),
    );

    let mut acceptance = Acceptance::default();
    acceptance.gate(
        "group_commit_5x",
        speedup >= 5.0,
        format_args!(
            "{speedup:.1}x sustained durable ingests/s over per-op fsync on the one store"
        ),
    );
    acceptance.gate(
        "recovery_100k_byte_identical",
        big.replayed_ops == 100_000 && big.byte_identical,
        format_args!(
            "a 100000-op WAL replays in {:.3}s and the recovered store has the digest of the no-crash control (the FNV-64 of the base segment a compaction would publish)",
            big.recover_s
        ),
    );
    acceptance.note(
        "determinism",
        "journal bytes are invariant under how the uploads are cut into commits — held by crates/core test the_same_uploads_journal_identical_bytes_however_they_are_cut (tests/write_path.rs) and crates/storage torture suite group_commit_batch_killed_at_every_offset_is_all_or_prefix; a base segment's bytes are a function of the store alone (compaction takes no pool), which byte_identical_to_no_crash above checks",
    );
    out.field("acceptance", acceptance).print();
}
