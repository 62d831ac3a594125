//! The four workloads, the load phase that yields the end-to-end metrics
//! and the load's timings, and the correctness checks that run inside it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvdp::platform::{PlatformConfig, Tvdp};
use tvdp::query::{LinearExecutor, Query, SpatialQuery, VisualMode};
use tvdp::storage::codec::Value;
use tvdp::vision::{CnnExtractor, FeatureExtractor, FeatureKind};

use crate::corpus::{self, Base, Row, Upload};
use crate::load::{self, closed_loop, read_beside_writes, Reply, Srv};
use crate::stats::{median, percentile, Fnv, Rounds};

/// Rows of the in-memory platform the search workloads read: the
/// paper's corpus scale (~187 sealed segments at `seal_cap` 128).
pub const MEMORY_ROWS: usize = 24_000;
/// Rows of the durable base the ingest workloads write onto.
pub const DURABLE_ROWS: usize = 8_000;
/// Rows of the durable side platform of the search workloads, which
/// exists so that they, too, report the write-side metrics.
pub const SIDE_DURABLE_ROWS: usize = 2_000;
/// Measured rounds of every phase, after `WARMUP_ROUNDS` discarded ones.
/// Every round does the same fixed, seeded work, and the rounds of the
/// phases interleave, so each phase samples the whole run.
pub const ROUNDS: usize = 5;
pub const WARMUP_ROUNDS: usize = 1;
/// Uploads per `data/add_batch` request.
pub const BATCH: usize = 64;
/// Open-loop `data/add` rate of `mixed_rw`, per second: about a third
/// of what one core sustains, so the writer queue never grows.
pub const WRITE_RATE: f64 = 60.0;
/// Searches that finish a set-up: lazily built state gets built here,
/// inside `setup_s`.
const WARMUP_SEARCHES: usize = 20;
/// The platforms are set up at the start of a run and again after these
/// rounds (counting the warm-up): `setup_s` is the median of the three.
const SETUP_AGAIN_AFTER_ROUND: [usize; 2] = [2, 4];
/// Searches compared with the linear oracle (which clones every record
/// per query, so the sample is what the run's time allows).
const ORACLE_SAMPLE: usize = 120;
/// Acked uploads read back after the reopen that ends the run.
const READBACK_SAMPLE: usize = 60;

pub enum Mix {
    Selective,
    Visual,
    /// Three selective requests to one visual: the median sits inside
    /// the selective mode and the tail inside the visual one.
    Both,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Rows of the in-memory platform searches go to, or 0 when they go
    /// to the durable platform that also takes the writes.
    pub memory_rows: usize,
    pub durable_rows: usize,
    pub mix: Mix,
    /// Distinct searches; a round sends each once, in order. Beside the
    /// open-loop writer the reader cycles through them until the writer
    /// is done.
    pub searches: usize,
    /// Single `data/add` and `data/add_batch` requests per round. A
    /// round's uploads are a multiple of the platform's `seal_cap`, so
    /// upload `k` of every round meets a segment tail of the same length
    /// and the seals fall on the same requests.
    pub adds: usize,
    pub batches: usize,
    /// Whether the adds run open-loop beside the searches.
    pub concurrent: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "search_selective",
        why: "small-result queries over 24,000 rows: per-request overhead (parse, pricing, scatter over ~187 segments, gather, encode) dominates and kernels idle",
        memory_rows: MEMORY_ROWS,
        durable_rows: SIDE_DURABLE_ROWS,
        mix: Mix::Selective,
        searches: 1000,
        adds: 64,
        batches: 1,
        concurrent: false,
    },
    Workload {
        name: "search_visual",
        why: "whole-corpus visual top-k and threshold over 24,000 rows: quantized scan, exact re-rank and hybrid-tree kernels dominate and per-request overhead is small",
        memory_rows: MEMORY_ROWS,
        durable_rows: SIDE_DURABLE_ROWS,
        mix: Mix::Visual,
        searches: 100,
        adds: 64,
        batches: 1,
        concurrent: false,
    },
    Workload {
        name: "ingest_durable",
        why: "durable uploads onto an 8,000-row journal: extraction, codec, WAL, fsync and index publish do the work and the query layer almost none",
        memory_rows: 0,
        durable_rows: DURABLE_ROWS,
        mix: Mix::Selective,
        searches: 800,
        adds: 192,
        batches: 1,
        concurrent: false,
    },
    Workload {
        name: "mixed_rw",
        why: "a closed-loop reader beside an open-loop writer at a fixed rate on one durable platform: a read gain that taxes ingest, or the reverse, shows only here",
        memory_rows: 0,
        durable_rows: DURABLE_ROWS,
        mix: Mix::Both,
        searches: 1200,
        adds: 64,
        batches: 1,
        concurrent: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run is given: generated from the seed, nothing else.
pub struct Inputs {
    pub bases: Vec<Base>,
    pub rows: Vec<Row>,
    pub queries: Vec<Query>,
    pub bodies: Vec<String>,
    /// The base journal, never written again: every timed restart
    /// replays exactly these bytes.
    pub base_dir: PathBuf,
    /// The run's scratch directory, which holds `base_dir`.
    pub scratch: PathBuf,
}

impl Inputs {
    /// `n` evenly spaced searches of the workload's list, each as the
    /// query and the body that carries it.
    pub fn sample(&self, n: usize) -> impl Iterator<Item = (&Query, &String)> {
        let step = (self.queries.len() / n).max(1);
        self.queries.iter().zip(&self.bodies).step_by(step).take(n)
    }

    /// A copy of the base journal under `name`, for uploads to extend.
    pub fn copy_of_base(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        corpus::copy_dir(&self.base_dir, &dir);
        dir
    }
}

pub fn inputs(w: &Workload, seed: u64, scratch: &Path) -> Inputs {
    let bases = corpus::bases(seed, corpus::BASE_IMAGES);
    let rows = corpus::rows(&bases, w.memory_rows.max(w.durable_rows), seed);
    // Queries aim at the rows the reader platform holds.
    let read_rows = if w.memory_rows > 0 {
        &rows[..]
    } else {
        &rows[..w.durable_rows]
    };
    let selective = |n| corpus::selective_queries(read_rows, n, seed);
    let visual = |n| corpus::visual_queries(read_rows, n, seed);
    let queries = match w.mix {
        Mix::Selective => selective(w.searches),
        Mix::Visual => visual(w.searches),
        Mix::Both => {
            let mut visual = visual(w.searches / 4).into_iter();
            selective(w.searches - w.searches / 4)
                .chunks(3)
                .flat_map(|three| {
                    three
                        .iter()
                        .cloned()
                        .chain(visual.next())
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    };
    let bodies = queries.iter().map(corpus::search_body).collect();
    let base_dir = scratch.join("base");
    corpus::durable_base(&base_dir, &rows[..w.durable_rows]);
    Inputs {
        bases,
        rows,
        queries,
        bodies,
        base_dir,
        scratch: scratch.to_path_buf(),
    }
}

/// The platforms of one run. Searches go to `memory` when there is one.
pub struct Servers {
    pub memory: Option<Srv>,
    pub durable: Srv,
}

impl Servers {
    pub fn reader(&self) -> &Srv {
        self.memory.as_ref().unwrap_or(&self.durable)
    }
}

/// One set-up and what it cost.
pub struct Setup {
    pub servers: Servers,
    /// Platform construction plus the warm-up searches.
    pub secs: f64,
    /// The `Tvdp::open` part: journal replay plus index rebuild.
    pub open_secs: f64,
}

/// Brings the platforms from the generated inputs to serving: opens the
/// durable directory `dir`, builds the in-memory platform when the
/// workload has one, and sends the warm-up searches.
pub fn set_up(w: &Workload, inputs: &Inputs, dir: &Path) -> Setup {
    let start = Instant::now();
    let (platform, _) =
        Tvdp::open(dir, PlatformConfig::default()).expect("durable directory opens");
    let open_secs = start.elapsed().as_secs_f64();
    let durable = Srv::new(platform);
    let memory = (w.memory_rows > 0).then(|| {
        let store = corpus::memory_store(&inputs.rows[..w.memory_rows]);
        Srv::new(Tvdp::with_store(store, PlatformConfig::default()))
    });
    let servers = Servers { memory, durable };
    for body in &inputs.bodies[..WARMUP_SEARCHES] {
        servers.reader().call("data/search", body);
    }
    Setup {
        servers,
        secs: start.elapsed().as_secs_f64(),
        open_secs,
    }
}

/// The run's uploads and the ids the server acked them under. Upload
/// `i` is a pure function of the seed.
pub struct Uploads<'a> {
    bases: &'a [Base],
    seed: u64,
    /// Uploads rendered so far; they are sent in order.
    taken: usize,
    sent: usize,
    /// `(image id, upload index)` of every acked upload, in ack order.
    pub acked: Vec<(u64, usize)>,
}

impl<'a> Uploads<'a> {
    pub fn new(bases: &'a [Base], seed: u64) -> Self {
        Uploads {
            bases,
            seed,
            taken: 0,
            sent: 0,
            acked: Vec::new(),
        }
    }

    pub fn upload(&self, index: usize) -> Upload {
        corpus::upload(self.bases, index, self.seed)
    }

    /// The `data/add` bodies of the next `n` uploads, rendered here,
    /// outside any timer. Every body taken must be sent.
    pub fn take(&mut self, n: usize) -> Vec<String> {
        let bodies = (self.taken..self.taken + n)
            .map(|index| corpus::add_body(&self.upload(index)))
            .collect();
        self.taken += n;
        bodies
    }

    /// Records the answer to the next `count` unsent uploads: a
    /// `data/add` reply acks one, a `data/add_batch` reply a whole batch.
    pub fn ack(&mut self, reply: &Reply, count: usize) {
        let ids: Vec<u64> = match reply.body.get("images") {
            Some(Value::Arr(ids)) => ids.iter().filter_map(Value::as_u64).collect(),
            _ => reply.body["image"].as_u64().into_iter().collect(),
        };
        if reply.status == 200 && ids.len() != count {
            load::fail(format_args!("{} ids acked for {count} uploads", ids.len()));
        }
        if ids.len() == count {
            let first = self.sent;
            self.acked
                .extend(ids.into_iter().enumerate().map(|(i, id)| (id, first + i)));
        }
        self.sent += count;
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("durable directory lists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// Resident set size of this process, MiB (`VmRSS`).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

/// What the oracle comparison saw, summed over its sample.
#[derive(Default)]
pub struct OracleSums {
    pub fnv: u64,
    pub results: u64,
    pub searches: u64,
}

/// The `k` of a query whose answer is cut off after the `k` best rows.
fn result_limit(query: &Query) -> Option<usize> {
    match query {
        Query::Visual {
            mode: VisualMode::TopK(k),
            ..
        } => Some(*k),
        Query::Spatial(SpatialQuery::Nearest { k, .. }) => Some(*k),
        Query::And(subs) => subs.iter().find_map(result_limit),
        _ => None,
    }
}

/// Whether two answers agree: the same score at every rank, and under
/// every score the same set of ids. Rows that tie on a score may come in
/// either order (the engine breaks such ties by id, the oracle by the
/// squared distance the score was rooted from), and when the answer is
/// cut off at `limit` rows, which of the rows tying on the last score
/// make the cut is the executor's choice.
pub fn same_answer(got: &[(u64, f64)], want: &[(u64, f64)], limit: Option<usize>) -> bool {
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| g.1 != w.1) {
        return false;
    }
    let cut_off = limit == Some(got.len());
    let mut ranks = 0..got.len();
    while let Some(first) = ranks.next() {
        let tied = got[first..]
            .iter()
            .take_while(|g| g.1 == got[first].1)
            .count();
        let group = first..first + tied;
        ranks = group.end..got.len();
        let ids = |answer: &[(u64, f64)]| {
            let mut ids: Vec<u64> = answer[group.clone()].iter().map(|r| r.0).collect();
            ids.sort_unstable();
            ids
        };
        let last_group = group.end == got.len();
        if ids(got) != ids(want) && !(cut_off && last_group) {
            return false;
        }
    }
    true
}

/// Compares API answers (ids, scores, order) with `LinearExecutor` over
/// the reader's store for an evenly spaced sample of the workload's
/// searches. A mismatch is a failed operation.
pub fn check_against_oracle(srv: &Srv, inputs: &Inputs) -> OracleSums {
    let oracle = LinearExecutor::new(srv.platform().store().clone());
    let mut fnv = Fnv::new();
    let mut sums = OracleSums::default();
    for (query, body) in inputs.sample(ORACLE_SAMPLE) {
        let reply = srv.call("data/search", body);
        let got: Vec<(u64, f64)> = reply.body["results"]
            .as_array()
            .unwrap_or_default()
            .iter()
            .filter_map(|r| Some((r["image"].as_u64()?, r["score"].as_f64()?)))
            .collect();
        let want: Vec<(u64, f64)> = oracle
            .execute(query)
            .iter()
            .map(|r| (r.image.raw(), r.score))
            .collect();
        if reply.status == 200 && !same_answer(&got, &want, result_limit(query)) {
            let first = got.iter().zip(&want).find(|(g, w)| g != w);
            load::fail(format_args!(
                "search answer differs from the linear oracle ({} vs {} rows, first difference {first:?}): {body:.120}",
                got.len(),
                want.len()
            ));
        }
        for (id, _) in &got {
            fnv.write(&id.to_le_bytes());
        }
        sums.results += got.len() as u64;
        sums.searches += 1;
    }
    sums.fnv = fnv.0;
    sums
}

/// Reads `sample` acked uploads back after the reopen: `data/download`
/// must return their metadata, and a `Visual TopK(1)` on the feature the
/// benchmark extracts from the uploaded pixels must return the upload
/// itself at distance 0.
fn check_readback(srv: &Srv, uploads: &Uploads, sample: usize, rng: &mut StdRng) {
    if uploads.acked.is_empty() {
        return;
    }
    let cnn = CnnExtractor::with_config(PlatformConfig::default().cnn);
    let picks: Vec<(u64, usize)> = (0..sample)
        .map(|_| uploads.acked[rng.gen_range(0..uploads.acked.len())])
        .collect();
    let ids: Vec<String> = picks.iter().map(|(id, _)| id.to_string()).collect();
    let reply = srv.call(
        "data/download",
        &format!(r#"{{"ids":[{}]}}"#, ids.join(",")),
    );
    let items = reply.body["items"].as_array().unwrap_or_default();
    for (i, &(id, index)) in picks.iter().enumerate() {
        let upload = uploads.upload(index);
        let stored = items.get(i).is_some_and(|item| {
            item["image"].as_u64() == Some(id)
                && item["lat"].as_f64() == Some(upload.meta.gps.lat)
                && item["lon"].as_f64() == Some(upload.meta.gps.lon)
                && item["captured_at"].as_i64() == Some(upload.meta.captured_at)
        });
        if reply.status == 200 && !stored {
            load::fail(format_args!(
                "acked upload img-{id} did not survive the reopen"
            ));
        }
        let query = Query::Visual {
            example: cnn.extract(&upload.image),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(1),
        };
        let top = srv.call("data/search", &corpus::search_body(&query));
        let first = &top.body["results"][0];
        if top.status == 200
            && (first["image"].as_u64() != Some(id) || first["score"].as_f64() != Some(0.0))
        {
            load::fail(format_args!(
                "img-{id} is not the top-1 of its own feature at distance 0: {:.120}",
                top.wire
            ));
        }
    }
}

fn check_image_count(srv: &Srv, expected: usize) {
    let reply = srv.call("stats", "");
    let images = reply.body["images"].as_u64();
    if reply.status == 200 && images != Some(expected as u64) {
        load::fail(format_args!(
            "stats.images is {images:?}, expected base + acked = {expected}"
        ));
    }
}

// ---------------------------------------------------------------------
// The load phase
// ---------------------------------------------------------------------

/// What the load phase measured.
pub struct Load {
    /// The gated end-to-end metrics, `(name, value)` in `END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Wall-clock timings of the load, `(name, value, unit)`: reported,
    /// never gated (see the README for why).
    pub timings: Vec<(&'static str, f64, &'static str)>,
    /// How late the open-loop generator ran, when the workload has one.
    pub add_late_p95_ms: Option<f64>,
    pub oracle: OracleSums,
    pub acked: usize,
    /// Wall seconds per part of the phase, in order.
    pub phases: Vec<(&'static str, f64)>,
}

/// Runs the workload: `WARMUP_ROUNDS` discarded rounds and `ROUNDS`
/// measured ones, each the same searches, single adds and batches. The
/// platforms are set up three times on the same base journal (at the
/// start, and as throw-away probes between rounds), and the
/// journal the uploads extended is reopened and checked at the end.
pub fn run_load(w: &Workload, inputs: &Inputs, seed: u64) -> Load {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
    let mut uploads = Uploads::new(&inputs.bases, seed);
    let (mut search, mut add, mut batch) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    let (mut late_ms, mut window_qps) = (Vec::new(), Vec::new());
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    let mut phase = |name: &'static str, since: Instant| {
        let secs = since.elapsed().as_secs_f64();
        match phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => phases.push((name, secs)),
        }
    };

    let live_dir = inputs.copy_of_base("live");
    let start = Instant::now();
    let setup = set_up(w, inputs, &live_dir);
    phase("setup", start);
    let mut setup_secs = vec![setup.secs];
    let mut reopen_secs = vec![setup.open_secs];
    let rss_after_setup = rss_mib();
    let servers = setup.servers;
    let wal_before = wal_bytes(&live_dir);

    for round in 0..WARMUP_ROUNDS + ROUNDS {
        let measured = round >= WARMUP_ROUNDS;
        let start = Instant::now();
        let bodies = uploads.take(w.adds);
        let (search_ms, add_ms) = if w.concurrent {
            let window = read_beside_writes(
                &servers.durable,
                inputs.bodies.iter().cycle(),
                &bodies,
                WRITE_RATE,
            );
            window.add_replies.iter().for_each(|r| uploads.ack(r, 1));
            if measured {
                late_ms.extend(window.late_ms);
                window_qps.push(window.search_ms.len() as f64 / window.secs);
            }
            (window.search_ms, window.add_from_due_ms)
        } else {
            let search_ms = closed_loop(
                servers.reader(),
                "data/search",
                inputs.bodies.iter(),
                |_| {},
            );
            let add_ms = closed_loop(&servers.durable, "data/add", bodies.iter(), |r| {
                uploads.ack(r, 1)
            });
            (search_ms, add_ms)
        };
        let singles = uploads.take(w.batches * BATCH);
        let batches = singles.chunks(BATCH).map(corpus::add_batch_body);
        let batch_ms = closed_loop(&servers.durable, "data/add_batch", batches, |r| {
            uploads.ack(r, BATCH)
        });
        if measured {
            search.0.push(search_ms);
            add.0.push(add_ms);
            batch.0.push(batch_ms);
        }
        phase("load", start);

        // Set up again, beside the serving platforms: same journal, same
        // work, at another moment of the run.
        if SETUP_AGAIN_AFTER_ROUND.contains(&round) {
            let start = Instant::now();
            let again = set_up(w, inputs, &inputs.base_dir);
            setup_secs.push(again.secs);
            reopen_secs.push(again.open_secs);
            drop(again);
            phase("setup", start);
        }
    }

    // Compare the reader, as the load left it, with the oracle; then
    // restart on everything the run acked, and read it back.
    let start = Instant::now();
    let wal_grown = wal_bytes(&live_dir) - wal_before;
    let oracle = check_against_oracle(servers.reader(), inputs);
    drop(servers);
    let reopen = Instant::now();
    let (platform, _) =
        Tvdp::open(&live_dir, PlatformConfig::default()).expect("live directory reopens");
    let reopen_after_load = reopen.elapsed().as_secs_f64();
    let durable = Srv::new(platform);
    check_image_count(&durable, w.durable_rows + uploads.acked.len());
    check_readback(&durable, &uploads, READBACK_SAMPLE, &mut rng);
    drop(durable);
    phase("checks", start);

    // Beside the writer a search round lasts as long as the writer's
    // window, so the reader's rate is searches over the window's time.
    let search_qps = if w.concurrent {
        median(&window_qps)
    } else {
        search.rate(1)
    };
    Load {
        end_to_end: vec![
            ("setup_s", median(&setup_secs)),
            ("rss_after_setup_mb", rss_after_setup),
            (
                "wal_bytes_per_image",
                wal_grown as f64 / uploads.acked.len() as f64,
            ),
        ],
        timings: vec![
            ("load.search_p50_ms", search.percentile(50.0), "ms"),
            ("load.search_p95_ms", search.percentile(95.0), "ms"),
            ("load.search_p99_ms", search.percentile(99.0), "ms"),
            ("load.search_qps", search_qps, "1/s"),
            ("load.add_p50_ms", add.percentile(50.0), "ms"),
            ("load.add_p95_ms", add.percentile(95.0), "ms"),
            ("load.add_p99_ms", add.percentile(99.0), "ms"),
            ("load.add_batch_ips", batch.rate(BATCH), "1/s"),
            ("load.reopen_s", median(&reopen_secs), "s"),
            ("load.reopen_after_load_s", reopen_after_load, "s"),
        ],
        add_late_p95_ms: (!late_ms.is_empty()).then(|| percentile(&late_ms, 95.0)),
        oracle,
        acked: uploads.acked.len(),
        phases,
    }
}
