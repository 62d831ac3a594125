//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions.
//!
//! A traced request is first sent through `ApiServer::handle` (the
//! parent span, a real interval). Its stages are then replayed one by
//! one on the same input — the request's own body, query or pixels —
//! and recorded as child spans laid end to end inside the parent's
//! interval. Ingest stages replay on scratch objects (a second durable
//! platform, a scratch journal, a scratch engine), so the serving
//! platform ingests every upload once.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvdp::geo::BBox;
use tvdp::index::{RTree, VisualRTree};
use tvdp::kernel::{l2_sq, l2_sq_asym, FeatureSlab, Pool, RowSource};
use tvdp::platform::{IngestRequest, PlatformConfig, Role, Tvdp};
use tvdp::query::{EngineConfig, LinearExecutor, QueryEngine, QueryResult, ShardedEngine};
use tvdp::storage::codec::{self, Value};
use tvdp::storage::wal::{frame, Wal};
use tvdp::storage::{DurableStore, ImageId, VisualStore, WalOp};
use tvdp::vision::{CnnExtractor, ColorHistogramExtractor, FeatureExtractor, Image};

use crate::corpus::{self, Row, Upload};
use crate::load::read_beside_writes;
use crate::stats::{median, percentile, self_time_ns, Span};
use crate::workload::{self, Inputs, Load, Uploads, Workload, BATCH, WRITE_RATE};

/// Searches and uploads traced stage by stage.
const TRACED_SEARCHES: usize = 200;
const TRACED_ADDS: usize = 64;
/// Searches the (slow) linear oracle is timed on.
const LINEAR_SEARCHES: usize = 40;
/// Rows pushed through the scratch engine: three seals at `seal_cap` 128.
const INDEXED_ROWS: usize = 3 * 128;
/// Repeats of the standalone index, kernel and journal probes.
const PROBES: usize = 40;
const KERNEL_PASSES: usize = 9;
const BATCH_PROBES: usize = 5;
/// Uploads sent open-loop beside a reader to see how late the
/// generator runs.
const LATENESS_ADDS: usize = 60;
/// First upload index of the batches sent to the replay platform only.
const REPLAY_ONLY_UPLOADS: usize = 1 << 20;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("api.self_search_us", "us"),
    ("api.self_add_us", "us"),
    ("api.render_us", "us"),
    ("api.body_bytes_search", "bytes"),
    ("api.body_bytes_add", "bytes"),
    ("storage.codec_parse_search_us", "us"),
    ("storage.codec_parse_add_us", "us"),
    ("storage.hex_decode_us", "us"),
    ("storage.wal_encode_us", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_append_batch_us", "us"),
    ("storage.apply_batch_us", "us"),
    ("storage.fdatasync_us", "us"),
    ("storage.recover_s", "s"),
    ("storage.replay_ops_per_s", "1/s"),
    ("storage.flush_s", "s"),
    ("storage.snapshot_bytes_per_image", "bytes"),
    ("storage.reopen_after_flush_s", "s"),
    ("vision.color_extract_us", "us"),
    ("vision.cnn_extract_us", "us"),
    ("core.ingest_us", "us"),
    ("core.ingest_batch_us_per_image", "us"),
    ("core.self_ingest_us", "us"),
    ("query.estimate_us", "us"),
    ("query.execute_us", "us"),
    ("query.execute_p95_us", "us"),
    ("query.single_engine_execute_us", "us"),
    ("query.linear_execute_us", "us"),
    ("query.index_image_us", "us"),
    ("query.seal_us", "us"),
    ("query.rebuild_s", "s"),
    ("query.segments", "count"),
    ("query.results_per_search", "count"),
    ("query.estimate_units_per_search", "count"),
    ("query.estimate_units_per_result", "ratio"),
    ("index.rtree_range_us", "us"),
    ("index.hybrid_knn_us", "us"),
    ("kernel.l2_sq_scan_us", "us"),
    ("kernel.l2_sq_asym_scan_us", "us"),
    ("kernel.pool_map_us", "us"),
    ("load.search_p50_ms", "ms"),
    ("load.search_p95_ms", "ms"),
    ("load.search_p99_ms", "ms"),
    ("load.search_qps", "1/s"),
    ("load.add_p50_ms", "ms"),
    ("load.add_p95_ms", "ms"),
    ("load.add_p99_ms", "ms"),
    ("load.add_batch_ips", "1/s"),
    ("load.reopen_s", "s"),
    ("load.reopen_after_load_s", "s"),
    ("load.add_late_p95_ms", "ms"),
    ("trace.search_coverage", "ratio"),
    ("trace.add_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
}

/// The device probe: median time of a 4 KiB write plus `fdatasync` on a
/// scratch file. It tells disk drift from code drift.
pub fn fdatasync_us(scratch: &Path) -> f64 {
    let path = scratch.join("fdatasync.probe");
    let mut file = std::fs::File::create(&path).expect("scratch file is writable");
    let block = [0x5au8; 4096];
    let us: Vec<f64> = (0..PROBES)
        .map(|_| {
            let start = Instant::now();
            file.write_all(&block).expect("probe write");
            file.sync_data().expect("probe fdatasync");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&us)
}

/// Spans in memory plus the per-stage durations they came from.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Microseconds per stage name, one sample per timed call.
    us: BTreeMap<&'static str, Vec<f64>>,
    request: u64,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, secs: f64) {
        self.us.entry(name).or_default().push(secs * 1e6);
    }

    /// Times `f` where it stands, outside any span tree.
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = black_box(f());
        self.record(name, start.elapsed().as_secs_f64());
        out
    }

    /// Times `f` as the root span of a new request: a real interval.
    fn root<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        self.request += 1;
        let start_ns = self.now_ns();
        let out = black_box(f());
        let end_ns = self.now_ns();
        self.record(name, (end_ns - start_ns) as f64 / 1e9);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request: self.request,
        });
        (out, self.spans.len() - 1)
    }

    /// Times `f` as a replayed stage of `parent` and lays the span after
    /// the parent's earlier children, inside the parent's interval.
    fn child<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, usize) {
        let start = Instant::now();
        let out = black_box(f());
        let elapsed = start.elapsed();
        self.record(name, elapsed.as_secs_f64());
        let start_ns = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
            parent: Some(parent),
            request: self.spans[parent].request,
        });
        (out, self.spans.len() - 1)
    }

    fn duration_us(&self, span: usize) -> f64 {
        (self.spans[span].end_ns - self.spans[span].start_ns) as f64 / 1e3
    }

    fn self_us(&self, span: usize) -> f64 {
        self_time_ns(&self.spans, span) as f64 / 1e3
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.us[name])
    }
}

/// The response body the router builds for a search, rebuilt here so
/// that building and rendering it can be timed as stages.
fn search_response(results: &[QueryResult]) -> Value {
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("image".to_string(), Value::num(r.image.raw())),
                ("score".to_string(), Value::num(r.score)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("count".to_string(), Value::num(rows.len())),
        ("results".to_string(), Value::Arr(rows)),
    ])
}

fn ingest_request(upload: &Upload) -> IngestRequest {
    IngestRequest {
        gps: upload.meta.gps,
        fov: upload.meta.fov,
        captured_at: upload.meta.captured_at,
        uploaded_at: upload.meta.uploaded_at,
        keywords: upload.meta.keywords.clone(),
    }
}

/// The scratch objects ingest stages replay on.
struct Scratch {
    /// A second durable platform on its own copy of the base journal.
    replay: Tvdp,
    replay_user: tvdp::storage::UserId,
    wal: Wal,
    /// The recovered base store, extended in memory only.
    store: Arc<VisualStore>,
    engine: ShardedEngine,
}

impl Scratch {
    /// Adds `row` to the scratch store and times its `index_image`;
    /// the call that fills a segment is the seal.
    fn index(&mut self, tracer: &mut Tracer, parent: Option<usize>, row: &Row) {
        let id = corpus::store_row(&self.store, row);
        let seals = self
            .store
            .len()
            .is_multiple_of(PlatformConfig::default().seal_cap);
        let name = if seals {
            "query.seal"
        } else {
            "query.index_image"
        };
        match parent {
            Some(parent) => {
                tracer.child(name, parent, || self.engine.index_image(0, id));
            }
            None => tracer.probe(name, || self.engine.index_image(0, id)),
        }
    }
}

/// Times the whole-corpus standalone indexes and the scan kernels over
/// `rows`, and the pool's scatter overhead over one unit per segment.
fn probe_indexes_and_kernels(tracer: &mut Tracer, rows: &[Row], segments: usize, rng: &mut StdRng) {
    let scene = |row: &Row| {
        row.meta
            .fov
            .as_ref()
            .expect("rows carry an FOV")
            .scene_location()
    };
    let rtree: RTree<u32> = RTree::bulk_load(
        rows.iter()
            .enumerate()
            .map(|(i, r)| (scene(r), i as u32))
            .collect(),
    );
    let mut slab = FeatureSlab::new(rows[0].cnn.len());
    let mut hybrid: VisualRTree<u32> = VisualRTree::new(slab.dim());
    for (i, row) in rows.iter().enumerate() {
        let handle = slab.push(&row.cnn);
        hybrid.insert(&slab, scene(row), handle, i as u32);
    }
    let region = corpus::region();
    let everywhere = BBox::new(-90.0, -180.0, 90.0, 180.0);
    for _ in 0..PROBES {
        let lat = rng.gen_range(region.min_lat..region.max_lat);
        let lon = rng.gen_range(region.min_lon..region.max_lon);
        let small = BBox::new(lat, lon, lat + 0.001, lon + 0.001);
        tracer.probe("index.rtree_range", || rtree.range(&small).len());
        let example = &rows[rng.gen_range(0..rows.len())].cnn;
        tracer.probe("index.hybrid_knn", || {
            hybrid.knn_visual(&slab, &everywhere, example, 10).len()
        });
    }
    let view = slab.view();
    for _ in 0..KERNEL_PASSES {
        let example = &rows[rng.gen_range(0..rows.len())].cnn;
        tracer.probe("kernel.l2_sq_scan", || {
            (0..slab.rows() as u32)
                .map(|r| l2_sq(slab.row(r), example))
                .sum::<f32>()
        });
        tracer.probe("kernel.l2_sq_asym_scan", || {
            (0..view.quant_rows() as u32)
                .filter_map(|r| view.quant_row(r))
                .map(|(codes, params)| l2_sq_asym(example, codes, params))
                .sum::<f32>()
        });
    }
    let units_of_scatter = vec![(); segments.max(1)];
    for _ in 0..PROBES {
        tracer.probe("kernel.pool_map", || {
            Pool::global().map(&units_of_scatter, |i, _| i).len()
        });
    }
}

pub fn run_traced(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    fdatasync_us: f64,
    load: &Load,
) -> Traced {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        us: BTreeMap::new(),
        request: 0,
    };
    let scratch_dir = &inputs.scratch;
    let servers = workload::set_up(w, inputs, &inputs.copy_of_base("traced")).servers;
    let reader = servers.reader();
    let store = reader.platform().store().clone();
    let sample = || inputs.sample(TRACED_SEARCHES);

    // --- searches ------------------------------------------------------
    // Every sampled request is sent three times: once unmeasured, so
    // that the measured calls and the stage replays all find the same
    // warm caches, once plain and once as a traced root (in alternating
    // order), which gives the tracing overhead.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut results, mut units, mut search_bytes) = (0u64, 0u64, 0u64);
    let (mut api_self_search, mut search_coverage) = (Vec::new(), Vec::new());
    for (i, (query, body)) in sample().enumerate() {
        reader.call("data/search", body);
        if i % 2 == 0 {
            plain_ms.push(reader.call("data/search", body).secs * 1e3);
        }
        let (reply, root) = tracer.root("api.handle_search", || reader.call("data/search", body));
        if i % 2 == 1 {
            plain_ms.push(reader.call("data/search", body).secs * 1e3);
        }
        traced_ms.push(reply.secs * 1e3);
        search_bytes += (body.len() + reply.wire.len()) as u64;
        let _ = tracer.child("storage.codec_parse_search", root, || codec::parse(body));
        let (cost, _) = tracer.child("query.estimate", root, || {
            reader.platform().estimate_query_cost(query)
        });
        let (found, _) = tracer.child("query.execute", root, || {
            reader
                .platform()
                .search(query)
                .expect("traced search succeeds")
        });
        let (response, build) =
            tracer.child("api.build_response", root, || search_response(&found));
        tracer.child("api.render", root, || response.render());
        units += cost;
        results += found.len() as u64;
        // Building the response is API work too: it counts as covered,
        // and as the API layer's own time.
        let uncovered = tracer.self_us(root);
        api_self_search.push(uncovered + tracer.duration_us(build));
        search_coverage.push(1.0 - uncovered / tracer.duration_us(root));
    }
    let searches = traced_ms.len() as f64;

    // --- query: the single engine item 2 must beat, and the oracle ---
    let single = QueryEngine::build(store.clone(), EngineConfig::default());
    for (query, _) in sample() {
        let _ = tracer.probe("query.single_engine_execute", || single.try_execute(query));
    }
    drop(single);
    let oracle = LinearExecutor::new(store.clone());
    for (query, _) in sample().step_by(TRACED_SEARCHES / LINEAR_SEARCHES) {
        tracer.probe("query.linear_execute", || oracle.execute(query));
    }

    let read_rows = &inputs.rows[..store.len().min(inputs.rows.len())];
    let segments = store.len() / PlatformConfig::default().seal_cap;
    probe_indexes_and_kernels(&mut tracer, read_rows, segments, &mut rng);

    // --- storage: recovery, rebuild, and the scratch objects ---------
    let start = Instant::now();
    let (recovered, report) = DurableStore::open(&inputs.base_dir).expect("base journal recovers");
    let recover_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let engine = ShardedEngine::with_seal_cap(
        vec![recovered.store_arc()],
        EngineConfig::default(),
        PlatformConfig::default().seal_cap,
    );
    let rebuild_s = start.elapsed().as_secs_f64();
    let replay_dir = inputs.copy_of_base("replay");
    let (replay, _) = Tvdp::open(&replay_dir, PlatformConfig::default()).expect("replay opens");
    let mut scratch = Scratch {
        replay_user: replay.register_user("e2e-replay", Role::Government),
        replay,
        wal: Wal::create(&scratch_dir.join("scratch.wal")).expect("scratch journal creates"),
        store: recovered.store_arc(),
        engine,
    };
    for row in &inputs.rows[..INDEXED_ROWS] {
        scratch.index(&mut tracer, None, row);
    }

    // --- uploads, stage by stage --------------------------------------
    let color = ColorHistogramExtractor::paper_default();
    let cnn = CnnExtractor::with_config(PlatformConfig::default().cnn);
    let mut uploads = Uploads::new(&inputs.bases, seed);
    let mut add_bytes = 0u64;
    let (mut api_self_add, mut core_self, mut add_coverage) = (Vec::new(), Vec::new(), Vec::new());
    for index in 0..TRACED_ADDS {
        let body = uploads.take(1).remove(0);
        let upload = uploads.upload(index);
        let (reply, root) =
            tracer.root("api.handle_add", || servers.durable.call("data/add", &body));
        uploads.ack(&reply, 1);
        add_bytes += (body.len() + reply.wire.len()) as u64;
        let (parsed, parse) = tracer.child("storage.codec_parse_add", root, || {
            codec::parse(&body).expect("upload body parses")
        });
        let (pixels, hex) = tracer.child("storage.hex_decode", root, || {
            codec::hex_decode(parsed["pixels"].as_str().expect("pixels are hex"))
                .expect("pixels decode")
        });
        let image = Image::from_raw(upload.image.width(), upload.image.height(), pixels);
        let (_, ingest) = tracer.child("core.ingest", root, || {
            scratch
                .replay
                .ingest(scratch.replay_user, image.clone(), ingest_request(&upload))
                .expect("replay ingest succeeds")
        });
        let (color_vec, c1) =
            tracer.child("vision.color_extract", ingest, || color.extract(&image));
        let (cnn_vec, c2) = tracer.child("vision.cnn_extract", ingest, || cnn.extract(&image));
        let row = Row {
            meta: upload.meta.clone(),
            color: color_vec,
            cnn: cnn_vec,
        };
        let mut ops = corpus::wal_ops(ImageId(1 << 40 | index as u64), &row);
        if let WalOp::AddImage { pixels, .. } = &mut ops[0] {
            *pixels = Some((image.width(), image.height(), image.raw().to_vec()));
        }
        // `Wal::append` encodes and frames the op itself, so encoding is
        // timed on its own, outside the tree, and not counted twice.
        tracer.probe("storage.wal_encode", || {
            ops.iter()
                .map(|op| frame(&op.encode()).len())
                .sum::<usize>()
        });
        let mut leaves = vec![parse, hex, c1, c2];
        for op in &ops {
            let (_, append) = tracer.child("storage.wal_append", ingest, || {
                scratch.wal.append(op).expect("scratch journal appends")
            });
            leaves.push(append);
        }
        scratch.index(&mut tracer, Some(ingest), &row);
        leaves.push(tracer.spans.len() - 1);
        api_self_add.push(tracer.self_us(root));
        core_self.push(tracer.self_us(ingest));
        let covered: f64 = leaves.iter().map(|&s| tracer.duration_us(s)).sum();
        add_coverage.push(covered / tracer.duration_us(root));
    }

    // --- group commit: the batch paths --------------------------------
    for round in 0..BATCH_PROBES {
        // Uploads only the replay platform ever sees.
        let first = REPLAY_ONLY_UPLOADS + round * BATCH;
        let batch: Vec<(Image, IngestRequest)> = (first..first + BATCH)
            .map(|i| {
                let upload = uploads.upload(i);
                let request = ingest_request(&upload);
                (upload.image, request)
            })
            .collect();
        tracer.probe("core.ingest_batch", || {
            scratch
                .replay
                .ingest_batch(scratch.replay_user, batch, BATCH.clamp(1, 8))
                .expect("replay batch ingests")
        });
    }
    let batch_dir = scratch_dir.join("batch");
    let (batch_store, _) = DurableStore::open(&batch_dir).expect("empty directory opens");
    for round in 0..BATCH_PROBES {
        let rows = &inputs.rows[round * BATCH..(round + 1) * BATCH];
        let ops = |first: usize| -> Vec<WalOp> {
            rows.iter()
                .enumerate()
                .flat_map(|(i, row)| corpus::wal_ops(ImageId((first + i) as u64), row))
                .collect()
        };
        let journal_only = ops(1 << 41);
        tracer.probe("storage.wal_append_batch", || {
            scratch
                .wal
                .append_batch(&journal_only)
                .expect("scratch journal appends")
        });
        let applied = ops(round * BATCH);
        tracer.probe("storage.apply_batch", || {
            batch_store
                .apply_batch(applied)
                .expect("scratch batch applies")
        });
    }

    // --- lateness of the open-loop generator --------------------------
    // A workload whose load has no open-loop writer gets one short
    // window of it here.
    let add_late_p95_ms = load.add_late_p95_ms.unwrap_or_else(|| {
        let window = read_beside_writes(
            &servers.durable,
            inputs.bodies.iter().cycle(),
            &uploads.take(LATENESS_ADDS),
            WRITE_RATE,
        );
        window.add_replies.iter().for_each(|r| uploads.ack(r, 1));
        percentile(&window.late_ms, 95.0)
    });

    // --- compaction on the replay platform, and the restart after ----
    let images = scratch.replay.stats().images;
    let start = Instant::now();
    let compaction = scratch.replay.flush().expect("replay platform flushes");
    let flush_s = start.elapsed().as_secs_f64();
    drop(scratch);
    let start = Instant::now();
    let reopened = Tvdp::open(&replay_dir, PlatformConfig::default()).expect("replay reopens");
    let reopen_after_flush_s = start.elapsed().as_secs_f64();
    drop(reopened);

    let us = |name: &str| tracer.median_us(name);
    let values: BTreeMap<&str, f64> = [
        ("api.self_search_us", median(&api_self_search)),
        ("api.self_add_us", median(&api_self_add)),
        ("api.render_us", us("api.render")),
        ("api.body_bytes_search", search_bytes as f64 / searches),
        ("api.body_bytes_add", add_bytes as f64 / TRACED_ADDS as f64),
        (
            "storage.codec_parse_search_us",
            us("storage.codec_parse_search"),
        ),
        ("storage.codec_parse_add_us", us("storage.codec_parse_add")),
        ("storage.hex_decode_us", us("storage.hex_decode")),
        ("storage.wal_encode_us", us("storage.wal_encode")),
        ("storage.wal_append_us", us("storage.wal_append")),
        (
            "storage.wal_append_batch_us",
            us("storage.wal_append_batch"),
        ),
        ("storage.apply_batch_us", us("storage.apply_batch")),
        ("storage.fdatasync_us", fdatasync_us),
        ("storage.recover_s", recover_s),
        (
            "storage.replay_ops_per_s",
            report.replayed_ops as f64 / recover_s,
        ),
        ("storage.flush_s", flush_s),
        (
            "storage.snapshot_bytes_per_image",
            compaction.snapshot_bytes as f64 / images as f64,
        ),
        ("storage.reopen_after_flush_s", reopen_after_flush_s),
        ("vision.color_extract_us", us("vision.color_extract")),
        ("vision.cnn_extract_us", us("vision.cnn_extract")),
        ("core.ingest_us", us("core.ingest")),
        (
            "core.ingest_batch_us_per_image",
            us("core.ingest_batch") / BATCH as f64,
        ),
        ("core.self_ingest_us", median(&core_self)),
        ("query.estimate_us", us("query.estimate")),
        ("query.execute_us", us("query.execute")),
        (
            "query.execute_p95_us",
            percentile(&tracer.us["query.execute"], 95.0),
        ),
        (
            "query.single_engine_execute_us",
            us("query.single_engine_execute"),
        ),
        ("query.linear_execute_us", us("query.linear_execute")),
        ("query.index_image_us", us("query.index_image")),
        ("query.seal_us", us("query.seal")),
        ("query.rebuild_s", rebuild_s),
        ("query.segments", segments as f64),
        ("query.results_per_search", results as f64 / searches),
        ("query.estimate_units_per_search", units as f64 / searches),
        (
            "query.estimate_units_per_result",
            units as f64 / results.max(1) as f64,
        ),
        ("index.rtree_range_us", us("index.rtree_range")),
        ("index.hybrid_knn_us", us("index.hybrid_knn")),
        ("kernel.l2_sq_scan_us", us("kernel.l2_sq_scan")),
        ("kernel.l2_sq_asym_scan_us", us("kernel.l2_sq_asym_scan")),
        ("kernel.pool_map_us", us("kernel.pool_map")),
        ("load.add_late_p95_ms", add_late_p95_ms),
        ("trace.search_coverage", median(&search_coverage)),
        ("trace.add_coverage", median(&add_coverage)),
        (
            "trace.overhead_ratio",
            percentile(&traced_ms, 50.0) / percentile(&plain_ms, 50.0),
        ),
    ]
    .into_iter()
    .chain(load.timings.iter().map(|&(name, value, _)| (name, value)))
    .collect();
    Traced {
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect(),
        spans: tracer.spans,
    }
}
