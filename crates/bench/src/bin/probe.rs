//! Probes that regenerate the wall-clock figures a change claims, from a
//! checked-in command instead of a scratch copy.
//!
//! `probe replay` lays down two durable directories from `tvdp-datagen`
//! and times `Tvdp::open` on each:
//!
//! * `e2e_base` — the shape of the e2e benchmark's durable base: rows
//!   jittered from 480 rendered scenes by the e2e corpus's rule
//!   (CNN-480 and colour-50 vectors with no zeros), journaled three ops
//!   a row in 256-row batches; the jitter is drawn from another RNG, so
//!   these are not the e2e's own rows;
//! * `real_extractor` — every row its own rendered scene, uploaded
//!   through `Tvdp::ingest_batch`, so the journal holds the extractors'
//!   real output (sparse CNN vectors) and the pixels' code.
//!
//! For each it reports the median and interquartile range of `--opens`
//! opens, the `VmRSS` after the open and the `VmRSS` after the first
//! visual top-k that follows it. By default every open runs in a fresh
//! process (this binary re-run as `probe open-once <dir>`), alternating
//! between the two directories; `--one-process` runs them all in this
//! one, where glibc's raised mmap threshold lets later opens reuse heap
//! pages, so the two modes differ and the report says which ran.
//!
//! ```text
//! cargo run --release -p tvdp-bench --bin probe -- replay \
//!     [--rows 8000] [--opens 11] [--one-process]
//! ```
//!
//! `probe rows` fills an in-memory `Tvdp::with_store` with e2e-shaped
//! rows (the `e2e_base` jitter, applied three ops a row) and reports the
//! `VmRSS` before the fill, after it, after the platform's engine build
//! and after the first visual top-k, each the median and interquartile
//! range of `--runs` fresh processes (this binary re-run as `probe
//! rows-once <rows>`), with the arena's and the projected column's
//! counted bytes from the last run:
//!
//! ```text
//! cargo run --release -p tvdp-bench --bin probe -- rows [--rows 24000] [--runs 5]
//! ```
//!
//! `probe_pairs.sh` beside this crate's manifest runs either (or the e2e
//! benchmark) in alternating pairs over two checkouts.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use tvdp_bench::report::{ensure, ok, percentile, Header, Kind, Report};
use tvdp_core::{IngestRequest, PlatformConfig, Role, Tvdp};
use tvdp_datagen::{generate, DatasetConfig, StreetGrid, SyntheticImage};
use tvdp_geo::{Fov, GeoPoint};
use tvdp_kernel::rng::Rng;
use tvdp_kernel::{RowSource, ROWS_PER_CHUNK};
use tvdp_query::{Query, VisualMode};
use tvdp_storage::{DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp};
use tvdp_vision::{CnnExtractor, ColorHistogramExtractor, FeatureExtractor, FeatureKind};

/// Rendered scenes the e2e-shaped rows are jittered from (the e2e
/// benchmark's `BASE_IMAGES`).
const BASE_SCENES: usize = 480;
/// Edge of every rendered image, pixels.
const IMAGE_SIZE: usize = 48;
/// Rows per journaled batch.
const BATCH_ROWS: usize = 256;
/// The datagen seed both inputs are laid down from.
const SEED: u64 = 1;

const USAGE: &str =
    "usage: probe replay [--rows N] [--opens N] [--one-process] | probe rows [--rows N] [--runs N]";

struct Args {
    rows: usize,
    opens: usize,
    one_process: bool,
}

/// The flags after a subcommand, over its default `rows` and `opens`
/// (`--runs` is `--opens` by the name `probe rows` gives it).
fn parse(mut args: impl Iterator<Item = String>, rows: usize, opens: usize) -> Args {
    let mut parsed = Args {
        rows,
        opens,
        one_process: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> usize {
            let v = args.next().and_then(|v| v.parse().ok());
            v.unwrap_or_else(|| {
                ensure(false, format_args!("{name} takes a number; {USAGE}"));
                0
            })
        };
        match flag.as_str() {
            "--rows" => parsed.rows = value("--rows"),
            "--opens" => parsed.opens = value("--opens"),
            "--runs" => parsed.opens = value("--runs"),
            "--one-process" => parsed.one_process = true,
            other => ensure(false, format_args!("unknown argument {other:?}; {USAGE}")),
        }
    }
    ensure(
        parsed.rows > 0 && parsed.opens > 0,
        "--rows, --opens and --runs must be positive",
    );
    parsed
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("replay") => replay(parse(args, 8_000, 11)),
        Some("rows") => rows(parse(args, 24_000, 5)),
        Some("rows-once") => {
            let rows = args.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            let figures: Vec<String> = rows_once(rows).iter().map(f64::to_string).collect();
            println!("{}", figures.join(" "));
        }
        Some("open-once") => {
            let dir = PathBuf::from(args.next().unwrap_or_default());
            let [secs, rss_open, rss_search] = open_once(&dir);
            println!("{secs} {rss_open} {rss_search}");
        }
        _ => ensure(false, USAGE),
    }
}

/// One open of `dir` and the first visual top-k after it:
/// `[open seconds, VmRSS MiB after the open, VmRSS MiB after the search]`.
fn open_once(dir: &Path) -> [f64; 3] {
    let started = Instant::now();
    let (platform, _) = ok(Tvdp::open(dir, PlatformConfig::default()), "open");
    let secs = started.elapsed().as_secs_f64();
    let rss_open = rss_mib();
    let store = platform.store();
    let first = store.image_ids().into_iter().next();
    let example = first.and_then(|id| store.feature(id, FeatureKind::Cnn));
    let example = ok(example.ok_or("no CNN row"), "visual example");
    let query = Query::Visual {
        example,
        kind: FeatureKind::Cnn,
        mode: VisualMode::TopK(10),
    };
    let hits = ok(platform.search(&query), "visual search");
    ensure(hits.len() == 10, "the visual top-k answers 10 rows");
    [secs, rss_open, rss_mib()]
}

fn replay(args: Args) {
    let scratch = std::env::temp_dir().join(format!("tvdp-probe-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let inputs = [
        ("e2e_base", scratch.join("e2e_base")),
        ("real_extractor", scratch.join("real_extractor")),
    ];
    e2e_base(&inputs[0].1, args.rows, SEED);
    real_extractor(&inputs[1].1, args.rows, SEED);

    // Alternate the inputs so that drift on the host falls on both.
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..args.opens {
        for (i, (_, dir)) in inputs.iter().enumerate() {
            let sample = if args.one_process {
                open_once(dir)
            } else {
                open_in_child(dir)
            };
            samples[i].push(sample);
        }
    }

    let mode = if args.one_process {
        "all in one process"
    } else {
        "one per process"
    };
    let mut report = Report::new(Header {
        description: "Restart cost: Tvdp::open of an e2e-shaped durable base and of a journal of real extractor output, and the resident set after the open and after the first visual top-k",
        methodology: "Each input is laid down once from tvdp-datagen at seed 1. Every open is timed from the call to its return (journal replay plus index build); VmRSS is read from /proc/self/status after the open and after one visual top-k of 10 over the first image's CNN row. Opens alternate between the inputs. Each figure is the median and the interquartile range (p75 - p25, integer percentile rule) of the samples.",
        regenerate: "cargo run --release -p tvdp-bench --bin probe -- replay",
        kind: Kind::Measured { probes: Vec::new() },
    });
    report
        .field("rows", args.rows)
        .field("seed", SEED)
        .field("opens", args.opens)
        .text("opens_ran", mode);
    for ((name, dir), samples) in inputs.iter().zip(&samples) {
        let column =
            |i: usize, scale: f64| -> Vec<f64> { samples.iter().map(|s| s[i] * scale).collect() };
        report.field(
            name,
            format_args!(
                "{{ \"journal_bytes\": {}, \"open_ms\": {}, \"rss_after_open_mib\": {}, \"rss_after_first_visual_search_mib\": {} }}",
                dir_bytes(dir),
                spread(column(0, 1e3)),
                spread(column(1, 1.0)),
                spread(column(2, 1.0)),
            ),
        );
    }
    report.print();
    std::fs::remove_dir_all(&scratch).ok();
}

/// `open_once` in a fresh process: this binary run as `open-once`.
fn open_in_child(dir: &Path) -> [f64; 3] {
    let values = in_child(&["open-once".as_ref(), dir.as_os_str()], 3);
    [values[0], values[1], values[2]]
}

/// The `n` numbers this binary prints when run with `args`, in a fresh
/// process.
fn in_child(args: &[&std::ffi::OsStr], n: usize) -> Vec<f64> {
    let exe = ok(std::env::current_exe(), "locate the probe binary");
    let out = ok(Command::new(exe).args(args).output(), "run a child probe");
    let text = String::from_utf8_lossy(&out.stdout);
    ensure(
        out.status.success(),
        format_args!(
            "child probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    );
    let values: Vec<f64> = text
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    ensure(
        values.len() == n,
        format_args!("child probe printed {text:?}"),
    );
    values
}

/// `{ "median": .., "iqr": .., "samples": [..] }` of `values`.
fn spread(mut values: Vec<f64>) -> String {
    let samples: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    values.sort_by(f64::total_cmp);
    let iqr = percentile(&values, 75) - percentile(&values, 25);
    format!(
        "{{ \"median\": {:.3}, \"iqr\": {iqr:.3}, \"samples\": [{}] }}",
        percentile(&values, 50),
        samples.join(", ")
    )
}

fn scenes(n: usize, seed: u64) -> Vec<SyntheticImage> {
    generate(&DatasetConfig {
        n_images: n,
        image_size: IMAGE_SIZE,
        seed,
        appearance_by_block: true,
        ..Default::default()
    })
}

/// Rows jittered from `BASE_SCENES` rendered scenes (fewer for fewer
/// rows) by the e2e benchmark's rule (`jitter_row` in
/// `examples/e2e/src/corpus.rs`: camera within ±0.0004° clamped to the
/// street grid, heading ±10°, CNN ±0.01 renormalised, colour ×0.9–1.1
/// renormalised unless it sums to zero), three ops a row: row `i` is
/// `next_row(i)`, drawn in call order. The draws come from
/// `tvdp_kernel::rng::Rng`, not the e2e's `StdRng`, so the rows have
/// the e2e base's shape but are not its rows.
struct E2eRows {
    bases: Vec<(SyntheticImage, Vec<f32>, Vec<f32>)>,
    config: DatasetConfig,
    region: tvdp_geo::BBox,
    rng: Rng,
}

impl E2eRows {
    fn new(rows: usize, seed: u64) -> Self {
        let color = ColorHistogramExtractor::paper_default();
        let cnn = CnnExtractor::with_config(PlatformConfig::default().cnn);
        let bases = scenes(BASE_SCENES.min(rows), seed)
            .into_iter()
            .map(|s| {
                let features = (color.extract(&s.image), cnn.extract(&s.image));
                (s, features.0, features.1)
            })
            .collect();
        Self {
            bases,
            config: DatasetConfig::default(),
            region: *StreetGrid::downtown_la().region(),
            rng: Rng::seed_from_u64(seed ^ 0xC0_4B05),
        }
    }

    fn next_row(&mut self, i: usize) -> [WalOp; 3] {
        let (rng, region) = (&mut self.rng, &self.region);
        let (base, base_color, base_cnn) = &self.bases[i % self.bases.len()];
        let gps = GeoPoint::new(
            (base.fov.camera.lat + rng.gen_range(-0.0004..0.0004))
                .clamp(region.min_lat, region.max_lat),
            (base.fov.camera.lon + rng.gen_range(-0.0004..0.0004))
                .clamp(region.min_lon, region.max_lon),
        );
        let heading = (base.fov.heading_deg + rng.gen_range(-10.0..10.0)).rem_euclid(360.0);
        let fov = Fov::new(gps, heading, base.fov.angle_deg, base.fov.radius_m);
        let captured_at = self.config.period_start + rng.gen_range(0..self.config.period_len);
        let mut cnn: Vec<f32> = base_cnn
            .iter()
            .map(|&x| x + rng.gen_range(-0.01f32..0.01))
            .collect();
        tvdp_kernel::normalize(&mut cnn);
        let mut color: Vec<f32> = base_color
            .iter()
            .map(|&x| (x * rng.gen_range(0.9f32..1.1)).max(0.0))
            .collect();
        let total: f32 = color.iter().sum();
        if total > 0.0 {
            color.iter_mut().for_each(|x| *x /= total);
        }
        let id = ImageId(i as u64);
        let meta = ImageMeta {
            uploader: UserId(base.uploader),
            gps,
            fov: Some(fov),
            captured_at,
            uploaded_at: captured_at + (base.uploaded_at - base.captured_at),
            keywords: base.keywords.clone(),
        };
        [
            WalOp::AddImage {
                id,
                meta,
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
}

/// `rows` e2e-shaped rows ([`E2eRows`]) journaled in 256-row batches.
fn e2e_base(dir: &Path, rows: usize, seed: u64) {
    let mut source = E2eRows::new(rows, seed);
    ok(
        std::fs::create_dir_all(dir),
        "create the e2e base directory",
    );
    let (store, _) = ok(DurableStore::open(dir), "open the e2e base");
    for first in (0..rows).step_by(BATCH_ROWS) {
        let ops = (first..rows.min(first + BATCH_ROWS))
            .flat_map(|i| source.next_row(i))
            .collect();
        ok(store.apply_batch(ops), "journal an e2e base batch");
    }
}

/// One `probe rows` sample: `[VmRSS MiB before the fill, after the
/// fill, after the engine build, after the first visual top-k, arena
/// bytes, projected column bytes]`. The rows go into an in-memory store
/// one commit of three ops each, as the e2e benchmark's set-up adds
/// them; the engine is `Tvdp::with_store`'s build.
fn rows_once(rows: usize) -> [f64; 6] {
    ensure(rows > 0, "rows-once takes a positive row count");
    let mut source = E2eRows::new(rows, SEED);
    let rss_before = rss_mib();
    let store = Arc::new(VisualStore::new());
    for i in 0..rows {
        ok(store.apply_batch(source.next_row(i).into()), "store a row");
    }
    drop(source);
    let rss_fill = rss_mib();
    let platform = Tvdp::with_store(Arc::clone(&store), PlatformConfig::default());
    let rss_build = rss_mib();
    let example = ok(
        store
            .feature(ImageId(0), FeatureKind::Cnn)
            .ok_or("no CNN row"),
        "visual example",
    );
    let query = Query::Visual {
        example,
        kind: FeatureKind::Cnn,
        mode: VisualMode::TopK(10),
    };
    let hits = ok(platform.search(&query), "visual search");
    ensure(hits.len() == 10, "the visual top-k answers 10 rows");
    let rss_search = rss_mib();
    // Every chunk's buffer is allocated at its full size on its first
    // row, the partial one too.
    let (mut arena, mut projected) = (0, 0);
    for kind in [FeatureKind::ColorHistogram, FeatureKind::Cnn] {
        for dim in store.feature_widths(kind) {
            let view = store.slab_view(kind, dim, 0);
            arena += view.rows().div_ceil(ROWS_PER_CHUNK) * ROWS_PER_CHUNK * dim * 4;
            projected += view.projected_bytes();
        }
    }
    [
        rss_before,
        rss_fill,
        rss_build,
        rss_search,
        arena as f64,
        projected as f64,
    ]
}

/// `probe rows`: `rows_once` in `--runs` fresh processes.
fn rows(args: Args) {
    let rows = args.rows.to_string();
    let samples: Vec<Vec<f64>> = (0..args.opens)
        .map(|_| in_child(&["rows-once".as_ref(), rows.as_ref()], 6))
        .collect();
    let mut report = Report::new(Header {
        description: "Where the resident set goes: an in-memory Tvdp::with_store over e2e-shaped rows, VmRSS before and after the fill, after the engine build and after the first visual top-k",
        methodology: "Each run is a fresh process. It derives the base rows' features from 480 tvdp-datagen scenes at seed 1 (fewer for fewer rows), reads VmRSS, commits the jittered rows three ops at a time into an in-memory VisualStore, reads VmRSS, builds the platform with Tvdp::with_store (the segment build), reads VmRSS, runs one visual top-k of 10 over row 0's CNN vector and reads VmRSS. Each figure is the median and the interquartile range (p75 - p25, integer percentile rule) of the runs. arena_bytes counts every feature chunk at its allocated size; projected_column_bytes is SlabView::projected_bytes after the search; both are exact and the same every run.",
        regenerate: "cargo run --release -p tvdp-bench --bin probe -- rows",
        kind: Kind::Measured { probes: Vec::new() },
    });
    let column = |i: usize| -> Vec<f64> { samples.iter().map(|s| s[i]).collect() };
    let last = samples.last().cloned().unwrap_or_else(|| vec![0.0; 6]);
    report
        .field("rows", args.rows)
        .field("seed", SEED)
        .field("runs", args.opens)
        .field("rss_before_fill_mib", spread(column(0)))
        .field("rss_after_fill_mib", spread(column(1)))
        .field("rss_after_engine_build_mib", spread(column(2)))
        .field("rss_after_first_visual_search_mib", spread(column(3)))
        .field("arena_bytes", last[4])
        .field("projected_column_bytes", last[5]);
    report.print();
}

/// `rows` rendered scenes uploaded through the platform's ingest path,
/// 256 to a commit, rendered a batch at a time to bound memory.
fn real_extractor(dir: &Path, rows: usize, seed: u64) {
    ok(
        std::fs::create_dir_all(dir),
        "create the real-extractor directory",
    );
    let (platform, _) = ok(
        Tvdp::open(dir, PlatformConfig::default()),
        "open the real-extractor platform",
    );
    let user = platform.register_user("probe", Role::CommunityPartner);
    for first in (0..rows).step_by(BATCH_ROWS) {
        let n = BATCH_ROWS.min(rows - first);
        let batch = scenes(n, seed.wrapping_add(first as u64))
            .into_iter()
            .map(|s| {
                let request = IngestRequest {
                    gps: s.fov.camera,
                    fov: Some(s.fov),
                    captured_at: s.captured_at,
                    uploaded_at: s.uploaded_at,
                    keywords: s.keywords,
                };
                (s.image, request)
            })
            .collect();
        ok(
            platform.ingest_batch(user, batch, 2),
            "ingest a real-extractor batch",
        );
    }
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let entries = ok(std::fs::read_dir(dir), "list a probe directory");
    entries
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
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
