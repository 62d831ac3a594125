//! Benchmark of the platform's query planner over one segment.
//!
//! Builds a 24K-image store and times [`QueryEngine::try_execute`] —
//! the scatter/gather planner every platform search runs, here over
//! the engine as its one segment with no tail — against two baselines
//! on identical workloads:
//!
//! * `materialized` — a materialize-every-leaf plan: every leaf
//!   executed to a full result set, then intersected / unioned through
//!   a `BTreeMap`, using the same leaf executors.
//! * `linear` — the linear-scan reference executor, for the top-k
//!   visual workload (reported, not gated: both sides read every row
//!   in place, and the engine abandons a row once it cannot make the
//!   cut).
//!
//! Every timed pair is first checked for result parity, so the numbers
//! compare equal answers; a mismatch exits 1, and that is the gate. The
//! speedups are reported, the smallest hybrid one as
//! `hybrid_speedup_min`. Prints a JSON document to stdout; regenerate
//! the checked-in snapshot with
//! `cargo run --release -p tvdp-bench --bin query_planner > BENCH_query.json`.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tvdp_kernel::rng::Rng;

use tvdp_bench::report::{self, ok, Header, Kind, Report};
use tvdp_geo::{Fov, GeoPoint};
use tvdp_query::{
    LinearExecutor, Query, QueryEngine, QueryResult, TemporalField, TextualMode, VisualMode,
};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, ImageId, ImageMeta, ImageOrigin,
    UserId, VisualStore, WalOp,
};
use tvdp_vision::FeatureKind;

const N_IMAGES: usize = 24_000;
const DIM: usize = 16;
const QUERIES: usize = 40;
const ROUNDS: usize = 3;
const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let mut rng = Rng::seed_from_u64(seed);
    let cls = ClassificationId(0);
    let mut ops = vec![WalOp::RegisterScheme {
        id: cls,
        name: "cleanliness".into(),
        labels: vec!["clean".into(), "dirty".into(), "encampment".into()],
    }];
    for i in 0..n {
        let lat = 34.0 + rng.gen_range(0.0..0.08);
        let lon = -118.3 + rng.gen_range(0.0..0.08);
        let gps = GeoPoint::new(lat, lon);
        let fov = Fov::new(
            gps,
            rng.gen_range(0.0..360.0),
            rng.gen_range(40.0..80.0),
            rng.gen_range(50.0..150.0),
        );
        let captured = 1_000 + rng.gen_range(0..100_000);
        let n_words = rng.gen_range(1..4);
        let keywords: Vec<String> = (0..n_words)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())].to_string())
            .collect();
        let meta = ImageMeta {
            uploader: UserId(rng.gen_range(0..20)),
            gps,
            fov: Some(fov),
            captured_at: captured,
            uploaded_at: captured + rng.gen_range(1..500),
            keywords,
        };
        let id = ImageId(i as u64);
        let class = i % 3;
        let feature: Vec<f32> = (0..DIM)
            .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
            .collect();
        ops.push(WalOp::IngestUpload {
            marker: None,
            id,
            meta,
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![(FeatureKind::Cnn, feature)],
        });
        ops.push(WalOp::Annotate(Annotation {
            id: AnnotationId(i as u64),
            image: id,
            classification: cls,
            label: class,
            confidence: rng.gen_range(0.5..1.0),
            source: AnnotationSource::Human(UserId(0)),
            region: None,
        }));
    }
    let store = VisualStore::new();
    ok(store.apply_batch(ops), "apply_batch");
    Arc::new(store)
}

fn random_example(rng: &mut Rng) -> Vec<f32> {
    let class = rng.gen_range(0..3usize);
    (0..DIM)
        .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
        .collect()
}

/// `And[Temporal, Textual, Visual Threshold]` — the hybrid "recent
/// images matching a keyword that look like this example" query. No
/// spatial-range leaf, so both planners take the general conjunction
/// plan: the old one materializes a whole-corpus visual threshold scan
/// per query, the new one drives from the selective temporal leaf and
/// pushes the visual predicate down per candidate.
fn and_hybrid(rng: &mut Rng) -> Query {
    let from = 1_000 + rng.gen_range(0..95_000);
    Query::And(vec![
        Query::Temporal {
            field: TemporalField::Captured,
            from,
            to: from + 5_000,
        },
        Query::Textual {
            text: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
            mode: TextualMode::Any,
        },
        Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.5),
        },
    ])
}

/// `And[Or[Textual, Categorical], Temporal, Visual Threshold]` — a
/// nested disjunction inside the conjunction; the `Or` leg must be
/// materialized by both planners, the visual leg only by the old one.
fn and_or_hybrid(rng: &mut Rng) -> Query {
    let from = 1_000 + rng.gen_range(0..90_000);
    Query::And(vec![
        Query::Or(vec![
            Query::Textual {
                text: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                mode: TextualMode::Any,
            },
            Query::Categorical {
                scheme: tvdp_storage::ClassificationId(0),
                label: rng.gen_range(0..3),
                min_confidence: 0.8,
            },
        ]),
        Query::Temporal {
            field: TemporalField::Captured,
            from,
            to: from + 8_000,
        },
        Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(1.5),
        },
    ])
}

/// `Or[Textual Any, Categorical, Temporal]` — a wide union.
fn or_mixed(rng: &mut Rng) -> Query {
    let from = 1_000 + rng.gen_range(0..80_000);
    Query::Or(vec![
        Query::Textual {
            text: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
            mode: TextualMode::Any,
        },
        Query::Categorical {
            scheme: tvdp_storage::ClassificationId(0),
            label: rng.gen_range(0..3),
            min_confidence: 0.7,
        },
        Query::Temporal {
            field: TemporalField::Uploaded,
            from,
            to: from + 15_000,
        },
    ])
}

fn topk_visual(rng: &mut Rng) -> Query {
    Query::Visual {
        example: random_example(rng),
        kind: FeatureKind::Cnn,
        mode: VisualMode::TopK(10),
    }
}

/// The materialized conjunction plan: materialize every leg through the
/// engine's leaf executors, intersect through a `BTreeMap`, keep the
/// first leg's score.
fn materialized_and(engine: &QueryEngine, subs: &[Query]) -> Vec<QueryResult> {
    let mut iter = subs.iter();
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut acc: BTreeMap<_, f64> = materialized(engine, first)
        .into_iter()
        .map(|r| (r.image, r.score))
        .collect();
    for sub in iter {
        let keep: std::collections::BTreeSet<_> = materialized(engine, sub)
            .into_iter()
            .map(|r| r.image)
            .collect();
        acc.retain(|id, _| keep.contains(id));
    }
    let mut out: Vec<QueryResult> = acc
        .into_iter()
        .map(|(image, score)| QueryResult::new(image, score))
        .collect();
    out.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.image.cmp(&b.image)));
    out
}

/// The materialized disjunction plan: union through a `BTreeMap`,
/// keeping each image's best (lowest) score.
fn materialized_or(engine: &QueryEngine, subs: &[Query]) -> Vec<QueryResult> {
    let mut acc: BTreeMap<_, f64> = BTreeMap::new();
    for sub in subs {
        for r in materialized(engine, sub) {
            acc.entry(r.image)
                .and_modify(|s| *s = s.min(r.score))
                .or_insert(r.score);
        }
    }
    let mut out: Vec<QueryResult> = acc
        .into_iter()
        .map(|(image, score)| QueryResult::new(image, score))
        .collect();
    out.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.image.cmp(&b.image)));
    out
}

/// Runs a query this benchmark built for the engine's own corpus.
fn run(engine: &QueryEngine, q: &Query) -> Vec<QueryResult> {
    ok(engine.try_execute(q), "query rejected")
}

/// Executes one leg the materialized way: leaves through the engine's
/// leaf executors, nested booleans recursively materialized.
fn materialized(engine: &QueryEngine, q: &Query) -> Vec<QueryResult> {
    match q {
        Query::And(subs) => materialized_and(engine, subs),
        Query::Or(subs) => materialized_or(engine, subs),
        leaf => run(engine, leaf),
    }
}

fn canonical(results: &[QueryResult]) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = results
        .iter()
        .map(|r| (r.image.raw(), r.score.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Best-of-`ROUNDS` total milliseconds for running `f` over the batch.
fn time_batch(queries: &[Query], mut f: impl FnMut(&Query) -> Vec<QueryResult>) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut n = 0;
        for q in queries {
            n += f(q).len();
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
        rows = n;
    }
    (best, rows)
}

struct Workload {
    name: &'static str,
    baseline_name: &'static str,
    baseline_ms: f64,
    engine_ms: f64,
    result_rows: usize,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.engine_ms
    }
    fn json(&self) -> String {
        format!(
            "    \"{}\": {{\n      \"queries\": {QUERIES},\n      \"result_rows\": {},\n      \"baseline\": \"{}\",\n      \"baseline_ms\": {:.1},\n      \"engine_ms\": {:.1},\n      \"baseline_qps\": {:.0},\n      \"engine_qps\": {:.0},\n      \"speedup\": {:.2}\n    }}",
            self.name,
            self.result_rows,
            self.baseline_name,
            self.baseline_ms,
            self.engine_ms,
            QUERIES as f64 / (self.baseline_ms / 1e3),
            QUERIES as f64 / (self.engine_ms / 1e3),
            self.speedup()
        )
    }
}

fn main() {
    eprintln!("query_planner: building {N_IMAGES}-image store (dim {DIM})");
    let t0 = Instant::now();
    let store = build_store(N_IMAGES, 0xC0FFEE);
    let engine = QueryEngine::build(Arc::clone(&store), Default::default());
    let linear = LinearExecutor::new(Arc::clone(&store));
    eprintln!(
        "query_planner: store + engine built in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let mut rng = Rng::seed_from_u64(7);
    let and_qs: Vec<Query> = (0..QUERIES).map(|_| and_hybrid(&mut rng)).collect();
    let and_or_qs: Vec<Query> = (0..QUERIES).map(|_| and_or_hybrid(&mut rng)).collect();
    let or_qs: Vec<Query> = (0..QUERIES).map(|_| or_mixed(&mut rng)).collect();
    let topk_qs: Vec<Query> = (0..QUERIES).map(|_| topk_visual(&mut rng)).collect();

    // Parity gate: numbers only count if the answers are equal.
    for q in and_qs.iter().chain(&and_or_qs).chain(&or_qs) {
        let e = canonical(&run(&engine, q));
        let b = canonical(&materialized(&engine, q));
        report::ensure(e == b, format_args!("parity failure on {q:?}"));
    }
    for q in &topk_qs {
        let e = canonical(&run(&engine, q));
        let l = canonical(&linear.execute(q));
        report::ensure(e == l, format_args!("parity failure on {q:?}"));
    }
    eprintln!("query_planner: parity checks passed");

    let mut workloads = Vec::new();
    for (name, qs) in [("and_hybrid", &and_qs), ("and_or_hybrid", &and_or_qs)] {
        let (baseline_ms, _) = time_batch(qs, |q| materialized(&engine, q));
        let (engine_ms, rows) = time_batch(qs, |q| run(&engine, q));
        workloads.push(Workload {
            name,
            baseline_name: "materialized conjunction (BTreeMap intersection)",
            baseline_ms,
            engine_ms,
            result_rows: rows,
        });
    }
    {
        let (baseline_ms, _) = time_batch(&or_qs, |q| materialized(&engine, q));
        let (engine_ms, rows) = time_batch(&or_qs, |q| run(&engine, q));
        workloads.push(Workload {
            name: "or_mixed",
            baseline_name: "materialized disjunction (BTreeMap union)",
            baseline_ms,
            engine_ms,
            result_rows: rows,
        });
    }
    {
        let (baseline_ms, _) = time_batch(&topk_qs, |q| linear.execute(q));
        let (engine_ms, rows) = time_batch(&topk_qs, |q| run(&engine, q));
        workloads.push(Workload {
            name: "topk_visual",
            baseline_name: "linear scan reference",
            baseline_ms,
            engine_ms,
            result_rows: rows,
        });
    }
    for w in &workloads {
        eprintln!(
            "  {:<14} baseline {:>8.1} ms  engine {:>8.1} ms  speedup {:.2}x",
            w.name,
            w.baseline_ms,
            w.engine_ms,
            w.speedup()
        );
    }

    let body: Vec<String> = workloads.iter().map(Workload::json).collect();
    let description = format!(
        "The platform's scatter/gather planner over one segment (QueryEngine::try_execute) vs a materialize-every-leaf plan through BTreeMaps over the same leaf executors, and vs the linear-scan reference, on a {N_IMAGES}-image corpus (dim {DIM}). Result parity is asserted before timing. Best of {ROUNDS} rounds, {QUERIES} queries per workload."
    );
    let mut out = Report::new(Header {
        description: &description,
        methodology: "Wall-clock on this host, single-threaded. Each workload's queries run back to back; a time is the best total of the rounds and a qps is queries over that time. Every planned answer is first compared, row ids and score bits, with its baseline's; a mismatch exits 1 before anything is timed, and that parity is the gate. Speedups are reported, not held to a floor.",
        regenerate: "cargo run --release -p tvdp-bench --bin query_planner > BENCH_query.json",
        kind: Kind::Measured { probes: Vec::new() },
    });
    out.field("workloads", format!("{{\n{}\n  }}", body.join(",\n")));
    let min_hybrid = workloads
        .iter()
        .filter(|w| w.name.starts_with("and"))
        .map(Workload::speedup)
        .fold(f64::INFINITY, f64::min);
    // The gate is the parity check above (a mismatch exits 1); the
    // ratios are wall-clock and reported, not held to a floor.
    out.field(
        "reported",
        format!(
            "{{\n    \"hybrid_speedup_min\": {min_hybrid:.2},\n    \"zero_copy\": \"visual path allocates no per-query feature copies: the engine scores its candidates with tvdp_kernel::l2_sq_within on arena rows borrowed from the shared FeatureSlab view\"\n  }}"
        ),
    )
    .print();
}
