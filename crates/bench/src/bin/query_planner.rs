//! Before/after benchmark for the selectivity-ordered query planner.
//!
//! Builds a 24K-image store and times the rewritten [`QueryEngine`]
//! against two baselines on identical workloads:
//!
//! * `materialized` — the pre-rewrite conjunction/disjunction plan:
//!   every leaf executed to a full result set, then intersected /
//!   unioned through a `BTreeMap` (reconstructed here from the old
//!   `execute_and`/`execute_or`, using the same leaf executors).
//! * `linear` — the linear-scan reference executor, for the top-k
//!   visual workload.
//!
//! Every timed pair is first checked for result parity, so the numbers
//! compare equal answers. Prints a JSON document to stdout; regenerate
//! the checked-in snapshot with
//! `cargo run --release -p tvdp-bench --bin query_planner > BENCH_query.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tvdp_kernel::rng::Rng;

use tvdp_geo::{BBox, Fov, GeoPoint};
use tvdp_kernel::RowSource;
use tvdp_query::{
    EngineConfig, LinearExecutor, QuantConfig, QuantMode, Query, QueryEngine, QueryResult,
    SpatialQuery, TemporalField, TextualMode, VisualMode,
};
use tvdp_storage::{AnnotationSource, ImageMeta, ImageOrigin, UserId, VisualStore};
use tvdp_vision::FeatureKind;

const N_IMAGES: usize = 24_000;
const DIM: usize = 16;
const QUERIES: usize = 40;
const ROUNDS: usize = 3;
const WORDS: [&str; 6] = ["street", "tent", "trash", "corner", "downtown", "alley"];

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let store = VisualStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let cls = match store.register_scheme(
        "cleanliness",
        vec!["clean".into(), "dirty".into(), "encampment".into()],
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scheme registration failed: {e:?}");
            std::process::exit(1);
        }
    };
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
        let id = match store.add_image(meta, ImageOrigin::Original, None) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("add_image failed: {e:?}");
                std::process::exit(1);
            }
        };
        let class = i % 3;
        let feature: Vec<f32> = (0..DIM)
            .map(|_| class as f32 * 2.0 + rng.gen_range(-0.3..0.3))
            .collect();
        let _ = store.put_feature(id, FeatureKind::Cnn, feature);
        let _ = store.annotate(
            id,
            cls,
            class,
            rng.gen_range(0.5..1.0),
            AnnotationSource::Human(UserId(0)),
            None,
        );
    }
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

/// `And[broad spatial range, visual top-10]` — the city-wide hybrid
/// workload the quantized scan targets: the region keeps 40-100% of the
/// corpus, so the exact tree traversal degenerates to scoring most
/// entries through its best-first heap while the quantized scan streams
/// u8 codes.
fn hybrid_topk(rng: &mut Rng) -> Query {
    let lat = 34.0 + rng.gen_range(0.0..0.02);
    let lon = -118.3 + rng.gen_range(0.0..0.02);
    let side = rng.gen_range(0.05..0.08);
    Query::And(vec![
        Query::Spatial(SpatialQuery::Range(BBox::new(
            lat,
            lon,
            lat + side,
            lon + side,
        ))),
        Query::Visual {
            example: random_example(rng),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(10),
        },
    ])
}

/// An engine whose exact top-k path is pinned to one scan.
fn engine_with_quant(
    store: &Arc<VisualStore>,
    mode: QuantMode,
    rerank_depth: usize,
) -> QueryEngine {
    QueryEngine::build(
        Arc::clone(store),
        EngineConfig {
            quant: QuantConfig { mode, rerank_depth },
            ..EngineConfig::default()
        },
    )
}

/// Top-10 ids of each query result (already distance-ascending).
fn top_ids(results: &[QueryResult], k: usize) -> Vec<u64> {
    results.iter().take(k).map(|r| r.image.raw()).collect()
}

/// Fraction of `truth` recovered, averaged over the batch.
fn recall_at(truth: &[Vec<u64>], got: &[Vec<u64>]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (t, g) in truth.iter().zip(got) {
        total += t.len();
        hits += t.iter().filter(|id| g.contains(id)).count();
    }
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// The pre-rewrite conjunction plan: materialize every leg through the
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

/// The pre-rewrite disjunction plan: union through a `BTreeMap`,
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

/// Executes one leg the way the old plan did: leaves through the
/// engine's leaf executors, nested booleans recursively materialized.
fn materialized(engine: &QueryEngine, q: &Query) -> Vec<QueryResult> {
    match q {
        Query::And(subs) => materialized_and(engine, subs),
        Query::Or(subs) => materialized_or(engine, subs),
        leaf => engine.execute(leaf),
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
        let e = canonical(&engine.execute(q));
        let b = canonical(&materialized(&engine, q));
        if e != b {
            eprintln!("parity failure on {q:?}");
            std::process::exit(1);
        }
    }
    for q in &topk_qs {
        let e = canonical(&engine.execute(q));
        let l = canonical(&linear.execute(q));
        if e != l {
            eprintln!("parity failure on {q:?}");
            std::process::exit(1);
        }
    }
    eprintln!("query_planner: parity checks passed");

    let mut workloads = Vec::new();
    for (name, qs) in [("and_hybrid", &and_qs), ("and_or_hybrid", &and_or_qs)] {
        let (baseline_ms, _) = time_batch(qs, |q| materialized(&engine, q));
        let (engine_ms, rows) = time_batch(qs, |q| engine.execute(q));
        workloads.push(Workload {
            name,
            baseline_name: "materialized conjunction (pre-rewrite plan)",
            baseline_ms,
            engine_ms,
            result_rows: rows,
        });
    }
    {
        let (baseline_ms, _) = time_batch(&or_qs, |q| materialized(&engine, q));
        let (engine_ms, rows) = time_batch(&or_qs, |q| engine.execute(q));
        workloads.push(Workload {
            name: "or_mixed",
            baseline_name: "BTreeMap union (pre-rewrite plan)",
            baseline_ms,
            engine_ms,
            result_rows: rows,
        });
    }
    {
        let (baseline_ms, _) = time_batch(&topk_qs, |q| linear.execute(q));
        let (engine_ms, rows) = time_batch(&topk_qs, |q| engine.execute(q));
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

    // ------------------------------------------------------------------
    // Quantized-scan curve: city-wide hybrid top-10, exact tree baseline.
    // The quantized path re-ranks within the decode-error margin, so it
    // is exact at every depth; recall is measured anyway rather than
    // asserted.
    // ------------------------------------------------------------------
    let hybrid_qs: Vec<Query> = (0..QUERIES).map(|_| hybrid_topk(&mut rng)).collect();
    let exact_engine = engine_with_quant(&store, QuantMode::Never, 64);
    let truth: Vec<Vec<u64>> = hybrid_qs
        .iter()
        .map(|q| top_ids(&exact_engine.execute(q), 10))
        .collect();
    let (exact_ms, _) = time_batch(&hybrid_qs, |q| exact_engine.execute(q));
    eprintln!("  hybrid_topk    exact tree {exact_ms:>8.1} ms");

    const DEPTHS: [usize; 5] = [10, 16, 32, 64, 128];
    struct CurvePoint {
        depth: usize,
        engine_ms: f64,
        recall: f64,
    }
    let mut curve = Vec::new();
    for depth in DEPTHS {
        let quant_engine = engine_with_quant(&store, QuantMode::Always, depth);
        let got: Vec<Vec<u64>> = hybrid_qs
            .iter()
            .map(|q| top_ids(&quant_engine.execute(q), 10))
            .collect();
        let recall = recall_at(&truth, &got);
        let (engine_ms, _) = time_batch(&hybrid_qs, |q| quant_engine.execute(q));
        eprintln!(
            "  quantized d={depth:<4} {engine_ms:>8.1} ms  recall@10 {recall:.3}  speedup {:.2}x",
            exact_ms / engine_ms
        );
        curve.push(CurvePoint {
            depth,
            engine_ms,
            recall,
        });
    }

    // Resident footprint of the compressed representation vs the floats
    // it mirrors (codes plus per-chunk min/scale/eps sidecar).
    let view = store.slab_view(
        FeatureKind::Cnn,
        DIM,
        store.slab_rows(FeatureKind::Cnn, DIM),
    );
    let quant_rows = view.quant_rows();
    let chunks = quant_rows / tvdp_kernel::ROWS_PER_CHUNK;
    let code_bytes = quant_rows * DIM + chunks * (DIM * 8 + 4);
    let float_bytes = view.rows() * DIM * 4;

    let body: Vec<String> = workloads.iter().map(Workload::json).collect();
    println!("{{");
    println!(
        "  \"description\": \"Selectivity-ordered streaming planner vs the pre-rewrite materialize-every-leaf plan (reconstructed from the old execute_and/execute_or over the same leaf executors) and the linear-scan reference, on a {N_IMAGES}-image corpus (dim {DIM}). Result parity is asserted before timing. Best of {ROUNDS} rounds, {QUERIES} queries per workload.\","
    );
    println!("  \"regenerate\": \"cargo run --release -p tvdp-bench --bin query_planner > BENCH_query.json\",");
    println!("  \"workloads\": {{\n{}\n  }},", body.join(",\n"));
    println!("  \"quantized\": {{");
    println!("    \"workload\": \"And[broad spatial range, visual top-10], {QUERIES} queries over the {N_IMAGES}-image corpus\",");
    println!("    \"baseline\": \"exact f32 hybrid-tree traversal (QuantMode::Never)\",");
    println!(
        "    \"exact_ms\": {exact_ms:.1},\n    \"exact_qps\": {:.0},",
        QUERIES as f64 / (exact_ms / 1e3)
    );
    println!(
        "    \"resident_code_bytes\": {code_bytes},\n    \"resident_float_bytes\": {float_bytes},\n    \"compression\": {:.2},",
        float_bytes as f64 / code_bytes as f64
    );
    let curve_body: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "      {{\"rerank_depth\": {}, \"engine_ms\": {:.1}, \"qps\": {:.0}, \"speedup_vs_exact\": {:.2}, \"recall_at_10\": {:.4}}}",
                p.depth,
                p.engine_ms,
                QUERIES as f64 / (p.engine_ms / 1e3),
                exact_ms / p.engine_ms,
                p.recall
            )
        })
        .collect();
    println!("    \"curve\": [\n{}\n    ]", curve_body.join(",\n"));
    println!("  }},");
    let min_hybrid = workloads
        .iter()
        .filter(|w| w.name.starts_with("and"))
        .map(Workload::speedup)
        .fold(f64::INFINITY, f64::min);
    let topk = workloads
        .iter()
        .find(|w| w.name == "topk_visual")
        .map(Workload::speedup)
        .unwrap_or(0.0);
    println!("  \"acceptance\": {{");
    println!(
        "    \"hybrid_speedup_2x\": \"{}: {min_hybrid:.2}x minimum across hybrid And/Or workloads\",",
        if min_hybrid >= 2.0 { "met" } else { "NOT met" }
    );
    println!(
        "    \"topk_visual_speedup_2x\": \"{}: {topk:.2}x over the linear reference\",",
        if topk >= 2.0 { "met" } else { "NOT met" }
    );
    // Default-depth point of the curve (rerank_depth 64).
    let default_point = curve.iter().find(|p| p.depth == 64).unwrap_or(&curve[0]);
    println!(
        "    \"recall_floor_at_default_depth\": \"{}: recall@10 = {:.3} at rerank depth {} (floor 0.95; the margin re-rank makes the scan exact)\",",
        if default_point.recall >= 0.95 {
            "met"
        } else {
            "NOT met"
        },
        default_point.recall,
        default_point.depth
    );
    let best_speedup = curve
        .iter()
        .filter(|p| p.recall >= 0.95)
        .map(|p| exact_ms / p.engine_ms)
        .fold(0.0f64, f64::max);
    println!(
        "    \"qps_2x_at_recall_095\": \"{}: {best_speedup:.2}x QPS over the exact scan at recall@10 >= 0.95\",",
        if best_speedup >= 2.0 { "met" } else { "NOT met" }
    );
    println!("    \"zero_copy\": \"visual path allocates no per-query feature copies: LSH re-rank and hybrid pruning call tvdp_kernel::l2_sq on arena rows borrowed from the shared FeatureSlab view\"");
    println!("  }}");
    println!("}}");
}
