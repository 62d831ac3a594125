//! `--self-test`: checks of the benchmark's own arithmetic and inputs.
//! Runs in well under a second at the start of every invocation.

use std::path::Path;

use tvdp::storage::codec::{self, Value};

use crate::corpus;
use crate::layers::PER_LAYER;
use crate::stats::{median, percentile, self_time_ns, Rounds, Span};
use crate::workload::{same_answer, BATCH, WORKLOADS};
use crate::END_TO_END;

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn order_statistics() -> Result<(), String> {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check(
        percentile(&ten, 50.0) == 5.0,
        "nearest-rank p50 of 1..=10 is 5",
    )?;
    check(
        percentile(&ten, 95.0) == 10.0,
        "nearest-rank p95 of 1..=10 is 10",
    )?;
    check(
        percentile(&ten, 25.0) == 3.0,
        "nearest-rank p25 of 1..=10 is 3",
    )?;
    check(
        percentile(&[7.0], 99.0) == 7.0,
        "any percentile of one sample is the sample",
    )?;
    check(median(&[3.0, 1.0, 2.0]) == 2.0, "median of three")?;
    check(median(&[4.0, 1.0, 3.0, 2.0]) == 2.5, "median of four")?;
    // Three rounds of the same three requests, the second disturbed.
    let rounds = Rounds(vec![
        vec![1.0, 5.0, 3.0],
        vec![9.0, 4.0, 9.0],
        vec![2.0, 6.0, 1.0],
    ]);
    check(
        rounds.percentile(50.0) == 3.0,
        "median of the rounds' p50s (3, 9, 2)",
    )?;
    check(
        (rounds.rate(2) - 2000.0 / 3.0).abs() < 1e-9,
        "median of the rounds' rates (3 requests of 2 items in 9, 22 and 9 ms)",
    )
}

fn span_self_time() -> Result<(), String> {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 1,
    };
    let tree = [
        span("handle", 0, 100, None),
        span("parse", 0, 10, Some(0)),
        span("execute", 10, 70, Some(0)),
        span("scan", 20, 50, Some(2)),
        // Overlaps `execute` by 10 ns and runs 20 ns past its parent.
        span("render", 60, 120, Some(0)),
    ];
    check(
        self_time_ns(&tree, 0) == -20,
        "children that outlast the parent by 20 ns",
    )?;
    check(self_time_ns(&tree, 2) == 30, "execute minus its scan")?;
    check(
        self_time_ns(&tree, 3) == 30,
        "a leaf's self time is its duration",
    )?;
    check(
        self_time_ns(&tree[..4], 0) == 30,
        "handle minus parse and execute",
    )
}

fn answer_comparison() -> Result<(), String> {
    let answer = [(3, 0.1), (7, 0.2), (9, 0.2), (4, 0.3)];
    check(
        same_answer(&answer, &answer, None),
        "an answer equals itself",
    )?;
    let swapped_tie = [(3, 0.1), (9, 0.2), (7, 0.2), (4, 0.3)];
    check(
        same_answer(&answer, &swapped_tie, None),
        "tied rows may swap",
    )?;
    let swapped_scores = [(7, 0.1), (3, 0.2), (9, 0.2), (4, 0.3)];
    check(
        !same_answer(&answer, &swapped_scores, None),
        "untied rows may not swap",
    )?;
    let other_last = [(3, 0.1), (7, 0.2), (9, 0.2), (5, 0.3)];
    check(
        !same_answer(&answer, &other_last, None),
        "a filter answer is never cut off",
    )?;
    check(
        !same_answer(&answer, &other_last, Some(5)),
        "nor is a top-5 holding 4 rows",
    )?;
    check(
        same_answer(&answer, &other_last, Some(4)),
        "a tie on the last score of a full top-4 may cut either way",
    )?;
    let other_score = [(3, 0.1), (7, 0.2), (9, 0.2), (4, 0.4)];
    check(
        !same_answer(&answer, &other_score, Some(4)),
        "scores must agree at every rank",
    )?;
    check(
        !same_answer(&answer, &answer[..3], None),
        "lengths must agree",
    )
}

/// Every request body a run sends, for a small corpus under `seed`.
fn request_bodies(seed: u64) -> Vec<String> {
    let bases = corpus::bases(seed, 4);
    let rows = corpus::rows(&bases, 16, seed);
    let mut bodies: Vec<String> = corpus::selective_queries(&rows, 10, seed)
        .iter()
        .chain(&corpus::visual_queries(&rows, 6, seed))
        .map(corpus::search_body)
        .collect();
    let uploads: Vec<String> = (0..3)
        .map(|i| corpus::add_body(&corpus::upload(&bases, i, seed)))
        .collect();
    bodies.push(corpus::add_batch_body(&uploads));
    bodies.extend(uploads);
    bodies
}

fn seeded_inputs() -> Result<(), String> {
    let first = request_bodies(41);
    check(
        first == request_bodies(41),
        "same seed, same request bodies",
    )?;
    let other = request_bodies(42);
    check(
        first.iter().zip(&other).all(|(a, b)| a != b),
        "another seed, other request bodies",
    )?;
    check(
        first.iter().all(|body| codec::parse(body).is_ok()),
        "every request body is well-formed JSON",
    )
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest[list]
        .as_array()
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or_default().to_string(),
                m["unit"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect()
}

/// Every name the program prints is legal and is declared, with its
/// unit, in `BENCHMARK.json` — and nothing else is declared there.
fn names_match_manifest() -> Result<(), String> {
    let beside_package = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = ["BENCHMARK.json", beside_package]
        .iter()
        .find_map(|path| std::fs::read_to_string(Path::new(path)).ok())
        .ok_or("BENCHMARK.json is neither in the working directory nor at the repository root")?;
    let manifest = codec::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    check(
        declared(&manifest, "end_to_end") == printed(&END_TO_END),
        "end_to_end in BENCHMARK.json lists exactly the printed metrics and units",
    )?;
    check(
        declared(&manifest, "per_layer") == printed(&PER_LAYER),
        "per_layer in BENCHMARK.json lists exactly the printed metrics and units",
    )?;
    let workloads: Vec<&str> = manifest["workloads"]
        .as_array()
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    check(
        workloads == WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
        "workloads in BENCHMARK.json are the program's workloads",
    )?;
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(name, _)| *name)
        .chain(WORKLOADS.iter().map(|w| w.name));
    for name in names {
        check(
            legal_name(name),
            &format!("`{name}` matches [A-Za-z0-9_.-]+"),
        )?;
    }
    Ok(())
}

/// Every round of every workload uploads whole segments, so all rounds
/// meet the same tail lengths and seal at the same requests.
fn rounds_upload_whole_segments() -> Result<(), String> {
    let seal_cap = tvdp::platform::PlatformConfig::default().seal_cap;
    check(
        WORKLOADS
            .iter()
            .all(|w| (w.adds + w.batches * BATCH).is_multiple_of(seal_cap)),
        "a round's uploads are a multiple of seal_cap",
    )
}

pub fn run() -> Result<(), String> {
    order_statistics()?;
    rounds_upload_whole_segments()?;
    span_self_time()?;
    answer_comparison()?;
    seeded_inputs()?;
    names_match_manifest()
}
