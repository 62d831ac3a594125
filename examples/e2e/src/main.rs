//! `e2e`: a repeatable end-to-end benchmark of the TVDP `ApiServer`.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path examples/e2e/Cargo.toml -- --workload <name> --seed <u64>`
//! See `README.md` beside this package for the metric glossary.

mod corpus;
mod layers;
mod load;
mod selftest;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

use workload::Workload;

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rss_after_setup_mb", "MiB"),
    ("wal_bytes_per_image", "bytes"),
];

/// Wall time a run is sized for, seconds; outside it the run says so.
const EXPECTED_WALL_S: std::ops::RangeInclusive<f64> = 15.0..=45.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e --workload <{}> --seed <u64> [--trace <0|1>] [--trace-out <file>] [--seconds <n>] | --self-test",
        names.join("|")
    )
}

/// `Ok(None)` means `--self-test` alone was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed) = (None, None);
    let (mut trace, mut trace_out, mut self_test_only) = (false, None, false);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                )
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("a path")?)),
            // The driver passes `run_seconds` from BENCHMARK.json. A run
            // does fixed work, sized in `workload.rs` for that time, so
            // the value changes nothing.
            "--seconds" => {
                value("a number")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
            }
            "--self-test" => self_test_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (workload, seed) {
        (Some(workload), Some(seed)) => Ok(Some(Args {
            workload,
            seed,
            trace,
            trace_out,
        })),
        (None, None) if self_test_only => Ok(None),
        _ => Err("--workload and --seed are both required".into()),
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<36} {value:>16.6} {unit}");
}

fn main() -> ExitCode {
    let started = Instant::now();
    if let Err(why) = selftest::run() {
        eprintln!("self-test failed: {why}");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("self-test passed");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    // Scratch space lives inside the working directory and goes away
    // with the run.
    let scratch = PathBuf::from(format!(".e2e_scratch/{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("working directory is writable");

    println!(
        "# e2e workload={} seed={} trace={}",
        w.name, args.seed, args.trace
    );
    println!("# why: {}", w.why);
    println!(
        "# host_cores={} pool_threads={} commit={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        tvdp::kernel::Pool::global().threads(),
        commit()
    );
    println!(
        "# memory_rows={} durable_rows={} base_images={} rounds={}+{} searches={} adds={} batches={}x{}",
        w.memory_rows,
        w.durable_rows,
        corpus::BASE_IMAGES,
        workload::WARMUP_ROUNDS,
        workload::ROUNDS,
        w.searches,
        w.adds,
        w.batches,
        workload::BATCH,
    );
    let fdatasync_us = layers::fdatasync_us(&scratch);
    println!("# storage.fdatasync_us={fdatasync_us:.1}");

    let inputs_started = Instant::now();
    let inputs = workload::inputs(w, args.seed, &scratch);
    let inputs_s = inputs_started.elapsed().as_secs_f64();
    let load = workload::run_load(w, &inputs, args.seed);
    println!("# search_result_fnv={:016x}", load.oracle.fnv);
    println!(
        "# oracle_searches={} oracle_results={} acked_uploads={}",
        load.oracle.searches, load.oracle.results, load.acked
    );
    let phases: Vec<String> = load
        .phases
        .iter()
        .map(|(name, secs)| format!("{name}={secs:.1}"))
        .collect();
    println!("# phases_s inputs={inputs_s:.1} {}", phases.join(" "));
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced = layers::run_traced(w, &inputs, args.seed, fdatasync_us, &load);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, stats::spans_json(&traced.spans)).expect("trace file is writable");
            println!(
                "# {} spans written to {}",
                traced.spans.len(),
                path.display()
            );
        }
        traced.metrics
    } else {
        // The load's wall-clock timings are per-layer metrics (the traced
        // run reports them); here they are printed for the reader.
        for (name, value, unit) in &load.timings {
            println!("# {name}={value:.4} {unit}");
        }
        if let Some(late) = load.add_late_p95_ms {
            println!("# load.add_late_p95_ms={late:.4} ms");
        }
        let units: std::collections::BTreeMap<_, _> = END_TO_END.into_iter().collect();
        load.end_to_end
            .iter()
            .map(|&(name, value)| (name, value, units[name]))
            .collect()
    };
    drop(inputs);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".e2e_scratch");

    let attempted = load::ATTEMPTED.load(Ordering::Relaxed);
    let failed = load::FAILED.load(Ordering::Relaxed);
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit);
    }
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    let wall = started.elapsed().as_secs_f64();
    println!("# wall_s={wall:.1}");
    if !EXPECTED_WALL_S.contains(&wall) {
        println!(
            "# WARNING: wall time {wall:.1} s is outside the {:.0}-{:.0} s a run is sized for",
            EXPECTED_WALL_S.start(),
            EXPECTED_WALL_S.end()
        );
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        failed == 0,
        rendered.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
