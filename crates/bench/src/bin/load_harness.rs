//! Deterministic million-user load harness for the overload-resilience
//! stack: admission control, deadline accounting, breaker-guarded edge
//! dispatch.
//!
//! Everything here runs on a virtual clock — arrivals, queueing,
//! service, breaker cooldowns, fault windows. No wall-clock number ever
//! reaches stdout, which is what makes `BENCH_load.json` byte-identical
//! across hosts and pool widths (`TVDP_THREADS=1` and `TVDP_THREADS=8`
//! must produce the same bytes; CI diffs them).
//!
//! Three arrival phases drive two servers over the identical request
//! script:
//!
//! * **admission** — the production [`AdmissionController`] from
//!   `tvdp-core`: priced requests, per-class queueing-delay bounds,
//!   priority shedding (dispatch first, ingest last).
//! * **baseline** — the same virtual-time server with the admission
//!   check deleted: every request queues, nothing sheds.
//!
//! Under nominal load the two behave identically. Under a 4x-capacity
//! overload the admission server keeps admitted latency pinned near the
//! class bounds by shedding with honest `retry_after_ms` hints, while
//! the baseline backlog — and with it every subsequent request's
//! latency — grows without bound and never recovers.
//!
//! Two further legs reuse the production resilience machinery rather
//! than re-modeling it: an edge-dispatch fleet pushes packets through
//! `EdgeTransport` + `CircuitBreaker` across a scripted 20 s partition
//! (FaultPlan), and a verification subsample executes deadline-carrying
//! hybrid queries against a real `ShardedEngine` at two pool widths,
//! asserting byte-identical results before anything is printed.
//!
//! Scale: `TVDP_LOAD_VUS` (default 1,000,000) — one request per virtual
//! user. Pool width for the engine subsample: `TVDP_THREADS` (default 8).

use std::sync::Arc;

use tvdp_kernel::rng::Rng;

use tvdp_core::{AdmissionConfig, AdmissionController, PlatformError, RequestClass};
use tvdp_edge::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use tvdp_edge::fault::{FaultPlan, FaultRates, Partition};
use tvdp_edge::transport::{EdgeTransport, RetryPolicy, SendOutcome, UploadPacket};
use tvdp_geo::{BBox, GeoPoint};
use tvdp_kernel::Pool;
use tvdp_query::{
    EngineConfig, Query, ShardedEngine, SpatialQuery, TemporalField, TextualMode, VisualMode,
};
use tvdp_storage::{ImageMeta, ImageOrigin, UserId, VisualStore};
use tvdp_vision::FeatureKind;

/// Default virtual users; one request each. Override: `TVDP_LOAD_VUS`.
const DEFAULT_VUS: usize = 1_000_000;

/// Modeled serving capacity. With ceil-ms service times this caps the
/// sustainable rate at under 1,000 requests per virtual second.
const CAPACITY_UNITS_PER_SEC: u64 = 50_000;

/// Per-class queueing-delay bounds (virtual ms), shed-first order.
const DISPATCH_BOUND_MS: i64 = 15;
const QUERY_BOUND_MS: i64 = 40;
const INGEST_BOUND_MS: i64 = 60;

/// Workload split per mille of the request stream.
const INGEST_UNITS: u64 = 8;
const DISPATCH_UNITS: u64 = 1;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact percentile over virtual-ms samples: sorted, integer index —
/// no floating point anywhere near the published numbers.
fn percentile_ms(samples: &[i64], pct: usize) -> i64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) * pct / 100]
}

fn ok<T, E: std::fmt::Debug>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("load_harness: {what}: {e:?}");
            std::process::exit(1);
        }
    }
}

fn invariant(cond: bool, what: &str) {
    if !cond {
        eprintln!("load_harness: invariant violated: {what}");
        std::process::exit(1);
    }
}

// --- request script --------------------------------------------------

#[derive(Clone, Copy)]
struct Request {
    arrival_ms: i64,
    class: RequestClass,
    cost_units: u64,
    /// Deadline budget (virtual ms) for query-class requests; 0 = none.
    deadline_budget_ms: i64,
    phase: usize,
}

struct PhaseSpec {
    name: &'static str,
    requests: usize,
    /// A burst of `burst` arrivals lands every `every_ms`.
    burst: usize,
    every_ms: i64,
    /// Every `spike_every`-th burst is `spike_mult`x the size — the
    /// heavy-tail spikes that give the nominal phase a realistic p99.
    spike_every: usize,
    spike_mult: usize,
}

fn phase_specs(vus: usize) -> [PhaseSpec; 3] {
    let nominal = vus * 45 / 100;
    let overload = vus * 35 / 100;
    let recovery = vus - nominal - overload;
    [
        PhaseSpec {
            name: "nominal",
            requests: nominal,
            burst: 8,
            every_ms: 13,
            spike_every: 16,
            spike_mult: 5,
        },
        // 4x capacity: 32 arrivals every 9 ms ~ 3,500 req/s against a
        // sub-1,000 req/s server.
        PhaseSpec {
            name: "overload",
            requests: overload,
            burst: 32,
            every_ms: 9,
            spike_every: usize::MAX,
            spike_mult: 1,
        },
        PhaseSpec {
            name: "recovery",
            requests: recovery,
            burst: 8,
            every_ms: 13,
            spike_every: 16,
            spike_mult: 5,
        },
    ]
}

/// The full deterministic request script, arrival-ordered. Class, cost
/// and deadline budget are pure functions of the request index.
fn build_script(vus: usize) -> Vec<Request> {
    let specs = phase_specs(vus);
    let mut script = Vec::with_capacity(vus);
    let mut t = 0i64;
    let mut index = 0u64;
    for (phase, spec) in specs.iter().enumerate() {
        let mut emitted = 0usize;
        let mut burst_no = 0usize;
        while emitted < spec.requests {
            let size =
                if spec.spike_every != usize::MAX && burst_no.is_multiple_of(spec.spike_every) {
                    spec.burst * spec.spike_mult
                } else {
                    spec.burst
                };
            let size = size.min(spec.requests - emitted);
            for _ in 0..size {
                let h = splitmix64(0x10ad ^ index);
                let (class, cost_units, deadline_budget_ms) = match h % 10 {
                    0..=5 => (RequestClass::Ingest, INGEST_UNITS, 0),
                    // Budgets start above the nominal latency tail:
                    // a well-provisioned phase misses no deadlines, and
                    // under overload the admission bound (40 ms + service
                    // for queries) keeps admitted work inside the
                    // tightest budget — late work sheds instead.
                    6..=8 => (
                        RequestClass::Query,
                        4 + (h >> 8) % 61,
                        60 + ((h >> 16) % 4) as i64 * 40,
                    ),
                    _ => (RequestClass::Dispatch, DISPATCH_UNITS, 0),
                };
                script.push(Request {
                    arrival_ms: t,
                    class,
                    cost_units,
                    deadline_budget_ms,
                    phase,
                });
                index += 1;
            }
            emitted += size;
            burst_no += 1;
            t += spec.every_ms;
        }
    }
    script
}

// --- the two servers -------------------------------------------------

fn service_ms(cost_units: u64) -> i64 {
    (cost_units.max(1) * 1_000)
        .div_ceil(CAPACITY_UNITS_PER_SEC)
        .max(1) as i64
}

#[derive(Default, Clone)]
struct PhaseOut {
    requests: u64,
    admitted: u64,
    shed_by_class: [u64; 3],
    deadline_missed: u64,
    latencies_ms: Vec<i64>,
    max_retry_after_ms: i64,
}

impl PhaseOut {
    fn shed(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }
}

fn class_idx(class: RequestClass) -> usize {
    match class {
        RequestClass::Dispatch => 0,
        RequestClass::Query => 1,
        RequestClass::Ingest => 2,
    }
}

/// Replays the script through the production admission controller.
fn run_admission(script: &[Request]) -> (Vec<PhaseOut>, AdmissionController) {
    let ctl = AdmissionController::new(AdmissionConfig {
        capacity_units_per_sec: CAPACITY_UNITS_PER_SEC,
        dispatch_max_delay_ms: DISPATCH_BOUND_MS,
        query_max_delay_ms: QUERY_BOUND_MS,
        ingest_max_delay_ms: INGEST_BOUND_MS,
    });
    let mut phases = vec![PhaseOut::default(); 3];
    for r in script {
        let out = &mut phases[r.phase];
        out.requests += 1;
        match ctl.admit(r.class, r.cost_units, r.arrival_ms) {
            Ok(ticket) => {
                let latency = ticket.queued_delay_ms + service_ms(r.cost_units);
                invariant(
                    ticket.queued_delay_ms
                        <= match r.class {
                            RequestClass::Dispatch => DISPATCH_BOUND_MS,
                            RequestClass::Query => QUERY_BOUND_MS,
                            RequestClass::Ingest => INGEST_BOUND_MS,
                        },
                    "admitted delay exceeded the class bound",
                );
                out.admitted += 1;
                out.latencies_ms.push(latency);
                if r.deadline_budget_ms > 0 && latency > r.deadline_budget_ms {
                    out.deadline_missed += 1;
                }
            }
            Err(PlatformError::Overloaded { retry_after_ms }) => {
                out.shed_by_class[class_idx(r.class)] += 1;
                out.max_retry_after_ms = out.max_retry_after_ms.max(retry_after_ms);
            }
            Err(other) => {
                eprintln!("load_harness: unexpected admission error: {other}");
                std::process::exit(1);
            }
        }
    }
    (phases, ctl)
}

/// The ablation: the same virtual-time server with the admission check
/// deleted. Every request queues behind the full backlog.
fn run_baseline(script: &[Request]) -> Vec<PhaseOut> {
    let mut phases = vec![PhaseOut::default(); 3];
    let mut backlog_done_at_ms = 0i64;
    for r in script {
        let out = &mut phases[r.phase];
        out.requests += 1;
        let start = backlog_done_at_ms.max(r.arrival_ms);
        let svc = service_ms(r.cost_units);
        backlog_done_at_ms = start + svc;
        let latency = start - r.arrival_ms + svc;
        out.admitted += 1;
        out.latencies_ms.push(latency);
        if r.deadline_budget_ms > 0 && latency > r.deadline_budget_ms {
            out.deadline_missed += 1;
        }
    }
    phases
}

// --- edge-dispatch leg: FaultPlan + breaker, all virtual time --------

struct EdgeOut {
    devices: usize,
    sends: u64,
    acked: u64,
    shed_by_breaker: u64,
    failed: u64,
    all_closed_after_heal: bool,
    partition: Partition,
}

/// A small device fleet dispatching through breaker-guarded transports
/// across a scripted link partition. Exercises the paced half-open
/// probing under the exact fault machinery the chaos tests use.
fn run_edge_leg() -> EdgeOut {
    const DEVICES: usize = 8;
    const ROUNDS: usize = 240;
    let partition = Partition {
        from_ms: 20_000,
        until_ms: 40_000,
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 100,
        max_backoff_ms: 800,
        jitter_frac: 0.2,
        attempt_timeout_ms: 400,
        total_budget_ms: 4_000,
    };
    let breaker_config = BreakerConfig {
        failure_threshold: 3,
        cooldown_ms: 5_000,
        probe_successes: 2,
        probe_interval_ms: 500,
    };
    let mut out = EdgeOut {
        devices: DEVICES,
        sends: 0,
        acked: 0,
        shed_by_breaker: 0,
        failed: 0,
        all_closed_after_heal: true,
        partition,
    };
    for device in 0..DEVICES {
        let plan = FaultPlan::seeded(
            FaultRates {
                drop_request: 0.02,
                drop_reply: 0.01,
                corrupt: 0.0,
                stall: 0.02,
                stall_ms: 300,
            },
            0xed6e + device as u64,
        )
        .with_partitions(vec![partition]);
        let mut transport = EdgeTransport::new(policy, plan, 0xbeef + device as u64);
        let mut breaker = CircuitBreaker::new(breaker_config);
        let mut server = |packet: &UploadPacket, _now: i64| {
            if packet.verify() {
                tvdp_edge::transport::ChannelReply::ok("accepted")
            } else {
                tvdp_edge::transport::ChannelReply::status(400)
            }
        };
        for round in 0..ROUNDS {
            let payload = format!("dispatch d{device} r{round}").into_bytes();
            let packet = UploadPacket::new(format!("d{device}-r{round}"), payload);
            let report = transport.send_guarded(&mut breaker, &packet, &mut server);
            out.sends += 1;
            match report.outcome {
                SendOutcome::Acked => out.acked += 1,
                SendOutcome::Shed => out.shed_by_breaker += 1,
                SendOutcome::ExhaustedAttempts | SendOutcome::BudgetExhausted => out.failed += 1,
                SendOutcome::Rejected => {
                    eprintln!("load_harness: edge leg rejected a well-formed packet");
                    std::process::exit(1);
                }
            }
            transport.advance(250);
        }
        if breaker.state() != BreakerState::Closed {
            out.all_closed_after_heal = false;
        }
    }
    invariant(
        out.acked + out.shed_by_breaker + out.failed == out.sends,
        "edge leg outcome counts must partition the sends",
    );
    invariant(out.acked > 0, "edge leg acked nothing");
    invariant(
        out.shed_by_breaker > 0,
        "partition never tripped a breaker into shedding",
    );
    out
}

// --- engine subsample: real queries, two pool widths -----------------

const DIM: usize = 8;

fn build_store(n: usize, seed: u64) -> Arc<VisualStore> {
    let store = VisualStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    const WORDS: [&str; 4] = ["street", "tent", "trash", "corner"];
    for i in 0..n {
        let gps = GeoPoint::new(
            34.0 + rng.gen_range(0.0..0.05),
            -118.3 + rng.gen_range(0.0..0.05),
        );
        let captured = 1_000 + rng.gen_range(0..10_000);
        let meta = ImageMeta {
            uploader: UserId(0),
            gps,
            fov: None,
            captured_at: captured,
            uploaded_at: captured + 10,
            keywords: vec![WORDS[i % WORDS.len()].to_string()],
        };
        let id = ok(
            store.add_image(meta, ImageOrigin::Original, None),
            "subsample add_image",
        );
        let feature: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        ok(
            store.put_feature(id, FeatureKind::Cnn, feature),
            "subsample put_feature",
        );
    }
    Arc::new(store)
}

fn subsample_queries() -> Vec<Query> {
    let example: Vec<f32> = (0..DIM).map(|d| d as f32 * 0.1).collect();
    vec![
        Query::Visual {
            example: example.clone(),
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(10),
        },
        Query::Textual {
            text: "street trash".into(),
            mode: TextualMode::Ranked(15),
        },
        Query::Temporal {
            field: TemporalField::Captured,
            from: 2_000,
            to: 9_000,
        },
        Query::And(vec![
            Query::Spatial(SpatialQuery::Range(BBox::new(34.0, -118.3, 34.05, -118.25))),
            Query::Visual {
                example,
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(5),
            },
        ]),
    ]
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

struct SubsampleOut {
    executions: usize,
    deadline_trips: usize,
    digest: u64,
}

/// Executes deadline-carrying hybrid queries against a real
/// `ShardedEngine` over one 600-row store (every id unique) at
/// `Pool::serial()` and at the `TVDP_THREADS`-wide pool,
/// asserting byte-identical outcomes (results *and* deadline trips)
/// before the digest is published. Any width divergence aborts the run
/// without printing JSON.
fn run_subsample(pool_width: usize) -> SubsampleOut {
    let store = build_store(600, 42);
    let engine = ShardedEngine::with_seal_cap(vec![store], EngineConfig::default(), 32);
    let serial = Pool::serial();
    let wide = Pool::new(pool_width);
    let mut executions = 0usize;
    let mut deadline_trips = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for budget in 0..40i64 {
        for q in subsample_queries() {
            let a = engine.try_execute_with_deadline(&q, &serial, 1_000, 1_000 + budget);
            let b = engine.try_execute_with_deadline(&q, &wide, 1_000, 1_000 + budget);
            invariant(
                a == b,
                "engine subsample diverged between pool widths (result or deadline trip)",
            );
            executions += 2;
            if a.is_err() {
                deadline_trips += 1;
            }
            digest = fnv1a(format!("{a:?}").as_bytes(), digest);
        }
    }
    invariant(deadline_trips > 0, "deadline sweep never tripped");
    invariant(
        deadline_trips < executions / 2,
        "deadline sweep tripped everything",
    );
    SubsampleOut {
        executions,
        deadline_trips,
        digest,
    }
}

// --- output ----------------------------------------------------------

fn phase_json(name: &str, adm: &PhaseOut, base: &PhaseOut) -> String {
    format!(
        "    \"{name}\": {{\n      \"requests\": {}, \"admitted\": {}, \"shed\": {},\n      \"shed_by_class\": {{ \"dispatch\": {}, \"query\": {}, \"ingest\": {} }},\n      \"deadline_missed\": {}, \"max_retry_after_ms\": {},\n      \"latency_ms\": {{ \"p50\": {}, \"p99\": {} }},\n      \"baseline\": {{ \"latency_ms\": {{ \"p50\": {}, \"p99\": {} }}, \"deadline_missed\": {} }}\n    }}",
        adm.requests,
        adm.admitted,
        adm.shed(),
        adm.shed_by_class[0],
        adm.shed_by_class[1],
        adm.shed_by_class[2],
        adm.deadline_missed,
        adm.max_retry_after_ms,
        percentile_ms(&adm.latencies_ms, 50),
        percentile_ms(&adm.latencies_ms, 99),
        percentile_ms(&base.latencies_ms, 50),
        percentile_ms(&base.latencies_ms, 99),
        base.deadline_missed,
    )
}

fn main() {
    let vus = std::env::var("TVDP_LOAD_VUS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_VUS);
    let pool_width = std::env::var("TVDP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or(8);

    eprintln!(
        "load_harness: {vus} virtual users, capacity {CAPACITY_UNITS_PER_SEC} units/s, bounds d/q/i = {DISPATCH_BOUND_MS}/{QUERY_BOUND_MS}/{INGEST_BOUND_MS} ms"
    );
    let script = build_script(vus);
    invariant(script.len() == vus, "script length mismatch");
    let horizon_ms = script.last().map(|r| r.arrival_ms).unwrap_or(0);
    eprintln!("  script spans {horizon_ms} virtual ms across 3 phases");

    let (adm_phases, ctl) = run_admission(&script);
    let stats = ctl.stats();
    let admitted: u64 = adm_phases.iter().map(|p| p.admitted).sum();
    let shed: u64 = adm_phases.iter().map(|p| p.shed()).sum();
    invariant(
        admitted + shed == vus as u64,
        "admitted + shed must cover every request",
    );
    invariant(
        stats.total.admitted == admitted && stats.total.shed == shed,
        "controller stats disagree with the replay counts",
    );
    for (spec, p) in phase_specs(vus).iter().zip(&adm_phases) {
        eprintln!(
            "  admission {:<8} admitted {:>7} shed {:>7} p50 {:>4} ms p99 {:>4} ms deadline-missed {}",
            spec.name,
            p.admitted,
            p.shed(),
            percentile_ms(&p.latencies_ms, 50),
            percentile_ms(&p.latencies_ms, 99),
            p.deadline_missed,
        );
    }

    let base_phases = run_baseline(&script);
    invariant(
        base_phases.iter().map(|p| p.admitted).sum::<u64>() == vus as u64,
        "baseline must admit everything",
    );
    for (spec, p) in phase_specs(vus).iter().zip(&base_phases) {
        eprintln!(
            "  baseline  {:<8} p50 {:>8} ms p99 {:>8} ms deadline-missed {}",
            spec.name,
            percentile_ms(&p.latencies_ms, 50),
            percentile_ms(&p.latencies_ms, 99),
            p.deadline_missed,
        );
    }

    let edge = run_edge_leg();
    eprintln!(
        "  edge leg: {} sends, {} acked, {} shed by breakers, {} failed, all closed after heal: {}",
        edge.sends, edge.acked, edge.shed_by_breaker, edge.failed, edge.all_closed_after_heal
    );
    invariant(
        edge.all_closed_after_heal,
        "a breaker never closed after the partition healed",
    );

    let subsample = run_subsample(pool_width);
    eprintln!(
        "  engine subsample: {} executions, {} deadline trips, digest {:#018x}",
        subsample.executions, subsample.deadline_trips, subsample.digest
    );

    let nominal_p99 = percentile_ms(&adm_phases[0].latencies_ms, 99);
    let overload_p99 = percentile_ms(&adm_phases[1].latencies_ms, 99);
    let recovery_p99 = percentile_ms(&adm_phases[2].latencies_ms, 99);
    let baseline_overload_p99 = percentile_ms(&base_phases[1].latencies_ms, 99);
    let overload_shed = adm_phases[1].shed();

    println!("{{");
    println!(
        "  \"description\": \"Deterministic load harness: {vus} virtual users replayed through the production AdmissionController (capacity {CAPACITY_UNITS_PER_SEC} units/s, class delay bounds dispatch/query/ingest = {DISPATCH_BOUND_MS}/{QUERY_BOUND_MS}/{INGEST_BOUND_MS} ms) and through an identical virtual-time server with admission deleted. Three phases: nominal (~0.85x capacity, heavy-tailed bursts), overload (~4x capacity), recovery (back to nominal). Side legs reuse the production resilience stack: an 8-device dispatch fleet through EdgeTransport + CircuitBreaker across a scripted 20 s partition, and a deadline-sweep subsample against a real ShardedEngine at two pool widths.\","
    );
    println!(
        "  \"methodology\": \"Pure virtual time end to end: arrivals, service (ceil-ms of cost/capacity, the controller's own formula), breaker cooldowns and fault windows all advance a modeled clock; no wall-clock value is ever printed, so this file is byte-identical across hosts and across TVDP_THREADS settings (CI regenerates it at widths 1 and 8 and diffs the bytes). Latency of an admitted request = modeled queueing delay (AdmissionTicket.queued_delay_ms) + modeled service; percentiles are exact integer-index percentiles over the full per-phase sample, no histogram buckets, no floats. Deadline-missed counts admitted query-class requests whose latency exceeded their per-request budget (60-180 ms). The engine subsample executes every query at Pool::serial() and Pool::new(TVDP_THREADS) and aborts before printing if any result or deadline trip diverges.\","
    );
    println!(
        "  \"regenerate\": \"cargo run --release -p tvdp-bench --bin load_harness > BENCH_load.json\","
    );
    println!("  \"virtual_users\": {vus},");
    println!("  \"capacity_units_per_sec\": {CAPACITY_UNITS_PER_SEC},");
    println!(
        "  \"class_delay_bounds_ms\": {{ \"dispatch\": {DISPATCH_BOUND_MS}, \"query\": {QUERY_BOUND_MS}, \"ingest\": {INGEST_BOUND_MS} }},"
    );
    println!("  \"virtual_horizon_ms\": {horizon_ms},");
    println!("  \"phases\": {{");
    let names = ["nominal", "overload", "recovery"];
    let rendered: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, name)| phase_json(name, &adm_phases[i], &base_phases[i]))
        .collect();
    println!("{}", rendered.join(",\n"));
    println!("  }},");
    println!(
        "  \"edge_dispatch\": {{ \"devices\": {}, \"sends\": {}, \"acked\": {}, \"shed_by_breaker\": {}, \"failed\": {}, \"partition_ms\": [{}, {}], \"all_breakers_closed_after_heal\": {} }},",
        edge.devices,
        edge.sends,
        edge.acked,
        edge.shed_by_breaker,
        edge.failed,
        edge.partition.from_ms,
        edge.partition.until_ms,
        edge.all_closed_after_heal
    );
    println!(
        "  \"engine_subsample\": {{ \"executions\": {}, \"deadline_trips\": {}, \"digest\": \"{:#018x}\" }},",
        subsample.executions, subsample.deadline_trips, subsample.digest
    );
    println!("  \"acceptance\": {{");
    println!(
        "    \"workload_at_least_100k_vus\": \"{}: {vus} virtual users, one request each, over {horizon_ms} virtual ms\",",
        if vus >= 100_000 { "met" } else { "NOT met" }
    );
    let nominal_shed_pct = adm_phases[0].shed() * 100 / adm_phases[0].requests.max(1);
    println!(
        "    \"nominal_shed_rate_bounded\": \"{}: the well-provisioned phase shed {} of {} requests ({nominal_shed_pct}%, spike tails only) — admission is not a tax on healthy traffic\",",
        if nominal_shed_pct <= 5 { "met" } else { "NOT met" },
        adm_phases[0].shed(),
        adm_phases[0].requests
    );
    println!(
        "    \"zero_deadline_miss_at_nominal\": \"{}: {} deadline misses among {} admitted nominal requests; under overload the 40 ms query admission bound keeps every admitted query inside the tightest 60 ms budget — late work is shed with a retry hint, not served late ({} overload misses)\",",
        if adm_phases[0].deadline_missed == 0 {
            "met"
        } else {
            "NOT met"
        },
        adm_phases[0].deadline_missed,
        adm_phases[0].admitted,
        adm_phases[1].deadline_missed
    );
    println!(
        "    \"overload_p99_within_2x_nominal\": \"{}: admitted p99 {overload_p99} ms under 4x-capacity overload vs {nominal_p99} ms nominal — shedding {overload_shed} requests held the bound\",",
        if overload_p99 <= 2 * nominal_p99.max(1) {
            "met"
        } else {
            "NOT met"
        }
    );
    println!(
        "    \"baseline_degrades_unboundedly\": \"{}: the no-admission baseline's overload p99 is {baseline_overload_p99} ms ({}x the admission server's {overload_p99} ms) and its backlog never drains\",",
        if baseline_overload_p99 >= 50 * overload_p99.max(1) {
            "met"
        } else {
            "NOT met"
        },
        baseline_overload_p99 / overload_p99.max(1)
    );
    println!(
        "    \"recovery_returns_to_nominal\": \"{}: recovery-phase admitted p99 {recovery_p99} ms vs {nominal_p99} ms nominal — the admission backlog is bounded by the class delay bounds, so overload leaves no residue\",",
        if recovery_p99 <= 2 * nominal_p99.max(1) {
            "met"
        } else {
            "NOT met"
        }
    );
    println!(
        "    \"pool_width_byte_identical\": \"{}: every published number derives from the virtual clock; the engine subsample ran each deadline query serially and at the TVDP_THREADS-wide pool and asserted identical results and trips (digest {:#018x}) before printing\",",
        if subsample.executions > 0 { "met" } else { "NOT met" },
        subsample.digest
    );
    println!(
        "    \"edge_fleet_heals\": \"{}: breakers shed {} dispatches during the scripted partition, paced half-open probes re-closed all {} breakers after it healed, zero panics\"",
        if edge.all_closed_after_heal && edge.shed_by_breaker > 0 {
            "met"
        } else {
            "NOT met"
        },
        edge.shed_by_breaker,
        edge.devices
    );
    println!("  }}");
    println!("}}");
}
