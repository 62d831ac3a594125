//! Deterministic million-user load harness for admission control.
//!
//! Everything here runs on a virtual clock — arrivals, queueing,
//! service. No wall-clock number ever reaches stdout, which is what
//! makes `BENCH_load.json` byte-identical across hosts and runs (CI
//! runs it twice and diffs the bytes).
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
//! The breaker-guarded edge fleet across a partition is held by
//! `crates/edge/tests/chaos.rs`, and deadline trips identical across
//! pool widths by `crates/query/tests/deadline.rs`; neither is re-run
//! here.
//!
//! Scale: `TVDP_LOAD_VUS` (default 1,000,000) — one request per virtual
//! user.

use tvdp_bench::report::{self, percentile, Acceptance, Header, Kind, Report};
use tvdp_core::{
    AdmissionConfig, AdmissionController, PlatformError, RequestClass, DISPATCH_UNITS,
    INGEST_UNITS_PER_IMAGE,
};

/// Default virtual users; one request each. Override: `TVDP_LOAD_VUS`.
const DEFAULT_VUS: usize = 1_000_000;

/// Modeled serving capacity. With ceil-ms service times this caps the
/// sustainable rate at under 1,000 requests per virtual second.
const CAPACITY_UNITS_PER_SEC: u64 = 50_000;

/// Per-class queueing-delay bounds (virtual ms), shed-first order.
const DISPATCH_BOUND_MS: i64 = 15;
const QUERY_BOUND_MS: i64 = 40;
const INGEST_BOUND_MS: i64 = 60;

/// The one budget both servers model.
const CONFIG: AdmissionConfig = AdmissionConfig {
    capacity_units_per_sec: CAPACITY_UNITS_PER_SEC,
    dispatch_max_delay_ms: DISPATCH_BOUND_MS,
    query_max_delay_ms: QUERY_BOUND_MS,
    ingest_max_delay_ms: INGEST_BOUND_MS,
};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
                    0..=5 => (RequestClass::Ingest, INGEST_UNITS_PER_IMAGE, 0),
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

#[derive(Default, Clone)]
struct PhaseOut {
    requests: u64,
    admitted: u64,
    shed_by_class: [u64; 3],
    deadline_missed: u64,
    /// Sorted once the replay ends.
    latencies_ms: Vec<i64>,
    max_retry_after_ms: i64,
}

impl PhaseOut {
    fn shed(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }

    fn latency_p(&self, pct: usize) -> i64 {
        percentile(&self.latencies_ms, pct)
    }
}

fn class_idx(class: RequestClass) -> usize {
    match class {
        RequestClass::Dispatch => 0,
        RequestClass::Query => 1,
        RequestClass::Ingest => 2,
    }
}

fn sort_latencies(mut phases: Vec<PhaseOut>) -> Vec<PhaseOut> {
    for p in &mut phases {
        p.latencies_ms.sort_unstable();
    }
    phases
}

/// Replays the script through the production admission controller.
fn run_admission(script: &[Request]) -> (Vec<PhaseOut>, AdmissionController) {
    let ctl = AdmissionController::new(CONFIG);
    let mut phases = vec![PhaseOut::default(); 3];
    for r in script {
        let out = &mut phases[r.phase];
        out.requests += 1;
        let ticket = match ctl.admit(r.class, r.cost_units, r.arrival_ms) {
            Err(PlatformError::Overloaded { retry_after_ms }) => {
                out.shed_by_class[class_idx(r.class)] += 1;
                out.max_retry_after_ms = out.max_retry_after_ms.max(retry_after_ms);
                continue;
            }
            other => report::ok(other, "unexpected admission error"),
        };
        let latency = ticket.queued_delay_ms + CONFIG.service_ms(r.cost_units);
        report::ensure(
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
    (sort_latencies(phases), ctl)
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
        let svc = CONFIG.service_ms(r.cost_units);
        backlog_done_at_ms = start + svc;
        let latency = start - r.arrival_ms + svc;
        out.admitted += 1;
        out.latencies_ms.push(latency);
        if r.deadline_budget_ms > 0 && latency > r.deadline_budget_ms {
            out.deadline_missed += 1;
        }
    }
    sort_latencies(phases)
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
        adm.latency_p(50),
        adm.latency_p(99),
        base.latency_p(50),
        base.latency_p(99),
        base.deadline_missed,
    )
}

fn main() {
    let vus = std::env::var("TVDP_LOAD_VUS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_VUS);

    eprintln!(
        "load_harness: {vus} virtual users, capacity {CAPACITY_UNITS_PER_SEC} units/s, bounds d/q/i = {DISPATCH_BOUND_MS}/{QUERY_BOUND_MS}/{INGEST_BOUND_MS} ms"
    );
    let script = build_script(vus);
    report::ensure(script.len() == vus, "script length mismatch");
    let horizon_ms = script.last().map(|r| r.arrival_ms).unwrap_or(0);
    eprintln!("  script spans {horizon_ms} virtual ms across 3 phases");

    let (adm_phases, ctl) = run_admission(&script);
    let stats = ctl.stats();
    let admitted: u64 = adm_phases.iter().map(|p| p.admitted).sum();
    let shed: u64 = adm_phases.iter().map(|p| p.shed()).sum();
    report::ensure(
        admitted + shed == vus as u64,
        "admitted + shed must cover every request",
    );
    report::ensure(
        stats.total.admitted == admitted && stats.total.shed == shed,
        "controller stats disagree with the replay counts",
    );
    for (spec, p) in phase_specs(vus).iter().zip(&adm_phases) {
        eprintln!(
            "  admission {:<8} admitted {:>7} shed {:>7} p50 {:>4} ms p99 {:>4} ms deadline-missed {}",
            spec.name,
            p.admitted,
            p.shed(),
            p.latency_p(50),
            p.latency_p(99),
            p.deadline_missed,
        );
    }

    let base_phases = run_baseline(&script);
    report::ensure(
        base_phases.iter().map(|p| p.admitted).sum::<u64>() == vus as u64,
        "baseline must admit everything",
    );
    for (spec, p) in phase_specs(vus).iter().zip(&base_phases) {
        eprintln!(
            "  baseline  {:<8} p50 {:>8} ms p99 {:>8} ms deadline-missed {}",
            spec.name,
            p.latency_p(50),
            p.latency_p(99),
            p.deadline_missed,
        );
    }

    let nominal_p99 = adm_phases[0].latency_p(99);
    let overload_p99 = adm_phases[1].latency_p(99);
    let recovery_p99 = adm_phases[2].latency_p(99);
    let baseline_overload_p99 = base_phases[1].latency_p(99);
    let overload_shed = adm_phases[1].shed();

    let description = format!(
        "Deterministic load harness: {vus} virtual users replayed through the production AdmissionController (capacity {CAPACITY_UNITS_PER_SEC} units/s, class delay bounds dispatch/query/ingest = {DISPATCH_BOUND_MS}/{QUERY_BOUND_MS}/{INGEST_BOUND_MS} ms) and through an identical virtual-time server with admission deleted. Three phases: nominal (~0.85x capacity, heavy-tailed bursts), overload (~4x capacity), recovery (back to nominal)."
    );
    let mut out = Report::new(Header {
        description: &description,
        methodology: "Pure virtual time end to end: arrivals and service (ceil-ms of cost/capacity, the controller's own formula) advance a modeled clock; no wall-clock value is ever printed, so this file is byte-identical across hosts and runs (CI runs it twice and diffs the bytes). Latency of an admitted request = modeled queueing delay (AdmissionTicket.queued_delay_ms) + modeled service; percentiles are exact integer-index percentiles over the full per-phase sample, no histogram buckets, no floats. Deadline-missed counts admitted query-class requests whose latency exceeded their per-request budget (60-180 ms).",
        regenerate: "cargo run --release -p tvdp-bench --bin load_harness > BENCH_load.json",
        kind: Kind::Modelled,
    });
    let names = ["nominal", "overload", "recovery"];
    let rendered: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, name)| phase_json(name, &adm_phases[i], &base_phases[i]))
        .collect();
    out.field("virtual_users", vus)
        .field("capacity_units_per_sec", CAPACITY_UNITS_PER_SEC)
        .field(
            "class_delay_bounds_ms",
            format!("{{ \"dispatch\": {DISPATCH_BOUND_MS}, \"query\": {QUERY_BOUND_MS}, \"ingest\": {INGEST_BOUND_MS} }}"),
        )
        .field("virtual_horizon_ms", horizon_ms)
        .field("phases", format!("{{\n{}\n  }}", rendered.join(",\n")));

    let mut acceptance = Acceptance::default();
    acceptance.gate(
        "workload_at_least_100k_vus",
        vus >= 100_000,
        format_args!("{vus} virtual users, one request each, over {horizon_ms} virtual ms"),
    );
    let nominal_shed_pct = adm_phases[0].shed() * 100 / adm_phases[0].requests.max(1);
    acceptance.gate(
        "nominal_shed_rate_bounded",
        nominal_shed_pct <= 5,
        format_args!(
            "the well-provisioned phase shed {} of {} requests ({nominal_shed_pct}%, spike tails only) — admission is not a tax on healthy traffic",
            adm_phases[0].shed(),
            adm_phases[0].requests
        ),
    );
    acceptance.gate(
        "zero_deadline_miss_at_nominal",
        adm_phases[0].deadline_missed == 0,
        format_args!(
            "{} deadline misses among {} admitted nominal requests; under overload the 40 ms query admission bound keeps every admitted query inside the tightest 60 ms budget — late work is shed with a retry hint, not served late ({} overload misses)",
            adm_phases[0].deadline_missed,
            adm_phases[0].admitted,
            adm_phases[1].deadline_missed
        ),
    );
    acceptance.gate(
        "overload_p99_within_2x_nominal",
        overload_p99 <= 2 * nominal_p99.max(1),
        format_args!(
            "admitted p99 {overload_p99} ms under 4x-capacity overload vs {nominal_p99} ms nominal — shedding {overload_shed} requests held the bound"
        ),
    );
    acceptance.gate(
        "baseline_degrades_unboundedly",
        baseline_overload_p99 >= 50 * overload_p99.max(1),
        format_args!(
            "the no-admission baseline's overload p99 is {baseline_overload_p99} ms ({}x the admission server's {overload_p99} ms) and its backlog never drains",
            baseline_overload_p99 / overload_p99.max(1)
        ),
    );
    acceptance.gate(
        "recovery_returns_to_nominal",
        recovery_p99 <= 2 * nominal_p99.max(1),
        format_args!(
            "recovery-phase admitted p99 {recovery_p99} ms vs {nominal_p99} ms nominal — the admission backlog is bounded by the class delay bounds, so overload leaves no residue"
        ),
    );
    out.field("acceptance", acceptance).print();
}
