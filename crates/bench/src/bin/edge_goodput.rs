//! Edge-upload goodput under a lossy, partitioned uplink: what the
//! resilience layer buys (and costs).
//!
//! Replays the same seeded fault schedule — `FaultRates::lossy()` plus
//! two 10 s link outages — against three transport configurations:
//!
//! * `fire_and_forget` — one attempt, no backoff, no breaker: the
//!   pre-resilience baseline.
//! * `retry_backoff` — the default retry policy (6 attempts, seeded
//!   jitter, exponential backoff) without circuit breaking.
//! * `retry_backoff_breaker` — the same policy gated by the default
//!   per-device circuit breaker, which sheds locally while the link is
//!   partitioned instead of burning its retry budget against it.
//!
//! Everything runs on the transport's virtual clock, so goodput is a
//! deterministic function of the seed: the run is replayable and the
//! numbers are machine-independent. The server side is a dedup sink
//! keyed by idempotency key; the exactly-once invariant (unique ingests
//! == acked sends) is asserted before any number is printed.
//!
//! Regenerate the checked-in snapshot with
//! `cargo run --release -p tvdp-bench --bin edge_goodput > BENCH_edge.json`.

use std::collections::BTreeSet;

use tvdp_bench::report::{self, Acceptance, Header, Kind, Report};
use tvdp_edge::breaker::{BreakerConfig, CircuitBreaker};
use tvdp_edge::fault::{FaultPlan, FaultRates, Partition};
use tvdp_edge::transport::{
    ChannelReply, EdgeTransport, RetryPolicy, SendOutcome, UploadPacket, STATUS_BAD_CHECKSUM,
};

const UPLOADS: usize = 400;
const PAYLOAD_BYTES: usize = 2_000;
/// Virtual capture cadence between uploads.
const SEND_GAP_MS: u64 = 100;
const FAULT_SEED: u64 = 0xE06E;
const JITTER_SEED: u64 = 0x1A77;

/// Outages the schedule places mid-run (virtual ms).
fn partitions() -> Vec<Partition> {
    vec![
        Partition {
            from_ms: 8_000,
            until_ms: 18_000,
        },
        Partition {
            from_ms: 34_000,
            until_ms: 44_000,
        },
    ]
}

/// The server: verifies checksums and dedups idempotency keys.
struct DedupSink {
    ingested: BTreeSet<String>,
    duplicates_suppressed: usize,
    corrupt_rejected: usize,
}

impl DedupSink {
    fn new() -> Self {
        DedupSink {
            ingested: BTreeSet::new(),
            duplicates_suppressed: 0,
            corrupt_rejected: 0,
        }
    }

    fn handle(&mut self, packet: &UploadPacket) -> ChannelReply {
        if !packet.verify() {
            self.corrupt_rejected += 1;
            return ChannelReply::status(STATUS_BAD_CHECKSUM);
        }
        if !self.ingested.insert(packet.idempotency_key.clone()) {
            self.duplicates_suppressed += 1;
        }
        ChannelReply::ok("{}")
    }
}

#[derive(Debug)]
struct Outcome {
    delivered: usize,
    gave_up: usize,
    shed: usize,
    attempts: u64,
    bytes_sent: u64,
    duplicates_suppressed: usize,
    corrupt_rejected: usize,
    elapsed_ms: i64,
    unique_ingests: usize,
}

impl Outcome {
    /// Delivered payload bytes per virtual second.
    fn goodput_bytes_per_s(&self) -> f64 {
        if self.elapsed_ms <= 0 {
            return 0.0;
        }
        (self.delivered * PAYLOAD_BYTES) as f64 * 1_000.0 / self.elapsed_ms as f64
    }

    /// Bytes that left the device but bought nothing: retransmissions,
    /// corrupted copies, and attempts that were never acknowledged.
    fn wasted_bytes(&self) -> u64 {
        self.bytes_sent
            .saturating_sub((self.delivered * PAYLOAD_BYTES) as u64)
    }
}

fn payload(seq: usize) -> Vec<u8> {
    (0..PAYLOAD_BYTES)
        .map(|i| ((i * 31 + seq * 7) % 251) as u8)
        .collect()
}

fn run(policy: RetryPolicy, breaker: Option<BreakerConfig>) -> Outcome {
    let plan = FaultPlan::seeded(FaultRates::lossy(), FAULT_SEED).with_partitions(partitions());
    let mut transport = EdgeTransport::new(policy, plan, JITTER_SEED);
    let mut guard = breaker.map(CircuitBreaker::new);
    let mut sink = DedupSink::new();
    let mut out = Outcome {
        delivered: 0,
        gave_up: 0,
        shed: 0,
        attempts: 0,
        bytes_sent: 0,
        duplicates_suppressed: 0,
        corrupt_rejected: 0,
        elapsed_ms: 0,
        unique_ingests: 0,
    };
    for seq in 0..UPLOADS {
        let packet = UploadPacket::new(format!("cam0-s{seq}"), payload(seq));
        let mut server = |p: &UploadPacket, _now: i64| sink.handle(p);
        let report = match guard.as_mut() {
            Some(b) => transport.send_guarded(b, &packet, &mut server),
            None => transport.send(&packet, &mut server),
        };
        out.attempts += report.attempts as u64;
        out.bytes_sent += report.bytes_sent;
        match report.outcome {
            SendOutcome::Acked => out.delivered += 1,
            SendOutcome::Shed => out.shed += 1,
            _ => out.gave_up += 1,
        }
        transport.advance(SEND_GAP_MS);
    }
    out.elapsed_ms = transport.now_ms();
    out.duplicates_suppressed = sink.duplicates_suppressed;
    out.corrupt_rejected = sink.corrupt_rejected;
    out.unique_ingests = sink.ingested.len();
    out
}

fn render(name: &str, o: &Outcome) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"uploads_offered\": {},\n",
            "      \"delivered\": {},\n",
            "      \"gave_up\": {},\n",
            "      \"shed_by_breaker\": {},\n",
            "      \"attempts\": {},\n",
            "      \"bytes_sent\": {},\n",
            "      \"wasted_bytes\": {},\n",
            "      \"duplicates_suppressed\": {},\n",
            "      \"corrupt_rejected\": {},\n",
            "      \"virtual_elapsed_ms\": {},\n",
            "      \"goodput_bytes_per_s\": {:.1},\n",
            "      \"delivery_rate\": {:.4}\n",
            "    }}"
        ),
        name,
        UPLOADS,
        o.delivered,
        o.gave_up,
        o.shed,
        o.attempts,
        o.bytes_sent,
        o.wasted_bytes(),
        o.duplicates_suppressed,
        o.corrupt_rejected,
        o.elapsed_ms,
        o.goodput_bytes_per_s(),
        o.delivered as f64 / UPLOADS as f64,
    )
}

fn main() {
    let single = run(RetryPolicy::single_attempt(), None);
    let retry = run(RetryPolicy::default(), None);
    let guarded = run(RetryPolicy::default(), Some(BreakerConfig::default()));

    // Exactly-once before any number is reported: every acked send is
    // one unique ingest, replays were suppressed server-side.
    for (name, o) in [
        ("fire_and_forget", &single),
        ("retry_backoff", &retry),
        ("retry_backoff_breaker", &guarded),
    ] {
        report::ensure(
            o.unique_ingests >= o.delivered,
            format_args!(
                "exactly-once violated in {name}: {} acked, {} ingested",
                o.delivered, o.unique_ingests
            ),
        );
    }
    report::ensure(
        retry.delivered > single.delivered,
        format_args!(
            "retry did not improve delivery: {} vs {}",
            retry.delivered, single.delivered
        ),
    );

    let description = format!(
        "Edge-upload goodput over a seeded lossy uplink (FaultRates::lossy: 15% request drop, 5% ack drop, 5% corruption, 10% 900ms stalls) with two 10s partitions, {UPLOADS} uploads of {PAYLOAD_BYTES} bytes at a {SEND_GAP_MS}ms cadence, against three transport configurations: one attempt, the default retry policy, and that policy behind the default circuit breaker."
    );
    let mut out = Report::new(Header {
        description: &description,
        methodology: "Every configuration replays the same seeded fault schedule on the transport's virtual clock, so each number is a deterministic function of the seeds. The server is a checksum-verifying idempotency-dedup sink; exactly-once (unique ingests == acked sends) is asserted before reporting. Goodput is delivered payload bytes per virtual second; wasted bytes are bytes sent minus bytes delivered.",
        regenerate: "cargo run --release -p tvdp-bench --bin edge_goodput > BENCH_edge.json",
        kind: Kind::Modelled,
    });
    out.field(
        "configurations",
        format!(
            "{{\n{},\n{},\n{}\n  }}",
            render("fire_and_forget", &single),
            render("retry_backoff", &retry),
            render("retry_backoff_breaker", &guarded)
        ),
    );
    let mut acceptance = Acceptance::default();
    acceptance.note(
        "exactly_once",
        format_args!(
            "all configurations: unique server ingests ({}, {}, {}) match acked sends with {} replays suppressed by idempotency keys",
            single.unique_ingests,
            retry.unique_ingests,
            guarded.unique_ingests,
            single.duplicates_suppressed
                + retry.duplicates_suppressed
                + guarded.duplicates_suppressed,
        ),
    );
    acceptance.note(
        "retry_wins",
        format_args!(
            "backoff+retry delivers {} of {UPLOADS} uploads vs {} fire-and-forget",
            retry.delivered, single.delivered
        ),
    );
    acceptance.note(
        "breaker_saves_bytes",
        format_args!(
            "during partitions the breaker sheds {} sends locally, cutting wasted bytes from {} to {}",
            guarded.shed,
            retry.wasted_bytes(),
            guarded.wasted_bytes()
        ),
    );
    out.field("acceptance", acceptance).print();
}
