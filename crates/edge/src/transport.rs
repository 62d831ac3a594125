//! Fault-injected upload transport on a virtual clock.
//!
//! Edge devices push captured data to the platform over real city
//! networks — links that drop, corrupt, stall, and partition. This
//! module models that path deterministically: [`EdgeTransport`] delivers
//! [`UploadPacket`]s to a caller-supplied server function, injecting
//! faults from a [`FaultPlan`](crate::fault::FaultPlan) and advancing a
//! [`VirtualClock`] instead of sleeping (lint L4 forbids wall-clock
//! time), with seeded-jitter exponential backoff, a per-attempt timeout,
//! a bounded attempt count, and a total virtual-time budget.
//!
//! The transport retries on loss, timeout, corruption rejections, 429
//! (honoring the server's `retry_after_ms` hint), and 5xx. Because a
//! lost acknowledgement is indistinguishable from a lost request, every
//! packet carries an idempotency key; the server side dedups replays so
//! at-least-once delivery becomes exactly-once ingest.

use tvdp_kernel::rng::Rng;

use crate::breaker::CircuitBreaker;
use crate::fault::{Fault, FaultPlan};

/// Simulated milliseconds since an arbitrary epoch. All transport
/// timing derives from this clock, never from the host's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: i64,
}

impl VirtualClock {
    /// A clock starting at `start_ms`.
    pub fn new(start_ms: i64) -> Self {
        VirtualClock { now_ms: start_ms }
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    /// Advances the clock; the virtual analogue of sleeping.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms as i64);
    }
}

/// FNV-1a 64-bit checksum guarding payload integrity in flight.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Status the simulated server uses to reject a checksum mismatch; the
/// transport treats it as retryable because the sender's local copy is
/// intact and only the in-flight bytes were damaged.
pub const STATUS_BAD_CHECKSUM: u16 = 460;

/// One client upload: an idempotency key, the payload bytes, and the
/// payload checksum computed at packing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadPacket {
    /// Client-chosen key identifying this logical upload across retries.
    pub idempotency_key: String,
    /// Opaque payload (e.g. a rendered `data/add` JSON body).
    pub payload: Vec<u8>,
    /// [`checksum`] of `payload` at packing time.
    pub checksum: u64,
}

impl UploadPacket {
    /// Packs a payload, stamping its checksum.
    pub fn new(idempotency_key: impl Into<String>, payload: Vec<u8>) -> Self {
        let checksum = checksum(&payload);
        UploadPacket {
            idempotency_key: idempotency_key.into(),
            payload,
            checksum,
        }
    }

    /// Whether the payload still matches its checksum — the receiver's
    /// integrity check.
    pub fn verify(&self) -> bool {
        checksum(&self.payload) == self.checksum
    }
}

/// What the server returned for one delivered attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReply {
    /// HTTP-style status code (`< 300` = accepted).
    pub status: u16,
    /// Server backpressure hint on 429: earliest useful retry delay.
    pub retry_after_ms: Option<u64>,
    /// Response body, opaque to the transport.
    pub body: String,
}

impl ChannelReply {
    /// An accepting reply with the given body.
    pub fn ok(body: impl Into<String>) -> Self {
        ChannelReply {
            status: 200,
            retry_after_ms: None,
            body: body.into(),
        }
    }

    /// A reply with only a status code.
    pub fn status(status: u16) -> Self {
        ChannelReply {
            status,
            retry_after_ms: None,
            body: String::new(),
        }
    }
}

/// Retry/backoff parameters, all in virtual milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Hard cap on delivery attempts per send.
    pub max_attempts: u32,
    /// First backoff delay; doubles per subsequent retry.
    pub base_backoff_ms: u64,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff_ms: u64,
    /// Backoff jitter: each delay is scaled by a seeded uniform factor
    /// in `[1 - jitter_frac, 1 + jitter_frac]` to decorrelate fleets.
    pub jitter_frac: f64,
    /// How long one attempt waits for a reply before giving up on it.
    pub attempt_timeout_ms: u64,
    /// Total virtual-time budget for the whole send, backoffs included.
    pub total_budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 50,
            max_backoff_ms: 3_200,
            jitter_frac: 0.2,
            attempt_timeout_ms: 400,
            total_budget_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// Fire-and-forget: a single attempt, no backoff — the ablation
    /// baseline the benchmarks compare against.
    pub fn single_attempt() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_frac: 0.0,
            ..Default::default()
        }
    }

    /// Backoff before retry number `retry` (1-based), jittered by `rng`.
    fn backoff_ms(&self, retry: u32, rng: &mut Rng) -> u64 {
        let exp = retry.saturating_sub(1).min(16);
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms);
        if self.jitter_frac <= 0.0 || raw == 0 {
            return raw;
        }
        let lo = 1.0 - self.jitter_frac;
        let hi = 1.0 + self.jitter_frac;
        let factor: f64 = rng.gen_range(lo..hi);
        (raw as f64 * factor) as u64
    }
}

/// Why a send ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The server accepted the upload (status < 300).
    Acked,
    /// The server rejected it with a non-retryable status; retrying the
    /// same bytes cannot succeed.
    Rejected,
    /// Every allowed attempt was spent without an acknowledgement.
    ExhaustedAttempts,
    /// The total virtual-time budget ran out between attempts.
    BudgetExhausted,
    /// The circuit breaker was open; no attempt was made.
    Shed,
}

/// Full accounting of one send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendReport {
    /// How the send ended.
    pub outcome: SendOutcome,
    /// Delivery attempts made.
    pub attempts: u32,
    /// Virtual time the send started.
    pub started_ms: i64,
    /// Virtual time the send finished.
    pub finished_ms: i64,
    /// Payload bytes that left the device, retries included.
    pub bytes_sent: u64,
    /// Final server reply, when one was received
    /// ([`SendOutcome::Acked`] or [`SendOutcome::Rejected`]).
    pub reply: Option<ChannelReply>,
}

/// What the client observed for one attempt.
enum Observed {
    Reply(ChannelReply),
    /// No reply within the attempt timeout (drop, stall past the
    /// timeout, or partition).
    Lost,
}

/// The resilient upload path of one edge device.
///
/// The server side is a caller-supplied `FnMut(&UploadPacket, i64) ->
/// ChannelReply` invoked at the packet's virtual arrival time — in tests
/// it wraps a real `ApiServer`; in benchmarks, a synthetic sink. Faults
/// sit between the two: a dropped request never invokes it, a dropped
/// reply invokes it and discards the answer.
#[derive(Debug)]
pub struct EdgeTransport {
    clock: VirtualClock,
    policy: RetryPolicy,
    plan: FaultPlan,
    rng: Rng,
    /// Fault-free round-trip latency of the link, ms.
    pub nominal_rtt_ms: u64,
}

impl EdgeTransport {
    /// A transport over the given policy and fault plan; `seed` drives
    /// backoff jitter and corruption byte selection.
    pub fn new(policy: RetryPolicy, plan: FaultPlan, seed: u64) -> Self {
        EdgeTransport {
            clock: VirtualClock::new(0),
            policy,
            plan,
            rng: Rng::seed_from_u64(seed),
            nominal_rtt_ms: 40,
        }
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> i64 {
        self.clock.now_ms()
    }

    /// Advances virtual time (e.g. between simulation rounds).
    pub fn advance(&mut self, ms: u64) {
        self.clock.advance(ms);
    }

    /// Sends one packet, retrying per policy until acked, rejected, or
    /// out of attempts/budget.
    pub fn send<S>(&mut self, packet: &UploadPacket, server: &mut S) -> SendReport
    where
        S: FnMut(&UploadPacket, i64) -> ChannelReply,
    {
        let started_ms = self.clock.now_ms();
        let mut attempts = 0u32;
        let mut bytes_sent = 0u64;
        loop {
            if attempts >= self.policy.max_attempts {
                return self.report(
                    SendOutcome::ExhaustedAttempts,
                    attempts,
                    started_ms,
                    bytes_sent,
                    None,
                );
            }
            if (self.clock.now_ms() - started_ms) as u64 >= self.policy.total_budget_ms
                && attempts > 0
            {
                return self.report(
                    SendOutcome::BudgetExhausted,
                    attempts,
                    started_ms,
                    bytes_sent,
                    None,
                );
            }
            attempts += 1;
            let observed = self.attempt(packet, &mut bytes_sent, server);
            match observed {
                Observed::Reply(reply) if reply.status < 300 => {
                    return self.report(
                        SendOutcome::Acked,
                        attempts,
                        started_ms,
                        bytes_sent,
                        Some(reply),
                    );
                }
                Observed::Reply(reply) if !retryable(reply.status) => {
                    return self.report(
                        SendOutcome::Rejected,
                        attempts,
                        started_ms,
                        bytes_sent,
                        Some(reply),
                    );
                }
                Observed::Reply(reply) => {
                    // Retryable status: back off, honoring the server's
                    // own backpressure hint when it is larger.
                    let backoff = self.policy.backoff_ms(attempts, &mut self.rng);
                    let wait = backoff.max(reply.retry_after_ms.unwrap_or(0));
                    self.clock.advance(wait);
                }
                Observed::Lost => {
                    let backoff = self.policy.backoff_ms(attempts, &mut self.rng);
                    self.clock.advance(backoff);
                }
            }
        }
    }

    /// [`EdgeTransport::send`] gated by a per-device circuit breaker:
    /// sheds immediately while the breaker is open, and feeds the
    /// outcome back into it.
    pub fn send_guarded<S>(
        &mut self,
        breaker: &mut CircuitBreaker,
        packet: &UploadPacket,
        server: &mut S,
    ) -> SendReport
    where
        S: FnMut(&UploadPacket, i64) -> ChannelReply,
    {
        if !breaker.allow(self.clock.now_ms()) {
            let now = self.clock.now_ms();
            return SendReport {
                outcome: SendOutcome::Shed,
                attempts: 0,
                started_ms: now,
                finished_ms: now,
                bytes_sent: 0,
                reply: None,
            };
        }
        let report = self.send(packet, server);
        match report.outcome {
            SendOutcome::Acked => breaker.record_success(self.clock.now_ms()),
            // A rejection is the *server* refusing well-delivered bytes;
            // the link worked, so it does not count against the breaker.
            SendOutcome::Rejected => breaker.record_success(self.clock.now_ms()),
            SendOutcome::ExhaustedAttempts | SendOutcome::BudgetExhausted => {
                breaker.record_failure(self.clock.now_ms());
            }
            SendOutcome::Shed => {}
        }
        report
    }

    /// One delivery attempt: applies the planned fault, invokes the
    /// server unless the bytes never arrive, and advances the clock by
    /// what the client experienced.
    fn attempt<S>(
        &mut self,
        packet: &UploadPacket,
        bytes_sent: &mut u64,
        server: &mut S,
    ) -> Observed
    where
        S: FnMut(&UploadPacket, i64) -> ChannelReply,
    {
        let now = self.clock.now_ms();
        if self.plan.partitioned_at(now) {
            // Link down: fails fast (no route), nothing leaves the
            // device beyond the connection attempt.
            self.clock
                .advance(self.nominal_rtt_ms.min(self.policy.attempt_timeout_ms));
            return Observed::Lost;
        }
        let fault = self.plan.next_fault();
        *bytes_sent += packet.payload.len() as u64;
        let one_way = self.nominal_rtt_ms / 2;
        match fault {
            Fault::DropRequest => {
                // Bytes vanish en route; the client times out.
                self.clock.advance(self.policy.attempt_timeout_ms);
                Observed::Lost
            }
            Fault::DropReply => {
                // Server processes the upload; the ack is lost.
                let _ = server(packet, now + one_way as i64);
                self.clock.advance(self.policy.attempt_timeout_ms);
                Observed::Lost
            }
            Fault::Corrupt => {
                let corrupted = self.corrupt(packet);
                let reply = server(&corrupted, now + one_way as i64);
                self.clock.advance(self.nominal_rtt_ms);
                Observed::Reply(reply)
            }
            Fault::Stall(extra_ms) => {
                let rtt = self.nominal_rtt_ms.saturating_add(extra_ms);
                let reply = server(packet, now + one_way as i64);
                if rtt > self.policy.attempt_timeout_ms {
                    // The reply exists but arrives after the client gave
                    // up — operationally identical to a dropped ack.
                    self.clock.advance(self.policy.attempt_timeout_ms);
                    Observed::Lost
                } else {
                    self.clock.advance(rtt);
                    Observed::Reply(reply)
                }
            }
            Fault::None => {
                let reply = server(packet, now + one_way as i64);
                self.clock.advance(self.nominal_rtt_ms);
                Observed::Reply(reply)
            }
        }
    }

    /// A copy of `packet` with one payload byte flipped (or, for empty
    /// payloads, a damaged checksum), chosen by the transport's seeded
    /// RNG so corruption is replayable.
    fn corrupt(&mut self, packet: &UploadPacket) -> UploadPacket {
        let mut damaged = packet.clone();
        if damaged.payload.is_empty() {
            damaged.checksum ^= 1;
        } else {
            let idx = self.rng.gen_range(0..damaged.payload.len());
            damaged.payload[idx] ^= 0x40;
        }
        damaged
    }

    fn report(
        &self,
        outcome: SendOutcome,
        attempts: u32,
        started_ms: i64,
        bytes_sent: u64,
        reply: Option<ChannelReply>,
    ) -> SendReport {
        SendReport {
            outcome,
            attempts,
            started_ms,
            finished_ms: self.clock.now_ms(),
            bytes_sent,
            reply,
        }
    }
}

/// Whether a status code is worth retrying: backpressure (429), a
/// transport-integrity rejection ([`STATUS_BAD_CHECKSUM`]), or a server
/// fault (5xx). Other 4xx statuses are permanent for the same bytes.
fn retryable(status: u16) -> bool {
    status == 429 || status == STATUS_BAD_CHECKSUM || status >= 500
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SendReport {
        /// Virtual milliseconds the send occupied.
        fn elapsed_ms(&self) -> u64 {
            (self.finished_ms - self.started_ms).max(0) as u64
        }
    }
    use crate::fault::{FaultRates, Partition};

    /// A server accepting everything, verifying checksums, and counting
    /// how many times each idempotency key was processed.
    struct CountingServer {
        seen: std::collections::BTreeMap<String, u32>,
    }

    impl CountingServer {
        fn new() -> Self {
            CountingServer {
                seen: std::collections::BTreeMap::new(),
            }
        }

        fn handle(&mut self, packet: &UploadPacket) -> ChannelReply {
            if !packet.verify() {
                return ChannelReply::status(STATUS_BAD_CHECKSUM);
            }
            *self.seen.entry(packet.idempotency_key.clone()).or_insert(0) += 1;
            ChannelReply::ok("{}")
        }
    }

    fn packet(key: &str) -> UploadPacket {
        UploadPacket::new(key, format!("payload-{key}").into_bytes())
    }

    #[test]
    fn clean_link_acks_first_attempt() {
        let mut t = EdgeTransport::new(RetryPolicy::default(), FaultPlan::reliable(), 1);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::Acked);
        assert_eq!(r.attempts, 1);
        assert_eq!(srv.seen["a"], 1);
    }

    #[test]
    fn dropped_request_is_retried_and_acked_once() {
        let plan = FaultPlan::scripted(vec![Fault::DropRequest, Fault::DropRequest]);
        let mut t = EdgeTransport::new(RetryPolicy::default(), plan, 2);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::Acked);
        assert_eq!(r.attempts, 3);
        assert_eq!(srv.seen["a"], 1);
    }

    #[test]
    fn dropped_reply_reaches_server_twice_under_retry() {
        // The at-least-once hazard: the server processed attempt 1 but
        // the client could not know. Idempotency dedup happens a layer
        // up; at the transport layer the duplicate is expected.
        let plan = FaultPlan::scripted(vec![Fault::DropReply]);
        let mut t = EdgeTransport::new(RetryPolicy::default(), plan, 3);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::Acked);
        assert_eq!(r.attempts, 2);
        assert_eq!(srv.seen["a"], 2);
    }

    #[test]
    fn corruption_is_detected_and_the_retry_is_intact() {
        let plan = FaultPlan::scripted(vec![Fault::Corrupt]);
        let mut t = EdgeTransport::new(RetryPolicy::default(), plan, 4);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::Acked);
        assert_eq!(r.attempts, 2);
        // The corrupted copy was rejected before counting.
        assert_eq!(srv.seen["a"], 1);
    }

    #[test]
    fn stall_past_timeout_counts_as_loss() {
        let policy = RetryPolicy {
            attempt_timeout_ms: 400,
            ..Default::default()
        };
        let plan = FaultPlan::scripted(vec![Fault::Stall(1_000)]);
        let mut t = EdgeTransport::new(policy, plan, 5);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::Acked);
        assert_eq!(r.attempts, 2);
        assert_eq!(srv.seen["a"], 2, "the stalled attempt was processed");
    }

    #[test]
    fn attempts_are_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let plan = FaultPlan::scripted(vec![Fault::DropRequest; 10]);
        let mut t = EdgeTransport::new(policy, plan, 6);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::ExhaustedAttempts);
        assert_eq!(r.attempts, 3);
        assert!(!srv.seen.contains_key("a"));
    }

    #[test]
    fn partition_fails_fast_until_it_heals() {
        let plan = FaultPlan::reliable().with_partitions(vec![Partition {
            from_ms: 0,
            until_ms: 500,
        }]);
        let mut t = EdgeTransport::new(RetryPolicy::default(), plan, 7);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(
            r.outcome,
            SendOutcome::Acked,
            "send should survive the outage: {r:?}"
        );
        assert!(r.attempts > 1);
        assert!(
            r.finished_ms >= 500,
            "acked only after the partition healed"
        );
        assert_eq!(srv.seen["a"], 1);
    }

    #[test]
    fn retry_after_hint_is_honored() {
        let mut t = EdgeTransport::new(RetryPolicy::default(), FaultPlan::reliable(), 8);
        let mut rejected_once = false;
        let r = t.send(&packet("a"), &mut |_, _| {
            if rejected_once {
                ChannelReply::ok("{}")
            } else {
                rejected_once = true;
                ChannelReply {
                    status: 429,
                    retry_after_ms: Some(5_000),
                    body: String::new(),
                }
            }
        });
        assert_eq!(r.outcome, SendOutcome::Acked);
        // The wait was driven by the 5 s hint, not the ~50 ms backoff.
        assert!(r.elapsed_ms() >= 5_000, "elapsed {} ms", r.elapsed_ms());
    }

    #[test]
    fn non_retryable_rejection_stops_immediately() {
        let mut t = EdgeTransport::new(RetryPolicy::default(), FaultPlan::reliable(), 9);
        let r = t.send(&packet("a"), &mut |_, _| ChannelReply::status(401));
        assert_eq!(r.outcome, SendOutcome::Rejected);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn total_budget_bounds_virtual_time() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            total_budget_ms: 3_000,
            ..Default::default()
        };
        let plan = FaultPlan::seeded(
            FaultRates {
                drop_request: 1.0,
                drop_reply: 0.0,
                corrupt: 0.0,
                stall: 0.0,
                stall_ms: 0,
            },
            0,
        );
        let mut t = EdgeTransport::new(policy, plan, 10);
        let mut srv = CountingServer::new();
        let r = t.send(&packet("a"), &mut |p, _| srv.handle(p));
        assert_eq!(r.outcome, SendOutcome::BudgetExhausted);
        assert!(r.elapsed_ms() >= 3_000);
        assert!(
            r.elapsed_ms() < 10_000,
            "gave up promptly: {}",
            r.elapsed_ms()
        );
    }

    #[test]
    fn sends_are_deterministic_for_a_seed() {
        let run = || {
            let plan = FaultPlan::seeded(FaultRates::lossy(), 77);
            let mut t = EdgeTransport::new(RetryPolicy::default(), plan, 78);
            let mut srv = CountingServer::new();
            let reports: Vec<SendReport> = (0..20)
                .map(|i| t.send(&packet(&format!("k{i}")), &mut |p, _| srv.handle(p)))
                .collect();
            (reports, srv.seen)
        };
        assert_eq!(run(), run());
    }
}
