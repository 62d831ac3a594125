//! The crowd-learning loop over a lossy uplink.
//!
//! [`crate::learning::run_crowd_learning`] assumes every selected sample
//! reaches the server. [`run_crowd_learning_resilient`] replays the same
//! loop through the fault-injected [`EdgeTransport`]: each selected
//! sample becomes an [`UploadPacket`] with an idempotency key, sends are
//! gated by per-device circuit breakers, and the server side dedups
//! replayed keys so a retried upload whose first ack was lost is still
//! ingested exactly once. Samples whose sends fail outright stay in the
//! edge pool and compete again next round — degraded throughput, no data
//! loss.
//!
//! Everything is seeded and runs on virtual time, so a chaos schedule
//! replays bit-for-bit and results are independent of the worker-pool
//! thread count.

use std::collections::BTreeSet;

use tvdp_kernel::rng::Rng;

use tvdp_ml::{Classifier, ConfusionMatrix, Dataset};

use crate::breaker::{BreakerConfig, DeviceHealth, FleetHealth};
use crate::fault::{FaultPlan, FaultRates, Partition};
use crate::learning::{
    selection_order, CrowdLearningConfig, CrowdLearningReport, EdgeNode, RoundStats,
};
use crate::transport::{
    ChannelReply, EdgeTransport, RetryPolicy, SendOutcome, UploadPacket, STATUS_BAD_CHECKSUM,
};

/// Transport-level configuration of a resilient learning run.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// Retry/backoff policy every edge transport uses.
    pub policy: RetryPolicy,
    /// Circuit-breaker tuning shared by the fleet.
    pub breaker: BreakerConfig,
    /// Per-attempt fault rates (each edge gets its own seeded stream).
    pub rates: FaultRates,
    /// Link-outage windows shared by every edge.
    pub partitions: Vec<Partition>,
    /// Virtual milliseconds between learning rounds (lets breaker
    /// cooldowns elapse).
    pub round_gap_ms: u64,
    /// Master seed; per-edge transport and fault seeds derive from it.
    pub seed: u64,
}

impl UplinkConfig {
    /// A fault-free uplink (the resilient loop then matches the plain
    /// loop's upload counts exactly).
    pub fn reliable(seed: u64) -> Self {
        UplinkConfig {
            policy: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            rates: FaultRates {
                drop_request: 0.0,
                drop_reply: 0.0,
                corrupt: 0.0,
                stall: 0.0,
                stall_ms: 0,
            },
            partitions: Vec::new(),
            round_gap_ms: 10_000,
            seed,
        }
    }

    /// A lossy urban link with default retry/breaker tuning.
    pub fn lossy(seed: u64) -> Self {
        UplinkConfig {
            rates: FaultRates::lossy(),
            ..UplinkConfig::reliable(seed)
        }
    }
}

/// Transport telemetry for one learning round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkRoundStats {
    /// Learning round this row belongs to (1-based; round 0 has no
    /// uplink traffic).
    pub round: usize,
    /// Sends acknowledged by the server.
    pub acked: usize,
    /// Sends abandoned after exhausting attempts or budget.
    pub gave_up: usize,
    /// Sends shed locally by an open circuit breaker.
    pub shed: usize,
    /// Delivery attempts across all sends (retries included).
    pub attempts: u64,
    /// Payload bytes that left the devices, retries included.
    pub bytes_sent: u64,
    /// Server-side replays suppressed by idempotency-key dedup.
    pub duplicates_suppressed: usize,
}

/// Outcome of a resilient crowd-learning run.
#[derive(Debug, Clone)]
pub struct ResilientLearningReport {
    /// The learning trajectory (round 0 = initial model).
    pub learning: CrowdLearningReport,
    /// Per-round transport telemetry, rounds `1..`.
    pub uplink: Vec<UplinkRoundStats>,
    /// Final per-device breaker health.
    pub health: Vec<DeviceHealth>,
}

/// Wire format of one sample: `label:u32 | dim:u32 | dim * f32`, all
/// little-endian. Real bytes (rather than a captured reference) so the
/// corruption fault has something to flip and the checksum something to
/// protect.
fn encode_sample(x: &[f32], label: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + x.len() * 4);
    out.extend_from_slice(&(label as u32).to_le_bytes());
    out.extend_from_slice(&(x.len() as u32).to_le_bytes());
    for v in x {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_sample(bytes: &[u8]) -> Option<(Vec<f32>, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let label = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
    let dim = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
    if bytes.len() != 8 + dim * 4 {
        return None;
    }
    let mut x = Vec::with_capacity(dim);
    for chunk in bytes[8..].chunks_exact(4) {
        x.push(f32::from_le_bytes(chunk.try_into().ok()?));
    }
    Some((x, label))
}

const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// [`crate::learning::run_crowd_learning`] with every upload pushed
/// through a fault-injected transport.
///
/// Selected samples that fail to upload stay in their edge's pool; only
/// acknowledged samples join the server's training set, each exactly
/// once even when an ack is lost and the send retried.
// tvdp-lint: allow(dead_api, reason = "(c) paper capability: the crowd-learning loop over the lossy uplink, awaiting a route or bin")
pub fn run_crowd_learning_resilient<C, F>(
    train: &Dataset,
    test: &Dataset,
    edges: &mut [EdgeNode],
    config: &CrowdLearningConfig,
    uplink: &UplinkConfig,
    make_model: F,
) -> ResilientLearningReport
where
    C: Classifier,
    F: Fn() -> C,
{
    assert!(config.rounds >= 1, "need at least one round");
    assert!(config.feature_bytes > 0, "zero feature size");
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut accumulated = train.clone();
    let mut rounds = Vec::new();
    let mut uplink_rounds = Vec::new();
    let mut total_bytes = 0u64;
    let mut total_raw = 0u64;

    // Stable per-sample ids for idempotency keys, kept in lockstep with
    // each pool through swap_remove.
    let mut sample_ids: Vec<Vec<u64>> = edges
        .iter()
        .map(|e| (0..e.pool.len() as u64).collect())
        .collect();
    let mut transports: Vec<EdgeTransport> = edges
        .iter()
        .map(|e| {
            let fault_seed = uplink.seed ^ (e.id.wrapping_add(1)).wrapping_mul(SEED_MIX);
            let plan = FaultPlan::seeded(uplink.rates, fault_seed)
                .with_partitions(uplink.partitions.clone());
            EdgeTransport::new(uplink.policy, plan, fault_seed.rotate_left(17))
        })
        .collect();
    let mut fleet = FleetHealth::new(uplink.breaker);
    // Server-side idempotency table: every key ever acked.
    let mut seen: BTreeSet<String> = BTreeSet::new();

    // Round 0: the initial model.
    let mut model = make_model();
    model.fit(
        &accumulated.features,
        &accumulated.labels,
        accumulated.n_classes,
    );
    let eval = |model: &C, rounds_len: usize, uploaded: usize, cfg: &CrowdLearningConfig| {
        let cm = ConfusionMatrix::from_predictions(
            &test.labels,
            &model.predict(&test.features),
            test.n_classes,
        );
        RoundStats {
            round: rounds_len,
            test_f1: cm.macro_f1(),
            uploaded,
            bytes_uploaded: uploaded as u64 * cfg.feature_bytes,
            raw_bytes_equivalent: uploaded as u64 * cfg.raw_image_bytes,
        }
    };
    rounds.push(eval(&model, 0, 0, config));

    let per_round_samples = (config.per_edge_budget_bytes / config.feature_bytes) as usize;

    for round in 1..=config.rounds {
        let mut stats = UplinkRoundStats {
            round,
            acked: 0,
            gave_up: 0,
            shed: 0,
            attempts: 0,
            bytes_sent: 0,
            duplicates_suppressed: 0,
        };
        let mut staging: Vec<(Vec<f32>, usize)> = Vec::new();
        for (e, edge) in edges.iter_mut().enumerate() {
            if edge.pool.is_empty() || per_round_samples == 0 {
                continue;
            }
            let order = selection_order(&model, &edge.pool, config.strategy, &mut rng);
            let take = per_round_samples.min(order.len());
            let mut acked_idx: Vec<usize> = Vec::new();
            for &idx in &order[..take] {
                let (x, label) = &edge.pool[idx];
                let key = format!("edge{}-s{}", edge.id, sample_ids[e][idx]);
                let packet = UploadPacket::new(key, encode_sample(x, *label));
                let report = transports[e].send_guarded(
                    fleet.breaker(edge.id),
                    &packet,
                    &mut |p: &UploadPacket, _now: i64| {
                        if !p.verify() {
                            return ChannelReply::status(STATUS_BAD_CHECKSUM);
                        }
                        if seen.contains(&p.idempotency_key) {
                            // A replay of an upload whose ack was lost:
                            // acknowledge again, ingest nothing.
                            stats.duplicates_suppressed += 1;
                            return ChannelReply::ok("");
                        }
                        match decode_sample(&p.payload) {
                            Some(sample) => {
                                seen.insert(p.idempotency_key.clone());
                                staging.push(sample);
                                ChannelReply::ok("")
                            }
                            None => ChannelReply::status(400),
                        }
                    },
                );
                stats.attempts += report.attempts as u64;
                stats.bytes_sent += report.bytes_sent;
                match report.outcome {
                    SendOutcome::Acked => {
                        acked_idx.push(idx);
                        stats.acked += 1;
                    }
                    SendOutcome::Shed => stats.shed += 1,
                    _ => stats.gave_up += 1,
                }
            }
            // Only acknowledged samples leave the pool; everything else
            // stays for a later round (no loss). Descending order keeps
            // swap_remove indices valid, ids move in lockstep.
            acked_idx.sort_unstable_by(|a, b| b.cmp(a));
            for idx in acked_idx {
                edge.pool.swap_remove(idx);
                sample_ids[e].swap_remove(idx);
            }
        }
        total_bytes += stats.acked as u64 * config.feature_bytes;
        total_raw += stats.acked as u64 * config.raw_image_bytes;
        for sample in staging {
            accumulated.features.push(sample.0);
            accumulated.labels.push(sample.1);
        }
        let mut retrained = make_model();
        retrained.fit(
            &accumulated.features,
            &accumulated.labels,
            accumulated.n_classes,
        );
        model = retrained;
        rounds.push(eval(&model, round, stats.acked, config));
        uplink_rounds.push(stats);
        for t in &mut transports {
            t.advance(uplink.round_gap_ms);
        }
    }

    let bandwidth_saving = if total_raw == 0 {
        0.0
    } else {
        1.0 - total_bytes as f64 / total_raw as f64
    };
    ResilientLearningReport {
        learning: CrowdLearningReport {
            rounds,
            bandwidth_saving,
        },
        uplink: uplink_rounds,
        health: fleet.view(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::SelectionStrategy;
    use tvdp_ml::LinearSvm;

    fn setup(seed: u64) -> (Dataset, Dataset, Vec<EdgeNode>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sample = |class: usize| -> (Vec<f32>, usize) {
            let cx = class as f32 * 2.0;
            (
                vec![cx + rng.gen_range(-1.2..1.2), cx + rng.gen_range(-1.2..1.2)],
                class,
            )
        };
        let mut mk_dataset = |n: usize| {
            let mut f = Vec::new();
            let mut l = Vec::new();
            for i in 0..n {
                let (x, y) = sample(i % 2);
                f.push(x);
                l.push(y);
            }
            Dataset::new(f, l, 2)
        };
        let train = mk_dataset(8);
        let test = mk_dataset(100);
        let edges = (0..4)
            .map(|id| EdgeNode {
                id,
                pool: (0..50).map(|i| sample(i % 2)).collect(),
            })
            .collect();
        (train, test, edges)
    }

    fn config() -> CrowdLearningConfig {
        CrowdLearningConfig {
            rounds: 3,
            per_edge_budget_bytes: 80, // 10 two-dim f32 vectors
            feature_bytes: 8,
            raw_image_bytes: 6912,
            strategy: SelectionStrategy::Margin,
            seed: 5,
        }
    }

    #[test]
    fn sample_wire_format_roundtrips() {
        let x = vec![0.5f32, -1.25, 3.0];
        let bytes = encode_sample(&x, 7);
        assert_eq!(decode_sample(&bytes), Some((x, 7)));
        assert_eq!(decode_sample(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_sample(b"abc"), None);
    }

    #[test]
    fn reliable_uplink_matches_plain_loop_counts() {
        let (train, test, mut edges) = setup(1);
        let before: usize = edges.iter().map(|e| e.pool.len()).sum();
        let report = run_crowd_learning_resilient(
            &train,
            &test,
            &mut edges,
            &config(),
            &UplinkConfig::reliable(9),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.learning.rounds.iter().map(|r| r.uploaded).sum();
        // Fault-free: every selected sample uploads, 4 edges x 10 per round.
        assert_eq!(uploaded, 120);
        assert_eq!(before - after, uploaded);
        for u in &report.uplink {
            assert_eq!(u.gave_up, 0);
            assert_eq!(u.shed, 0);
            assert_eq!(u.duplicates_suppressed, 0);
            assert_eq!(u.attempts, u.acked as u64);
        }
    }

    #[test]
    fn lossy_uplink_loses_nothing_and_duplicates_nothing() {
        let (train, test, mut edges) = setup(2);
        let before: usize = edges.iter().map(|e| e.pool.len()).sum();
        let report = run_crowd_learning_resilient(
            &train,
            &test,
            &mut edges,
            &config(),
            &UplinkConfig::lossy(11),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.learning.rounds.iter().map(|r| r.uploaded).sum();
        // Acked == removed from pools: nothing lost, nothing double-counted.
        assert_eq!(before - after, uploaded);
        // The lossy link actually exercised the retry path.
        let attempts: u64 = report.uplink.iter().map(|u| u.attempts).sum();
        assert!(attempts > uploaded as u64, "no retries happened");
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let run = || {
            let (train, test, mut edges) = setup(3);
            run_crowd_learning_resilient(
                &train,
                &test,
                &mut edges,
                &config(),
                &UplinkConfig::lossy(13),
                LinearSvm::new,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
