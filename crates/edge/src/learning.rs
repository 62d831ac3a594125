//! The crowd-based learning loop (paper Fig. 4, ref \[34\]), over the
//! city uplink.
//!
//! Edge devices hold pools of freshly captured, unlabeled samples. Each
//! round, the current server model is (conceptually) dispatched to the
//! edges; every edge scores its pool locally, prioritizes the most
//! informative samples (smallest prediction margin), extracts feature
//! vectors locally, and uploads only what fits the per-round bandwidth
//! budget. Uploaded samples get labels (user feedback / manual
//! labelling), join the server training set, and the model is retrained.
//!
//! Uploading features instead of raw images is the framework's bandwidth
//! lever: the report tracks both the bytes actually sent and the bytes a
//! raw-image upload would have cost.
//!
//! Every upload travels the fault-injected [`EdgeTransport`]: each
//! selected sample becomes an [`UploadPacket`] with an idempotency key,
//! sends are gated by per-device circuit breakers, and the server side
//! dedups replayed keys, so a retried upload whose first ack was lost is
//! still ingested exactly once. Samples whose sends fail outright stay in
//! the edge pool and compete again next round: degraded throughput, no
//! data loss. Over [`UplinkConfig::reliable`] every selected sample is
//! acked on its first attempt.
//!
//! Everything is seeded and runs on virtual time, so a chaos schedule
//! replays bit-for-bit and results are independent of the worker-pool
//! thread count.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use tvdp_kernel::rng::Rng;

use tvdp_ml::{Classifier, ConfusionMatrix, Dataset};

use crate::breaker::{BreakerConfig, DeviceHealth, FleetHealth};
use crate::fault::{FaultPlan, FaultRates, Partition};
use crate::transport::{
    ChannelReply, EdgeTransport, RetryPolicy, SendOutcome, UploadPacket, STATUS_BAD_CHECKSUM,
};

/// How an edge picks which samples to upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Smallest top-1 / top-2 margin first (uncertainty sampling) — the
    /// paper's prioritized distributed selection.
    Margin,
    /// Uniform random (the ablation baseline).
    Random,
}

/// Loop configuration.
#[derive(Debug, Clone)]
pub struct CrowdLearningConfig {
    /// Number of dispatch/collect/retrain rounds.
    pub rounds: usize,
    /// Upload budget per edge per round, bytes.
    pub per_edge_budget_bytes: u64,
    /// Bytes of one uploaded feature vector (dim × 4 for f32).
    pub feature_bytes: u64,
    /// Bytes a raw image upload would have cost instead.
    pub raw_image_bytes: u64,
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// RNG seed (random strategy, tie-breaking).
    pub seed: u64,
}

/// Transport-level configuration of the uplink the loop uploads over.
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
    /// A fault-free uplink: every selected sample is acked on its first
    /// attempt.
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
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-edge's chaos suite runs the crowd-learning loop over a lossy uplink through it")
    pub fn lossy(seed: u64) -> Self {
        UplinkConfig {
            rates: FaultRates::lossy(),
            ..UplinkConfig::reliable(seed)
        }
    }
}

/// One edge device's sample pool: feature vectors with *hidden* ground-
/// truth labels (revealed only when a sample is uploaded and labelled).
#[derive(Debug, Clone)]
pub struct EdgeNode {
    /// Node identifier.
    pub id: u64,
    /// Remaining unlabeled pool.
    pub pool: Vec<(Vec<f32>, usize)>,
}

/// Per-round statistics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0 = before any edge data).
    pub round: usize,
    /// Macro F1 of the server model on the held-out test set.
    pub test_f1: f64,
    /// Samples acknowledged by the server this round across all edges.
    pub uploaded: usize,
    /// Feature bytes of the acknowledged samples this round.
    pub bytes_uploaded: u64,
    /// Bytes raw-image uploads would have cost this round.
    pub raw_bytes_equivalent: u64,
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

/// Full loop report.
#[derive(Debug, Clone)]
pub struct CrowdLearningReport {
    /// Per-round stats; entry 0 is the initial model before edge data.
    pub rounds: Vec<RoundStats>,
    /// Bandwidth saved by shipping features instead of raw images, in
    /// `[0, 1]` (1 = everything saved).
    pub bandwidth_saving: f64,
    /// Per-round transport telemetry, rounds `1..`.
    pub uplink: Vec<UplinkRoundStats>,
    /// Final per-device breaker health.
    pub health: Vec<DeviceHealth>,
}

/// Orders a pool's indices by the edge's local selection policy:
/// smallest prediction margin first for [`SelectionStrategy::Margin`],
/// a seeded shuffle for [`SelectionStrategy::Random`].
fn selection_order<C: Classifier>(
    model: &C,
    pool: &[(Vec<f32>, usize)],
    strategy: SelectionStrategy,
    rng: &mut Rng,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    match strategy {
        SelectionStrategy::Random => rng.shuffle(&mut order),
        SelectionStrategy::Margin => {
            let mut scored: Vec<(f32, usize)> = pool
                .iter()
                .enumerate()
                .map(|(i, (x, _))| {
                    let mut scores = model.decision_scores(x);
                    scores.sort_by(|a, b| b.total_cmp(a));
                    let margin = if scores.len() >= 2 {
                        scores[0] - scores[1]
                    } else {
                        f32::INFINITY
                    };
                    (margin, i)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            order = scored.into_iter().map(|(_, i)| i).collect();
        }
    }
    order
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

/// Runs the crowd-based learning loop with every upload pushed through
/// the fault-injected uplink.
///
/// `make_model` builds a fresh classifier per retraining; `train` seeds
/// the server's labelled set; `test` is the held-out evaluation set.
/// Selected samples that fail to upload stay in their edge's pool; only
/// samples the server received join its training set, each exactly once
/// even when an ack is lost and the send retried. Each edge's samples
/// join in descending pool index, the order `swap_remove` takes them
/// out of the pool.
pub fn run_crowd_learning<C, F>(
    train: &Dataset,
    test: &Dataset,
    edges: &mut [EdgeNode],
    config: &CrowdLearningConfig,
    uplink: &UplinkConfig,
    make_model: F,
) -> CrowdLearningReport
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
    // Server-side idempotency table: every key ever ingested.
    let mut seen: BTreeSet<String> = BTreeSet::new();

    let evaluate = |model: &C, round: usize, uploaded: usize| {
        let cm = ConfusionMatrix::from_predictions(
            &test.labels,
            &model.predict(&test.features),
            test.n_classes,
        );
        RoundStats {
            round,
            test_f1: cm.macro_f1(),
            uploaded,
            bytes_uploaded: uploaded as u64 * config.feature_bytes,
            raw_bytes_equivalent: uploaded as u64 * config.raw_image_bytes,
        }
    };

    // Round 0: the initial model.
    let mut model = make_model();
    model.fit(
        &accumulated.features,
        &accumulated.labels,
        accumulated.n_classes,
    );
    rounds.push(evaluate(&model, 0, 0));

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
        for (e, edge) in edges.iter_mut().enumerate() {
            if edge.pool.is_empty() || per_round_samples == 0 {
                continue;
            }
            // Order the pool by the edge's local selection policy.
            let order = selection_order(&model, &edge.pool, config.strategy, &mut rng);
            let take = per_round_samples.min(order.len());
            // What the server ingested from this edge, by pool index.
            let mut ingested: Vec<(usize, (Vec<f32>, usize))> = Vec::new();
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
                                ingested.push((idx, sample));
                                ChannelReply::ok("")
                            }
                            None => ChannelReply::status(400),
                        }
                    },
                );
                stats.attempts += u64::from(report.attempts);
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
            // Training order is descending pool index, the order
            // swap_remove takes samples out of a pool.
            ingested.sort_unstable_by_key(|(idx, _)| Reverse(*idx));
            for (_, (x, label)) in ingested {
                accumulated.features.push(x);
                accumulated.labels.push(label);
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
        // Retrain on the grown set and evaluate.
        let mut retrained = make_model();
        retrained.fit(
            &accumulated.features,
            &accumulated.labels,
            accumulated.n_classes,
        );
        model = retrained;
        rounds.push(evaluate(&model, round, stats.acked));
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
    CrowdLearningReport {
        rounds,
        bandwidth_saving,
        uplink: uplink_rounds,
        health: fleet.view(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_ml::{LinearSvm, RandomForest};

    /// Two-blob problem; the initial training set is tiny and the edges
    /// hold the bulk of the data.
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
        let test = mk_dataset(200);
        let edges = (0..4)
            .map(|id| EdgeNode {
                id,
                pool: (0..100).map(|i| sample(i % 2)).collect(),
            })
            .collect();
        (train, test, edges)
    }

    fn config(strategy: SelectionStrategy) -> CrowdLearningConfig {
        CrowdLearningConfig {
            rounds: 4,
            per_edge_budget_bytes: 160, // 20 two-dim f32 vectors
            feature_bytes: 8,
            raw_image_bytes: 6912, // 48x48x3
            strategy,
            seed: 5,
        }
    }

    fn run(seed: u64, strategy: SelectionStrategy, uplink: &UplinkConfig) -> CrowdLearningReport {
        let (train, test, mut edges) = setup(seed);
        run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(strategy),
            uplink,
            LinearSvm::new,
        )
    }

    /// FNV-1a over every pool in order: id, length, then each sample's
    /// feature bits and label.
    fn pools_fingerprint(edges: &[EdgeNode]) -> u64 {
        let mut h = tvdp_kernel::FNV64_OFFSET;
        let mut eat = |bytes: &[u8]| h = tvdp_kernel::fnv64(h, bytes);
        for e in edges {
            eat(&e.id.to_le_bytes());
            eat(&(e.pool.len() as u64).to_le_bytes());
            for (x, y) in &e.pool {
                for v in x {
                    eat(&v.to_bits().to_le_bytes());
                }
                eat(&(*y as u64).to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn a_reliable_uplink_reproduces_the_pinned_loop() {
        // Recorded from the loop that appended each edge's selection to
        // the training set in descending pool index and assumed every
        // upload arrived: `setup(6)`, `config(..)`, 4 rounds of 80
        // uploads of 8 bytes each. A different training order moves
        // the F1 bits of both models.
        struct Pin {
            strategy: SelectionStrategy,
            forest: bool,
            f1_bits: [u64; 5],
            saving_bits: u64,
            pools: u64,
        }
        let pinned = [
            Pin {
                strategy: SelectionStrategy::Margin,
                forest: false,
                f1_bits: [
                    0x3fee3c12aaec66c9,
                    0x3feee119c6af2643,
                    0x3fef3327669f19f5,
                    0x3fef3327669f19f5,
                    0x3fef5c24c3e9299a,
                ],
                saving_bits: 0x3feff684bda12f68,
                pools: 0x8cfc575739c9c938,
            },
            Pin {
                strategy: SelectionStrategy::Margin,
                forest: true,
                f1_bits: [
                    0x3fec6fd7c83be982,
                    0x3fecf018a6d65fdc,
                    0x3feee119c6af2643,
                    0x3fef0a24439c6d68,
                    0x3fef3327669f19f5,
                ],
                saving_bits: 0x3feff684bda12f68,
                pools: 0x633479497880ed7e,
            },
            Pin {
                strategy: SelectionStrategy::Random,
                forest: false,
                f1_bits: [
                    0x3fee3c12aaec66c9,
                    0x3fef3327669f19f5,
                    0x3fef5c24c3e9299a,
                    0x3fef5c24c3e9299a,
                    0x3fef3327669f19f5,
                ],
                saving_bits: 0x3feff684bda12f68,
                pools: 0xaecc3932a647c27c,
            },
            Pin {
                strategy: SelectionStrategy::Random,
                forest: true,
                f1_bits: [
                    0x3fec6fd7c83be982,
                    0x3feee119c6af2643,
                    0x3fef0a24439c6d68,
                    0x3fef5c24c3e9299a,
                    0x3feeb8065ac1c2f8,
                ],
                saving_bits: 0x3feff684bda12f68,
                pools: 0xaecc3932a647c27c,
            },
        ];
        for Pin {
            strategy,
            forest,
            f1_bits,
            saving_bits,
            pools,
        } in pinned
        {
            let (train, test, mut edges) = setup(6);
            let uplink = UplinkConfig::reliable(9);
            let cfg = config(strategy);
            let report = if forest {
                run_crowd_learning(&train, &test, &mut edges, &cfg, &uplink, || {
                    RandomForest::new(5, 3)
                })
            } else {
                run_crowd_learning(&train, &test, &mut edges, &cfg, &uplink, LinearSvm::new)
            };
            let case = format!("{strategy:?}, forest {forest}");
            let f1: Vec<u64> = report.rounds.iter().map(|r| r.test_f1.to_bits()).collect();
            assert_eq!(f1, f1_bits, "{case}: F1 bits");
            let uploaded: Vec<usize> = report.rounds.iter().map(|r| r.uploaded).collect();
            assert_eq!(uploaded, [0, 80, 80, 80, 80], "{case}: uploads");
            let bytes: Vec<u64> = report.rounds.iter().map(|r| r.bytes_uploaded).collect();
            assert_eq!(bytes, [0, 640, 640, 640, 640], "{case}: bytes");
            assert_eq!(report.bandwidth_saving.to_bits(), saving_bits, "{case}");
            let lens: Vec<usize> = edges.iter().map(|e| e.pool.len()).collect();
            assert_eq!(lens, [20, 20, 20, 20], "{case}: pool sizes");
            assert_eq!(pools_fingerprint(&edges), pools, "{case}: final pools");
        }
    }

    #[test]
    fn retraining_improves_f1() {
        let report = run(1, SelectionStrategy::Margin, &UplinkConfig::reliable(9));
        assert_eq!(report.rounds.len(), 5);
        let (initial, last) = (report.rounds[0].test_f1, report.rounds[4].test_f1);
        assert!(last > initial, "no improvement: {initial} -> {last}");
    }

    #[test]
    fn budget_caps_uploads() {
        let report = run(2, SelectionStrategy::Random, &UplinkConfig::reliable(9));
        for r in &report.rounds[1..] {
            // 4 edges x 20 samples max per round.
            assert!(r.uploaded <= 80, "round uploaded {}", r.uploaded);
            assert_eq!(r.bytes_uploaded, r.uploaded as u64 * 8);
        }
    }

    #[test]
    fn bandwidth_saving_reflects_feature_upload() {
        let report = run(3, SelectionStrategy::Margin, &UplinkConfig::reliable(9));
        // 8 bytes instead of 6912 per sample: saving well above 99%.
        assert!(
            report.bandwidth_saving > 0.99,
            "saving {}",
            report.bandwidth_saving
        );
    }

    #[test]
    fn pools_shrink_and_never_duplicate() {
        let (train, test, mut edges) = setup(4);
        let before: usize = edges.iter().map(|e| e.pool.len()).sum();
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            &UplinkConfig::reliable(9),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.rounds.iter().map(|r| r.uploaded).sum();
        assert_eq!(before - after, uploaded);
    }

    #[test]
    fn deterministic_under_seed() {
        let uplink = UplinkConfig::reliable(9);
        let a = run(5, SelectionStrategy::Margin, &uplink);
        let b = run(5, SelectionStrategy::Margin, &uplink);
        let af: Vec<f64> = a.rounds.iter().map(|r| r.test_f1).collect();
        let bf: Vec<f64> = b.rounds.iter().map(|r| r.test_f1).collect();
        assert_eq!(af, bf);
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
    fn a_reliable_uplink_acks_every_selected_sample_first_try() {
        let (train, test, mut edges) = setup(1);
        let before: usize = edges.iter().map(|e| e.pool.len()).sum();
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            &UplinkConfig::reliable(9),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.rounds.iter().map(|r| r.uploaded).sum();
        // Fault-free: every selected sample uploads, 4 edges x 20 per round.
        assert_eq!(uploaded, 320);
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
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &config(SelectionStrategy::Margin),
            &UplinkConfig::lossy(11),
            LinearSvm::new,
        );
        let after: usize = edges.iter().map(|e| e.pool.len()).sum();
        let uploaded: usize = report.rounds.iter().map(|r| r.uploaded).sum();
        // Acked == removed from pools: nothing lost, nothing double-counted.
        assert_eq!(before - after, uploaded);
        // The lossy link actually exercised the retry path.
        let attempts: u64 = report.uplink.iter().map(|u| u.attempts).sum();
        assert!(attempts > uploaded as u64, "no retries happened");
    }

    #[test]
    fn a_lossy_run_is_deterministic() {
        let a = run(3, SelectionStrategy::Margin, &UplinkConfig::lossy(13));
        let b = run(3, SelectionStrategy::Margin, &UplinkConfig::lossy(13));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
