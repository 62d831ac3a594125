//! Chaos harness: seeded fault schedules against the *real* platform.
//!
//! The unit tests in `tvdp-edge` exercise the transport against counting
//! stubs. This suite closes the loop the issue actually cares about:
//! every packet goes through `EdgeTransport` into a live `ApiServer`
//! backed by a `Tvdp` platform (in-memory or crash-safe durable), and
//! the invariants are checked end to end:
//!
//! * **Exactly-once** — for every scripted schedule placing each fault
//!   kind at each attempt position, an upload acked once is ingested
//!   exactly once.
//! * **Crash safety** — acked uploads survive a crash (drop + reopen),
//!   an upload abandoned before reaching the server is not visible after
//!   recovery, and the idempotency table itself is recovered so a
//!   post-crash retransmission still dedups.
//! * **Breaker lifecycle** — a link partition opens the breaker, open
//!   breakers shed, and half-open probes close it once the link heals,
//!   after which every shed upload lands exactly once.
//! * **Pool independence** — crowd-learning telemetry over a lossy uplink is
//!   byte-identical between 1- and 8-thread worker pools.

use std::sync::Arc;

use tvdp_api::{ApiRequest, ApiResponse, ApiServer, RateLimitConfig};
use tvdp_core::{PlatformConfig, Role, Tvdp};
use tvdp_edge::breaker::{BreakerConfig, BreakerState, CircuitBreaker, FleetHealth};
use tvdp_edge::fault::{Fault, FaultPlan, FaultRates, Partition};
use tvdp_edge::learning::{
    run_crowd_learning, CrowdLearningConfig, EdgeNode, SelectionStrategy, UplinkConfig,
};
use tvdp_edge::transport::{
    ChannelReply, EdgeTransport, RetryPolicy, SendOutcome, UploadPacket, STATUS_BAD_CHECKSUM,
};
use tvdp_ml::{Dataset, RandomForest};
use tvdp_storage::codec;
use tvdp_vision::{CnnConfig, Image};

/// A platform with a tiny CNN so feature extraction stays fast.
fn fast_config() -> PlatformConfig {
    PlatformConfig {
        cnn: CnnConfig {
            input_size: 16,
            stage_channels: vec![4, 8],
            pool_grid: 2,
            seed: 1,
        },
        min_training_samples: 6,
        ..Default::default()
    }
}

fn fast_platform() -> Arc<Tvdp> {
    Arc::new(Tvdp::new(fast_config()))
}

/// A server whose rate limiter never throttles the chaos traffic.
fn api_server(platform: &Arc<Tvdp>) -> ApiServer {
    ApiServer::with_rate_limit(
        Arc::clone(platform),
        RateLimitConfig {
            burst: 100_000,
            per_second: 100_000.0,
            ..Default::default()
        },
    )
}

fn scene(seed: usize) -> Image {
    Image::from_fn(16, 16, |x, y| {
        let v = ((x * 3 + y * 7 + seed) % 23) as u8 * 5;
        [v, 200u8.wrapping_sub(v), v / 2]
    })
}

/// A distinct `data/add` JSON body per sequence number — real payload
/// bytes for the corruption fault to flip.
fn add_body(seq: usize) -> String {
    let img = scene(seq);
    format!(
        concat!(
            r#"{{"width":{},"height":{},"pixels":"{}","lat":34.05,"lon":-118.25,"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":["chaos"]}}"#
        ),
        img.width(),
        img.height(),
        codec::hex_encode(img.raw()),
        1_000 + seq,
        1_100 + seq,
    )
}

/// Bridges the byte-level transport to the JSON API: verifies the
/// packet checksum (460 on damage), then replays the payload as a
/// `data/add` request carrying the packet's idempotency key, copying
/// any 429 backpressure hint back onto the wire.
fn serve(server: &ApiServer, key: &str, packet: &UploadPacket, now_ms: i64) -> ChannelReply {
    if !packet.verify() {
        return ChannelReply::status(STATUS_BAD_CHECKSUM);
    }
    let Ok(body) = String::from_utf8(packet.payload.clone()) else {
        return ChannelReply::status(400);
    };
    let request = ApiRequest {
        key: key.to_string(),
        endpoint: "data/add".to_string(),
        body,
        idempotency_key: Some(packet.idempotency_key.clone()),
        deadline_ms: None,
    };
    let response = server.handle(&request, now_ms);
    reply_of(&response)
}

fn reply_of(response: &ApiResponse) -> ChannelReply {
    if response.is_ok() {
        ChannelReply::ok(response.render_body())
    } else {
        ChannelReply {
            status: response.status,
            retry_after_ms: response.body["retry_after_ms"].as_u64(),
            body: response.render_body(),
        }
    }
}

/// The image id a successful `data/add` reply carries.
fn acked_image_id(report_body: &str) -> u64 {
    codec::parse(report_body).expect("ack body parses")["image"]
        .as_u64()
        .expect("ack body has an image id")
}

#[test]
fn every_fault_at_every_position_still_ingests_exactly_once() {
    let faults = [
        Fault::DropRequest,
        Fault::DropReply,
        Fault::Corrupt,
        Fault::Stall(900), // past the 400 ms attempt timeout: a lost ack
    ];
    const UPLOADS: usize = 4;
    const POSITIONS: usize = 6;
    for (fi, fault) in faults.iter().enumerate() {
        for position in 0..POSITIONS {
            // One fault at one attempt position, everything else clean.
            let mut schedule = vec![Fault::None; POSITIONS];
            schedule[position] = *fault;
            let platform = fast_platform();
            let gateway = platform.register_user("edge-gateway", Role::Government);
            let server = api_server(&platform);
            let key = server.issue_key(gateway);
            let mut transport = EdgeTransport::new(
                RetryPolicy::default(),
                FaultPlan::scripted(schedule),
                (fi * POSITIONS + position) as u64,
            );
            for seq in 0..UPLOADS {
                let packet = UploadPacket::new(format!("cam0-s{seq}"), add_body(seq).into_bytes());
                let report = transport.send(&packet, &mut |p, now| serve(&server, &key, p, now));
                assert!(
                    report.outcome == SendOutcome::Acked,
                    "{fault:?} at attempt {position}, upload {seq}: {report:?}"
                );
            }
            // The invariant of the issue: acked once == ingested exactly
            // once, regardless of where the fault landed. A lost ack
            // (DropReply / long Stall) reaches the server twice, but the
            // idempotency key collapses the replay.
            assert_eq!(
                platform.stats().images,
                UPLOADS,
                "{fault:?} at attempt {position}: duplicate or lost ingest"
            );
        }
    }
}

#[test]
fn acked_uploads_survive_a_crash_and_unacked_ones_stay_invisible() {
    let dir = std::env::temp_dir().join(format!("tvdp-chaos-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let lost_ack_packet = UploadPacket::new("cam1-s1", add_body(1).into_bytes());
    let abandoned_packet = UploadPacket::new("cam1-s2", add_body(2).into_bytes());
    let lost_ack_id;
    {
        let (platform, _) = Tvdp::open(&dir, fast_config()).expect("open fresh");
        let platform = Arc::new(platform);
        let gateway = platform.register_user("edge-gateway", Role::Government);
        let server = api_server(&platform);
        let key = server.issue_key(gateway);

        // Upload 0: clean. Upload 1: the ack is lost, the retry is
        // answered from the idempotency table.
        let mut transport = EdgeTransport::new(
            RetryPolicy::default(),
            FaultPlan::scripted(vec![Fault::None, Fault::DropReply]),
            7,
        );
        let clean = transport.send(
            &UploadPacket::new("cam1-s0", add_body(0).into_bytes()),
            &mut |p, now| serve(&server, &key, p, now),
        );
        assert_eq!(clean.outcome, SendOutcome::Acked);
        let retried = transport.send(&lost_ack_packet, &mut |p, now| serve(&server, &key, p, now));
        assert_eq!(retried.outcome, SendOutcome::Acked);
        assert_eq!(retried.attempts, 2, "first ack was dropped");
        lost_ack_id = acked_image_id(&retried.reply.expect("acked").body);

        // Upload 2: a fire-and-forget send dropped en route — the client
        // gives up and the server never saw the bytes.
        let mut flaky = EdgeTransport::new(
            RetryPolicy::single_attempt(),
            FaultPlan::scripted(vec![Fault::DropRequest]),
            8,
        );
        let abandoned = flaky.send(&abandoned_packet, &mut |p, now| {
            serve(&server, &key, p, now)
        });
        assert_eq!(abandoned.outcome, SendOutcome::ExhaustedAttempts);
        assert_eq!(platform.stats().images, 2);
        // Crash: the platform is dropped without flush; the WAL is all
        // that survives.
    }

    let (platform, report) = Tvdp::open(&dir, fast_config()).expect("reopen");
    let platform = Arc::new(platform);
    assert!(report.replayed_ops > 0, "recovery replayed the WAL");
    // Both acked uploads are visible; the abandoned one is not.
    assert_eq!(
        platform.stats().images,
        2,
        "exactly the acked uploads survive recovery"
    );

    // Users are runtime state; re-register (same first id) and verify the
    // recovered idempotency table still collapses a retransmission.
    let gateway = platform.register_user("edge-gateway", Role::Government);
    let server = api_server(&platform);
    let key = server.issue_key(gateway);
    let mut transport = EdgeTransport::new(RetryPolicy::default(), FaultPlan::reliable(), 9);
    let replay = transport.send(&lost_ack_packet, &mut |p, now| serve(&server, &key, p, now));
    assert_eq!(replay.outcome, SendOutcome::Acked);
    assert_eq!(
        acked_image_id(&replay.reply.expect("acked").body),
        lost_ack_id,
        "post-crash retransmission is answered with the original id"
    );
    assert_eq!(platform.stats().images, 2, "replay ingested nothing new");

    // The abandoned upload can now be retried for real.
    let landed = transport.send(&abandoned_packet, &mut |p, now| {
        serve(&server, &key, p, now)
    });
    assert_eq!(landed.outcome, SendOutcome::Acked);
    assert_eq!(platform.stats().images, 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_opens_the_breaker_and_healing_closes_it() {
    let platform = fast_platform();
    let gateway = platform.register_user("edge-gateway", Role::Government);
    let server = api_server(&platform);
    let key = server.issue_key(gateway);

    // Link down for the first 3 s of virtual time; short retry budget so
    // failures accrue quickly.
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_ms: 50,
        max_backoff_ms: 100,
        jitter_frac: 0.0,
        attempt_timeout_ms: 400,
        total_budget_ms: 2_000,
    };
    let plan = FaultPlan::reliable().with_partitions(vec![Partition {
        from_ms: 0,
        until_ms: 3_000,
    }]);
    let mut transport = EdgeTransport::new(policy, plan, 11);
    let mut breaker = CircuitBreaker::new(BreakerConfig {
        failure_threshold: 3,
        cooldown_ms: 1_000,
        probe_successes: 2,
        probe_interval_ms: 0,
    });

    const UPLOADS: usize = 8;
    let packets: Vec<UploadPacket> = (0..UPLOADS)
        .map(|seq| UploadPacket::new(format!("cam2-s{seq}"), add_body(seq).into_bytes()))
        .collect();
    let mut pending = Vec::new();
    let mut failed = 0usize;
    let mut shed = 0usize;
    for packet in &packets {
        let report = transport.send_guarded(&mut breaker, packet, &mut |p, now| {
            serve(&server, &key, p, now)
        });
        match report.outcome {
            SendOutcome::Acked => {}
            SendOutcome::Shed => {
                shed += 1;
                pending.push(packet.clone());
            }
            SendOutcome::Rejected => panic!("a well-formed packet was rejected: {report:?}"),
            SendOutcome::ExhaustedAttempts | SendOutcome::BudgetExhausted => {
                failed += 1;
                pending.push(packet.clone());
            }
        }
    }
    assert_eq!(failed, 3, "threshold failures before the trip");
    assert_eq!(shed, UPLOADS - 3, "open breaker shed the rest locally");
    assert_eq!(
        breaker.state(),
        tvdp_edge::breaker::BreakerState::Open,
        "breaker tripped during the outage"
    );
    assert_eq!(platform.stats().images, 0, "nothing crossed the partition");

    // Let the partition heal and the cooldown elapse, then drain the
    // backlog: the first sends are half-open probes, and the probe
    // streak closes the breaker.
    transport.advance(5_000);
    for packet in &pending {
        let report = transport.send_guarded(&mut breaker, packet, &mut |p, now| {
            serve(&server, &key, p, now)
        });
        assert_eq!(
            report.outcome,
            SendOutcome::Acked,
            "post-heal send failed: {report:?}"
        );
    }
    assert_eq!(breaker.state(), tvdp_edge::breaker::BreakerState::Closed);
    assert_eq!(
        platform.stats().images,
        UPLOADS,
        "every upload eventually landed exactly once"
    );
}

#[test]
fn fleet_heal_probe_rate_is_bounded_per_device() {
    // A whole fleet trips during an outage. When the server heals, every
    // device retries aggressively — but half-open admits one unresolved
    // probe per device, paced `probe_interval_ms` apart, so the
    // recovering server sees a bounded, deterministic probe trickle
    // instead of a thundering herd.
    let open_count = |fleet: &FleetHealth| {
        let view = fleet.view();
        view.iter()
            .filter(|h| h.state == BreakerState::Open)
            .count()
    };
    const DEVICES: u64 = 6;
    let mut fleet = FleetHealth::new(BreakerConfig {
        failure_threshold: 1,
        cooldown_ms: 1_000,
        probe_successes: 2,
        probe_interval_ms: 250,
    });
    for d in 0..DEVICES {
        fleet.breaker(d).record_failure(0);
    }
    assert_eq!(open_count(&fleet), DEVICES as usize, "all tripped");

    // Healed at t=1_000: tick every 100 ms; each device hammers
    // its breaker ten times per tick (an impatient retry loop).
    let mut probe_log: Vec<(i64, u64)> = Vec::new();
    let mut t = 1_000i64;
    while fleet.view().iter().any(|h| h.state != BreakerState::Closed) {
        for d in 0..DEVICES {
            let mut admitted = 0u32;
            for _ in 0..10 {
                if fleet.breaker(d).allow(t) {
                    admitted += 1;
                }
            }
            assert!(
                admitted <= 1,
                "device {d} fired {admitted} concurrent probes at t={t}"
            );
            if admitted == 1 {
                fleet.breaker(d).record_success(t);
                probe_log.push((t, d));
            }
        }
        t += 100;
        assert!(t < 10_000, "fleet failed to converge: {:?}", fleet.view());
    }

    // Two successful probes close each breaker; with the 250 ms pacing
    // and 100 ms ticks they land at exactly t=1_000 and t=1_300.
    assert_eq!(probe_log.len(), (DEVICES * 2) as usize);
    for d in 0..DEVICES {
        let times: Vec<i64> = probe_log
            .iter()
            .filter(|&&(_, dev)| dev == d)
            .map(|&(at, _)| at)
            .collect();
        assert_eq!(times, vec![1_000, 1_300], "device {d} probe schedule");
    }
    assert_eq!(open_count(&fleet), 0);
}

// --- crowd learning under seeded chaos ------------------------------

fn crowd_setup(seed: u64) -> (Dataset, Dataset, Vec<EdgeNode>) {
    use tvdp_kernel::rng::Rng;
    let mut rng = Rng::seed_from_u64(seed);
    let mut sample = |class: usize| -> (Vec<f32>, usize) {
        let cx = class as f32 * 2.0;
        (
            vec![cx + rng.gen_range(-1.2..1.2), cx + rng.gen_range(-1.2..1.2)],
            class,
        )
    };
    let mut mk = |n: usize| {
        let mut f = Vec::new();
        let mut l = Vec::new();
        for i in 0..n {
            let (x, y) = sample(i % 2);
            f.push(x);
            l.push(y);
        }
        Dataset::new(f, l, 2)
    };
    let train = mk(12);
    let test = mk(60);
    let edges = (0..3)
        .map(|id| EdgeNode {
            id,
            pool: (0..30).map(|i| sample(i % 2)).collect(),
        })
        .collect();
    (train, test, edges)
}

fn crowd_config() -> CrowdLearningConfig {
    CrowdLearningConfig {
        rounds: 3,
        per_edge_budget_bytes: 64, // 8 two-dim f32 samples per edge-round
        feature_bytes: 8,
        raw_image_bytes: 6_912,
        strategy: SelectionStrategy::Margin,
        seed: 17,
    }
}

#[test]
fn round_telemetry_is_byte_identical_across_pool_sizes() {
    let run = |threads: usize| {
        let (train, test, mut edges) = crowd_setup(4);
        let report = run_crowd_learning(
            &train,
            &test,
            &mut edges,
            &crowd_config(),
            &UplinkConfig::lossy(21),
            || RandomForest::new(6, 42).with_pool_threads(threads),
        );
        let pools: Vec<usize> = edges.iter().map(|e| e.pool.len()).collect();
        (format!("{report:?}"), pools)
    };
    let (single, pools_single) = run(1);
    let (eight, pools_eight) = run(8);
    assert_eq!(single, eight, "telemetry must not depend on thread count");
    assert_eq!(pools_single, pools_eight);
}

#[test]
fn lost_acks_in_the_crowd_loop_are_deduplicated_not_double_ingested() {
    let (train, test, mut edges) = crowd_setup(5);
    let before: usize = edges.iter().map(|e| e.pool.len()).sum();
    // Acks only fail: every loss forces a replay the server must dedup.
    let uplink = UplinkConfig {
        rates: FaultRates {
            drop_request: 0.0,
            drop_reply: 0.35,
            corrupt: 0.0,
            stall: 0.0,
            stall_ms: 0,
        },
        ..UplinkConfig::reliable(31)
    };
    let report = run_crowd_learning(&train, &test, &mut edges, &crowd_config(), &uplink, || {
        RandomForest::new(4, 7).with_pool_threads(2)
    });
    let after: usize = edges.iter().map(|e| e.pool.len()).sum();
    let uploaded: usize = report.rounds.iter().map(|r| r.uploaded).sum();
    let suppressed: usize = report.uplink.iter().map(|u| u.duplicates_suppressed).sum();
    assert_eq!(before - after, uploaded, "no loss, no double-count");
    assert!(suppressed > 0, "a 35% ack-loss rate must force replays");
}
