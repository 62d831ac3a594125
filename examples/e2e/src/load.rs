//! The load generator: an `ApiServer` under a key that is never
//! throttled, timed calls, the closed loop and the open-loop writer.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tvdp::api::{ApiRequest, ApiServer, RateLimitConfig};
use tvdp::platform::{AdmissionConfig, Role, Tvdp};
use tvdp::storage::codec::Value;

/// Requests sent and requests that failed (non-200 or a wrong answer),
/// over the whole run.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);

/// Counts a failed operation and says why on stderr (first few only).
pub fn fail(why: impl std::fmt::Display) {
    if FAILED.fetch_add(1, Ordering::Relaxed) < 10 {
        eprintln!("FAILED: {why}");
    }
}

/// An `ApiServer` plus the one key the benchmark calls it with.
pub struct Srv {
    pub api: ApiServer,
    key: String,
    /// The virtual `now_ms` handed to `handle`; 10 ms per request.
    clock: AtomicI64,
}

/// One timed call: `handle` plus `render_body`, the bytes a wire carries.
pub struct Reply {
    pub status: u16,
    pub body: Value,
    pub wire: String,
    pub secs: f64,
}

impl Srv {
    /// Wraps `platform`. The rate limit and the admission budget are
    /// set so that nothing is ever shed: admission still prices every
    /// request (that cost is part of the request path), but a 429 or a
    /// 503 can only be a fault.
    pub fn new(platform: Tvdp) -> Srv {
        let platform = Arc::new(platform);
        let user = platform.register_user("e2e", Role::Government);
        let api = ApiServer::with_admission(
            platform,
            RateLimitConfig {
                burst: u32::MAX,
                per_second: 1e12,
                max_keys: 16,
            },
            AdmissionConfig {
                capacity_units_per_sec: 1 << 50,
                dispatch_max_delay_ms: i64::MAX / 4,
                query_max_delay_ms: i64::MAX / 4,
                ingest_max_delay_ms: i64::MAX / 4,
            },
        );
        let key = api.issue_key(user);
        Srv {
            api,
            key,
            clock: AtomicI64::new(0),
        }
    }

    pub fn platform(&self) -> &Tvdp {
        self.api.platform()
    }

    /// Sends one request; the clock covers `handle` and `render_body`
    /// only. Any status but 200 counts as a failed operation.
    pub fn call(&self, endpoint: &str, body: &str) -> Reply {
        let request = ApiRequest::new(self.key.clone(), endpoint, body);
        let now_ms = self.clock.fetch_add(10, Ordering::Relaxed);
        let start = Instant::now();
        let response = self.api.handle(&request, now_ms);
        let wire = response.render_body();
        let secs = start.elapsed().as_secs_f64();
        ATTEMPTED.fetch_add(1, Ordering::Relaxed);
        if response.status != 200 {
            fail(format_args!(
                "{endpoint} answered {}: {wire}",
                response.status
            ));
        }
        Reply {
            status: response.status,
            body: response.body,
            wire,
            secs,
        }
    }
}

/// Closed loop, one client: sends `bodies` in order, the next only when
/// the previous has answered. Returns the latencies, milliseconds;
/// `on_reply` sees every answer.
pub fn closed_loop(
    srv: &Srv,
    endpoint: &str,
    bodies: impl Iterator<Item = impl AsRef<str>>,
    mut on_reply: impl FnMut(&Reply),
) -> Vec<f64> {
    bodies
        .map(|body| {
            let reply = srv.call(endpoint, body.as_ref());
            on_reply(&reply);
            reply.secs * 1e3
        })
        .collect()
}

/// What one window of concurrent reads and writes measured, milliseconds.
pub struct RwWindow {
    pub search_ms: Vec<f64>,
    /// Per add, completion minus the time it was due to be sent.
    pub add_from_due_ms: Vec<f64>,
    /// Per add, how late the generator sent it.
    pub late_ms: Vec<f64>,
    pub add_replies: Vec<Reply>,
    /// From the first add's due time to the last add's answer.
    pub secs: f64,
}

/// One reader thread in a closed loop over `searches` beside one writer
/// thread sending `adds` open-loop at `rate_per_s`: add `i` is due at
/// `i / rate` whatever happened to the adds before it, and its latency
/// runs from that due time, so a stall is charged to every request it
/// delays. The window ends when the last add has answered.
pub fn read_beside_writes<'a>(
    srv: &Srv,
    searches: impl Iterator<Item = &'a String> + Send,
    adds: &[String],
    rate_per_s: f64,
) -> RwWindow {
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut ms = Vec::new();
            for body in searches {
                if writer_done.load(Ordering::Acquire) {
                    break;
                }
                ms.push(srv.call("data/search", body).secs * 1e3);
            }
            ms
        });
        let writer = scope.spawn(|| {
            let start = Instant::now();
            let (mut from_due, mut late, mut replies) = (Vec::new(), Vec::new(), Vec::new());
            for (i, body) in adds.iter().enumerate() {
                let due = Duration::from_secs_f64(i as f64 / rate_per_s);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let reply = srv.call("data/add", body);
                let lateness = sent.saturating_sub(due).as_secs_f64();
                late.push(lateness * 1e3);
                from_due.push((lateness + reply.secs) * 1e3);
                replies.push(reply);
            }
            // Release pairs with the reader's Acquire: the reader stops
            // only after the writer's last call has returned.
            writer_done.store(true, Ordering::Release);
            (from_due, late, replies, start.elapsed().as_secs_f64())
        });
        let (add_from_due_ms, late_ms, add_replies, secs) =
            writer.join().expect("writer thread panicked");
        RwWindow {
            search_ms: reader.join().expect("reader thread panicked"),
            add_from_due_ms,
            late_ms,
            add_replies,
            secs,
        }
    })
}
