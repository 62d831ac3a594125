//! Per-key token-bucket rate limiting.
//!
//! Time is passed in explicitly (milliseconds) so tests and simulations
//! control the clock; a production transport would feed wall-clock time.
//!
//! The bucket table is bounded: an attacker cycling through fresh API
//! keys can no longer grow it without limit. At capacity the
//! least-recently-refilled bucket is evicted — the key that has gone
//! longest without traffic loses its (by then fully refilled) bucket,
//! so the state discarded is exactly the state that had converged back
//! to "no history".

use std::collections::BTreeMap;

use tvdp_kernel::sync::Mutex;

/// Bucket parameters.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Maximum burst size (bucket capacity), in requests.
    pub burst: u32,
    /// Sustained rate, requests per second.
    pub per_second: f64,
    /// Maximum distinct keys tracked at once; at capacity the
    /// least-recently-refilled bucket is evicted to admit a new key.
    pub max_keys: usize,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        Self {
            burst: 20,
            per_second: 10.0,
            max_keys: 4096,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_ms: i64,
}

/// A token bucket per API key, at most [`RateLimitConfig::max_keys`]
/// of them.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateLimitConfig,
    buckets: Mutex<BTreeMap<String, Bucket>>,
}

impl RateLimiter {
    /// Creates a limiter.
    pub fn new(config: RateLimitConfig) -> Self {
        assert!(config.burst >= 1, "zero burst");
        assert!(config.per_second > 0.0, "non-positive rate");
        assert!(config.max_keys >= 1, "zero key capacity");
        Self {
            config,
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attempts to take one token for `key` at time `now_ms`. On denial
    /// returns the number of milliseconds until the bucket will have
    /// refilled a whole token — the `retry_after_ms` hint a 429 response
    /// carries so well-behaved clients (the edge transport) can sleep
    /// exactly as long as needed instead of guessing with backoff.
    pub fn check(&self, key: &str, now_ms: i64) -> Result<(), u64> {
        let mut buckets = self.buckets.lock();
        if !buckets.contains_key(key) && buckets.len() >= self.config.max_keys {
            // Evict the bucket whose clock is stalest (ties broken by
            // key order, so eviction is deterministic). An evicted key
            // returning later starts over with a full burst — the cost
            // of bounding memory against unbounded key churn.
            let stalest = buckets
                .iter()
                .min_by_key(|(_, b)| b.last_ms)
                .map(|(k, _)| k.clone());
            if let Some(k) = stalest {
                buckets.remove(&k);
            }
        }
        let bucket = buckets.entry(key.to_string()).or_insert(Bucket {
            tokens: f64::from(self.config.burst),
            last_ms: now_ms,
        });
        // Refill for elapsed time (clock may not go backwards per key).
        let elapsed_s = ((now_ms - bucket.last_ms).max(0)) as f64 / 1000.0;
        bucket.tokens =
            (bucket.tokens + elapsed_s * self.config.per_second).min(f64::from(self.config.burst));
        bucket.last_ms = bucket.last_ms.max(now_ms);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            // Time for the deficit to refill at `per_second`, rounded up
            // so retrying exactly `retry_after_ms` later always succeeds
            // (absent competing traffic on the same key).
            let deficit = 1.0 - bucket.tokens;
            let ms = (deficit / self.config.per_second * 1000.0).ceil();
            Err(ms as u64)
        }
    }

    /// Number of keys currently tracked (bounded by `max_keys`).
    #[cfg(test)]
    fn tracked_keys(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RateLimiter {
        /// `check` as a yes/no: `true` means the request may proceed.
        fn allow(&self, key: &str, now_ms: i64) -> bool {
            self.check(key, now_ms).is_ok()
        }
    }

    #[test]
    fn burst_then_throttle() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 3,
            per_second: 1.0,
            ..Default::default()
        });
        assert!(limiter.allow("k", 0));
        assert!(limiter.allow("k", 0));
        assert!(limiter.allow("k", 0));
        assert!(!limiter.allow("k", 0), "burst exhausted");
    }

    #[test]
    fn refills_over_time() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 2.0,
            ..Default::default()
        });
        assert!(limiter.allow("k", 0));
        assert!(!limiter.allow("k", 100));
        // 500 ms at 2/s refills one token.
        assert!(limiter.allow("k", 600));
    }

    #[test]
    fn keys_are_independent() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 0.001,
            ..Default::default()
        });
        assert!(limiter.allow("a", 0));
        assert!(limiter.allow("b", 0));
        assert!(!limiter.allow("a", 1));
    }

    #[test]
    fn capacity_never_exceeded() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 2,
            per_second: 100.0,
            ..Default::default()
        });
        assert!(limiter.allow("k", 0));
        // A long quiet period must not bank more than `burst` tokens.
        assert!(limiter.allow("k", 1_000_000));
        assert!(limiter.allow("k", 1_000_000));
        assert!(!limiter.allow("k", 1_000_000));
    }

    #[test]
    fn denial_reports_exact_refill_time() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 2.0, // one token per 500 ms
            ..Default::default()
        });
        assert_eq!(limiter.check("k", 0), Ok(()));
        // Empty bucket: a whole token is 500 ms away.
        assert_eq!(limiter.check("k", 0), Err(500));
        // 300 ms later 0.6 tokens have refilled; 0.4 remain = 200 ms.
        assert_eq!(limiter.check("k", 300), Err(200));
        // Waiting exactly the hinted time succeeds.
        assert_eq!(limiter.check("k", 500), Ok(()));
    }

    #[test]
    fn bucket_table_is_bounded() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 1.0,
            max_keys: 8,
        });
        // A key-churn attack: 10k distinct keys.
        for i in 0..10_000i64 {
            limiter.allow(&format!("attacker-{i}"), i);
        }
        assert!(limiter.tracked_keys() <= 8, "{}", limiter.tracked_keys());
    }

    #[test]
    fn eviction_drops_the_least_recently_refilled_key() {
        let limiter = RateLimiter::new(RateLimitConfig {
            burst: 1,
            per_second: 0.001,
            max_keys: 2,
        });
        assert!(limiter.allow("old", 0));
        assert!(limiter.allow("warm", 1_000));
        // Admitting a third key evicts "old" (stalest clock), not "warm".
        assert!(limiter.allow("new", 2_000));
        assert_eq!(limiter.tracked_keys(), 2);
        // "warm" kept its drained bucket: still throttled.
        assert!(!limiter.allow("warm", 2_001));
        // "old" was forgotten: it returns with a fresh burst (evicting
        // the now-stalest "new" to make room).
        assert!(limiter.allow("old", 2_002));
    }
}
