//! A small reusable scoped work pool with deterministic output placement.
//!
//! TVDP parallelizes *data-parallel* hot paths: batch feature extraction,
//! k-means assignment, per-tree forest training, cross-validation folds,
//! and batch query execution. All of them share
//! one need — fan a pure per-item function out over worker threads and get
//! the results back **in input order, with values independent of the
//! thread count**. [`Pool::map`] and [`Pool::map_index`] provide exactly
//! that: the caller and `threads - 1` spawned workers claim indices one
//! at a time from a shared cursor, so a worker that drew cheap items
//! takes more of them instead of idling beside one that drew dear ones;
//! each result is placed at its own index, and the per-item closure
//! sees only the item and its index. Because the closure never observes
//! which worker ran it, a 1-thread pool and a 64-thread pool produce
//! bit-identical outputs.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on worker threads (a safety clamp, not a tuning knob).
const MAX_THREADS: usize = 64;

/// A fixed-width scoped work pool.
///
/// Threads are scoped (std scoped threads): workers are spawned per call,
/// the caller works beside them, and they are joined before the call
/// returns, so borrowed data flows in freely and panics propagate to the
/// caller.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers (clamped to `1..=64`).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// A single-threaded pool: every map runs inline on the caller.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The process-wide default pool: one worker per available CPU,
    /// overridable with the `TVDP_THREADS` environment variable
    /// (read once, at first use).
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("TVDP_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(NonZeroUsize::get)
                        .unwrap_or(1)
                });
            Pool::new(threads)
        })
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to `0..n`, returning results in index order.
    ///
    /// The caller and `threads - 1` spawned workers (fewer for a short
    /// range) claim indices in turn from one atomic cursor until the
    /// range is exhausted, and each result lands at its index. Which
    /// worker runs an index is up to the scheduler, so `f` must be pure
    /// in its index for outputs to be thread-count independent — every
    /// caller in this workspace passes seeded, side-effect-free closures.
    ///
    /// A panic in any worker, the caller's share included, stops that
    /// worker; the others finish the range, and the call then panics
    /// with "a scoped thread panicked", as `std::thread::scope` does.
    pub fn map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = self.threads.min(n);
        if threads <= 1 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                // tvdp-lint: allow(atomic_ordering, reason = "the cursor only hands out distinct indices, which the read-modify-write guarantees at any ordering; results reach the caller through join, which synchronizes")
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let shares = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
            let mine = catch_unwind(AssertUnwindSafe(claim));
            let theirs = workers.into_iter().map(|w| w.join());
            std::iter::once(mine).chain(theirs).collect::<Vec<_>>()
        });
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for share in shares {
            let Ok(share) = share else {
                // tvdp-lint: allow(no_panic, reason = "re-raises a worker's panic, as std::thread::scope does")
                panic!("a scoped thread panicked");
            };
            for (i, r) in share {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            // tvdp-lint: allow(no_panic, reason = "pool invariant: the cursor hands every index to exactly one worker, and every worker returned")
            .map(|r| r.expect("a worker claimed every index"))
            .collect()
    }

    /// Applies `f` to every item of `items`, returning results in input
    /// order. `f` receives `(index, &item)`. See [`Pool::map_index`] for
    /// the determinism contract.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_index(items.len(), |i| f(i, &items[i]))
    }

    /// Runs `f` inside a scoped-thread context with this pool's width,
    /// for callers that need manual control over what each worker does.
    /// Spawn at most [`Pool::threads`] workers for CPU-bound work.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> R,
    {
        std::thread::scope(f)
    }
}

impl Default for Pool {
    fn default() -> Self {
        *Self::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 7, 64] {
            let pool = Pool::new(threads);
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // A float reduction whose value would drift if work moved between
        // slots: each slot's value depends only on its index.
        let compute = |threads: usize| {
            Pool::new(threads).map_index(4097, |i| ((i as f32).sin() * 1e3).to_bits())
        };
        let one = compute(1);
        for threads in [2, 5, 8, 64] {
            assert_eq!(
                one,
                compute(threads),
                "thread count {threads} changed results"
            );
        }
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Pool::new(8).map_index(257, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(8);
        assert!(pool.map_index(0, |i| i).is_empty());
        assert_eq!(pool.map_index(1, |i| i), vec![0]);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(&empty, |_, &b| b).is_empty());
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(10_000).threads(), MAX_THREADS);
        assert!(Pool::global().threads() >= 1);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn borrows_flow_into_map() {
        let data = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens = Pool::new(2).map(&data, |_, s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
        drop(data);
    }

    /// Spins until `flag` is set or ten seconds pass; `false` on the
    /// timeout.
    fn wait_for(flag: &AtomicBool) -> bool {
        let start = Instant::now();
        while !flag.load(Ordering::Acquire) {
            if start.elapsed() > Duration::from_secs(10) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn workers_claim_items_instead_of_splitting_the_range() {
        // Cut into contiguous halves, items 0 and 1 would both be the
        // first worker's, and item 0 would wait on an item queued behind
        // it on its own worker.
        let ran = AtomicBool::new(false);
        let out = Pool::new(2).map_index(4, |i| {
            if i == 0 {
                assert!(wait_for(&ran), "item 1 never ran beside item 0");
            }
            if i == 1 {
                ran.store(true, Ordering::Release);
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn a_panic_in_the_callers_share_propagates_as_a_workers_does() {
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let _ = Pool::new(2).map_index(8, |i| {
            if std::thread::current().id() == caller {
                caller_ran.store(true, Ordering::Release);
                panic!("boom in the caller's share");
            }
            // The worker holds its first item until the caller has
            // claimed one, so the caller's share is never empty.
            wait_for(&caller_ran);
            i
        });
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let _ = Pool::new(4).map_index(100, |i| {
            if i == 37 {
                panic!("boom");
            }
            i
        });
    }
}
