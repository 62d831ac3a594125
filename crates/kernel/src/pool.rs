//! A small reusable scoped work pool with deterministic output placement.
//!
//! TVDP parallelizes *data-parallel* hot paths: batch feature extraction,
//! k-means assignment, per-tree forest training, cross-validation folds,
//! and batch query execution. All of them share
//! one need — fan a pure per-item function out over worker threads and get
//! the results back **in input order, with values independent of the
//! thread count**. [`Pool::map`] and [`Pool::map_index`] provide exactly
//! that: items are split into contiguous chunks, each worker writes into
//! its own disjoint slice of the pre-sized output, and the per-item
//! closure sees only the item and its index. Because the closure never
//! observes which worker ran it, a 1-thread pool and a 64-thread pool
//! produce bit-identical outputs.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Upper bound on worker threads (a safety clamp, not a tuning knob).
const MAX_THREADS: usize = 64;

/// A fixed-width scoped work pool.
///
/// Threads are scoped (std scoped threads): workers are spawned per call
/// and joined before the call returns, so borrowed data flows in freely
/// and panics propagate to the caller.
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
    /// The index range is split into `threads` contiguous chunks; chunk
    /// `c` covers `c*len..(c+1)*len` and writes slots `c*len..` of the
    /// output (the deterministic chunk→slot mapping). `f` must be pure in
    /// its index for outputs to be thread-count independent — every
    /// caller in this workspace passes seeded, side-effect-free closures.
    ///
    /// Panics in a worker propagate to the caller after all workers stop.
    pub fn map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(n);
        if threads == 1 {
            return (0..n).map(f).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let f = &f;
        std::thread::scope(|scope| {
            for (c, slots) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    let base = c * chunk;
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(base + j));
                    }
                });
            }
        });
        out.into_iter()
            // tvdp-lint: allow(no_panic, reason = "pool invariant: every slot is written exactly once by its owning worker before join")
            .map(|r| r.expect("worker filled every slot"))
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
