//! Shared compute substrate for the Translational Visual Data Platform.
//!
//! Every latency-critical service in TVDP — a sealed segment's exact
//! visual scan and its projected filter, k-means dictionary building,
//! kNN scoring — bottoms out in dense `f32` distance evaluations. This
//! crate is the one place those primitives live:
//!
//! * [`dot`], [`l2_sq`], [`l2`], [`normalize`] — chunked, multi-accumulator
//!   loops the compiler auto-vectorizes. Strict IEEE semantics (no
//!   fast-math): results are bit-deterministic for a given input, just
//!   accumulated in a fixed lane-then-tree order instead of strictly
//!   left-to-right. [`l2_sq_within`] is [`l2_sq`] abandoned once a row
//!   cannot come within a limit, and otherwise the same bits.
//! * [`Pool`] — a scoped work pool (std scoped threads, num-CPU default)
//!   with a deterministic chunk→slot mapping, so parallel maps return
//!   results in input order and per-item values never depend on the
//!   thread count.
//! * [`FeatureSlab`] / [`SlabView`] — the zero-copy feature arena:
//!   append-only chunked row storage with `Arc`-shared snapshots, so
//!   stores and indexes reference rows by `u32` handle instead of
//!   owning `Vec<f32>` clones.
//! * [`quant`] — scalar quantization for the arena: `u8` codes with
//!   per-dimension affine decode, derived per full chunk the first time
//!   a [`SlabView`] is asked for them, and [`l2_sq_asym`], the
//!   asymmetric f32-query-vs-u8-codes distance kernel. Nothing in the
//!   platform reads codes; the end-to-end benchmark's kernel probe does.
//! * [`TopK`] / [`TotalF32`] — bounded top-k selection over float
//!   scores, replacing collect-then-sort on every top-k query path.
//! * [`GenCell`] — generation publication: writers `Arc`-swap frozen
//!   snapshots in, readers take them out without ever blocking on a
//!   writer. The sanctioned primitive behind every lock-free read path
//!   (shard snapshots, slab views).
//! * [`sync`] — `Mutex` / `RwLock` over `std::sync` with guard-returning,
//!   poison-recovering lock methods: the only locks the workspace uses.
//! * [`rng`] — the one seeded PRNG (SplitMix64) behind every synthetic
//!   corpus, model initialisation, fault schedule and property test.
//! * [`ProjectedQuery`] — the exact projected filter of a visual top-k:
//!   every frozen arena chunk derives, on first read, 16 floats per row
//!   (its rows times the top principal axes of chunk 0), and
//!   [`SlabView::lower_bound`] reads from them a lower bound on a row's
//!   distance, shaded for `f32` rounding, after 64 bytes of it.
//! * [`crc32`] — the IEEE CRC-32 that frames every journal and
//!   base-segment record: folded by carry-less multiply (PCLMULQDQ) on
//!   an x86-64 CPU that reports it, slicing-by-8 everywhere else.
//! * [`fnv64`] — FNV-1a 64, the hash of every pinned digest and of
//!   the edge transport's payload checksum.
//! * [`expand`] — a feature vector stored without its `+0.0`s (a
//!   presence bitmap and the kept floats) back into the dense vector,
//!   bit for bit, in one branch-free pass that masks each element by
//!   its bit.
//!
//! The crate's only `unsafe` is the calls into code compiled for CPU
//! features the CPU reports at run time: the carry-less fold (and its
//! 16-byte loads), and the AVX2/FMA build of the projection's product.
//!
//! The determinism contract all pieces uphold: **thread count and pool
//! choice never change any computed value** — only wall-clock time.

pub mod arena;
mod crc;
mod expand;
mod fnv;
pub mod gencell;
pub mod pool;
mod proj;
pub mod quant;
pub mod rng;
pub mod sync;
pub mod topk;

pub use arena::{FeatureSlab, RowRef, RowSource, SlabView, ROWS_PER_CHUNK};
pub use crc::crc32;
pub use expand::expand;
pub use fnv::{fnv64, FNV64_OFFSET};
pub use gencell::GenCell;
pub use pool::Pool;
pub use proj::ProjectedQuery;
pub use quant::{l2_sq_asym, QuantChunk, QuantParams};
pub use topk::{TopK, TotalF32, TotalF64};

/// Accumulator lanes for the chunked kernels. Sixteen `f32` lanes give
/// the vectorizer two full AVX2 registers (or four SSE registers) of
/// independent accumulators; measured ~3x over the scalar loop at
/// dim >= 512 on baseline x86-64.
pub(crate) const LANES: usize = 16;

#[inline(always)]
pub(crate) fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    // Fixed pairwise tree: deterministic and instruction-level parallel.
    let mut s = [0.0f32; 4];
    for (i, &a) in acc.iter().enumerate() {
        s[i % 4] += a;
    }
    ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

/// Dot product of equal-length vectors.
///
/// # Panics
///
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            acc[i] += xs[i] * ys[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc, tail)
}

/// Squared Euclidean distance between equal-length vectors.
///
/// The workhorse of every compare-only path (thresholding, ranking,
/// nearest-centroid): monotonic in [`l2`] without the square root.
///
/// # Panics
///
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len().min(b.len());
    let mut acc = [0.0f32; LANES];
    let tail = l2_sq_lanes(&mut acc, &a[..n], &b[..n]);
    reduce(acc, tail)
}

/// [`l2_sq`]'s loop: adds `(a[j] - b[j])²` of every whole
/// [`LANES`]-float chunk into lane `j % LANES` of `acc`, in order, and
/// returns the squared distance over the leftover tail.
#[inline(always)]
fn l2_sq_lanes(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) -> f32 {
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            let d = xs[i] - ys[i];
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    tail
}

/// Floats between two looks at [`l2_sq_within`]'s partial sum.
const WITHIN_BLOCK: usize = 4 * LANES;

/// [`l2_sq`], abandoned once the distance is known to exceed `limit`.
///
/// Runs [`l2_sq`]'s lanes in [`l2_sq`]'s order and, every 64 floats,
/// reduces them as [`l2_sq`] reduces its last: a lane only grows and
/// rounding is monotone, so once that partial sum's root is above
/// `limit` the full root is too, and the call returns `None`. It
/// abandons only when the partial sum is above `limit * limit` as
/// well, so a caller comparing squared against `limit * limit` never
/// loses a row it would keep either. Otherwise it returns `Some` of
/// exactly [`l2_sq`]'s bits.
///
/// # Panics
///
/// Panics in debug builds when the lengths differ.
#[inline]
pub fn l2_sq_within(a: &[f32], b: &[f32], limit: f32) -> Option<f32> {
    debug_assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let limit_sq = limit * limit;
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(WITHIN_BLOCK);
    let mut cb = b.chunks_exact(WITHIN_BLOCK);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        // A block is whole chunks, so it leaves no tail.
        l2_sq_lanes(&mut acc, xs, ys);
        let partial = reduce(acc, 0.0);
        if partial > limit_sq && partial.sqrt() > limit {
            return None;
        }
    }
    let tail = l2_sq_lanes(&mut acc, ca.remainder(), cb.remainder());
    Some(reduce(acc, tail))
}

/// Euclidean distance between equal-length vectors.
///
/// Prefer [`l2_sq`] wherever distances are only compared; take the root
/// once per *reported* value, not per candidate.
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_sq(a, b).sqrt()
}

/// Scales `v` to unit Euclidean norm in place; zero vectors are left
/// unchanged.
#[inline]
pub fn normalize(v: &mut [f32]) {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        let inv = 1.0 / norm;
        for x in v {
            *x *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_l2_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn vecs(dim: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
        // Tiny deterministic LCG; no external RNG in this crate.
        let mut state = seed as u64 * 2 + 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a = (0..dim).map(|_| next()).collect();
        let b = (0..dim).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn matches_scalar_reference_within_tolerance() {
        for dim in [0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 127, 512, 1000] {
            let (a, b) = vecs(dim, dim as u32 + 1);
            let got = l2_sq(&a, &b);
            let want = scalar_l2_sq(&a, &b);
            assert!(
                (got - want).abs() <= 1e-4 * want.max(1.0),
                "l2_sq dim {dim}: {got} vs {want}"
            );
            let got = dot(&a, &b);
            let want = scalar_dot(&a, &b);
            assert!(
                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                "dot dim {dim}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn l2_is_root_of_l2_sq() {
        let (a, b) = vecs(33, 9);
        assert_eq!(l2(&a, &b), l2_sq(&a, &b).sqrt());
        assert_eq!(l2(&a, &a), 0.0);
    }

    #[test]
    fn known_values() {
        let a = [1.0, 0.0, 2.0];
        let b = [0.0, 1.0, 2.0];
        assert_eq!(l2_sq(&a, &b), 2.0);
        assert_eq!(dot(&a, &b), 4.0);
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(l2_sq(&[], &[]), 0.0);
    }

    #[test]
    fn bit_deterministic_across_calls() {
        let (a, b) = vecs(777, 3);
        let x = l2_sq(&a, &b);
        for _ in 0..10 {
            assert_eq!(l2_sq(&a, &b).to_bits(), x.to_bits());
        }
    }

    /// `Some` is `l2_sq`'s bits and `None` only a row beyond the limit,
    /// at widths with and without a whole block, a tail, or both: for
    /// identical rows, zero rows, a limit exactly at the row's root or
    /// at a block's partial root, one float either side of the root,
    /// and random limits.
    #[test]
    fn l2_sq_within_is_l2_sq_or_beyond_the_limit() {
        let mut abandoned = 0;
        crate::rng::for_each_case(64, |case, rng| {
            for dim in [3, 16, 50, 480] {
                let mut a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut b: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                match case % 4 {
                    0 => b.clone_from(&a),
                    1 => {
                        a.fill(0.0);
                        b.fill(0.0);
                    }
                    // Only the first block differs: its partial sum is
                    // the whole distance.
                    2 => b[WITHIN_BLOCK.min(dim)..].copy_from_slice(&a[WITHIN_BLOCK.min(dim)..]),
                    _ => {}
                }
                let full = l2_sq(&a, &b);
                let root = full.sqrt();
                let block = WITHIN_BLOCK.min(dim);
                let mut limits = vec![
                    root,
                    f32::from_bits(root.to_bits().saturating_sub(1)),
                    f32::from_bits(root.to_bits() + 1),
                    l2(&a[..block], &b[..block]),
                    0.0,
                    f32::INFINITY,
                    -1.0,
                ];
                limits.extend((0..4).map(|_| root * rng.gen_range(0.0f32..1.5)));
                for limit in limits {
                    match l2_sq_within(&a, &b, limit) {
                        Some(d) => assert_eq!(
                            d.to_bits(),
                            full.to_bits(),
                            "case {case}, dim {dim}, limit {limit}"
                        ),
                        None => {
                            assert!(
                                root > limit && full > limit * limit,
                                "case {case}, dim {dim}: {root} abandoned at {limit}"
                            );
                            abandoned += 1;
                        }
                    }
                }
                // A limit exactly at the root keeps the row.
                assert_eq!(l2_sq_within(&a, &b, root), Some(full));
            }
        });
        assert!(abandoned > 0, "no row was ever abandoned");
    }

    #[test]
    fn normalize_unit_norm_and_zero_untouched() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((dot(&v, &v).sqrt() - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
        let mut z = vec![0.0; 5];
        normalize(&mut z);
        assert!(z.iter().all(|&x| x == 0.0));
    }
}
