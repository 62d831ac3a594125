//! Scalar quantization for the feature arena: `u8` codes with a
//! per-dimension affine decode, trained independently for every full
//! chunk.
//!
//! Nothing in the platform trains or keeps codes: the one
//! caller of [`QuantChunk::encode`] is [`crate::SlabView::quant_row`],
//! which derives a chunk's codes the first time a row of it is asked
//! for (today only by the end-to-end benchmark's kernel probe).
//!
//! A full chunk's rows are write-once, so its per-dimension value
//! range is final. Each dimension `d` stores a
//! `min[d]` / `scale[d]` pair with `scale = (max - min) / 255`, and a
//! row value `v` is encoded as `round((v - min) / scale)` clamped to
//! `[0, 255]`. The decoded value is `min + scale * code`, so the
//! per-element quantization error is at most `scale / 2` (plus float
//! rounding) — and crucially the chunk records its **measured**
//! decode-error radius [`QuantParams::eps`]: the largest Euclidean
//! distance between any row and its decoded counterpart, inflated by a
//! small slop factor that dominates `f32` rounding. Query layers use
//! `eps` to turn the approximate scan into an *exact* filter: any row
//! whose true distance could reach the current top-k must have an
//! approximate distance within `2 * eps` of the k-th approximate
//! distance (triangle inequality), so re-ranking everything inside
//! that margin on the full-precision floats reproduces the exact
//! result byte-for-byte.
//!
//! [`l2_sq_asym`] is the asymmetric distance kernel: an `f32` query
//! against `u8` codes, decoded on the fly in the same fixed
//! lane-then-tree accumulation order as [`crate::l2_sq`]. The scan
//! touches one byte per element instead of four — the memory-bound
//! candidate scan the compressed representation exists for.

use crate::{reduce, LANES};

/// Levels per dimension (`u8` codes).
const LEVELS: f32 = 255.0;

/// Relative inflation applied to the measured decode-error radius so
/// the exactness margin also absorbs `f32` rounding in the distance
/// kernels themselves.
const EPS_SLOP: f32 = 1.001;

/// Per-chunk affine decode parameters: one `(min, scale)` pair per
/// dimension, plus the chunk's measured decode-error radius.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantParams {
    min: Box<[f32]>,
    scale: Box<[f32]>,
    eps: f32,
}

impl QuantParams {
    /// Feature dimensionality the parameters cover.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Decode-error radius: an upper bound on the Euclidean distance
    /// between any encoded row and its decoded counterpart.
    /// `|l2(q, x) - l2(q, decode(x))| <= eps` for every row `x` of the chunk, so
    /// an approximate ranking cut `2 * eps` past the k-th approximate
    /// distance provably covers the exact top-k.
    #[cfg(test)]
    pub(crate) fn eps(&self) -> f32 {
        self.eps
    }
}

/// One full chunk's quantized representation: `rows * dim` `u8`
/// codes plus the chunk's [`QuantParams`]. Immutable after training.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantChunk {
    params: QuantParams,
    codes: Box<[u8]>,
}

impl QuantChunk {
    /// Trains per-dimension parameters over `data` (a frozen chunk's
    /// `rows * dim` floats, row-major) and encodes every row.
    ///
    /// Deterministic: the same floats always produce the same codes and
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0` or `data.len()` is not a multiple of
    /// `dim`.
    pub fn encode(data: &[f32], dim: usize) -> QuantChunk {
        assert!(dim > 0, "zero-dimensional rows");
        assert_eq!(data.len() % dim, 0, "partial row in chunk data");
        let rows = data.len() / dim;
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for r in 0..rows {
            let v = &data[r * dim..(r + 1) * dim];
            for d in 0..dim {
                min[d] = min[d].min(v[d]);
                max[d] = max[d].max(v[d]);
            }
        }
        let scale: Vec<f32> = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| {
                let s = (hi - lo) / LEVELS;
                if s.is_finite() && s > 0.0 {
                    s
                } else {
                    0.0
                }
            })
            .collect();
        let mut codes = vec![0u8; data.len()];
        for (i, &v) in data.iter().enumerate() {
            let d = i % dim;
            if scale[d] > 0.0 {
                codes[i] = ((v - min[d]) / scale[d]).round().clamp(0.0, LEVELS) as u8;
            }
        }
        // Measured decode-error radius, accumulated in f64 so the bound
        // itself is not limited by f32 precision. The decode expression
        // matches `l2_sq_asym` exactly.
        let mut worst = 0.0f64;
        for r in 0..rows {
            let mut err = 0.0f64;
            for d in 0..dim {
                let dec = min[d] + scale[d] * f32::from(codes[r * dim + d]);
                let e = f64::from(data[r * dim + d] - dec);
                err += e * e;
            }
            worst = worst.max(err);
        }
        let eps = (worst.sqrt() as f32) * EPS_SLOP + 1e-6;
        QuantChunk {
            params: QuantParams {
                min: min.into_boxed_slice(),
                scale: scale.into_boxed_slice(),
                eps,
            },
            codes: codes.into_boxed_slice(),
        }
    }

    /// The chunk's decode parameters.
    pub fn params(&self) -> &QuantParams {
        &self.params
    }

    /// The codes of one row within the chunk.
    #[inline]
    pub fn row_codes(&self, row_in_chunk: usize) -> &[u8] {
        let dim = self.params.dim();
        &self.codes[row_in_chunk * dim..(row_in_chunk + 1) * dim]
    }
}

/// Asymmetric squared Euclidean distance: an `f32` query against one
/// row's `u8` codes, decoded on the fly through `params`.
///
/// Accumulates in the same fixed lane-then-tree order as
/// [`crate::l2_sq`]: bit-deterministic for a given input, independent
/// of thread count or call site. Equal to `l2_sq(q, decode(codes))`
/// bit-for-bit, since the decode expression and accumulation order are
/// identical to materializing the decoded row first.
///
/// # Panics
///
/// Panics in debug builds when lengths disagree with `params.dim()`.
#[inline]
// tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
pub fn l2_sq_asym(q: &[f32], codes: &[u8], params: &QuantParams) -> f32 {
    debug_assert_eq!(q.len(), params.dim(), "query dimension mismatch");
    debug_assert_eq!(codes.len(), params.dim(), "code dimension mismatch");
    let n = q.len().min(codes.len());
    let (q, codes) = (&q[..n], &codes[..n]);
    let (min, scale) = (&params.min[..n], &params.scale[..n]);
    let mut acc = [0.0f32; LANES];
    let mut cq = q.chunks_exact(LANES);
    let mut cc = codes.chunks_exact(LANES);
    let mut cm = min.chunks_exact(LANES);
    let mut cs = scale.chunks_exact(LANES);
    for (((xs, bs), ms), ss) in cq
        .by_ref()
        .zip(cc.by_ref())
        .zip(cm.by_ref())
        .zip(cs.by_ref())
    {
        for i in 0..LANES {
            let d = xs[i] - (ms[i] + ss[i] * f32::from(bs[i]));
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (((x, &b), &m), &s) in cq
        .remainder()
        .iter()
        .zip(cc.remainder())
        .zip(cm.remainder())
        .zip(cs.remainder())
    {
        let d = x - (m + s * f32::from(b));
        tail += d * d;
    }
    reduce(acc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2_sq;

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        // Deterministic LCG; no external RNG in this crate.
        let mut state = seed * 2 + 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 1.0
        };
        (0..n * dim).map(|_| next()).collect()
    }

    fn decode(chunk: &QuantChunk, row: usize) -> Vec<f32> {
        let p = chunk.params();
        chunk
            .row_codes(row)
            .iter()
            .enumerate()
            .map(|(d, &c)| p.min[d] + p.scale[d] * f32::from(c))
            .collect()
    }

    #[test]
    fn decode_error_within_eps() {
        let dim = 9;
        let data = rows(300, dim, 7);
        let chunk = QuantChunk::encode(&data, dim);
        let eps = chunk.params().eps();
        assert!(eps > 0.0);
        for r in 0..300 {
            let dec = decode(&chunk, r);
            let err = l2_sq(&data[r * dim..(r + 1) * dim], &dec).sqrt();
            assert!(err <= eps, "row {r}: decode error {err} > eps {eps}");
        }
    }

    #[test]
    fn asym_kernel_matches_decoded_l2_bitwise() {
        for dim in [1, 3, 15, 16, 17, 48, 130] {
            let data = rows(40, dim, dim as u64);
            let chunk = QuantChunk::encode(&data, dim);
            let q = &rows(1, dim, 999)[..];
            for r in 0..40 {
                let fast = l2_sq_asym(q, chunk.row_codes(r), chunk.params());
                let slow = l2_sq(q, &decode(&chunk, r));
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "dim {dim} row {r}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn triangle_bound_holds_against_random_queries() {
        let dim = 16;
        let data = rows(200, dim, 3);
        let chunk = QuantChunk::encode(&data, dim);
        let eps = chunk.params().eps();
        for qi in 0..20 {
            let q = rows(1, dim, 1000 + qi);
            for r in 0..200 {
                let exact = l2_sq(&q, &data[r * dim..(r + 1) * dim]).sqrt();
                let approx = l2_sq_asym(&q, chunk.row_codes(r), chunk.params()).sqrt();
                assert!(
                    (exact - approx).abs() <= eps,
                    "q {qi} row {r}: |{exact} - {approx}| > eps {eps}"
                );
            }
        }
    }

    #[test]
    fn constant_dimension_is_lossless() {
        let dim = 4;
        // Dimension 2 is constant across rows.
        let data: Vec<f32> = (0..12)
            .map(|i| if i % dim == 2 { 7.5 } else { i as f32 })
            .collect();
        let chunk = QuantChunk::encode(&data, dim);
        assert_eq!(chunk.params().scale[2], 0.0);
        for r in 0..3 {
            assert_eq!(decode(&chunk, r)[2], 7.5);
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let dim = 8;
        let data = rows(100, dim, 42);
        assert_eq!(
            QuantChunk::encode(&data, dim),
            QuantChunk::encode(&data, dim)
        );
    }

    #[test]
    #[should_panic(expected = "partial row")]
    fn encode_rejects_partial_rows() {
        let _ = QuantChunk::encode(&[0.0; 7], 4);
    }
}
