//! Projected lower bounds: an exact filter that reads [`AXES`] floats
//! of a row before its full width.
//!
//! A [`Projection`] is an `AXES × dim` matrix `P` with orthonormal
//! rows, so for any two rows `‖P(q − x)‖ ≤ ‖q − x‖`: the distance of
//! two projected rows never exceeds the distance of the rows. A visual
//! top-k that knows a cut `U` (its `k`-th distance is at most `U`) can
//! therefore reject every row whose projected distance is above `U`
//! after reading 64 bytes of it, and score only the rest at full width.
//!
//! `P` is the top [`AXES`] principal axes of a sample (every
//! [`FIT_STRIDE`]-th row of the arena's first full chunk), found by
//! [`ITERATIONS`] rounds of subspace iteration over a block of
//! [`BLOCK`] vectors from a seeded start, then a Rayleigh–Ritz step.
//! Every step runs in a fixed order, so the same rows fit the same
//! `P`. Which axes the fit finds only decides how much is pruned:
//! orthonormality, which the bound rests on, is restored in `f64` at
//! the end, and what `f32` rounding leaves of it is measured and shaded
//! for. A sample too small or too degenerate to give [`AXES`]
//! directions (a constant chunk, a rank-deficient one, non-finite
//! floats) is completed with coordinate axes.
//!
//! The bound is shaded so that it never exceeds [`crate::l2`] of the
//! two rows as computed: [`ProjectedQuery::lower_bound`] subtracts what
//! `f32` rounding can add to the projected coordinates (in proportion
//! to the norms of the rows) and scales by what `P`'s own rounding and
//! the rounding of both distances can take off, as the hybrid tree's
//! ball bound does with one relative margin. A non-finite intermediate
//! gives a bound of 0, which rejects nothing.
//!
//! Projecting rows is a register-blocked product, four rows at a time.
//! On an x86-64 CPU that reports AVX2 and FMA it runs compiled for those
//! features, with fused multiply-adds; elsewhere the same loop runs
//! unfused, about half as fast on an AVX2 host (23 chunks of 480-float
//! rows: a median 27 ms against 14). The two differ in rounding only,
//! which the shading covers: projected floats feed the bound, never a
//! reported distance.

use crate::{dot, reduce, rng::Rng};

/// Projected coordinates kept per row: 64 bytes.
pub(crate) const AXES: usize = 16;
/// Vectors the subspace iteration carries: [`AXES`] plus oversampling,
/// so the axes it keeps have converged further than the block's last.
const BLOCK: usize = 24;
/// Subspace iterations of a fit.
const ITERATIONS: usize = 3;
/// Every `FIT_STRIDE`-th row of the first full chunk is a fit sample.
const FIT_STRIDE: usize = 4;
/// Seed of the fit's start block.
const FIT_SEED: u64 = 0x09E0_7A55;
/// Absolute slack for underflow: many times what gradual underflow can
/// take off the distance root of any row width the platform stores.
const TINY: f32 = 1e-18;

/// An orthonormal projection fitted to a sample of rows.
#[derive(Debug, Clone)]
pub(crate) struct Projection {
    dim: usize,
    /// `P` transposed: `dim` runs of [`AXES`] floats. Rows of `P` past
    /// `dim` (for rows narrower than [`AXES`]) are zero.
    pt: Vec<f32>,
    /// What `f32` rounding can add to a projected distance, per unit of
    /// the two rows' norms.
    err_per_norm: f32,
    /// What a bound is multiplied by: `(1 − ρ) / σ`, with `σ` an upper
    /// bound on `P`'s largest singular value and `ρ` the relative
    /// rounding of the bound and of the full-width distance.
    scale: f32,
}

/// One example projected by a slab's projection
/// ([`crate::SlabView::projected`]), to bound its distance to the rows
/// of that slab ([`crate::SlabView::lower_bound`]).
#[derive(Debug, Clone)]
pub struct ProjectedQuery {
    coords: [f32; AXES],
    /// The example's share of the slack, plus [`TINY`].
    slack: f32,
    err_per_norm: f32,
    scale: f32,
}

/// The projected floats of every row of one chunk, and an upper bound
/// on the rows' norms (their share of the slack).
#[derive(Debug, Clone)]
pub(crate) struct Column {
    coords: Vec<f32>,
    norm_max: f32,
}

impl Column {
    /// Bytes the column holds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.coords[..]) + std::mem::size_of::<Self>()
    }
}

impl Projection {
    /// Fits the top principal axes of every [`FIT_STRIDE`]-th row of
    /// `rows` (row-major, `dim` floats each).
    ///
    /// # Panics
    ///
    /// Panics when `dim` is 0 or `rows` is not whole rows.
    pub(crate) fn fit(rows: &[f32], dim: usize) -> Self {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows of {dim} floats"
        );
        let sample: Vec<&[f32]> = rows.chunks_exact(dim).step_by(FIT_STRIDE).collect();
        let n = sample.len();
        let block = BLOCK.min(dim);

        // The axes of the sample's spread, not of its mean: every
        // product below is taken with the centred rows X − 1μᵀ, as
        // X V − 1 (μᵀ V), without a centred copy of X.
        let mut mean = vec![0.0f64; dim];
        for row in &sample {
            for (m, &x) in mean.iter_mut().zip(row.iter()) {
                *m += f64::from(x);
            }
        }
        let mean: Vec<f32> = mean.iter().map(|m| (m / n.max(1) as f64) as f32).collect();
        let centred_product = |basis: &[Vec<f64>], y: &mut Vec<f32>| {
            let v = transposed(basis, dim);
            project::<BLOCK>(&v, &sample, y);
            let mut shift = [0.0f32; BLOCK];
            project::<BLOCK>(&v, &[&mean], &mut shift);
            for yr in y.chunks_exact_mut(BLOCK) {
                for (y, s) in yr.iter_mut().zip(&shift) {
                    *y -= s;
                }
            }
        };

        let mut rng = Rng::seed_from_u64(FIT_SEED);
        let mut basis: Vec<Vec<f64>> = (0..block)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
            .collect();
        orthonormalize(&mut basis, dim);
        let mut y = vec![0.0f32; n * BLOCK];
        for _ in 0..ITERATIONS {
            // V ← orth(Xᵀ (X − 1μᵀ) V): the columns of the centred
            // product sum to zero, so Xᵀ stands in for (X − 1μᵀ)ᵀ.
            centred_product(&basis, &mut y);
            let mut w = vec![0.0f32; dim * BLOCK];
            accumulate(&sample, &y, &mut w);
            for (c, v) in basis.iter_mut().enumerate() {
                for (j, x) in v.iter_mut().enumerate() {
                    *x = f64::from(w[j * BLOCK + c]);
                }
            }
            orthonormalize(&mut basis, dim);
        }

        // Rayleigh–Ritz: the block's best directions, in descending
        // order of the variance they hold.
        centred_product(&basis, &mut y);
        let mut h = vec![0.0f64; block * block];
        for yr in y.chunks_exact(BLOCK) {
            for a in 0..block {
                for b in a..block {
                    h[a * block + b] += f64::from(yr[a]) * f64::from(yr[b]);
                }
            }
        }
        for a in 0..block {
            for b in 0..a {
                h[a * block + b] = h[b * block + a];
            }
        }
        let (values, vectors) = jacobi_eigen(h, block);
        let mut order: Vec<usize> = (0..block).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
        let mut axes: Vec<Vec<f64>> = order[..AXES.min(dim)]
            .iter()
            .map(|&e| {
                let mut axis = vec![0.0f64; dim];
                for (c, v) in basis.iter().enumerate() {
                    let weight = vectors[c * block + e];
                    for (x, b) in axis.iter_mut().zip(v) {
                        *x += weight * b;
                    }
                }
                axis
            })
            .collect();
        orthonormalize(&mut axes, dim);

        let mut pt = vec![0.0f32; dim * AXES];
        for (a, axis) in axes.iter().enumerate() {
            for (j, &v) in axis.iter().enumerate() {
                pt[j * AXES + a] = v as f32;
            }
        }
        Self::from_transposed(pt, dim)
    }

    /// The projection whose transposed matrix is `pt`, shaded for the
    /// rounding of its own `f32` entries.
    fn from_transposed(pt: Vec<f32>, dim: usize) -> Self {
        // P Pᵀ in f64: its diagonal gives the row norms, a Gershgorin
        // row sum an upper bound on its largest eigenvalue, ‖P‖₂².
        let mut gram = [[0.0f64; AXES]; AXES];
        for run in pt.chunks_exact(AXES) {
            for (a, row) in gram.iter_mut().enumerate() {
                for (b, g) in row.iter_mut().enumerate() {
                    *g += f64::from(run[a]) * f64::from(run[b]);
                }
            }
        }
        let r_max = (0..AXES).map(|a| gram[a][a]).fold(0.0, f64::max).sqrt();
        let sigma_sq = gram
            .iter()
            .map(|row| row.iter().map(|g| g.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let sigma = (sigma_sq * (1.0 + 1e-9)).sqrt().max(f64::MIN_POSITIVE);
        let eps = f64::from(f32::EPSILON);
        // A projected coordinate is a sum of `dim` products: rounding
        // moves it by at most γ_dim · ‖p_a‖ · ‖x‖ with γ_n ≈ n·ε/2, and
        // the projected vector by √AXES times that. Twice over.
        let err_per_norm = 2.0 * (AXES as f64).sqrt() * dim as f64 * eps * r_max;
        // The bound's own arithmetic (16 squares, a sum, a root) and
        // the full-width distance's (`dim` squares, a sum, a root) are
        // relative errors; twice over again.
        let rho = (dim as f64 + 64.0) * eps;
        Self {
            dim,
            pt,
            err_per_norm: err_per_norm as f32,
            scale: ((1.0 - rho) / sigma) as f32,
        }
    }

    /// `example` projected, ready to bound rows against.
    ///
    /// # Panics
    ///
    /// Panics when `example` is not `dim` floats long.
    pub(crate) fn query(&self, example: &[f32]) -> ProjectedQuery {
        assert_eq!(example.len(), self.dim, "example of {} floats", self.dim);
        let mut coords = [0.0f32; AXES];
        project::<AXES>(&self.pt, &[example], &mut coords);
        ProjectedQuery {
            coords,
            slack: self.err_per_norm * self.norm_bound(example) + TINY,
            err_per_norm: self.err_per_norm,
            scale: self.scale,
        }
    }

    /// Every row of `rows` (row-major) projected.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is not whole rows of `dim` floats.
    pub(crate) fn column(&self, rows: &[f32]) -> Column {
        assert!(
            rows.len().is_multiple_of(self.dim),
            "rows of {} floats",
            self.dim
        );
        let rows: Vec<&[f32]> = rows.chunks_exact(self.dim).collect();
        let mut coords = vec![0.0f32; rows.len() * AXES];
        project::<AXES>(&self.pt, &rows, &mut coords);
        let norm_max = rows
            .iter()
            .map(|row| self.norm_bound(row))
            .fold(0.0, f32::max);
        Column { coords, norm_max }
    }

    /// Bytes the projection holds.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.pt[..]) + std::mem::size_of::<Self>()
    }

    /// An upper bound on `row`'s norm: its computed norm inflated by
    /// what rounding can take off it. Infinite once `row · row`
    /// overflows, and every bound that uses it is then 0.
    fn norm_bound(&self, row: &[f32]) -> f32 {
        dot(row, row).sqrt() * (1.0 + (self.dim as f32 + 2.0) * f32::EPSILON)
    }
}

impl ProjectedQuery {
    /// A lower bound on [`crate::l2`] of the example and row `i` of
    /// `column`; 0 when the bound is unknown (a non-finite float
    /// anywhere in it).
    #[inline]
    pub(crate) fn lower_bound(&self, column: &Column, i: usize) -> f32 {
        let x = &column.coords[i * AXES..(i + 1) * AXES];
        let mut acc = [0.0f32; AXES];
        for ((s, q), x) in acc.iter_mut().zip(&self.coords).zip(x) {
            let d = q - x;
            *s = d * d;
        }
        let d = reduce(acc, 0.0).sqrt();
        let bound = (d - self.slack - self.err_per_norm * column.norm_max) * self.scale;
        if bound.is_finite() {
            bound.max(0.0)
        } else {
            0.0
        }
    }
}

/// Orthonormalizes `vectors` in place, in order, by modified
/// Gram–Schmidt run twice per vector. A vector that loses nearly all of
/// itself to the ones before it, or holds a non-finite float, is
/// replaced by the coordinate axis the accepted vectors cover least, so
/// the result is orthonormal whatever went in. At most `dim` vectors.
fn orthonormalize(vectors: &mut [Vec<f64>], dim: usize) {
    // covered[j]: how much of axis j the accepted vectors span.
    let mut covered = vec![0.0f64; dim];
    for c in 0..vectors.len() {
        let (done, rest) = vectors.split_at_mut(c);
        let v = &mut rest[0];
        let before = norm(v);
        deflate(v, done);
        let after = norm(v);
        if !(before.is_finite() && after.is_finite() && after > 1e-6 * before) {
            let axis = (0..dim)
                .min_by(|&a, &b| covered[a].total_cmp(&covered[b]).then(a.cmp(&b)))
                .unwrap_or(0);
            v.iter_mut().for_each(|x| *x = 0.0);
            v[axis] = 1.0;
            deflate(v, done);
        }
        let len = norm(v);
        v.iter_mut().for_each(|x| *x /= len);
        for (cov, x) in covered.iter_mut().zip(v.iter()) {
            *cov += x * x;
        }
    }
}

/// Removes from `v` its components along the orthonormal `done`, twice.
fn deflate(v: &mut [f64], done: &[Vec<f64>]) {
    for _ in 0..2 {
        for u in done {
            let along: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
            for (x, a) in v.iter_mut().zip(u) {
                *x -= along * a;
            }
        }
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `basis` as a `dim × BLOCK` row-major matrix, zero past its length.
fn transposed(basis: &[Vec<f64>], dim: usize) -> Vec<f32> {
    let mut m = vec![0.0f32; dim * BLOCK];
    for (c, v) in basis.iter().enumerate() {
        for (j, &x) in v.iter().enumerate() {
            m[j * BLOCK + c] = x as f32;
        }
    }
    m
}

/// Eigenvalues and eigenvectors (column `e` of the row-major result) of
/// the symmetric `n × n` matrix `a`, by cyclic Jacobi rotations in a
/// fixed order until the off-diagonal mass is negligible.
fn jacobi_eigen(mut a: Vec<f64>, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    for _ in 0..64 {
        let (mut off, mut diag) = (0.0f64, 0.0f64);
        for p in 0..n {
            for q in 0..n {
                let x = a[p * n + q] * a[p * n + q];
                if p == q {
                    diag += x;
                } else {
                    off += x;
                }
            }
        }
        // A NaN anywhere stops the sweeps too.
        if off.partial_cmp(&(1e-30 * diag)) != Some(std::cmp::Ordering::Greater) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq == 0.0 {
                    continue;
                }
                let theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                let t = if theta == 0.0 {
                    1.0
                } else {
                    theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                let rotate = |m: &mut [f64], i: usize, j: usize| {
                    let (x, y) = (m[i], m[j]);
                    m[i] = c * x - s * y;
                    m[j] = s * x + c * y;
                };
                for k in 0..n {
                    rotate(&mut a, k * n + p, k * n + q);
                }
                for k in 0..n {
                    rotate(&mut a, p * n + k, q * n + k);
                }
                for k in 0..n {
                    rotate(&mut v, k * n + p, k * n + q);
                }
            }
        }
    }
    ((0..n).map(|p| a[p * n + p]).collect(), v)
}

/// `out[r][a] = Σ_j rows[r][j] · m[j][a]` for every row `r` and
/// `a < N`, where `m` is `dim × N` row-major and every row holds `dim`
/// floats.
fn project<const N: usize>(m: &[f32], rows: &[&[f32]], out: &mut [f32]) {
    debug_assert_eq!(rows.len() * N, out.len());
    #[cfg(target_arch = "x86_64")]
    if fused::detected() {
        // SAFETY: the CPU reports AVX2 and FMA, the features
        // `fused::project` is compiled for.
        return unsafe { fused::project::<N>(m, rows, out) };
    }
    project_rows::<N, false>(m, rows, out);
}

#[inline(always)]
fn madd<const FUSED: bool>(a: f32, b: f32, acc: f32) -> f32 {
    if FUSED {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Rows [`project_rows`] and [`accumulate`] take per pass.
const ROWS: usize = 4;

/// [`project`]'s loop.
#[inline(always)]
fn project_rows<const N: usize, const FUSED: bool>(m: &[f32], rows: &[&[f32]], out: &mut [f32]) {
    let m: &[[f32; N]] = as_runs(m);
    let dim = m.len();
    let mut passes = rows.chunks_exact(ROWS);
    let mut ys = out.chunks_exact_mut(ROWS * N);
    for (x, y) in passes.by_ref().zip(ys.by_ref()) {
        let x: [&[f32]; ROWS] = std::array::from_fn(|r| &x[r][..dim]);
        let mut acc = [[0.0f32; N]; ROWS];
        for (j, mj) in m.iter().enumerate() {
            for r in 0..ROWS {
                let xj = x[r][j];
                for a in 0..N {
                    acc[r][a] = madd::<FUSED>(xj, mj[a], acc[r][a]);
                }
            }
        }
        for (y, acc) in y.chunks_exact_mut(N).zip(&acc) {
            y.copy_from_slice(acc);
        }
    }
    for (x, y) in passes
        .remainder()
        .iter()
        .zip(ys.into_remainder().chunks_exact_mut(N))
    {
        let mut acc = [0.0f32; N];
        for (&xj, mj) in x.iter().zip(m) {
            for a in 0..N {
                acc[a] = madd::<FUSED>(xj, mj[a], acc[a]);
            }
        }
        y.copy_from_slice(&acc);
    }
}

/// `w[j][c] += Σ_r x[r][j] · y[r][c]`: `Xᵀ Y` for the rows `x` and the
/// [`BLOCK`]-float rows of `y`. It runs only in a fit, over a sample of
/// one chunk, so it has no fused build.
fn accumulate(x: &[&[f32]], y: &[f32], w: &mut [f32]) {
    let y: &[[f32; BLOCK]] = as_runs(y);
    let w: &mut [[f32; BLOCK]] = as_runs_mut(w);
    let dim = w.len();
    let mut passes = x.chunks_exact(ROWS);
    let mut ys = y.chunks_exact(ROWS);
    for (x, y) in passes.by_ref().zip(ys.by_ref()) {
        let x: [&[f32]; ROWS] = std::array::from_fn(|r| &x[r][..dim]);
        for (j, wj) in w.iter_mut().enumerate() {
            for r in 0..ROWS {
                let xj = x[r][j];
                for c in 0..BLOCK {
                    wj[c] += xj * y[r][c];
                }
            }
        }
    }
    for (x, yr) in passes.remainder().iter().zip(ys.remainder()) {
        for (&xj, wj) in x.iter().zip(w.iter_mut()) {
            for c in 0..BLOCK {
                wj[c] += xj * yr[c];
            }
        }
    }
}

/// `v` as runs of `N` floats (a trailing partial run is dropped).
fn as_runs<const N: usize>(v: &[f32]) -> &[[f32; N]] {
    let (runs, _) = v.as_chunks::<N>();
    runs
}

fn as_runs_mut<const N: usize>(v: &mut [f32]) -> &mut [[f32; N]] {
    let (runs, _) = v.as_chunks_mut::<N>();
    runs
}

/// The blocked product compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
mod fused {
    use super::project_rows;

    /// Whether this CPU has what the functions below are compiled for.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// [`project_rows`] with fused multiply-adds.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside code compiled for these features:
    /// the caller must know that the CPU has AVX2 and FMA ([`detected`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn project<const N: usize>(m: &[f32], rows: &[&[f32]], out: &mut [f32]) {
        project_rows::<N, true>(m, rows, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{l2, rng::for_each_case};

    fn random_rows(rng: &mut Rng, n: usize, dim: usize, scale: f32) -> Vec<f32> {
        (0..n * dim).map(|_| rng.gen_range(-scale..scale)).collect()
    }

    /// Rows spanning only `rank` directions of `dim`.
    fn low_rank_rows(rng: &mut Rng, n: usize, dim: usize, rank: usize) -> Vec<f32> {
        let dirs: Vec<Vec<f32>> = (0..rank).map(|_| random_rows(rng, 1, dim, 1.0)).collect();
        let mut rows = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let mut row = vec![0.0f32; dim];
            for d in &dirs {
                let w = rng.gen_range(-2.0f32..2.0);
                for (x, &v) in row.iter_mut().zip(d) {
                    *x += w * v;
                }
            }
            rows.extend(row);
        }
        rows
    }

    /// The rows every bound is checked on: random ones at three scales,
    /// zero, subnormal, 1e18-scale, and copies of the example.
    fn probe_rows(rng: &mut Rng, dim: usize, example: &[f32]) -> Vec<f32> {
        let mut rows = random_rows(rng, 6, dim, 1.0);
        rows.extend(random_rows(rng, 2, dim, 1e-3));
        rows.extend(random_rows(rng, 2, dim, 40.0));
        rows.extend(vec![0.0f32; dim]);
        rows.extend((0..dim).map(|_| f32::from_bits(rng.gen_range(1u32..0x007f_ffff))));
        rows.extend(random_rows(rng, 1, dim, 1e18));
        rows.extend_from_slice(example);
        let mut near = example.to_vec();
        near[rng.gen_range(0..dim)] += 1e-6;
        rows.extend(near);
        rows
    }

    /// The shaded bound never exceeds `l2` as computed, at widths below,
    /// at and far above [`AXES`]: for projections fitted from random,
    /// constant and rank-deficient chunks, examples of any scale
    /// (unnormalised, zero, subnormal, 1e18), and rows that are zero,
    /// subnormal, 1e18-scale or the example itself.
    #[test]
    fn shaded_bound_never_exceeds_l2() {
        let mut positive = 0;
        for_each_case(24, |case, rng| {
            for dim in [3, 8, 50, 480] {
                let chunk = match case % 4 {
                    0 => vec![0.25f32; 64 * dim],
                    1 => low_rank_rows(rng, 64, dim, 2),
                    2 => random_rows(rng, 64, dim, 1e18),
                    _ => random_rows(rng, 64, dim, 1.0),
                };
                let p = Projection::fit(&chunk, dim);
                let scale = rng.gen_range(0.01f32..100.0);
                let mut examples = vec![
                    random_rows(rng, 1, dim, 1.0),
                    random_rows(rng, 1, dim, scale),
                    vec![0.0f32; dim],
                    vec![f32::from_bits(1); dim],
                    random_rows(rng, 1, dim, 1e18),
                ];
                examples.push(chunk[..dim].to_vec());
                for example in &examples {
                    let q = p.query(example);
                    for rows in [probe_rows(rng, dim, example), chunk.clone()] {
                        let column = p.column(&rows);
                        for (i, row) in rows.chunks_exact(dim).enumerate() {
                            let bound = q.lower_bound(&column, i);
                            let d = l2(example, row);
                            assert!(
                                bound <= d,
                                "case {case}, dim {dim}, row {i}: bound {bound} > l2 {d}"
                            );
                            if bound > 0.0 {
                                positive += 1;
                            }
                        }
                    }
                }
            }
        });
        assert!(positive > 1000, "the bound is vacuous: {positive} positive");
    }

    /// The fit is a pure function of the rows, its axes are orthonormal
    /// to `f32` precision, and its shading stays close to 1.
    #[test]
    fn a_fit_is_deterministic_and_orthonormal() {
        let mut rng = Rng::seed_from_u64(5);
        for dim in [3, 8, 50, 480] {
            for rows in [
                random_rows(&mut rng, 300, dim, 1.0),
                vec![1.5f32; 300 * dim],
                low_rank_rows(&mut rng, 300, dim, 3),
                vec![f32::NAN; 4 * dim],
                Vec::new(),
            ] {
                let p = Projection::fit(&rows, dim);
                let again = Projection::fit(&rows, dim);
                let bits = |p: &Projection| p.pt.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&p), bits(&again), "dim {dim}");
                for a in 0..AXES {
                    for b in 0..AXES {
                        let g: f64 = (0..dim)
                            .map(|j| f64::from(p.pt[j * AXES + a]) * f64::from(p.pt[j * AXES + b]))
                            .sum();
                        let want = if a == b && a < dim { 1.0 } else { 0.0 };
                        assert!((g - want).abs() < 1e-6, "dim {dim}: G[{a}][{b}] = {g}");
                    }
                }
                assert!(p.scale > 0.999 && p.scale <= 1.0, "dim {dim}: {}", p.scale);
            }
        }
    }

    /// Rows spread over few directions are bounded almost to their
    /// distance: the fit finds the spread.
    #[test]
    fn the_fit_finds_where_the_rows_spread() {
        let mut rng = Rng::seed_from_u64(9);
        let dim = 480;
        let mut rows = low_rank_rows(&mut rng, 1024, dim, 12);
        for x in &mut rows {
            *x += rng.gen_range(-1e-3f32..1e-3);
        }
        let p = Projection::fit(&rows, dim);
        let column = p.column(&rows);
        let q = p.query(&rows[..dim]);
        for i in 1..100 {
            let d = l2(&rows[..dim], &rows[i * dim..(i + 1) * dim]);
            let bound = q.lower_bound(&column, i);
            assert!(bound > 0.95 * d, "row {i}: bound {bound} of {d}");
        }
    }

    /// The blocked product agrees with a plain dot per axis, fused and
    /// plain, blocks of four rows and the rows after them alike. And
    /// [`project`] takes the fused build exactly when the CPU reports
    /// AVX2 and FMA: the two builds round differently on these rows, so
    /// its bits tell which one ran.
    #[test]
    fn the_blocked_product_is_a_dot_per_axis_fused_where_the_cpu_allows() {
        let mut rng = Rng::seed_from_u64(3);
        let dim = 50;
        let m = random_rows(&mut rng, dim, AXES, 1.0);
        let flat = random_rows(&mut rng, 7, dim, 1.0);
        let rows: Vec<&[f32]> = flat.chunks_exact(dim).collect();
        let run = |f: fn(&[f32], &[&[f32]], &mut [f32])| {
            let mut out = vec![0.0f32; rows.len() * AXES];
            f(&m, &rows, &mut out);
            out
        };
        let with_fma = run(project_rows::<AXES, true>);
        let without = run(project_rows::<AXES, false>);
        for (r, row) in rows.iter().enumerate() {
            for a in 0..AXES {
                let column: Vec<f32> = (0..dim).map(|j| m[j * AXES + a]).collect();
                let want = dot(row, &column);
                for got in [with_fma[r * AXES + a], without[r * AXES + a]] {
                    assert!(
                        (got - want).abs() < 1e-4,
                        "row {r}, axis {a}: {got} vs {want}"
                    );
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_ne!(bits(&with_fma), bits(&without), "the builds round alike");
        #[cfg(target_arch = "x86_64")]
        let host_fuses = fused::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let host_fuses = false;
        let want = if host_fuses { with_fma } else { without };
        assert_eq!(bits(&run(project::<AXES>)), bits(&want));
    }
}
