//! Locality-sensitive hashing with p-stable (Gaussian) projections.
//!
//! Implements the E2LSH scheme of Datar et al. (SoCG 2004, paper ref
//! \[26\]): each of `tables` hash tables hashes a vector with `hashes_per_table`
//! functions `h(v) = ⌊(a·v + b) / w⌋` where `a` has i.i.d. standard normal
//! entries and `b ~ U[0, w)`. Vectors colliding with the query in any
//! table become candidates; exact distances re-rank the candidates.
//!
//! The index stores no vector bytes: each handle maps to a `u32` row in
//! a shared [feature arena](tvdp_kernel::arena), and re-ranking resolves
//! rows through a [`RowSource`] (live slab or snapshot view) so exact
//! distances run on arena memory with zero copies.

use std::collections::BTreeMap;

use tvdp_kernel::rng::Rng;
use tvdp_kernel::{l2_sq, Pool, RowSource, TopK, TotalF32};

/// Below this many candidate-distance multiplications the re-rank runs
/// serially; above it, the work fans out over the global [`Pool`].
/// Serial and pooled paths are bit-identical, so the gate is purely a
/// latency knob.
const PARALLEL_RERANK_FLOPS: usize = 1 << 17;

/// LSH tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct LshConfig {
    /// Number of hash tables `L`; more tables raise recall and memory.
    pub tables: usize,
    /// Hash functions per table `k`; more hashes sharpen buckets.
    pub hashes_per_table: usize,
    /// Quantization width `w`; should be on the order of typical
    /// nearest-neighbour distances.
    pub bucket_width: f32,
    /// Seed for projection directions and offsets.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            tables: 12,
            hashes_per_table: 8,
            bucket_width: 1.0,
            seed: 0x154,
        }
    }
}

#[derive(Debug, Clone)]
struct HashFamily {
    /// `hashes_per_table` projection vectors, flattened.
    projections: Vec<f32>,
    offsets: Vec<f32>,
    k: usize,
    dim: usize,
    width: f32,
}

impl HashFamily {
    fn new(dim: usize, k: usize, width: f32, rng: &mut Rng) -> Self {
        let projections = (0..k * dim)
            .map(|_| {
                let u1: f32 = rng.gen_range(1e-7..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        let offsets = (0..k).map(|_| rng.gen_range(0.0..width)).collect();
        Self {
            projections,
            offsets,
            k,
            dim,
            width,
        }
    }

    fn hash(&self, v: &[f32]) -> Vec<i32> {
        debug_assert_eq!(v.len(), self.dim);
        (0..self.k)
            .map(|h| {
                let proj: f32 = self.projections[h * self.dim..(h + 1) * self.dim]
                    .iter()
                    .zip(v)
                    .map(|(a, b)| a * b)
                    // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
                    .sum();
                ((proj + self.offsets[h]) / self.width).floor() as i32
            })
            .collect()
    }
}

/// An LSH index over arena feature rows with dense `usize` handles.
#[derive(Debug, Clone)]
// tvdp-lint: allow(dead_api, reason = "(c) the paper's LSH; ROADMAP item 10's bake-off against the exact visual path decides it")
pub struct LshIndex {
    dim: usize,
    families: Vec<HashFamily>,
    /// One bucket map per hash table. Ordered maps (lint rule L2) so
    /// that any future iteration over buckets is reproducible; lookups
    /// on `Vec<i32>` keys stay O(log n).
    tables: Vec<BTreeMap<Vec<i32>, Vec<usize>>>,
    /// Arena row handle per LSH handle (dense, insertion order).
    rows: Vec<u32>,
}

impl LshIndex {
    /// Creates an empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, config: LshConfig) -> Self {
        assert!(dim > 0, "zero-dimensional vectors");
        assert!(
            config.tables >= 1 && config.hashes_per_table >= 1,
            "degenerate config"
        );
        assert!(config.bucket_width > 0.0, "bucket width must be positive");
        let mut rng = Rng::seed_from_u64(config.seed);
        let families = (0..config.tables)
            .map(|_| HashFamily::new(dim, config.hashes_per_table, config.bucket_width, &mut rng))
            .collect();
        let tables = vec![BTreeMap::new(); config.tables];
        Self {
            dim,
            families,
            tables,
            rows: Vec::new(),
        }
    }

    /// Indexes arena row `row` whose values are `v`, returning its
    /// handle (dense, starting at 0). Only the hash of `v` is retained;
    /// the bytes stay in the arena.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatch.
    pub fn insert(&mut self, v: &[f32], row: u32) -> usize {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        let id = self.rows.len();
        for (family, table) in self.families.iter().zip(&mut self.tables) {
            table.entry(family.hash(v)).or_default().push(id);
        }
        self.rows.push(row);
        id
    }

    /// Candidate handles colliding with `q` in at least one table
    /// (deduplicated, unordered).
    pub fn candidates(&self, q: &[f32]) -> Vec<usize> {
        assert_eq!(q.len(), self.dim, "dimension mismatch");
        let mut seen = vec![false; self.rows.len()];
        let mut out = Vec::new();
        for (family, table) in self.families.iter().zip(&self.tables) {
            if let Some(bucket) = table.get(&family.hash(q)) {
                for &id in bucket {
                    if !seen[id] {
                        seen[id] = true;
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Squared distances from `q` to each handle in `ids`, in order.
    /// Fans out over the global pool when the work is large enough to
    /// amortize it; the pooled path is bit-identical to the serial one.
    fn rerank_sq(&self, rows: &(impl RowSource + Sync), q: &[f32], ids: &[usize]) -> Vec<f32> {
        if ids.len() * self.dim < PARALLEL_RERANK_FLOPS {
            ids.iter()
                .map(|&id| l2_sq(q, rows.row(self.rows[id])))
                .collect()
        } else {
            Pool::global().map(ids, |_, &id| l2_sq(q, rows.row(self.rows[id])))
        }
    }

    /// Selects the `k` smallest `(d_sq, id)` pairs — the bounded-heap
    /// replacement for sort-everything-then-truncate — and converts the
    /// survivors to reported (rooted) distances.
    fn select_k(d_sq: Vec<f32>, ids: Vec<usize>, k: usize) -> Vec<(f32, usize)> {
        let mut top = TopK::new(k);
        top.extend(d_sq.into_iter().zip(ids).map(|(d, id)| (TotalF32(d), id)));
        top.into_sorted_vec()
            .into_iter()
            .map(|(TotalF32(d), id)| (d.sqrt(), id))
            .collect()
    }

    /// Approximate k-NN: exact re-ranking of the LSH candidate set.
    /// Returns `(distance, handle)` sorted ascending; may return fewer
    /// than `k` when the candidate set is small.
    ///
    /// Candidates are ranked on squared distances (monotonic, so the
    /// order is the same) through a bounded top-k heap; the square root
    /// is taken only for the `k` survivors.
    pub fn knn(&self, rows: &(impl RowSource + Sync), q: &[f32], k: usize) -> Vec<(f32, usize)> {
        let ids = self.candidates(q);
        let d_sq = self.rerank_sq(rows, q, &ids);
        Self::select_k(d_sq, ids, k)
    }

    /// Exact linear-scan k-NN over all stored vectors (the recall
    /// tests' ground truth).
    #[cfg(test)]
    fn knn_exact(&self, rows: &(impl RowSource + Sync), q: &[f32], k: usize) -> Vec<(f32, usize)> {
        let ids: Vec<usize> = (0..self.rows.len()).collect();
        let d_sq = self.rerank_sq(rows, q, &ids);
        Self::select_k(d_sq, ids, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_kernel::FeatureSlab;

    fn clustered_vectors(n_clusters: usize, per_cluster: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from_u64(99);
        let mut out = Vec::new();
        for c in 0..n_clusters {
            let center: Vec<f32> = (0..dim).map(|d| ((c * 7 + d) % 5) as f32 * 2.0).collect();
            for _ in 0..per_cluster {
                out.push(
                    center
                        .iter()
                        .map(|&v| v + rng.gen_range(-0.1..0.1))
                        .collect(),
                );
            }
        }
        out
    }

    fn indexed(vectors: &[Vec<f32>], dim: usize, config: LshConfig) -> (LshIndex, FeatureSlab) {
        let mut idx = LshIndex::new(dim, config);
        let mut slab = FeatureSlab::new(dim);
        for v in vectors {
            let row = slab.push(v);
            idx.insert(v, row);
        }
        (idx, slab)
    }

    #[test]
    fn exact_duplicate_always_found() {
        let vectors = clustered_vectors(4, 10, 8);
        let (idx, slab) = indexed(&vectors, 8, LshConfig::default());
        // A stored vector must collide with itself in every table.
        let cands = idx.candidates(&vectors[5]);
        assert!(cands.contains(&5));
        let knn = idx.knn(&slab, &vectors[5], 1);
        assert_eq!(knn[0].1, 5);
        assert!(knn[0].0 < 1e-6);
    }

    #[test]
    fn knn_recall_on_clustered_data() {
        let vectors = clustered_vectors(5, 20, 8);
        let (idx, slab) = indexed(&vectors, 8, LshConfig::default());
        // For each cluster representative, at least 8 of the true top-10
        // must appear in the approximate top-10 (recall >= 0.8).
        let mut total_recall = 0.0;
        let mut queries = 0;
        for q in (0..vectors.len()).step_by(20) {
            let approx: Vec<usize> = idx
                .knn(&slab, &vectors[q], 10)
                .iter()
                .map(|&(_, i)| i)
                .collect();
            let exact: Vec<usize> = idx
                .knn_exact(&slab, &vectors[q], 10)
                .iter()
                .map(|&(_, i)| i)
                .collect();
            let hit = exact.iter().filter(|i| approx.contains(i)).count();
            total_recall += hit as f64 / exact.len() as f64;
            queries += 1;
        }
        let recall = total_recall / queries as f64;
        assert!(recall >= 0.8, "recall {recall}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            indexed(
                &clustered_vectors(3, 5, 6),
                6,
                LshConfig {
                    seed: 7,
                    ..Default::default()
                },
            )
        };
        let (a, _) = mk();
        let (b, _) = mk();
        let q = vec![1.0; 6];
        assert_eq!(a.candidates(&q), b.candidates(&q));
    }

    #[test]
    fn candidates_far_smaller_than_corpus_for_sharp_config() {
        // With clustered data, a query should only collide with its own
        // cluster (plus stragglers), not the whole corpus.
        let vectors = clustered_vectors(10, 30, 8);
        let (idx, _) = indexed(&vectors, 8, LshConfig::default());
        let cands = idx.candidates(&vectors[0]);
        assert!(
            cands.len() < vectors.len() / 2,
            "candidate set too large: {} of {}",
            cands.len(),
            vectors.len()
        );
    }

    #[test]
    fn knn_matches_view_snapshot_bitwise() {
        let vectors = clustered_vectors(4, 12, 8);
        let (idx, slab) = indexed(&vectors, 8, LshConfig::default());
        let view = slab.view();
        let direct = idx.knn(&slab, &vectors[3], 7);
        let snapped = idx.knn(&view, &vectors[3], 7);
        assert_eq!(direct.len(), snapped.len());
        for ((da, ia), (db, ib)) in direct.iter().zip(&snapped) {
            assert_eq!(da.to_bits(), db.to_bits());
            assert_eq!(ia, ib);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_rejects_wrong_dim() {
        let mut idx = LshIndex::new(4, LshConfig::default());
        idx.insert(&[0.0; 5], 0);
    }
}
