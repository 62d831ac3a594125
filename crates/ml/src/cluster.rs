//! k-means clustering (k-means++ initialization, Lloyd iterations).
//!
//! Used to build the SIFT-BoW visual dictionary (the paper clusters SIFT
//! key points into 1000 visual words with k-means).

use tvdp_kernel::rng::Rng;
use tvdp_kernel::Pool;

use crate::sq_l2;

/// Below this many distance evaluations per Lloyd iteration
/// (`rows * k * dim`), the assignment step runs inline: thread spawn
/// overhead would dominate. The cut-over is a latency knob only — the
/// parallel assignment is bitwise identical to the serial one.
const PARALLEL_ASSIGN_FLOPS: usize = 1 << 15;

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vec<Vec<f32>>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Clusters `data` into `k` groups. Deterministic under `seed`
    /// regardless of thread count — see [`KMeans::fit_with_pool`].
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty, `k == 0`, or `k > data.len()`.
    pub fn fit(data: &[Vec<f32>], k: usize, max_iter: usize, seed: u64) -> Self {
        Self::fit_with_pool(data, k, max_iter, seed, Pool::global())
    }

    /// [`KMeans::fit`] with an explicit worker pool for the assignment
    /// step. Only the per-row nearest-centroid search is parallel; the
    /// inertia sum and centroid updates accumulate serially in row order,
    /// so the result is bit-identical for every thread count.
    pub fn fit_with_pool(
        data: &[Vec<f32>],
        k: usize,
        max_iter: usize,
        seed: u64,
        pool: &Pool,
    ) -> Self {
        assert!(!data.is_empty(), "empty input");
        assert!(k >= 1, "k must be positive");
        assert!(k <= data.len(), "k {k} > samples {}", data.len());
        let dim = data[0].len();
        assert!(data.iter().all(|r| r.len() == dim), "ragged rows");

        let parallel = data.len() * k * dim >= PARALLEL_ASSIGN_FLOPS;
        let mut rng = Rng::seed_from_u64(seed);
        let mut centroids = Self::kmeanspp_init(data, k, &mut rng);
        let mut assignment = vec![0usize; data.len()];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;

        for it in 0..max_iter {
            iterations = it + 1;
            // Assign: each row's nearest centroid is an independent pure
            // computation; the f64 inertia accumulation stays in row order.
            let nearest: Vec<(usize, f32)> = if parallel {
                pool.map(data, |_, row| Self::nearest(&centroids, row))
            } else {
                data.iter()
                    .map(|row| Self::nearest(&centroids, row))
                    .collect()
            };
            let mut new_inertia = 0.0f64;
            for (i, &(best, d)) in nearest.iter().enumerate() {
                assignment[i] = best;
                // tvdp-lint: allow(float_reduction, reason = "in-order loop accumulation over a fixed traversal; single-threaded, bit-stable across runs and thread counts")
                new_inertia += d as f64;
            }
            // Update.
            let mut sums = vec![vec![0.0f32; dim]; k];
            let mut counts = vec![0usize; k];
            for (row, &a) in data.iter().zip(&assignment) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(row) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random sample.
                    centroids[c] = data[rng.gen_range(0..data.len())].clone();
                } else {
                    for (cv, s) in centroids[c].iter_mut().zip(&sums[c]) {
                        *cv = s / counts[c] as f32;
                    }
                }
            }
            let converged = (inertia - new_inertia).abs() < 1e-7 * inertia.max(1.0);
            inertia = new_inertia;
            if converged {
                break;
            }
        }
        Self {
            centroids,
            inertia,
            iterations,
        }
    }

    fn kmeanspp_init(data: &[Vec<f32>], k: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
        let mut centroids = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        let mut dists: Vec<f32> = data.iter().map(|r| sq_l2(r, &centroids[0])).collect();
        while centroids.len() < k {
            // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
            let total: f64 = dists.iter().map(|&d| d as f64).sum();
            let next = if total <= 0.0 {
                rng.gen_range(0..data.len())
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = data.len() - 1;
                for (i, &d) in dists.iter().enumerate() {
                    target -= d as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            let newest = data[next].clone();
            for (d, row) in dists.iter_mut().zip(data) {
                *d = d.min(sq_l2(row, &newest));
            }
            centroids.push(newest);
        }
        centroids
    }

    fn nearest(centroids: &[Vec<f32>], row: &[f32]) -> (usize, f32) {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d = sq_l2(centroid, row);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
    }

    /// Cluster centres.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sum of squared distances to assigned centroids at convergence.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Index of the nearest centroid for `row` (BoW quantization).
    pub fn assign(&self, row: &[f32]) -> usize {
        Self::nearest(&self.centroids, row).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_blobs() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f32 * 0.01;
            data.push(vec![0.0 + j, 0.0 + j]);
            data.push(vec![10.0 + j, 0.0 - j]);
            data.push(vec![5.0 - j, 10.0 + j]);
        }
        data
    }

    #[test]
    fn recovers_blob_centres() {
        let data = three_blobs();
        let km = KMeans::fit(&data, 3, 50, 7);
        let mut found = [false; 3];
        for c in km.centroids() {
            if sq_l2(c, &[0.0, 0.0]) < 1.0 {
                found[0] = true;
            }
            if sq_l2(c, &[10.0, 0.0]) < 1.0 {
                found[1] = true;
            }
            if sq_l2(c, &[5.0, 10.0]) < 1.0 {
                found[2] = true;
            }
        }
        assert!(found.iter().all(|&f| f), "centroids {:?}", km.centroids());
    }

    #[test]
    fn assign_maps_to_own_blob() {
        let data = three_blobs();
        let km = KMeans::fit(&data, 3, 50, 7);
        let a = km.assign(&[0.1, 0.1]);
        let b = km.assign(&[9.9, 0.1]);
        let c = km.assign(&[5.0, 10.0]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = three_blobs();
        let k1 = KMeans::fit(&data, 1, 50, 3);
        let k3 = KMeans::fit(&data, 3, 50, 3);
        assert!(k3.inertia() < k1.inertia());
    }

    #[test]
    fn deterministic_under_seed() {
        let data = three_blobs();
        let a = KMeans::fit(&data, 3, 50, 11);
        let b = KMeans::fit(&data, 3, 50, 11);
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![0.0], vec![1.0], vec![2.0]];
        let km = KMeans::fit(&data, 3, 20, 0);
        assert!(km.inertia() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k")]
    fn k_larger_than_n_panics() {
        let _ = KMeans::fit(&[vec![0.0]], 2, 10, 0);
    }
}
