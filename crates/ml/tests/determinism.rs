//! Thread-count independence of every pooled training path.
//!
//! The work pool's contract is that parallelism is a latency knob, not a
//! semantics knob: fitting on one worker and on many must produce
//! bit-identical models and scores.

use tvdp_kernel::rng::Rng;
use tvdp_kernel::Pool;
use tvdp_ml::eval::cross_validate_with_pool;
use tvdp_ml::{Classifier, Dataset, KMeans, KnnClassifier, RandomForest};

/// Clustered data big enough (`n * k * dim` well above the parallel
/// cut-over) that the pooled assignment path actually runs.
fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let centre = (i % 4) as f32 * 3.0;
            (0..dim)
                .map(|_| centre + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect()
}

fn labelled(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
    let x = clustered(n, dim, seed);
    let y = (0..n).map(|i| i % 4).collect();
    (x, y)
}

#[test]
fn kmeans_identical_across_thread_counts() {
    let data = clustered(2048, 8, 11);
    let serial = KMeans::fit_with_pool(&data, 8, 25, 3, &Pool::serial());
    for threads in [2, 4, 7] {
        let pooled = KMeans::fit_with_pool(&data, 8, 25, 3, &Pool::new(threads));
        // `Debug` prints each centroid float in its shortest round-trip
        // form, so equal text means bit-identical centroids.
        assert_eq!(
            format!("{serial:?}"),
            format!("{pooled:?}"),
            "{threads} threads"
        );
    }
}

#[test]
fn random_forest_identical_across_thread_counts() {
    let (x, y) = labelled(300, 6, 5);
    let probe = clustered(40, 6, 99);
    let mut serial = RandomForest::new(12, 77).with_pool_threads(1);
    serial.fit(&x, &y, 4);
    for threads in [2, 4, 8] {
        let mut pooled = RandomForest::new(12, 77).with_pool_threads(threads);
        pooled.fit(&x, &y, 4);
        for row in &probe {
            assert_eq!(
                serial.decision_scores(row),
                pooled.decision_scores(row),
                "{threads} threads"
            );
        }
    }
}

#[test]
fn cross_validate_identical_across_thread_counts() {
    let (x, y) = labelled(400, 5, 8);
    let data = Dataset::new(x, y, 4);
    let serial = cross_validate_with_pool(&data, 8, 21, || KnnClassifier::new(3), &Pool::serial());
    for threads in [2, 5] {
        let pooled =
            cross_validate_with_pool(&data, 8, 21, || KnnClassifier::new(3), &Pool::new(threads));
        assert_eq!(serial.fold_f1, pooled.fold_f1, "{threads} threads");
        assert_eq!(serial.fold_accuracy, pooled.fold_accuracy);
    }
}
