//! Property-based tests of ML substrate invariants.

use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_ml::{argmax, ConfusionMatrix, GaussianNb, KnnClassifier, LinearSvm, StandardScaler};
use tvdp_ml::{kfold_indices, Classifier};

const CASES: u64 = 256;

fn labels_and_preds(rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
    let n = rng.gen_range(1..100);
    let mut labels = || (0..n).map(|_| rng.gen_range(0..4)).collect();
    (labels(), labels())
}

fn floats(rng: &mut Rng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-bound..bound)).collect()
}

#[test]
fn confusion_metrics_in_unit_interval() {
    for_each_case(CASES, |_, rng| {
        let (truth, pred) = labels_and_preds(rng);
        let cm = ConfusionMatrix::from_predictions(&truth, &pred, 4);
        assert!((0.0..=1.0).contains(&cm.accuracy()));
        assert!((0.0..=1.0).contains(&cm.macro_f1()));
        for c in 0..4 {
            assert!((0.0..=1.0).contains(&cm.precision(c)));
            assert!((0.0..=1.0).contains(&cm.recall(c)));
            assert!((0.0..=1.0).contains(&cm.f1(c)));
        }
        assert_eq!(cm.total() as usize, truth.len());
    });
}

#[test]
fn f1_between_min_and_max_of_p_r() {
    for_each_case(CASES, |_, rng| {
        let (truth, pred) = labels_and_preds(rng);
        let cm = ConfusionMatrix::from_predictions(&truth, &pred, 4);
        for c in 0..4 {
            let p = cm.precision(c);
            let r = cm.recall(c);
            let f = cm.f1(c);
            assert!(f <= p.max(r) + 1e-12);
            assert!(f >= 0.0);
            // Harmonic mean never exceeds arithmetic mean.
            assert!(f <= (p + r) / 2.0 + 1e-12);
        }
    });
}

#[test]
fn kfold_validation_sets_partition() {
    for_each_case(CASES, |_, rng| {
        let n = rng.gen_range(10usize..200);
        let k = rng.gen_range(2usize..8);
        let seed = rng.gen_range(0u64..100);
        let folds = kfold_indices(n, k, seed);
        let mut all: Vec<usize> = folds.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn scaler_output_is_finite() {
    for_each_case(CASES, |_, rng| {
        let rows: Vec<Vec<f32>> = (0..rng.gen_range(2..30))
            .map(|_| floats(rng, 4, 100.0))
            .collect();
        let scaler = StandardScaler::fit(&rows);
        let t = scaler.transform(&rows);
        assert!(t.iter().flatten().all(|v| v.is_finite()));
    });
}

#[test]
fn classifiers_predict_within_label_space() {
    for_each_case(CASES, |_, rng| {
        let seed = rng.gen_range(0u64..50);
        // Two tight blobs; every classifier must emit labels in range and
        // classify its own training data mostly correctly.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let jitter = ((i * 31 + seed as usize) % 11) as f32 * 0.01;
            x.push(vec![jitter, jitter]);
            y.push(0);
            x.push(vec![5.0 + jitter, 5.0 - jitter]);
            y.push(1);
        }
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(KnnClassifier::new(3)),
            Box::new(GaussianNb::new()),
            Box::new(LinearSvm::new()),
        ];
        for mut m in models {
            m.fit(&x, &y, 2);
            for row in &x {
                let p = m.predict_one(row);
                assert!(p < 2);
            }
            let scores = m.decision_scores(&x[0]);
            assert_eq!(scores.len(), 2);
            assert_eq!(argmax(&scores), m.predict_one(&x[0]));
        }
    });
}
