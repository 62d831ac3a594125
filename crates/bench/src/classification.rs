//! Figures 6 and 7: street-cleanliness classification.
//!
//! Reproduces the paper's protocol: 80/20 stratified split, feature
//! extraction per family (HSV color histogram 20/20/10, SIFT-BoW with a
//! k-means dictionary built on the training split, CNN embedding),
//! standard scaling fitted on train only, then one classifier per cell of
//! the (feature × classifier) matrix, scored by macro F1 on the held-out
//! 20% (Fig. 6). Fig. 7 reports per-category F1 for the winning
//! combination (SVM + CNN in the paper).

use tvdp_datagen::{generate, CleanlinessClass, DatasetConfig};
use tvdp_ml::data::stratified_split;
use tvdp_ml::{cross_validate, Dataset};
use tvdp_ml::{
    Classifier, ConfusionMatrix, DecisionTree, GaussianNb, KnnClassifier, LinearSvm, Mlp,
    MlpParams, RandomForest, StandardScaler,
};
use tvdp_vision::{
    BowEncoder, CnnExtractor, ColorHistogramExtractor, FeatureExtractor, FeatureKind, SiftExtractor,
};

/// Configuration shared by the Fig. 6 and Fig. 7 experiments.
#[derive(Debug, Clone)]
pub struct ClassificationConfig {
    /// Dataset size (paper: 22_000; default scaled down for speed).
    pub n_images: usize,
    /// Image edge length in pixels.
    pub image_size: usize,
    /// SIFT-BoW vocabulary size (paper: 1000).
    pub bow_vocabulary: usize,
    /// Train fraction (paper: 0.8).
    pub train_fraction: f64,
    /// Hidden width of the CNN fine-tuning head.
    pub head_hidden: usize,
    /// Training epochs of the CNN fine-tuning head.
    pub head_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        Self {
            n_images: 3000,
            image_size: 64,
            bow_vocabulary: 128,
            train_fraction: 0.8,
            head_hidden: 96,
            head_epochs: 100,
            seed: 0xF166,
        }
    }
}

/// One cell of the Fig. 6 matrix.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// Feature family label (paper x-axis grouping).
    pub feature: String,
    /// Classifier label.
    pub classifier: String,
    /// Macro F1 on the held-out split.
    pub f1: f64,
    /// Accuracy on the held-out split.
    pub accuracy: f64,
}

/// The full Fig. 6 matrix.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All (feature, classifier) cells.
    pub cells: Vec<Fig6Cell>,
}

impl Fig6Result {
    /// F1 for one (feature, classifier) pair.
    pub fn f1(&self, feature: &str, classifier: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.feature == feature && c.classifier == classifier)
            .map(|c| c.f1)
    }

    /// The best cell overall.
    pub fn best(&self) -> &Fig6Cell {
        self.cells
            .iter()
            .max_by(|a, b| a.f1.total_cmp(&b.f1))
            // tvdp-lint: allow(no_panic, reason = "experiment driver: aborting on a malformed setup is intended")
            .expect("non-empty result")
    }

    /// Mean F1 across classifiers for one feature family.
    pub fn mean_f1_for_feature(&self, feature: &str) -> f64 {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.feature == feature)
            .map(|c| c.f1)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    }
}

/// Per-category F1 for the winning combination (Fig. 7).
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// `(class label, precision, recall, f1)` per cleanliness category.
    pub per_class: Vec<(String, f64, f64, f64)>,
    /// Macro F1 of the winning combination.
    pub macro_f1: f64,
}

/// The paper's model-selection protocol: "all classifiers were trained on
/// 80% of the dataset using 10-fold cross-validation". This runs k-fold
/// CV of the SVM on the training split per feature family, the numbers a
/// practitioner would use to pick the winning combination before the
/// Fig. 6 held-out evaluation.
#[derive(Debug, Clone)]
pub struct CvProtocolResult {
    /// Per feature family: `(label, mean F1 across folds, std of F1)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Folds used.
    pub folds: usize,
}

/// Runs the k-fold cross-validation protocol on the training split.
pub fn run_cv_protocol(config: &ClassificationConfig, folds: usize) -> CvProtocolResult {
    let (splits, train_y, _) = prepare(config);
    let mut rows = Vec::new();
    for split in &splits {
        let scaler = StandardScaler::fit(&split.train_x);
        let train_x = scaler.transform(&split.train_x);
        let data = Dataset::new(train_x, train_y.clone(), 5);
        let result = cross_validate(&data, folds, config.seed, LinearSvm::new);
        rows.push((
            split.kind.label().to_string(),
            result.mean_f1(),
            result.std_f1(),
        ));
    }
    CvProtocolResult { rows, folds }
}

/// Extracted features for train/test splits of one feature family.
struct FeatureSplit {
    kind: FeatureKind,
    train_x: Vec<Vec<f32>>,
    test_x: Vec<Vec<f32>>,
}

/// Shared pipeline: generate data, split, extract all three feature
/// families.
fn prepare(config: &ClassificationConfig) -> (Vec<FeatureSplit>, Vec<usize>, Vec<usize>) {
    let data = generate(&DatasetConfig {
        n_images: config.n_images,
        image_size: config.image_size,
        seed: config.seed,
        ..Default::default()
    });
    let labels: Vec<usize> = data.iter().map(|d| d.cleanliness.index()).collect();
    let (train_idx, test_idx) = stratified_split(&labels, 5, config.train_fraction, config.seed);

    let mut splits = Vec::new();

    // Color histogram (paper: HSV 20/20/10).
    let color = ColorHistogramExtractor::paper_default();
    splits.push(extract_split(&data, &train_idx, &test_idx, &color));

    // SIFT-BoW: dictionary from the training split only, as in the paper.
    let train_images: Vec<tvdp_vision::Image> =
        train_idx.iter().map(|&i| data[i].image.clone()).collect();
    let bow = BowEncoder::train(
        &train_images,
        SiftExtractor::new(),
        config.bow_vocabulary,
        config.seed,
    );
    splits.push(extract_split(&data, &train_idx, &test_idx, &bow));

    // CNN embedding, fine-tuned on the training split: the paper
    // fine-tunes its Caffe network on 80% of the data before extracting
    // features. We reproduce that by training an MLP head on the
    // random-convolution embedding (train split only) and using its
    // hidden activations as the CNN feature vector.
    let cnn = CnnExtractor::new();
    let raw = extract_split(&data, &train_idx, &test_idx, &cnn);
    let scaler = StandardScaler::fit(&raw.train_x);
    let train_scaled = scaler.transform(&raw.train_x);
    let test_scaled = scaler.transform(&raw.test_x);
    let train_y_tmp: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let mut head = Mlp::with_params(MlpParams {
        hidden: config.head_hidden,
        epochs: config.head_epochs,
        seed: config.seed,
        ..Default::default()
    });
    head.fit(&train_scaled, &train_y_tmp, 5);
    splits.push(FeatureSplit {
        kind: FeatureKind::Cnn,
        train_x: train_scaled
            .iter()
            .map(|r| head.hidden_activations(r))
            .collect(),
        test_x: test_scaled
            .iter()
            .map(|r| head.hidden_activations(r))
            .collect(),
    });

    let train_y: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let test_y: Vec<usize> = test_idx.iter().map(|&i| labels[i]).collect();
    (splits, train_y, test_y)
}

fn extract_split(
    data: &[tvdp_datagen::SyntheticImage],
    train_idx: &[usize],
    test_idx: &[usize],
    extractor: &dyn FeatureExtractor,
) -> FeatureSplit {
    let train_x: Vec<Vec<f32>> = train_idx
        .iter()
        .map(|&i| extractor.extract(&data[i].image))
        .collect();
    let test_x: Vec<Vec<f32>> = test_idx
        .iter()
        .map(|&i| extractor.extract(&data[i].image))
        .collect();
    FeatureSplit {
        kind: extractor.kind(),
        train_x,
        test_x,
    }
}

fn classifier_roster(seed: u64) -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(KnnClassifier::new(5).weighted()),
        Box::new(DecisionTree::new()),
        Box::new(GaussianNb::new()),
        Box::new(RandomForest::new(25, seed)),
        Box::new(LinearSvm::new()),
    ]
}

/// Runs the Fig. 6 experiment: the (feature × classifier) F1 matrix.
pub fn run_fig6(config: &ClassificationConfig) -> Fig6Result {
    let (splits, train_y, test_y) = prepare(config);
    let mut cells = Vec::new();
    for split in &splits {
        let scaler = StandardScaler::fit(&split.train_x);
        let train_x = scaler.transform(&split.train_x);
        let test_x = scaler.transform(&split.test_x);
        for mut model in classifier_roster(config.seed) {
            model.fit(&train_x, &train_y, 5);
            let preds = model.predict(&test_x);
            let cm = ConfusionMatrix::from_predictions(&test_y, &preds, 5);
            cells.push(Fig6Cell {
                feature: split.kind.label().to_string(),
                classifier: model.name().to_string(),
                f1: cm.macro_f1(),
                accuracy: cm.accuracy(),
            });
        }
    }
    Fig6Result { cells }
}

/// Runs the Fig. 7 experiment: per-category F1 of SVM + CNN.
pub fn run_fig7(config: &ClassificationConfig) -> Fig7Result {
    let (splits, train_y, test_y) = prepare(config);
    let cnn = splits
        .iter()
        .find(|s| s.kind == FeatureKind::Cnn)
        // tvdp-lint: allow(no_panic, reason = "experiment driver: aborting on a malformed setup is intended")
        .expect("CNN split present");
    let scaler = StandardScaler::fit(&cnn.train_x);
    let train_x = scaler.transform(&cnn.train_x);
    let test_x = scaler.transform(&cnn.test_x);
    let mut svm = LinearSvm::new();
    svm.fit(&train_x, &train_y, 5);
    let preds = svm.predict(&test_x);
    let cm = ConfusionMatrix::from_predictions(&test_y, &preds, 5);
    let per_class = CleanlinessClass::ALL
        .iter()
        .map(|c| {
            let i = c.index();
            (
                c.label().to_string(),
                cm.precision(i),
                cm.recall(i),
                cm.f1(i),
            )
        })
        .collect();
    Fig7Result {
        per_class,
        macro_f1: cm.macro_f1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ClassificationConfig {
        ClassificationConfig {
            n_images: 80,
            image_size: 32,
            bow_vocabulary: 12,
            head_hidden: 16,
            head_epochs: 10,
            ..Default::default()
        }
    }

    #[test]
    fn fig6_produces_full_matrix() {
        let result = run_fig6(&tiny_config());
        assert_eq!(result.cells.len(), 15, "3 features x 5 classifiers");
        for cell in &result.cells {
            assert!((0.0..=1.0).contains(&cell.f1), "{cell:?}");
            assert!((0.0..=1.0).contains(&cell.accuracy));
        }
        // All three feature families present.
        for f in ["Color Histogram", "SIFT-BoW", "CNN"] {
            assert!(result.cells.iter().any(|c| c.feature == f));
        }
    }

    #[test]
    fn fig7_reports_all_five_categories() {
        let result = run_fig7(&tiny_config());
        assert_eq!(result.per_class.len(), 5);
        assert!((0.0..=1.0).contains(&result.macro_f1));
    }
}

#[cfg(test)]
mod cv_tests {
    use super::*;

    #[test]
    fn cv_protocol_reports_all_families() {
        let config = ClassificationConfig {
            n_images: 80,
            image_size: 32,
            bow_vocabulary: 12,
            head_hidden: 16,
            head_epochs: 10,
            ..Default::default()
        };
        let cv = run_cv_protocol(&config, 3);
        assert_eq!(cv.folds, 3);
        assert_eq!(cv.rows.len(), 3);
        for (feature, mean, std) in &cv.rows {
            assert!(!feature.is_empty());
            assert!((0.0..=1.0).contains(mean), "{feature}: mean {mean}");
            assert!(*std >= 0.0);
        }
    }
}
