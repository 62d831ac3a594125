//! **Analysis**: classifiers trained over stored features and labels,
//! and applied to write machine annotations back into the store (the
//! translational write-back).
//!
//! The service owns the model registry, the training settings and the
//! counters of the rows it writes: annotations and classification
//! schemes.

use tvdp_kernel::sync::Mutex;
use tvdp_ml::mlp::MlpParams;
use tvdp_ml::{
    Classifier, DecisionTree, GaussianNb, KnnClassifier, LinearSvm, LogisticRegression, Mlp,
    RandomForest, ScaledClassifier, SerializableModel,
};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, ImageId, ModelId,
    RegionOfInterest, UserId, VisualStore, WalOp,
};
use tvdp_vision::FeatureKind;

use crate::error::{PlatformError, WidthSetBy};
use crate::models::{ModelInterface, ModelRegistry};
use crate::platform::{take_id, Tvdp};

/// Training algorithms a participant can pick when devising a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// k-nearest neighbours with the given `k`.
    Knn(usize),
    /// CART decision tree.
    DecisionTree,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Random forest with the given tree count.
    RandomForest(usize),
    /// Linear SVM (the paper's best performer).
    Svm,
    /// Multinomial logistic regression.
    LogisticRegression,
    /// Single-hidden-layer MLP.
    Mlp,
}

impl Algorithm {
    fn build(self, seed: u64) -> SerializableModel {
        // Scale-sensitive algorithms train behind a standardization
        // pipeline fitted on the training split; every variant is
        // portable (downloadable through the API).
        match self {
            Algorithm::Knn(k) => {
                SerializableModel::Knn(ScaledClassifier::new(KnnClassifier::new(k).weighted()))
            }
            Algorithm::DecisionTree => SerializableModel::DecisionTree(DecisionTree::new()),
            Algorithm::NaiveBayes => SerializableModel::NaiveBayes(GaussianNb::new()),
            Algorithm::RandomForest(n) => {
                SerializableModel::RandomForest(RandomForest::new(n, seed))
            }
            Algorithm::Svm => SerializableModel::Svm(ScaledClassifier::new(LinearSvm::new())),
            Algorithm::LogisticRegression => SerializableModel::LogisticRegression(
                ScaledClassifier::new(LogisticRegression::new()),
            ),
            Algorithm::Mlp => {
                SerializableModel::Mlp(ScaledClassifier::new(Mlp::with_params(MlpParams {
                    hidden: 96,
                    epochs: 80,
                    seed,
                    ..Default::default()
                })))
            }
        }
    }
}

/// The Analysis service's state.
pub(crate) struct Analysis {
    models: ModelRegistry,
    min_training_samples: usize,
    seed: u64,
    next_annotation: Mutex<u64>,
    next_scheme: Mutex<u64>,
}

impl Analysis {
    /// An empty registry whose annotation and scheme ids continue from
    /// `store`'s.
    pub(crate) fn new(store: &VisualStore, min_training_samples: usize, seed: u64) -> Self {
        Self {
            models: ModelRegistry::new(),
            min_training_samples,
            seed,
            next_annotation: Mutex::new(store.peek_next_annotation_id().0),
            next_scheme: Mutex::new(store.peek_next_classification_id().0),
        }
    }

    fn alloc_annotation_id(&self) -> AnnotationId {
        AnnotationId(take_id(&self.next_annotation))
    }
}

impl Tvdp {
    /// The model registry.
    pub fn models(&self) -> &ModelRegistry {
        &self.analysis.models
    }

    /// Registers a classification scheme (a labelling task).
    pub fn register_scheme(
        &self,
        name: impl Into<String>,
        labels: Vec<String>,
    ) -> Result<ClassificationId, PlatformError> {
        let id = ClassificationId(take_id(&self.analysis.next_scheme));
        let op = WalOp::RegisterScheme {
            id,
            name: name.into(),
            labels,
        };
        self.commit(vec![op])?;
        Ok(id)
    }

    /// Records a human annotation with the annotator's own `confidence`
    /// in `[0, 1]` (a plain label is certain: 1.0), on the whole image
    /// or on `region` of it.
    pub fn annotate(
        &self,
        user: UserId,
        image: ImageId,
        scheme: ClassificationId,
        label: usize,
        confidence: f32,
        region: Option<RegionOfInterest>,
    ) -> Result<AnnotationId, PlatformError> {
        self.require_user(user)?;
        if !self.store.contains(image) {
            return Err(PlatformError::UnknownImage(image));
        }
        let id = self.analysis.alloc_annotation_id();
        let op = WalOp::Annotate(Annotation {
            id,
            image,
            classification: scheme,
            label,
            confidence,
            source: AnnotationSource::Human(user),
            region,
        });
        self.commit(vec![op])?;
        Ok(id)
    }

    /// **Analysis**: trains a classifier on every stored image that has
    /// both a feature of `feature_kind` and a (sufficiently confident)
    /// annotation under `scheme`, then registers it. Rows of two widths
    /// (features extracted under two extractor configurations) are
    /// refused with [`PlatformError::FeatureWidth`].
    pub fn train_model(
        &self,
        user: UserId,
        name: impl Into<String>,
        scheme: ClassificationId,
        feature_kind: FeatureKind,
        algorithm: Algorithm,
    ) -> Result<ModelId, PlatformError> {
        self.require_user(user)?;
        let store = &self.store;
        let scheme_row = store
            .scheme(scheme)
            .ok_or(PlatformError::UnknownScheme(scheme))?;
        let n_classes = scheme_row.labels.len();
        // In ascending id order, so the training set order — and with it
        // every seeded algorithm's output — is the upload order.
        let mut features: Vec<Vec<f32>> = Vec::new();
        let mut labels = Vec::new();
        for image in store.images_with_feature(feature_kind) {
            let anns = store.annotations_of(image);
            // Prefer human labels; fall back to the most confident
            // machine label for the scheme.
            let best = anns
                .iter()
                .filter(|a| a.classification == scheme)
                .max_by(|a, b| {
                    (a.is_human() as u8)
                        .cmp(&(b.is_human() as u8))
                        .then(a.confidence.total_cmp(&b.confidence))
                });
            if let Some(ann) = best {
                let Some(feature) = store.feature(image, feature_kind) else {
                    continue;
                };
                if let Some(first) = features.first().filter(|f| f.len() != feature.len()) {
                    return Err(PlatformError::FeatureWidth {
                        image,
                        kind: feature_kind,
                        expected: first.len(),
                        found: feature.len(),
                        set_by: WidthSetBy::Model,
                    });
                }
                features.push(feature);
                labels.push(ann.label);
            }
        }
        let needed = self.analysis.min_training_samples;
        if features.len() < needed {
            return Err(PlatformError::NotEnoughTrainingData {
                scheme,
                found: features.len(),
                needed,
            });
        }
        let input_dim = features[0].len();
        let mut classifier = algorithm.build(self.analysis.seed);
        classifier.fit(&features, &labels, n_classes);
        let interface = ModelInterface {
            feature_kind,
            input_dim,
            scheme,
        };
        Ok(self
            .analysis
            .models
            .register_portable(name, user, interface, classifier))
    }

    /// Registers an externally trained portable model under `user` (the
    /// upload half of the paper's model-sharing APIs). The declared
    /// scheme must exist.
    pub fn upload_model(
        &self,
        user: UserId,
        name: impl Into<String>,
        interface: ModelInterface,
        model: SerializableModel,
    ) -> Result<ModelId, PlatformError> {
        self.require_user(user)?;
        if self.store.scheme(interface.scheme).is_none() {
            return Err(PlatformError::UnknownScheme(interface.scheme));
        }
        Ok(self
            .analysis
            .models
            .register_portable(name, user, interface, model))
    }

    /// **Analysis → translational write-back**: applies a registered
    /// model to images, storing each prediction as a machine annotation.
    /// Returns `(image, label, confidence)` per processed image; an image
    /// lacking the required feature, or holding one of another width
    /// than the model's declared `input_dim`, is reported as an error
    /// and nothing is stored.
    pub fn apply_model(
        &self,
        model: ModelId,
        images: &[ImageId],
    ) -> Result<Vec<(ImageId, usize, f32)>, PlatformError> {
        let models = &self.analysis.models;
        let interface = models
            .interface(model)
            .ok_or(PlatformError::UnknownModel(model))?;
        let mut out = Vec::with_capacity(images.len());
        let mut ops = Vec::with_capacity(images.len());
        for &image in images {
            // Borrow the feature row from the store's arena; no per-image
            // clone.
            let feature = self
                .store
                .feature_ref(image, interface.feature_kind)
                .ok_or(PlatformError::MissingFeature(image, interface.feature_kind))?;
            if feature.len() != interface.input_dim {
                return Err(PlatformError::FeatureWidth {
                    image,
                    kind: interface.feature_kind,
                    expected: interface.input_dim,
                    found: feature.len(),
                    set_by: WidthSetBy::Model,
                });
            }
            let (label, confidence) = models
                .predict(model, &feature)
                .ok_or(PlatformError::UnknownModel(model))?;
            ops.push(WalOp::Annotate(Annotation {
                id: self.analysis.alloc_annotation_id(),
                image,
                classification: interface.scheme,
                label,
                confidence,
                source: AnnotationSource::Machine(model),
                region: None,
            }));
            out.push((image, label, confidence));
        }
        // One commit: every prediction is made before the first is
        // stored, and the annotations land together or not at all.
        self.commit(ops)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{IngestRequest, PlatformConfig};
    use crate::users::Role;
    use tvdp_geo::GeoPoint;
    use tvdp_vision::{CnnConfig, Image};

    fn fast_config() -> PlatformConfig {
        PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4, 8],
                pool_grid: 2,
                seed: 1,
            },
            min_training_samples: 6,
            ..Default::default()
        }
    }

    fn scene(class: usize, seed: usize) -> Image {
        // Two visually distinct synthetic classes.
        Image::from_fn(24, 24, |x, y| {
            let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
            if class == 0 {
                [200, v, v]
            } else if (x / 4 + y / 4) % 2 == 0 {
                [v, v, 220]
            } else {
                [20, 20, 40]
            }
        })
    }

    fn request(i: i64) -> IngestRequest {
        IngestRequest {
            gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
            fov: None,
            captured_at: 1000 + i,
            uploaded_at: 1100 + i,
            keywords: vec!["street".into()],
        }
    }

    #[test]
    fn train_and_apply_model_end_to_end() {
        let tvdp = Tvdp::new(fast_config());
        let gov = tvdp.register_user("LASAN", Role::Government);
        let researcher = tvdp.register_user("USC", Role::Researcher);
        let scheme = tvdp
            .register_scheme("binary", vec!["red".into(), "blue".into()])
            .unwrap();
        // Labelled training uploads.
        for i in 0..16 {
            let class = i % 2;
            let id = tvdp
                .ingest(gov, scene(class, i), request(i as i64))
                .unwrap();
            tvdp.annotate(gov, id, scheme, class, 1.0, None).unwrap();
        }
        let model = tvdp
            .train_model(
                researcher,
                "red-vs-blue",
                scheme,
                FeatureKind::Cnn,
                Algorithm::Svm,
            )
            .unwrap();
        // New unlabeled uploads get machine annotations.
        let new0 = tvdp.ingest(gov, scene(0, 99), request(99)).unwrap();
        let new1 = tvdp.ingest(gov, scene(1, 98), request(98)).unwrap();
        let results = tvdp.apply_model(model, &[new0, new1]).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1, 0, "red scene misclassified");
        assert_eq!(results[1].1, 1, "blue scene misclassified");
        // Write-back happened: annotations are queryable.
        let anns = tvdp.store().annotations_of(new0);
        assert_eq!(anns.len(), 1);
        assert!(!anns[0].is_human());
    }

    #[test]
    fn training_requires_enough_data() {
        let tvdp = Tvdp::new(fast_config());
        let gov = tvdp.register_user("LASAN", Role::Government);
        let scheme = tvdp
            .register_scheme("s", vec!["a".into(), "b".into()])
            .unwrap();
        let id = tvdp.ingest(gov, scene(0, 0), request(0)).unwrap();
        tvdp.annotate(gov, id, scheme, 0, 1.0, None).unwrap();
        let err = tvdp
            .train_model(gov, "m", scheme, FeatureKind::Cnn, Algorithm::NaiveBayes)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::NotEnoughTrainingData { found: 1, .. }
        ));
    }

    /// A store holding CNN rows of two widths is refused before
    /// fitting, as `apply_model` refuses a row of the wrong width. The
    /// platform refuses such an upload and such a directory at open, so
    /// the wider rows are written to the store directly, as a build
    /// without those checks journaled them.
    #[test]
    fn training_over_two_feature_widths_is_a_typed_refusal() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("LASAN", Role::Government);
        let scheme = tvdp
            .register_scheme("binary", vec!["red".into(), "blue".into()])
            .unwrap();
        for i in 0..6 {
            let id = tvdp
                .ingest(user, scene(i % 2, i), request(i as i64))
                .unwrap();
            tvdp.annotate(user, id, scheme, i % 2, 1.0, None).unwrap();
        }
        let first_wide = ImageId(1_000);
        for i in 0..6u64 {
            let id = ImageId(first_wide.0 + i);
            let rec = request(6 + i as i64);
            let meta = tvdp_storage::ImageMeta {
                uploader: user,
                gps: rec.gps,
                fov: rec.fov,
                captured_at: rec.captured_at,
                uploaded_at: rec.uploaded_at,
                keywords: rec.keywords,
            };
            tvdp.store()
                .apply_batch(vec![
                    WalOp::AddImage {
                        id,
                        meta,
                        origin: tvdp_storage::ImageOrigin::Original,
                        pixels: None,
                    },
                    WalOp::PutFeature {
                        image: id,
                        kind: FeatureKind::Cnn,
                        vector: vec![i as f32; 80],
                    },
                ])
                .unwrap();
            tvdp.annotate(user, id, scheme, (i % 2) as usize, 1.0, None)
                .unwrap();
        }
        let err = tvdp
            .train_model(user, "svm", scheme, FeatureKind::Cnn, Algorithm::Svm)
            .unwrap_err();
        assert!(
            matches!(
                err,
                PlatformError::FeatureWidth {
                    image,
                    kind: FeatureKind::Cnn,
                    expected: 40,
                    found: 80,
                    set_by: WidthSetBy::Model,
                } if image == first_wide
            ),
            "{err:?}"
        );
        assert!(err
            .to_string()
            .contains("different extractor configuration"));
        assert!(tvdp.models().ids().is_empty());
    }
}

#[cfg(test)]
mod region_annotation_tests {
    use super::*;
    use crate::platform::{IngestRequest, PlatformConfig};
    use crate::users::Role;
    use tvdp_geo::GeoPoint;
    use tvdp_storage::StorageError;
    use tvdp_vision::{CnnConfig, Image};

    #[test]
    fn region_annotations_validate_bounds() {
        let tvdp = Tvdp::new(PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4],
                pool_grid: 2,
                seed: 1,
            },
            ..Default::default()
        });
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let scheme = tvdp
            .register_scheme("parts", vec!["tent".into(), "bag".into()])
            .unwrap();
        let img = Image::from_fn(32, 24, |_, _| [50, 50, 50]);
        let id = tvdp
            .ingest(
                user,
                img,
                IngestRequest {
                    gps: GeoPoint::new(34.0, -118.25),
                    fov: None,
                    captured_at: 0,
                    uploaded_at: 1,
                    keywords: vec![],
                },
            )
            .unwrap();
        let region = |x, y, width, height| {
            Some(RegionOfInterest {
                x,
                y,
                width,
                height,
            })
        };
        // In-bounds regions work, up to one flush with both far edges.
        let ann = tvdp
            .annotate(user, id, scheme, 0, 1.0, region(4, 4, 10, 10))
            .unwrap();
        let rows = tvdp.store().annotations_of(id);
        assert_eq!(rows[0].id, ann);
        assert_eq!(rows[0].region.unwrap().width, 10);
        tvdp.annotate(user, id, scheme, 1, 1.0, region(22, 14, 10, 10))
            .unwrap();
        // Out-of-bounds regions are a typed refusal, overflowing
        // offsets included, and store nothing.
        for bad in [
            region(30, 0, 10, 5),
            region(usize::MAX, 0, 1, 1),
            region(0, usize::MAX, 1, 1),
        ] {
            let err = tvdp.annotate(user, id, scheme, 0, 1.0, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    PlatformError::Storage(StorageError::RegionOutOfBounds {
                        image,
                        width: 32,
                        height: 24,
                        ..
                    }) if image == id
                ),
                "{err}"
            );
        }
        assert_eq!(tvdp.store().annotations_of(id).len(), 2);
    }
}
