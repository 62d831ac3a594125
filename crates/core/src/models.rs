//! The ML model registry.
//!
//! Collaborators "build and share their ML models with others through our
//! platform by defining its input and output specifications" (paper
//! Section V). A registered model carries its interface — which feature
//! family and dimensionality it consumes, which classification scheme it
//! emits — so any participant can apply it without knowing its
//! internals, edge deployments can **download** it in portable form
//! ([`ModelRegistry::export`]), and externally trained models can be
//! **uploaded** ([`ModelRegistry::register_portable`]).

use std::collections::BTreeMap;

use tvdp_kernel::sync::RwLock;
use tvdp_ml::{Classifier, SerializableModel};
use tvdp_storage::{ClassificationId, ModelId, UserId};
use tvdp_vision::FeatureKind;

/// The declared input/output contract of a registered model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInterface {
    /// Feature family the model consumes.
    pub feature_kind: FeatureKind,
    /// Expected feature dimensionality.
    pub input_dim: usize,
    /// Classification scheme whose labels the model emits.
    pub scheme: ClassificationId,
}

/// A registered model: metadata plus the trained classifier.
pub struct ModelEntry {
    /// Identifier.
    pub id: ModelId,
    /// Human-readable name.
    pub name: String,
    /// The registering user.
    pub owner: UserId,
    /// Declared contract.
    pub interface: ModelInterface,
    /// The trained model.
    pub model: SerializableModel,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("owner", &self.owner)
            .field("interface", &self.interface)
            .field("algorithm", &self.model.name())
            .finish()
    }
}

/// Thread-safe model table.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    next: u64,
    models: BTreeMap<ModelId, ModelEntry>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("count", &self.models.len())
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trained model (downloadable).
    pub fn register_portable(
        &self,
        name: impl Into<String>,
        owner: UserId,
        interface: ModelInterface,
        model: SerializableModel,
    ) -> ModelId {
        let mut inner = self.inner.write();
        let id = ModelId(inner.next);
        inner.next += 1;
        inner.models.insert(
            id,
            ModelEntry {
                id,
                name: name.into(),
                owner,
                interface,
                model,
            },
        );
        id
    }

    /// The model's declared interface.
    pub fn interface(&self, id: ModelId) -> Option<ModelInterface> {
        self.inner
            .read()
            .models
            .get(&id)
            .map(|m| m.interface.clone())
    }

    /// Model metadata: `(name, owner, algorithm)`.
    pub fn describe(&self, id: ModelId) -> Option<(String, UserId, &'static str)> {
        self.inner
            .read()
            .models
            .get(&id)
            .map(|m| (m.name.clone(), m.owner, m.model.name()))
    }

    /// A portable copy of the trained model.
    pub fn export(&self, id: ModelId) -> Option<SerializableModel> {
        Some(self.inner.read().models.get(&id)?.model.clone())
    }

    /// All registered model ids.
    pub fn ids(&self) -> Vec<ModelId> {
        self.inner.read().models.keys().copied().collect()
    }

    /// Runs the model on one feature vector, returning per-class scores.
    /// The vector must be as wide as the model's declared `input_dim`;
    /// [`crate::Tvdp::apply_model`] checks that before it asks.
    pub fn score(&self, id: ModelId, features: &[f32]) -> Option<Vec<f32>> {
        let inner = self.inner.read();
        let entry = inner.models.get(&id)?;
        Some(entry.model.decision_scores(features))
    }

    /// Runs the model on one feature vector, returning `(label index,
    /// confidence)` where confidence is the softmax of the winning score.
    pub fn predict(&self, id: ModelId, features: &[f32]) -> Option<(usize, f32)> {
        let scores = self.score(id, features)?;
        let best = tvdp_ml::argmax(&scores);
        // Softmax confidence of the winner.
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // tvdp-lint: allow(float_reduction, reason = "sequential iterator reduction in fixed index order; single-threaded, bit-stable across runs and thread counts")
        let exps: f32 = scores.iter().map(|s| (s - max).exp()).sum();
        let confidence = ((scores[best] - max).exp() / exps).clamp(0.0, 1.0);
        Some((best, confidence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvdp_ml::{LinearSvm, ScaledClassifier};

    fn trained_svm_portable() -> SerializableModel {
        let mut m = SerializableModel::Svm(ScaledClassifier::new(LinearSvm::new()));
        let x = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 4.9],
        ];
        m.fit(&x, &[0, 0, 1, 1], 2);
        m
    }

    fn interface() -> ModelInterface {
        ModelInterface {
            feature_kind: FeatureKind::Cnn,
            input_dim: 2,
            scheme: ClassificationId(0),
        }
    }

    #[test]
    fn register_describe_predict() {
        let reg = ModelRegistry::new();
        let id = reg.register_portable(
            "cleanliness-svm",
            UserId(1),
            interface(),
            trained_svm_portable(),
        );
        let (name, owner, algo) = reg.describe(id).unwrap();
        assert_eq!(name, "cleanliness-svm");
        assert_eq!(owner, UserId(1));
        assert_eq!(algo, trained_svm_portable().name());
        let (label, conf) = reg.predict(id, &[4.8, 5.1]).unwrap();
        assert_eq!(label, 1);
        assert!((0.0..=1.0).contains(&conf));
        assert_eq!(reg.ids(), vec![id]);
    }

    #[test]
    fn exported_model_predicts_identically_after_reimport() {
        let reg = ModelRegistry::new();
        let id = reg.register_portable("svm", UserId(1), interface(), trained_svm_portable());
        let exported = reg.export(id).unwrap();
        let json = exported.to_value().render();
        let imported =
            SerializableModel::from_value(&tvdp_storage::codec::parse(&json).unwrap(), 2).unwrap();
        let reimported = reg.register_portable("svm-copy", UserId(2), interface(), imported);
        for probe in [[0.1f32, 0.1], [4.9, 5.0], [2.5, 2.5]] {
            assert_eq!(reg.predict(id, &probe), reg.predict(reimported, &probe));
        }
    }

    #[test]
    fn missing_model_returns_none() {
        let reg = ModelRegistry::new();
        assert!(reg.predict(ModelId(9), &[0.0, 0.0]).is_none());
        assert!(reg.interface(ModelId(9)).is_none());
        assert!(reg.export(ModelId(9)).is_none());
    }
}
