//! Serializable trained models — the platform's model exchange format.
//!
//! The paper's API lets edge devices *download* trained models and lets
//! collaborators *upload* models they devised elsewhere (Section V, APIs
//! 6 and 7). [`SerializableModel`] is the exchange format: every built-in
//! algorithm (optionally behind its scaling pipeline) in one enum, still
//! usable as a [`Classifier`].
//!
//! The wire shape is JSON on the workspace codec ([`tvdp_json`]): the
//! variant name keys a one-field object (`{"NaiveBayes": {..}}`), structs
//! are objects under their field names, `Option` is the value or `null`.
//! This module is the only place that knows it. `f32` weights are written
//! as their shortest round-trip decimal, so an export re-imports
//! bit-for-bit. Uploads come from outside the platform, so
//! [`SerializableModel::from_value`] checks every number and every shape
//! a later `decision_scores` call would index by.

use tvdp_json::{
    arr_field, decode_vector, encode_vector, field, num, num_field, obj, DecodeError, Value,
};

use crate::bayes::{ClassStats, GaussianNb};
use crate::forest::RandomForest;
use crate::knn::KnnClassifier;
use crate::logreg::{LogRegParams, LogisticRegression};
use crate::mlp::{Mlp, MlpParams};
use crate::pipeline::ScaledClassifier;
use crate::scale::StandardScaler;
use crate::svm::{LinearSvm, SvmParams};
use crate::tree::{DecisionTree, Node, TreeParams};
use crate::Classifier;

/// A trained model in portable form.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant names mirror the wrapped classifiers
pub enum SerializableModel {
    Knn(ScaledClassifier<KnnClassifier>),
    DecisionTree(DecisionTree),
    NaiveBayes(GaussianNb),
    RandomForest(RandomForest),
    Svm(ScaledClassifier<LinearSvm>),
    LogisticRegression(ScaledClassifier<LogisticRegression>),
    Mlp(ScaledClassifier<Mlp>),
}

impl SerializableModel {
    fn inner(&self) -> &dyn Classifier {
        match self {
            SerializableModel::Knn(m) => m,
            SerializableModel::DecisionTree(m) => m,
            SerializableModel::NaiveBayes(m) => m,
            SerializableModel::RandomForest(m) => m,
            SerializableModel::Svm(m) => m,
            SerializableModel::LogisticRegression(m) => m,
            SerializableModel::Mlp(m) => m,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn Classifier {
        match self {
            SerializableModel::Knn(m) => m,
            SerializableModel::DecisionTree(m) => m,
            SerializableModel::NaiveBayes(m) => m,
            SerializableModel::RandomForest(m) => m,
            SerializableModel::Svm(m) => m,
            SerializableModel::LogisticRegression(m) => m,
            SerializableModel::Mlp(m) => m,
        }
    }

    /// Short algorithm tag for provenance records.
    pub fn algorithm_tag(&self) -> &'static str {
        self.inner().name()
    }

    /// The model as a JSON value tree in the exchange shape.
    pub fn to_value(&self) -> Value {
        let (tag, body) = match self {
            SerializableModel::Knn(m) => ("Knn", scaled_to_value(m, knn_to_value)),
            SerializableModel::DecisionTree(m) => ("DecisionTree", tree_to_value(m)),
            SerializableModel::NaiveBayes(m) => ("NaiveBayes", bayes_to_value(m)),
            SerializableModel::RandomForest(m) => ("RandomForest", forest_to_value(m)),
            SerializableModel::Svm(m) => ("Svm", scaled_to_value(m, svm_to_value)),
            SerializableModel::LogisticRegression(m) => {
                ("LogisticRegression", scaled_to_value(m, logreg_to_value))
            }
            SerializableModel::Mlp(m) => ("Mlp", scaled_to_value(m, mlp_to_value)),
        };
        obj(vec![(tag, body)])
    }

    /// Decodes a model that will score `dim`-long feature rows.
    ///
    /// Rejects an unknown variant, a missing or mistyped field, a
    /// non-finite or out-of-range number, and any weight shape that
    /// disagrees with `dim` or with the model's own class count, so
    /// a decoded model never indexes out of bounds when it predicts. An
    /// unfitted model (no weights yet) decodes as unfitted.
    pub fn from_value(v: &Value, dim: usize) -> Result<Self, DecodeError> {
        let Value::Obj(fields) = v else {
            return Err("model: expected an object keyed by its variant".into());
        };
        let [(tag, body)] = fields.as_slice() else {
            return Err("model: expected exactly one variant key".into());
        };
        Ok(match tag.as_str() {
            "Knn" => SerializableModel::Knn(scaled_from_value(body, dim, knn_from_value)?),
            "DecisionTree" => SerializableModel::DecisionTree(tree_from_value(body, dim)?),
            "NaiveBayes" => SerializableModel::NaiveBayes(bayes_from_value(body, dim)?),
            "RandomForest" => SerializableModel::RandomForest(forest_from_value(body, dim)?),
            "Svm" => SerializableModel::Svm(scaled_from_value(body, dim, svm_from_value)?),
            "LogisticRegression" => SerializableModel::LogisticRegression(scaled_from_value(
                body,
                dim,
                logreg_from_value,
            )?),
            "Mlp" => SerializableModel::Mlp(scaled_from_value(body, dim, mlp_from_value)?),
            other => return Err(format!("unknown model variant `{other}`")),
        })
    }
}

impl Classifier for SerializableModel {
    fn fit(&mut self, x: &[Vec<f32>], y: &[usize], n_classes: usize) {
        self.inner_mut().fit(x, y, n_classes);
    }

    fn decision_scores(&self, x: &[f32]) -> Vec<f32> {
        self.inner().decision_scores(x)
    }

    fn name(&self) -> &'static str {
        self.inner().name()
    }
}

// ---------------------------------------------------------------------
// Field helpers: finite floats and rectangular weight matrices.
// ---------------------------------------------------------------------

fn finite(x: f32, name: &str) -> Result<f32, DecodeError> {
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{name}: number is not finite"))
    }
}

fn f32_field(v: &Value, name: &str) -> Result<f32, DecodeError> {
    finite(num_field(v, name)?, name)
}

/// A float array of exactly `len` finite numbers.
fn f32s(v: &Value, name: &str, len: usize) -> Result<Vec<f32>, DecodeError> {
    let row = decode_vector(v).map_err(|e| format!("{name}: {e}"))?;
    if row.len() != len {
        return Err(format!("{name}: {} numbers, expected {len}", row.len()));
    }
    row.iter().try_for_each(|&x| finite(x, name).map(drop))?;
    Ok(row)
}

fn f32s_field(v: &Value, name: &str, len: usize) -> Result<Vec<f32>, DecodeError> {
    f32s(field(v, name)?, name, len)
}

/// An array-of-rows field whose rows must all be `width` long.
fn matrix_field(v: &Value, name: &str, width: usize) -> Result<Vec<Vec<f32>>, DecodeError> {
    let rows = arr_field(v, name)?.iter();
    rows.map(|row| f32s(row, name, width)).collect()
}

fn matrix_to_value(rows: &[Vec<f32>]) -> Value {
    Value::Arr(rows.iter().map(|r| encode_vector(r)).collect())
}

fn opt_field<'v>(v: &'v Value, name: &str) -> Result<Option<&'v Value>, DecodeError> {
    Ok(Some(field(v, name)?).filter(|f| !f.is_null()))
}

// ---------------------------------------------------------------------
// One encoder/decoder pair per model struct.
// ---------------------------------------------------------------------

/// Encoder and decoder of a hyper-parameter struct whose fields are all
/// plain numbers (they steer `fit`, never a prediction, so only their
/// type is checked).
macro_rules! flat_params {
    ($to:ident, $from:ident, $ty:ident { $($field:ident),* }) => {
        fn $to(p: &$ty) -> Value {
            obj(vec![$((stringify!($field), Value::num(p.$field))),*])
        }

        fn $from(v: &Value) -> Result<$ty, DecodeError> {
            Ok($ty { $($field: num_field(v, stringify!($field))?),* })
        }
    };
}

fn scaled_to_value<C>(m: &ScaledClassifier<C>, inner: impl FnOnce(&C) -> Value) -> Value {
    let scaler = m.scaler.as_ref().map_or(Value::Null, |s| {
        obj(vec![
            ("mean", encode_vector(&s.mean)),
            ("std", encode_vector(&s.std)),
        ])
    });
    obj(vec![("inner", inner(&m.inner)), ("scaler", scaler)])
}

fn scaled_from_value<C>(
    v: &Value,
    dim: usize,
    inner: impl FnOnce(&Value, usize) -> Result<C, DecodeError>,
) -> Result<ScaledClassifier<C>, DecodeError> {
    let scaler = match opt_field(v, "scaler")? {
        Some(s) => Some(StandardScaler {
            mean: f32s_field(s, "mean", dim)?,
            std: f32s_field(s, "std", dim)?,
        }),
        None => None,
    };
    Ok(ScaledClassifier {
        inner: inner(field(v, "inner")?, dim)?,
        scaler,
    })
}

fn knn_to_value(m: &KnnClassifier) -> Value {
    obj(vec![
        ("k", Value::num(m.k)),
        ("weighted", Value::Bool(m.weighted)),
        ("x", matrix_to_value(&m.x)),
        ("y", Value::Arr(m.y.iter().map(Value::num).collect())),
        ("n_classes", Value::num(m.n_classes)),
    ])
}

fn knn_from_value(v: &Value, dim: usize) -> Result<KnnClassifier, DecodeError> {
    let m = KnnClassifier {
        k: num_field(v, "k")?,
        weighted: field(v, "weighted")?
            .as_bool()
            .ok_or("weighted: expected a boolean")?,
        x: matrix_field(v, "x", dim)?,
        y: arr_field(v, "y")?
            .iter()
            .map(|l| num(l, "y"))
            .collect::<Result<_, _>>()?,
        n_classes: num_field(v, "n_classes")?,
    };
    if m.k == 0 {
        return Err("k: must be positive".into());
    }
    if m.y.len() != m.x.len() || m.y.iter().any(|&l| l >= m.n_classes) {
        return Err("y: expected one label below n_classes per row of x".into());
    }
    Ok(m)
}

fn tree_params_to_value(p: &TreeParams) -> Value {
    obj(vec![
        ("max_depth", Value::num(p.max_depth)),
        ("min_samples_split", Value::num(p.min_samples_split)),
        ("max_thresholds", Value::num(p.max_thresholds)),
        (
            "features_per_split",
            p.features_per_split.map_or(Value::Null, Value::num),
        ),
    ])
}

fn tree_params_from_value(v: &Value) -> Result<TreeParams, DecodeError> {
    Ok(TreeParams {
        max_depth: num_field(v, "max_depth")?,
        min_samples_split: num_field(v, "min_samples_split")?,
        max_thresholds: num_field(v, "max_thresholds")?,
        features_per_split: opt_field(v, "features_per_split")?
            .map(|n| num(n, "features_per_split"))
            .transpose()?,
    })
}

fn node_to_value(n: &Node) -> Value {
    match n {
        Node::Leaf { dist } => obj(vec![("Leaf", obj(vec![("dist", encode_vector(dist))]))]),
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => obj(vec![(
            "Split",
            obj(vec![
                ("feature", Value::num(feature)),
                ("threshold", Value::num(threshold)),
                ("left", node_to_value(left)),
                ("right", node_to_value(right)),
            ]),
        )]),
    }
}

/// Recursion is bounded by the parser's [`tvdp_json::MAX_DEPTH`]: every
/// `Split` level costs two levels of JSON nesting.
fn node_from_value(v: &Value, dim: usize, n_classes: usize) -> Result<Node, DecodeError> {
    if let Some(leaf) = v.get("Leaf") {
        return Ok(Node::Leaf {
            dist: f32s_field(leaf, "dist", n_classes)?,
        });
    }
    let split = field(v, "Split").map_err(|_| "node: expected `Leaf` or `Split`")?;
    let feature: usize = num_field(split, "feature")?;
    if feature >= dim {
        return Err(format!("feature: index {feature} outside {dim}-long rows"));
    }
    Ok(Node::Split {
        feature,
        threshold: f32_field(split, "threshold")?,
        left: Box::new(node_from_value(field(split, "left")?, dim, n_classes)?),
        right: Box::new(node_from_value(field(split, "right")?, dim, n_classes)?),
    })
}

fn tree_to_value(m: &DecisionTree) -> Value {
    obj(vec![
        ("params", tree_params_to_value(&m.params)),
        ("seed", Value::num(m.seed)),
        ("root", m.root.as_ref().map_or(Value::Null, node_to_value)),
        ("n_classes", Value::num(m.n_classes)),
    ])
}

fn tree_from_value(v: &Value, dim: usize) -> Result<DecisionTree, DecodeError> {
    let n_classes = num_field(v, "n_classes")?;
    Ok(DecisionTree {
        params: tree_params_from_value(field(v, "params")?)?,
        seed: num_field(v, "seed")?,
        root: opt_field(v, "root")?
            .map(|n| node_from_value(n, dim, n_classes))
            .transpose()?,
        n_classes,
    })
}

fn bayes_to_value(m: &GaussianNb) -> Value {
    let classes = m.classes.iter().map(|c| {
        // A class unseen in training has a -inf prior, which JSON cannot
        // carry as a number: it travels as `null`.
        let log_prior = Some(c.log_prior).filter(|p| p.is_finite());
        obj(vec![
            ("log_prior", log_prior.map_or(Value::Null, Value::num)),
            ("mean", encode_vector(&c.mean)),
            ("var", encode_vector(&c.var)),
        ])
    });
    obj(vec![
        ("classes", Value::Arr(classes.collect())),
        ("var_smoothing", Value::num(m.var_smoothing)),
    ])
}

fn bayes_from_value(v: &Value, dim: usize) -> Result<GaussianNb, DecodeError> {
    let classes = arr_field(v, "classes")?.iter().map(|c| {
        Ok(ClassStats {
            log_prior: match opt_field(c, "log_prior")? {
                Some(p) => finite(num(p, "log_prior")?, "log_prior")?,
                None => f32::NEG_INFINITY,
            },
            mean: f32s_field(c, "mean", dim)?,
            var: f32s_field(c, "var", dim)?,
        })
    });
    Ok(GaussianNb {
        classes: classes.collect::<Result<_, DecodeError>>()?,
        var_smoothing: f32_field(v, "var_smoothing")?,
    })
}

fn forest_to_value(m: &RandomForest) -> Value {
    obj(vec![
        ("n_trees", Value::num(m.n_trees)),
        ("params", tree_params_to_value(&m.params)),
        ("seed", Value::num(m.seed)),
        (
            "trees",
            Value::Arr(m.trees.iter().map(tree_to_value).collect()),
        ),
        ("n_classes", Value::num(m.n_classes)),
    ])
}

fn forest_from_value(v: &Value, dim: usize) -> Result<RandomForest, DecodeError> {
    let m = RandomForest {
        n_trees: num_field(v, "n_trees")?,
        params: tree_params_from_value(field(v, "params")?)?,
        seed: num_field(v, "seed")?,
        trees: arr_field(v, "trees")?
            .iter()
            .map(|t| tree_from_value(t, dim))
            .collect::<Result<_, _>>()?,
        n_classes: num_field(v, "n_classes")?,
        pool_threads: None,
    };
    // Prediction averages the trees' leaf distributions into one
    // `n_classes`-long accumulator.
    if m.trees.iter().any(|t| t.n_classes != m.n_classes) {
        return Err("trees: a tree disagrees with the forest's n_classes".into());
    }
    Ok(m)
}

flat_params!(
    svm_params_to_value,
    svm_params_from_value,
    SvmParams {
        lambda,
        epochs,
        seed
    }
);

fn svm_to_value(m: &LinearSvm) -> Value {
    obj(vec![
        ("params", svm_params_to_value(&m.params)),
        ("weights", matrix_to_value(&m.weights)),
    ])
}

fn svm_from_value(v: &Value, dim: usize) -> Result<LinearSvm, DecodeError> {
    Ok(LinearSvm {
        params: svm_params_from_value(field(v, "params")?)?,
        // Per class: `dim` weights and the bias.
        weights: matrix_field(v, "weights", dim + 1)?,
    })
}

flat_params!(
    logreg_params_to_value,
    logreg_params_from_value,
    LogRegParams {
        learning_rate,
        l2,
        epochs,
        seed
    }
);

fn logreg_to_value(m: &LogisticRegression) -> Value {
    obj(vec![
        ("params", logreg_params_to_value(&m.params)),
        ("weights", matrix_to_value(&m.weights)),
    ])
}

fn logreg_from_value(v: &Value, dim: usize) -> Result<LogisticRegression, DecodeError> {
    Ok(LogisticRegression {
        params: logreg_params_from_value(field(v, "params")?)?,
        weights: matrix_field(v, "weights", dim + 1)?,
    })
}

flat_params!(
    mlp_params_to_value,
    mlp_params_from_value,
    MlpParams {
        hidden,
        epochs,
        learning_rate,
        l2,
        seed
    }
);

fn mlp_to_value(m: &Mlp) -> Value {
    obj(vec![
        ("params", mlp_params_to_value(&m.params)),
        ("dim", Value::num(m.dim)),
        ("n_classes", Value::num(m.n_classes)),
        ("w1", encode_vector(&m.w1)),
        ("b1", encode_vector(&m.b1)),
        ("w2", encode_vector(&m.w2)),
        ("b2", encode_vector(&m.b2)),
    ])
}

fn mlp_from_value(v: &Value, dim: usize) -> Result<Mlp, DecodeError> {
    let params = mlp_params_from_value(field(v, "params")?)?;
    let fitted_dim: usize = num_field(v, "dim")?;
    let n_classes: usize = num_field(v, "n_classes")?;
    // An unfitted network has `dim` 0 and empty layers.
    let hidden = if fitted_dim == 0 { 0 } else { params.hidden };
    if fitted_dim != 0 && fitted_dim != dim {
        return Err(format!("dim: network takes {fitted_dim}, expected {dim}"));
    }
    let cells = |rows: usize, cols: usize, name: &str| {
        rows.checked_mul(cols)
            .ok_or_else(|| format!("{name}: layer size overflows"))
    };
    Ok(Mlp {
        params,
        dim: fitted_dim,
        n_classes,
        w1: f32s_field(v, "w1", cells(hidden, fitted_dim, "w1")?)?,
        b1: f32s_field(v, "b1", hidden)?,
        w2: f32s_field(v, "w2", cells(n_classes, hidden, "w2")?)?,
        b2: f32s_field(v, "b2", if fitted_dim == 0 { 0 } else { n_classes })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let j = (i % 10) as f32 * 0.05;
            x.push(vec![j, j]);
            y.push(0);
            x.push(vec![4.0 + j, 4.0 - j]);
            y.push(1);
        }
        (x, y)
    }

    fn all_variants() -> Vec<SerializableModel> {
        vec![
            SerializableModel::Knn(ScaledClassifier::new(KnnClassifier::new(3))),
            SerializableModel::DecisionTree(DecisionTree::new()),
            SerializableModel::NaiveBayes(GaussianNb::new()),
            SerializableModel::RandomForest(RandomForest::new(5, 1)),
            SerializableModel::Svm(ScaledClassifier::new(LinearSvm::new())),
            SerializableModel::LogisticRegression(ScaledClassifier::new(LogisticRegression::new())),
            SerializableModel::Mlp(ScaledClassifier::new(Mlp::new())),
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_json_with_identical_predictions() {
        let (x, y) = blobs();
        for mut model in all_variants() {
            model.fit(&x, &y, 2);
            let json = model.to_value().render();
            let parsed = tvdp_json::parse(&json).expect("parse");
            let restored = SerializableModel::from_value(&parsed, 2).expect("decode");
            assert_eq!(restored.algorithm_tag(), model.algorithm_tag());
            for row in &x {
                assert_eq!(
                    restored.predict_one(row),
                    model.predict_one(row),
                    "{} diverged after roundtrip",
                    model.name()
                );
                // Scores match bit-for-bit (pure weight structures).
                assert_eq!(restored.decision_scores(row), model.decision_scores(row));
            }
        }
    }

    #[test]
    fn variants_classify_blobs() {
        let (x, y) = blobs();
        for mut model in all_variants() {
            model.fit(&x, &y, 2);
            assert_eq!(model.predict_one(&[0.1, 0.1]), 0, "{}", model.name());
            assert_eq!(model.predict_one(&[4.0, 4.0]), 1, "{}", model.name());
        }
    }
}
