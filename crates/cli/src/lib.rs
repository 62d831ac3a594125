//! Command-line interface for the Translational Visual Data Platform.
//!
//! Every command works on a store *directory*, the crash-safe layout
//! [`Tvdp::open`] recovers (`tvdp_storage::recovery`: a base segment
//! and the write-ahead log). `init` creates one; `open` and `compact`
//! open or create one; every other command refuses a missing path.
//! Mutating commands (`demo-data`, `apply`) journal through the
//! platform like any other client; `compact` folds the journal.
//! Commands:
//!
//! ```text
//! tvdp init <dir>
//! tvdp open <dir>
//! tvdp compact <dir>
//! tvdp demo-data <dir> --count N [--size PX] [--seed S] [--labelled FRAC]
//! tvdp stats <dir>
//! tvdp search <dir> (--keyword W | --region S,W,N,E | --near LAT,LON,K |
//!                    --polygon "LAT,LON;LAT,LON;..." |
//!                    --label SCHEME:LABEL | --since T --until T)
//! tvdp train <dir> --scheme NAME --algorithm ALGO --model-out FILE
//! tvdp apply <dir> --model FILE --scheme NAME
//! tvdp hotspots <dir> --scheme NAME --label NAME [--cell METRES] [--top K]
//! ```
//!
//! The command logic lives in [`run`], which returns the rendered output
//! as a string so the test suite can drive every command in-process.

use std::path::Path;

use tvdp_core::models::ModelInterface;
use tvdp_core::platform::{Algorithm, IngestRequest};
use tvdp_core::{hotspots, PlatformConfig, Role, Tvdp};
use tvdp_datagen::{generate, CleanlinessClass, DatasetConfig};
use tvdp_geo::{BBox, GeoPoint, GeoPolygon};
use tvdp_ml::SerializableModel;
use tvdp_query::{Query, SpatialQuery, TemporalField, TextualMode};
use tvdp_storage::codec::{self, Value};
use tvdp_storage::{RecoveryReport, VisualStore};
use tvdp_vision::FeatureKind;

/// A CLI failure: message shown to the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parses `--flag value` pairs after the positional arguments.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Self { args }
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| err(format!("invalid value for {name}: {raw}"))),
        }
    }
}

const USAGE: &str =
    "usage: tvdp <init|open|compact|demo-data|stats|search|train|apply|hotspots> <dir> [flags]\n\
run `tvdp help` for details";

const HELP: &str = "TVDP — Translational Visual Data Platform CLI\n\
\n\
Every command works on a store directory: a base segment and a\n\
write-ahead log, every mutation journaled before it is applied.\n\
\n\
  tvdp init <dir>\n\
      Create an empty store directory (refuses an existing path).\n\
  tvdp open <dir>\n\
      Open (or create) a store directory: replay the base segment and\n\
      the write-ahead log, report what was repaired. A directory\n\
      holding an older build's snapshot.json is refused untouched.\n\
  tvdp compact <dir>\n\
      Fold the journal into a fresh base segment (base-<epoch>.seg)\n\
      and rotate the write-ahead log.\n\
  tvdp demo-data <dir> --count N [--size PX] [--seed S] [--labelled FRAC]\n\
      Generate synthetic street imagery, extract features, annotate the\n\
      labelled fraction with ground truth; every row is journaled.\n\
  tvdp stats <dir>\n\
      Row counts and schemes.\n\
  tvdp search <dir> --keyword W\n\
  tvdp search <dir> --region S,W,N,E\n\
  tvdp search <dir> --near LAT,LON,K\n\
  tvdp search <dir> --label SCHEME:LABEL\n\
  tvdp search <dir> --since T --until T\n\
      Query the store (filters may be combined; combined = AND).\n\
  tvdp train <dir> --scheme NAME --algorithm knn|tree|bayes|forest|svm|logreg|mlp \\\n\
             --model-out FILE\n\
      Train on stored CNN features + annotations; write portable weights.\n\
  tvdp apply <dir> --model FILE --scheme NAME\n\
      Classify every unannotated image; the machine annotations are\n\
      journaled.\n\
  tvdp hotspots <dir> --scheme NAME --label NAME [--cell METRES] [--top K]\n\
      Spatial aggregation of a label (e.g. encampment hotspots).";

/// Executes a CLI invocation (`args` excludes the program name) and
/// returns the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "init" => init(args.get(1).ok_or_else(|| err(USAGE))?),
        "open" => open_cmd(args.get(1).ok_or_else(|| err(USAGE))?),
        "compact" => compact_cmd(args.get(1).ok_or_else(|| err(USAGE))?),
        "demo-data" => demo_data(args.get(1).ok_or_else(|| err(USAGE))?, &args[2..]),
        "stats" => stats(args.get(1).ok_or_else(|| err(USAGE))?),
        "search" => search(args.get(1).ok_or_else(|| err(USAGE))?, &args[2..]),
        "train" => train(args.get(1).ok_or_else(|| err(USAGE))?, &args[2..]),
        "apply" => apply(args.get(1).ok_or_else(|| err(USAGE))?, &args[2..]),
        "hotspots" => hotspots_cmd(args.get(1).ok_or_else(|| err(USAGE))?, &args[2..]),
        other => Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// Opens the store directory at `path`, creating it if `create` and
/// refusing a missing one otherwise.
fn open_store(path: &str, create: bool) -> Result<(Tvdp, RecoveryReport), CliError> {
    let dir = Path::new(path);
    if dir.is_file() {
        return Err(err(format!(
            "{path} is a file, not a store directory (a store file of an older build \
             is a base segment: move it to <dir>/base-0.seg)"
        )));
    }
    if !create && !dir.exists() {
        return Err(err(format!(
            "no store at {path}: create one with `tvdp init {path}`"
        )));
    }
    Tvdp::open(dir, PlatformConfig::default())
        .map_err(|e| err(format!("cannot open store {path}: {e}")))
}

fn init(path: &str) -> Result<String, CliError> {
    if Path::new(path).exists() {
        return Err(err(format!("{path} already exists")));
    }
    open_store(path, true)?;
    Ok(format!("initialized empty store at {path}"))
}

fn open_cmd(path: &str) -> Result<String, CliError> {
    let (platform, report) = open_store(path, true)?;
    let stats = platform.stats();
    Ok(format!(
        "recovered {path}\n  {report}\n  images      : {}\n  annotations : {}\n",
        stats.images, stats.annotations
    ))
}

fn compact_cmd(path: &str) -> Result<String, CliError> {
    let (platform, _) = open_store(path, true)?;
    let report = platform
        .flush()
        .map_err(|e| err(format!("cannot compact {path}: {e}")))?;
    Ok(format!("compacted {path}\n  {report}\n"))
}

fn demo_data(path: &str, rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::new(rest);
    let count: usize = flags.parse("--count")?.unwrap_or(200);
    let size: usize = flags.parse("--size")?.unwrap_or(48);
    let seed: u64 = flags.parse("--seed")?.unwrap_or(0xC11);
    let labelled: f64 = flags.parse("--labelled")?.unwrap_or(0.8);
    if !(0.0..=1.0).contains(&labelled) {
        return Err(err("--labelled must be in 0..=1"));
    }

    let (platform, _) = open_store(path, false)?;
    let operator = platform.register_user("cli", Role::Government);
    let scheme = match platform.store().scheme_by_name("street-cleanliness") {
        Some(s) => s.id,
        None => platform
            .register_scheme(
                "street-cleanliness",
                CleanlinessClass::ALL
                    .iter()
                    .map(|c| c.label().to_string())
                    .collect(),
            )
            .map_err(|e| err(e.to_string()))?,
    };

    let data = generate(&DatasetConfig {
        n_images: count,
        image_size: size,
        seed,
        ..Default::default()
    });
    let batch: Vec<_> = data
        .iter()
        .map(|d| {
            (
                d.image.clone(),
                IngestRequest {
                    gps: d.fov.camera,
                    fov: Some(d.fov),
                    captured_at: d.captured_at,
                    uploaded_at: d.uploaded_at,
                    keywords: d.keywords.clone(),
                },
            )
        })
        .collect();
    let ids = platform
        .ingest_batch(operator, batch, 8)
        .map_err(|e| err(e.to_string()))?;
    let n_labelled = ((count as f64) * labelled) as usize;
    for (d, &id) in data[..n_labelled].iter().zip(&ids[..n_labelled]) {
        platform
            .annotate(operator, id, scheme, d.cleanliness.index(), 1.0, None)
            .map_err(|e| err(e.to_string()))?;
    }
    Ok(format!(
        "ingested {count} images ({n_labelled} labelled) into {path}; store now holds {} images",
        platform.store().len()
    ))
}

fn stats(path: &str) -> Result<String, CliError> {
    let (platform, _) = open_store(path, false)?;
    let store = platform.store();
    let mut out = format!(
        "images      : {}\nannotations : {}\n",
        store.len(),
        store.annotation_count()
    );
    let schemes = store.schemes();
    out.push_str(&format!("schemes     : {}\n", schemes.len()));
    for s in schemes {
        out.push_str(&format!(
            "  {} ({}): {}\n",
            s.name,
            s.id,
            s.labels.join(", ")
        ));
    }
    for kind in [
        FeatureKind::ColorHistogram,
        FeatureKind::Cnn,
        FeatureKind::SiftBow,
    ] {
        let n = store.images_with_feature(kind).len();
        if n > 0 {
            out.push_str(&format!("features    : {n} x {kind:?}\n"));
        }
    }
    Ok(out)
}

fn parse_region(raw: &str) -> Result<BBox, CliError> {
    let parts: Vec<f64> = raw
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err(format!("invalid region `{raw}` (want S,W,N,E)")))?;
    if parts.len() != 4 {
        return Err(err(format!("invalid region `{raw}` (want S,W,N,E)")));
    }
    if parts[0] > parts[2] || parts[1] > parts[3] {
        return Err(err("region min exceeds max"));
    }
    Ok(BBox::new(parts[0], parts[1], parts[2], parts[3]))
}

fn resolve_label(
    store: &VisualStore,
    spec: &str,
) -> Result<(tvdp_storage::ClassificationId, usize), CliError> {
    let (scheme_name, label_name) = spec
        .split_once(':')
        .ok_or_else(|| err(format!("invalid label `{spec}` (want SCHEME:LABEL)")))?;
    let scheme = store
        .scheme_by_name(scheme_name)
        .ok_or_else(|| err(format!("unknown scheme `{scheme_name}`")))?;
    let label = scheme.label_index(label_name).ok_or_else(|| {
        err(format!(
            "unknown label `{label_name}` in `{scheme_name}` (has: {})",
            scheme.labels.join(", ")
        ))
    })?;
    Ok((scheme.id, label))
}

fn search(path: &str, rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::new(rest);
    let (platform, _) = open_store(path, false)?;
    let store = platform.store();

    let mut subs: Vec<Query> = Vec::new();
    if let Some(word) = flags.get("--keyword") {
        subs.push(Query::Textual {
            text: word.to_string(),
            mode: TextualMode::All,
        });
    }
    if let Some(region) = flags.get("--region") {
        subs.push(Query::Spatial(SpatialQuery::Range(parse_region(region)?)));
    }
    if let Some(near) = flags.get("--near") {
        let parts: Vec<&str> = near.split(',').collect();
        if parts.len() != 3 {
            return Err(err("--near wants LAT,LON,K"));
        }
        let lat: f64 = parts[0].trim().parse().map_err(|_| err("bad latitude"))?;
        let lon: f64 = parts[1].trim().parse().map_err(|_| err("bad longitude"))?;
        let k: usize = parts[2].trim().parse().map_err(|_| err("bad k"))?;
        let point = GeoPoint::try_new(lat, lon).ok_or_else(|| err("coordinates out of range"))?;
        subs.push(Query::Spatial(SpatialQuery::Nearest { point, k }));
    }
    if let Some(poly) = flags.get("--polygon") {
        let vertices: Vec<GeoPoint> = poly
            .split(';')
            .map(|pair| {
                let (lat, lon) = pair
                    .split_once(',')
                    .ok_or_else(|| err(format!("bad polygon vertex `{pair}`")))?;
                let lat: f64 = lat
                    .trim()
                    .parse()
                    .map_err(|_| err("bad polygon latitude"))?;
                let lon: f64 = lon
                    .trim()
                    .parse()
                    .map_err(|_| err("bad polygon longitude"))?;
                GeoPoint::try_new(lat, lon).ok_or_else(|| err("polygon vertex out of range"))
            })
            .collect::<Result<_, _>>()?;
        if vertices.len() < 3 {
            return Err(err("--polygon needs at least 3 vertices"));
        }
        subs.push(Query::Spatial(SpatialQuery::Within(GeoPolygon::new(
            vertices,
        ))));
    }
    if let Some(spec) = flags.get("--label") {
        let (scheme, label) = resolve_label(store, spec)?;
        subs.push(Query::Categorical {
            scheme,
            label,
            min_confidence: 0.0,
        });
    }
    let since: Option<i64> = flags.parse("--since")?;
    let until: Option<i64> = flags.parse("--until")?;
    if since.is_some() || until.is_some() {
        subs.push(Query::Temporal {
            field: TemporalField::Captured,
            from: since.unwrap_or(i64::MIN),
            to: until.unwrap_or(i64::MAX),
        });
    }
    if subs.is_empty() {
        return Err(err("search needs at least one filter; see `tvdp help`"));
    }
    let query = match subs.pop() {
        Some(only) if subs.is_empty() => only,
        Some(last) => {
            subs.push(last);
            Query::And(subs)
        }
        None => return Err(err("search needs at least one filter; see `tvdp help`")),
    };
    let results = platform
        .search(&query)
        .map_err(|e| err(format!("invalid query: {e}")))?;
    let mut out = format!("{} hits\n", results.len());
    for r in results.iter().take(20) {
        let Some(record) = store.image(r.image) else {
            continue;
        };
        out.push_str(&format!(
            "  {}  ({:.5}, {:.5})  t={}  [{}]\n",
            r.image,
            record.meta.gps.lat,
            record.meta.gps.lon,
            record.meta.captured_at,
            record.meta.keywords.join(" ")
        ));
    }
    if results.len() > 20 {
        out.push_str(&format!("  ... and {} more\n", results.len() - 20));
    }
    Ok(out)
}

fn parse_algorithm(raw: &str) -> Result<Algorithm, CliError> {
    Ok(match raw {
        "knn" => Algorithm::Knn(5),
        "tree" => Algorithm::DecisionTree,
        "bayes" => Algorithm::NaiveBayes,
        "forest" => Algorithm::RandomForest(25),
        "svm" => Algorithm::Svm,
        "logreg" => Algorithm::LogisticRegression,
        "mlp" => Algorithm::Mlp,
        other => return Err(err(format!("unknown algorithm `{other}`"))),
    })
}

fn train(path: &str, rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::new(rest);
    let scheme_name = flags
        .get("--scheme")
        .ok_or_else(|| err("--scheme required"))?;
    let algorithm = parse_algorithm(flags.get("--algorithm").unwrap_or("svm"))?;
    let model_out = flags
        .get("--model-out")
        .ok_or_else(|| err("--model-out required"))?;

    let (platform, _) = open_store(path, false)?;
    let store = platform.store();
    let operator = platform.register_user("cli", Role::Researcher);
    let scheme = store
        .scheme_by_name(scheme_name)
        .ok_or_else(|| err(format!("unknown scheme `{scheme_name}`")))?;
    let model = platform
        .train_model(
            operator,
            scheme_name,
            scheme.id,
            FeatureKind::Cnn,
            algorithm,
        )
        .map_err(|e| err(e.to_string()))?;
    let portable = platform
        .models()
        .export(model)
        .ok_or_else(|| err("trained model vanished from the registry"))?;
    let interface = platform
        .models()
        .interface(model)
        .ok_or_else(|| err("trained model vanished from the registry"))?;
    let doc = codec::obj(vec![
        ("scheme", Value::str(scheme_name)),
        ("feature_kind", codec::encode_kind(interface.feature_kind)),
        ("input_dim", Value::num(interface.input_dim)),
        ("weights", portable.to_value()),
    ]);
    std::fs::write(model_out, doc.render())
        .map_err(|e| err(format!("cannot write {model_out}: {e}")))?;
    Ok(format!(
        "trained {} on {} annotated images; weights written to {model_out}",
        portable.algorithm_tag(),
        store.annotation_count()
    ))
}

fn apply(path: &str, rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::new(rest);
    let model_path = flags
        .get("--model")
        .ok_or_else(|| err("--model required"))?;
    let scheme_name = flags
        .get("--scheme")
        .ok_or_else(|| err("--scheme required"))?;

    let (platform, _) = open_store(path, false)?;
    let store = platform.store();
    let operator = platform.register_user("cli", Role::Researcher);
    let scheme = store
        .scheme_by_name(scheme_name)
        .ok_or_else(|| err(format!("unknown scheme `{scheme_name}`")))?;

    let raw = std::fs::read_to_string(model_path)
        .map_err(|e| err(format!("cannot read {model_path}: {e}")))?;
    let doc = codec::parse(&raw).map_err(|e| err(format!("bad model file: {e}")))?;
    let input_dim: usize =
        codec::num_field(&doc, "input_dim").map_err(|e| err(format!("bad model file: {e}")))?;
    let weights = SerializableModel::from_value(&doc["weights"], input_dim)
        .map_err(|e| err(format!("bad model weights: {e}")))?;
    let feature_kind = codec::decode_kind(&doc["feature_kind"])
        .map_err(|e| err(format!("bad model feature kind: {e}")))?;
    let model = platform
        .upload_model(
            operator,
            "cli-import",
            ModelInterface {
                feature_kind,
                input_dim,
                scheme: scheme.id,
            },
            weights,
        )
        .map_err(|e| err(e.to_string()))?;

    // Classify every image without an annotation under the scheme.
    let targets: Vec<_> = store
        .image_ids()
        .into_iter()
        .filter(|&id| {
            store
                .annotations_of(id)
                .iter()
                .all(|a| a.classification != scheme.id)
        })
        .collect();
    let results = platform
        .apply_model(model, &targets)
        .map_err(|e| err(e.to_string()))?;
    let mut counts = vec![0usize; scheme.labels.len()];
    for (_, label, _) in &results {
        counts[*label] += 1;
    }
    let mut out = format!("classified {} images:\n", results.len());
    for (label, count) in scheme.labels.iter().zip(&counts) {
        out.push_str(&format!("  {label:<22} {count}\n"));
    }
    Ok(out)
}

fn hotspots_cmd(path: &str, rest: &[String]) -> Result<String, CliError> {
    let flags = Flags::new(rest);
    let scheme_name = flags
        .get("--scheme")
        .ok_or_else(|| err("--scheme required"))?;
    let label_name = flags
        .get("--label")
        .ok_or_else(|| err("--label required"))?;
    let cell: f64 = flags.parse("--cell")?.unwrap_or(200.0);
    let top: usize = flags.parse("--top")?.unwrap_or(5);

    let (platform, _) = open_store(path, false)?;
    let store = platform.store();
    let (scheme, label) = resolve_label(store, &format!("{scheme_name}:{label_name}"))?;
    // Aggregate over the bounding box of all camera positions.
    let mut points = Vec::new();
    store.for_each_image(|r| points.push(r.gps));
    let Some(region) = BBox::from_points(&points) else {
        return Ok("store is empty".into());
    };
    let cells = hotspots(store, scheme, label, &region, cell, 0.0, top);
    if cells.is_empty() {
        return Ok(format!("no `{label_name}` sightings in {path}"));
    }
    let mut out = format!(
        "top {} `{}` hotspots ({}m cells):\n",
        cells.len(),
        label_name,
        cell
    );
    for (i, c) in cells.iter().enumerate() {
        let center = c.cell.center();
        out.push_str(&format!(
            "  #{} ({:.5}, {:.5})  {} sightings\n",
            i + 1,
            center.lat,
            center.lon,
            c.count
        ));
    }
    Ok(out)
}
