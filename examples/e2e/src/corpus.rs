//! Seeded inputs: the image corpus, the stores built from it, and the
//! JSON request bodies of every workload.
//!
//! Everything here is a pure function of the run's `--seed`; the program
//! under test only ever sees the generated rows and request bodies.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvdp::datagen::{generate, DatasetConfig, StreetGrid, SyntheticImage};
use tvdp::geo::{AngularRange, BBox, Fov, GeoPoint};
use tvdp::platform::PlatformConfig;
use tvdp::query::{Query, SpatialQuery, TemporalField, TextualMode, VisualMode};
use tvdp::storage::codec;
use tvdp::storage::{DurableStore, ImageId, ImageMeta, ImageOrigin, UserId, VisualStore, WalOp};
use tvdp::vision::{CnnExtractor, ColorHistogramExtractor, FeatureExtractor, FeatureKind, Image};

/// Rendered base scenes; every corpus row is a jittered replica of one.
pub const BASE_IMAGES: usize = 480;
/// Edge of the square base scenes and of every uploaded image, pixels.
pub const IMAGE_SIZE: usize = 48;
/// Rows per `DurableStore::apply_batch` call when laying a durable base.
const BASE_BATCH_ROWS: usize = 256;

/// One rendered scene with the platform's two feature vectors.
pub struct Base {
    pub image: Image,
    pub fov: Fov,
    pub captured_at: i64,
    pub uploaded_at: i64,
    pub keywords: Vec<String>,
    pub uploader: u64,
    pub color: Vec<f32>,
    pub cnn: Vec<f32>,
}

/// One corpus row: metadata plus both feature vectors.
pub struct Row {
    pub meta: ImageMeta,
    pub color: Vec<f32>,
    pub cnn: Vec<f32>,
}

/// Renders `n` base scenes and extracts their features with the
/// extractors a default platform uses, so corpus rows are real extractor
/// output and carry the district-palette correlation between place and
/// appearance (`appearance_by_block`). Extraction is split over the two
/// threads the load generator may use.
pub fn bases(seed: u64, n: usize) -> Vec<Base> {
    let color = ColorHistogramExtractor::paper_default();
    let cnn = CnnExtractor::with_config(PlatformConfig::default().cnn);
    let scenes = generate(&DatasetConfig {
        n_images: n,
        image_size: IMAGE_SIZE,
        seed,
        appearance_by_block: true,
        ..Default::default()
    });
    let extract = |scenes: &[SyntheticImage]| -> Vec<(Vec<f32>, Vec<f32>)> {
        scenes
            .iter()
            .map(|d| (color.extract(&d.image), cnn.extract(&d.image)))
            .collect()
    };
    let (front, back) = scenes.split_at(n / 2);
    let features = std::thread::scope(|scope| {
        let back = scope.spawn(|| extract(back));
        let mut features = extract(front);
        features.extend(back.join().expect("extraction thread panicked"));
        features
    });
    scenes
        .into_iter()
        .zip(features)
        .map(|(d, (color, cnn))| Base {
            image: d.image,
            fov: d.fov,
            captured_at: d.captured_at,
            uploaded_at: d.uploaded_at,
            keywords: d.keywords,
            uploader: d.uploader,
            color,
            cnn,
        })
        .collect()
}

/// The capture period the base scenes are drawn from, `(start, len)`.
pub fn period() -> (i64, i64) {
    let d = DatasetConfig::default();
    (d.period_start, d.period_len)
}

/// The street grid every camera position lies on.
pub fn region() -> BBox {
    *StreetGrid::downtown_la().region()
}

fn jitter_row(base: &Base, rng: &mut StdRng) -> Row {
    // Replicas stay within ~40 m of their base scene and keep most of
    // its appearance: the place-appearance correlation survives.
    let region = region();
    let lat = (base.fov.camera.lat + rng.gen_range(-0.0004..0.0004))
        .clamp(region.min_lat, region.max_lat);
    let lon = (base.fov.camera.lon + rng.gen_range(-0.0004..0.0004))
        .clamp(region.min_lon, region.max_lon);
    let gps = GeoPoint::new(lat, lon);
    let fov = Fov::new(
        gps,
        (base.fov.heading_deg + rng.gen_range(-10.0..10.0)).rem_euclid(360.0),
        base.fov.angle_deg,
        base.fov.radius_m,
    );
    let (start, len) = period();
    let captured_at = start + rng.gen_range(0..len);
    let mut cnn: Vec<f32> = base
        .cnn
        .iter()
        .map(|&x| x + rng.gen_range(-0.01f32..0.01))
        .collect();
    tvdp::kernel::normalize(&mut cnn);
    let mut color: Vec<f32> = base
        .color
        .iter()
        .map(|&x| (x * rng.gen_range(0.9f32..1.1)).max(0.0))
        .collect();
    let total: f32 = color.iter().sum();
    if total > 0.0 {
        color.iter_mut().for_each(|x| *x /= total);
    }
    Row {
        meta: ImageMeta {
            uploader: UserId(base.uploader),
            gps,
            fov: Some(fov),
            captured_at,
            uploaded_at: captured_at + (base.uploaded_at - base.captured_at),
            keywords: base.keywords.clone(),
        },
        color,
        cnn,
    }
}

/// `n` corpus rows: base scene `i % BASE_IMAGES`, jittered.
pub fn rows(bases: &[Base], n: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4B05);
    (0..n)
        .map(|i| jitter_row(&bases[i % bases.len()], &mut rng))
        .collect()
}

/// Adds `row` to an in-memory store (nothing is journaled) under the
/// store's next id.
pub fn store_row(store: &VisualStore, row: &Row) -> ImageId {
    let id = store
        .add_image(row.meta.clone(), ImageOrigin::Original, None)
        .expect("store accepts a row");
    store
        .put_feature(id, FeatureKind::ColorHistogram, row.color.clone())
        .expect("row exists");
    store
        .put_feature(id, FeatureKind::Cnn, row.cnn.clone())
        .expect("row exists");
    id
}

/// An in-memory store holding `rows` under ids `0..rows.len()`.
pub fn memory_store(rows: &[Row]) -> Arc<VisualStore> {
    let store = VisualStore::new();
    for row in rows {
        store_row(&store, row);
    }
    Arc::new(store)
}

/// The three journal ops one stored image costs.
pub fn wal_ops(id: ImageId, row: &Row) -> [WalOp; 3] {
    [
        WalOp::AddImage {
            id,
            meta: row.meta.clone(),
            origin: ImageOrigin::Original,
            pixels: None,
        },
        WalOp::PutFeature {
            image: id,
            kind: FeatureKind::ColorHistogram,
            vector: row.color.clone(),
        },
        WalOp::PutFeature {
            image: id,
            kind: FeatureKind::Cnn,
            vector: row.cnn.clone(),
        },
    ]
}

/// Lays `rows` down as a durable directory (journal only, no snapshot)
/// through group commits, then closes it.
pub fn durable_base(dir: &Path, rows: &[Row]) {
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
    let (store, _) = DurableStore::open(dir).expect("scratch directory opens");
    for (chunk_index, chunk) in rows.chunks(BASE_BATCH_ROWS).enumerate() {
        let first = chunk_index * BASE_BATCH_ROWS;
        let ops = chunk
            .iter()
            .enumerate()
            .flat_map(|(i, row)| wal_ops(ImageId((first + i) as u64), row))
            .collect();
        store.apply_batch(ops).expect("base batch journals");
    }
}

/// Copies the files of a durable directory into a new one.
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("scratch directory is writable");
    for entry in std::fs::read_dir(from).expect("durable directory lists") {
        let entry = entry.expect("durable directory entry reads");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("journal file copies");
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// The `data/search` body for `query`, in the wire shapes the router
/// decodes. Floats print in Rust's shortest round-trip form, so the
/// server decodes exactly the query the oracle runs.
pub fn search_body(query: &Query) -> String {
    format!(r#"{{"query":{}}}"#, query_json(query))
}

fn query_json(query: &Query) -> String {
    match query {
        Query::Spatial(SpatialQuery::Range(b)) => {
            format!(
                r#"{{"Spatial":{{"Range":{}}}}}"#,
                codec::encode_bbox(b).render()
            )
        }
        Query::Spatial(SpatialQuery::Nearest { point, k }) => format!(
            r#"{{"Spatial":{{"Nearest":{{"point":{},"k":{k}}}}}}}"#,
            codec::encode_point(point).render()
        ),
        Query::Spatial(SpatialQuery::Directed { region, directions }) => format!(
            r#"{{"Spatial":{{"Directed":{{"region":{},"directions":{{"start":{},"width":{}}}}}}}}}"#,
            codec::encode_bbox(region).render(),
            directions.start(),
            directions.width()
        ),
        Query::Visual {
            example,
            kind,
            mode,
        } => format!(
            r#"{{"Visual":{{"example":{},"kind":{},"mode":{}}}}}"#,
            codec::encode_vector(example).render(),
            codec::encode_kind(*kind).render(),
            match mode {
                VisualMode::TopK(k) => format!(r#"{{"TopK":{k}}}"#),
                VisualMode::Threshold(t) => format!(r#"{{"Threshold":{t}}}"#),
            }
        ),
        Query::Textual {
            text,
            mode: TextualMode::Any,
        } => format!(r#"{{"Textual":{{"text":"{text}","mode":"Any"}}}}"#),
        Query::Temporal {
            field: TemporalField::Captured,
            from,
            to,
        } => format!(r#"{{"Temporal":{{"field":"Captured","from":{from},"to":{to}}}}}"#),
        Query::And(subs) => {
            let subs: Vec<String> = subs.iter().map(query_json).collect();
            format!(r#"{{"And":[{}]}}"#, subs.join(","))
        }
        other => panic!("no workload sends this query shape: {other:?}"),
    }
}

/// A box of `frac` of the region's extent per axis, placed uniformly.
fn random_box(rng: &mut StdRng, frac: f64) -> BBox {
    let r = region();
    let h = (r.max_lat - r.min_lat) * frac;
    let w = (r.max_lon - r.min_lon) * frac;
    let lat = rng.gen_range(r.min_lat..r.max_lat - h);
    let lon = rng.gen_range(r.min_lon..r.max_lon - w);
    BBox::new(lat, lon, lat + h, lon + w)
}

/// A stored row's CNN vector, nudged so it is no row's exact feature.
fn example_near(rows: &[Row], rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = rows[rng.gen_range(0..rows.len())]
        .cnn
        .iter()
        .map(|&x| x + rng.gen_range(-0.004f32..0.004))
        .collect();
    tvdp::kernel::normalize(&mut v);
    v
}

fn visual(example: Vec<f32>, mode: VisualMode) -> Query {
    Query::Visual {
        example,
        kind: FeatureKind::Cnn,
        mode,
    }
}

/// The selective mix: results are at most a few hundred rows, so cost is
/// per-request overhead while the kernels idle. Small `Range`, `Nearest
/// k=10`, `Directed`, `And[Range, Visual Threshold]`, `And[Temporal 5%,
/// Textual Any]`, one fifth each.
pub fn selective_queries(rows: &[Row], n: usize, seed: u64) -> Vec<Query> {
    const WORDS: [&str; 4] = ["street", "sidewalk", "downtown", "la"];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_1EC7);
    let (start, len) = period();
    let r = region();
    (0..n)
        .map(|i| match i % 5 {
            0 => Query::Spatial(SpatialQuery::Range(random_box(&mut rng, 0.05))),
            1 => Query::Spatial(SpatialQuery::Nearest {
                point: GeoPoint::new(
                    rng.gen_range(r.min_lat..r.max_lat),
                    rng.gen_range(r.min_lon..r.max_lon),
                ),
                k: 10,
            }),
            2 => Query::Spatial(SpatialQuery::Directed {
                region: random_box(&mut rng, 0.1),
                directions: AngularRange::new(rng.gen_range(0.0..360.0), 60.0),
            }),
            3 => Query::And(vec![
                Query::Spatial(SpatialQuery::Range(random_box(&mut rng, 0.1))),
                visual(example_near(rows, &mut rng), VisualMode::Threshold(0.35)),
            ]),
            _ => {
                let from = start + rng.gen_range(0..len - len / 20);
                Query::And(vec![
                    Query::Temporal {
                        field: TemporalField::Captured,
                        from,
                        to: from + len / 20,
                    },
                    Query::Textual {
                        text: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                        mode: TextualMode::Any,
                    },
                ])
            }
        })
        .collect()
}

/// The visual mix: every body carries a full CNN example and every
/// segment must answer, so the scan, re-rank and hybrid-tree kernels do
/// the work. Three fifths whole-corpus `Visual TopK(10)`, one fifth
/// `And[broad Range, Visual TopK(10)]`, one fifth tight `Visual
/// Threshold`. The three shapes cost about 10, 3 and 6 ms: with this mix
/// the median request is a whole-corpus top-k, not the edge between two
/// shapes.
pub fn visual_queries(rows: &[Row], n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71_50A1);
    (0..n)
        .map(|i| {
            let example = example_near(rows, &mut rng);
            match i % 5 {
                3 => Query::And(vec![
                    Query::Spatial(SpatialQuery::Range(random_box(&mut rng, 0.5))),
                    visual(example, VisualMode::TopK(10)),
                ]),
                4 => visual(example, VisualMode::Threshold(0.08)),
                _ => visual(example, VisualMode::TopK(10)),
            }
        })
        .collect()
}

/// A fresh scene for upload `index`: a base scene's pixels with seeded
/// per-pixel noise (so no two uploads share a feature vector) and the
/// base's metadata near its original position.
pub struct Upload {
    pub image: Image,
    pub meta: ImageMeta,
}

pub fn upload(bases: &[Base], index: usize, seed: u64) -> Upload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xADD ^ ((index as u64) << 20));
    let base = &bases[rng.gen_range(0..bases.len())];
    let mut raw = base.image.raw().to_vec();
    for px in &mut raw {
        *px = (*px as i16 + rng.gen_range(-12i16..=12)).clamp(0, 255) as u8;
    }
    let row = jitter_row(base, &mut rng);
    Upload {
        image: Image::from_raw(base.image.width(), base.image.height(), raw),
        meta: row.meta,
    }
}

/// The `data/add` body for one upload (hex pixels, the edge wire form).
pub fn add_body(u: &Upload) -> String {
    let keywords: Vec<String> = u.meta.keywords.iter().map(|k| format!("\"{k}\"")).collect();
    let fov = u.meta.fov.as_ref().expect("every upload carries an FOV");
    format!(
        concat!(
            r#"{{"width":{},"height":{},"pixels":"{}","lat":{},"lon":{},"#,
            r#""fov":{{"heading_deg":{},"angle_deg":{},"radius_m":{}}},"#,
            r#""captured_at":{},"uploaded_at":{},"keywords":[{}]}}"#
        ),
        u.image.width(),
        u.image.height(),
        codec::hex_encode(u.image.raw()),
        u.meta.gps.lat,
        u.meta.gps.lon,
        fov.heading_deg,
        fov.angle_deg,
        fov.radius_m,
        u.meta.captured_at,
        u.meta.uploaded_at,
        keywords.join(","),
    )
}

/// The `data/add_batch` body wrapping `bodies`.
pub fn add_batch_body(bodies: &[String]) -> String {
    format!(r#"{{"uploads":[{}]}}"#, bodies.join(","))
}
