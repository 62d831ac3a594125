//! Property-based tests: arbitrary store contents survive the snapshot
//! and persistence round trips intact.

use tvdp_geo::GeoPoint;
use tvdp_kernel::rng::{for_each_case, Rng};
use tvdp_storage::{AnnotationSource, ImageMeta, ImageOrigin, UserId, VisualStore};
use tvdp_vision::{FeatureKind, Image};

#[derive(Debug, Clone)]
struct Row {
    lat: f64,
    lon: f64,
    captured: i64,
    keywords: Vec<String>,
    label: usize,
    confidence: f32,
    feature: Vec<f32>,
    with_pixels: bool,
}

const CASES: u64 = 24;

/// One to eight lowercase letters.
fn arb_word(rng: &mut Rng) -> String {
    (0..rng.gen_range(1..=8))
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn arb_row(rng: &mut Rng) -> Row {
    Row {
        lat: rng.gen_range(33.5..34.5),
        lon: rng.gen_range(-119.0..-118.0),
        captured: rng.gen_range(0..1_000_000),
        keywords: (0..rng.gen_range(0..3)).map(|_| arb_word(rng)).collect(),
        label: rng.gen_range(0..3),
        confidence: rng.gen_range(0.0..=1.0),
        feature: (0..4).map(|_| rng.gen_range(-10.0..10.0)).collect(),
        with_pixels: rng.gen_bool(0.5),
    }
}

fn arb_rows(rng: &mut Rng, max: usize) -> Vec<Row> {
    (0..rng.gen_range(1..max)).map(|_| arb_row(rng)).collect()
}

fn populate(rows: &[Row]) -> VisualStore {
    let store = VisualStore::new();
    let scheme = store
        .register_scheme("s", vec!["a".into(), "b".into(), "c".into()])
        .unwrap();
    for (i, row) in rows.iter().enumerate() {
        let meta = ImageMeta {
            uploader: UserId(i as u64 % 4),
            gps: GeoPoint::new(row.lat, row.lon),
            fov: None,
            captured_at: row.captured,
            uploaded_at: row.captured + 1,
            keywords: row.keywords.clone(),
        };
        let pixels = row
            .with_pixels
            .then(|| Image::from_fn(4, 4, |x, y| [(x + i) as u8, y as u8, row.label as u8]));
        let id = store
            .add_image(meta, ImageOrigin::Original, pixels)
            .unwrap();
        store
            .put_feature(id, FeatureKind::Cnn, row.feature.clone())
            .unwrap();
        store
            .annotate(
                id,
                scheme,
                row.label,
                row.confidence,
                AnnotationSource::Human(UserId(0)),
                None,
            )
            .unwrap();
    }
    store
}

#[test]
fn snapshot_roundtrip_preserves_everything() {
    for_each_case(CASES, |_, rng| {
        let rows = arb_rows(rng, 20);
        let store = populate(&rows);
        let restored = VisualStore::from_snapshot(store.snapshot()).unwrap();
        assert_eq!(restored.len(), store.len());
        assert_eq!(restored.annotation_count(), store.annotation_count());
        for id in store.image_ids() {
            assert_eq!(restored.image(id), store.image(id));
            assert_eq!(restored.pixels(id), store.pixels(id));
            assert_eq!(
                restored.feature(id, FeatureKind::Cnn),
                store.feature(id, FeatureKind::Cnn)
            );
            assert_eq!(restored.annotations_of(id), store.annotations_of(id));
        }
    });
}

#[test]
fn persistence_roundtrip_preserves_everything() {
    for_each_case(CASES, |_, rng| {
        let rows = arb_rows(rng, 12);
        let store = populate(&rows);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tvdp-prop-{}-{}.jsonl",
            std::process::id(),
            rows.len() * 1000 + rows.first().map_or(0, |r| r.label)
        ));
        tvdp_storage::persist::save(&store, &path).unwrap();
        let restored = tvdp_storage::persist::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.len(), store.len());
        for id in store.image_ids() {
            assert_eq!(restored.image(id), store.image(id));
            assert_eq!(restored.pixels(id), store.pixels(id));
        }
        // Label queries agree.
        let scheme = store.scheme_by_name("s").unwrap().id;
        for label in 0..3 {
            assert_eq!(
                restored.annotations_with_label(scheme, label).len(),
                store.annotations_with_label(scheme, label).len()
            );
        }
    });
}

#[test]
fn id_allocation_never_collides_after_restore() {
    for_each_case(CASES, |_, rng| {
        let rows = arb_rows(rng, 10);
        let store = populate(&rows);
        let restored = VisualStore::from_snapshot(store.snapshot()).unwrap();
        let before = restored.image_ids();
        let meta = ImageMeta {
            uploader: UserId(0),
            gps: GeoPoint::new(34.0, -118.5),
            fov: None,
            captured_at: 0,
            uploaded_at: 1,
            keywords: vec![],
        };
        let new_id = restored
            .add_image(meta, ImageOrigin::Original, None)
            .unwrap();
        assert!(!before.contains(&new_id), "fresh id {new_id} collides");
    });
}
