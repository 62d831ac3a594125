//! JSON encoders/decoders for every persisted row type.
//!
//! The value tree, parser, renderer and field helpers are the
//! workspace-wide [`tvdp_json`] codec, re-exported here so
//! `tvdp_storage::codec::{Value, parse, ..}` keeps resolving.

use tvdp_geo::{BBox, Fov, GeoPoint};
use tvdp_vision::FeatureKind;

use crate::annotation::{Annotation, AnnotationSource, ClassificationScheme, RegionOfInterest};
use crate::ids::{AnnotationId, ClassificationId, ImageId, ModelId, UserId};
use crate::record::{ImageMeta, ImageOrigin, ImageRecord};

pub use tvdp_json::*;

/// Encodes a feature kind as its variant name.
pub fn encode_kind(kind: FeatureKind) -> Value {
    Value::str(match kind {
        FeatureKind::ColorHistogram => "ColorHistogram",
        FeatureKind::SiftBow => "SiftBow",
        FeatureKind::Cnn => "Cnn",
    })
}

/// Decodes a feature kind.
pub fn decode_kind(v: &Value) -> Result<FeatureKind, DecodeError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "ColorHistogram" => Ok(FeatureKind::ColorHistogram),
            "SiftBow" => Ok(FeatureKind::SiftBow),
            "Cnn" => Ok(FeatureKind::Cnn),
            other => Err(format!("unknown feature kind `{other}`")),
        },
        _ => Err("feature kind: expected a string".into()),
    }
}

/// Encodes a geographic point.
pub fn encode_point(p: &GeoPoint) -> Value {
    obj(vec![("lat", Value::num(p.lat)), ("lon", Value::num(p.lon))])
}

/// Decodes a geographic point.
pub fn decode_point(v: &Value) -> Result<GeoPoint, DecodeError> {
    Ok(GeoPoint {
        lat: num_field(v, "lat")?,
        lon: num_field(v, "lon")?,
    })
}

/// Encodes a field-of-view descriptor.
pub fn encode_fov(f: &Fov) -> Value {
    obj(vec![
        ("camera", encode_point(&f.camera)),
        ("heading_deg", Value::num(f.heading_deg)),
        ("angle_deg", Value::num(f.angle_deg)),
        ("radius_m", Value::num(f.radius_m)),
    ])
}

/// Decodes a field-of-view descriptor.
pub fn decode_fov(v: &Value) -> Result<Fov, DecodeError> {
    Ok(Fov {
        camera: decode_point(field(v, "camera")?)?,
        heading_deg: num_field(v, "heading_deg")?,
        angle_deg: num_field(v, "angle_deg")?,
        radius_m: num_field(v, "radius_m")?,
    })
}

/// Encodes a bounding box.
pub fn encode_bbox(b: &BBox) -> Value {
    obj(vec![
        ("min_lat", Value::num(b.min_lat)),
        ("min_lon", Value::num(b.min_lon)),
        ("max_lat", Value::num(b.max_lat)),
        ("max_lon", Value::num(b.max_lon)),
    ])
}

/// Decodes a bounding box.
pub fn decode_bbox(v: &Value) -> Result<BBox, DecodeError> {
    Ok(BBox {
        min_lat: num_field(v, "min_lat")?,
        min_lon: num_field(v, "min_lon")?,
        max_lat: num_field(v, "max_lat")?,
        max_lon: num_field(v, "max_lon")?,
    })
}

/// Encodes an image origin (`"Original"` or a tagged `Augmented` object).
pub fn encode_origin(o: &ImageOrigin) -> Value {
    match o {
        ImageOrigin::Original => Value::str("Original"),
        ImageOrigin::Augmented { parent, op } => obj(vec![(
            "Augmented",
            obj(vec![
                ("parent", Value::num(parent.raw())),
                ("op", Value::str(op.clone())),
            ]),
        )]),
    }
}

/// Decodes an image origin.
pub fn decode_origin(v: &Value) -> Result<ImageOrigin, DecodeError> {
    match v {
        Value::Str(s) if s == "Original" => Ok(ImageOrigin::Original),
        Value::Obj(_) => {
            let inner = field(v, "Augmented")?;
            Ok(ImageOrigin::Augmented {
                parent: ImageId(num_field(inner, "parent")?),
                op: str_field(inner, "op")?.to_string(),
            })
        }
        _ => Err("origin: expected `Original` or an `Augmented` object".into()),
    }
}

/// Encodes upload-time metadata.
pub fn encode_meta(m: &ImageMeta) -> Value {
    obj(vec![
        ("uploader", Value::num(m.uploader.raw())),
        ("gps", encode_point(&m.gps)),
        ("fov", m.fov.as_ref().map_or(Value::Null, encode_fov)),
        ("captured_at", Value::num(m.captured_at)),
        ("uploaded_at", Value::num(m.uploaded_at)),
        (
            "keywords",
            Value::Arr(m.keywords.iter().map(|k| Value::str(k.clone())).collect()),
        ),
    ])
}

/// Decodes upload-time metadata.
pub fn decode_meta(v: &Value) -> Result<ImageMeta, DecodeError> {
    let fov = match field(v, "fov")? {
        Value::Null => None,
        f => Some(decode_fov(f)?),
    };
    let keywords = arr_field(v, "keywords")?
        .iter()
        .map(|k| match k {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("keywords: expected strings".to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok(ImageMeta {
        uploader: UserId(num_field(v, "uploader")?),
        gps: decode_point(field(v, "gps")?)?,
        fov,
        captured_at: num_field(v, "captured_at")?,
        uploaded_at: num_field(v, "uploaded_at")?,
        keywords,
    })
}

/// Encodes a full image record.
pub fn encode_record(r: &ImageRecord) -> Value {
    obj(vec![
        ("id", Value::num(r.id.raw())),
        ("meta", encode_meta(&r.meta)),
        ("scene_location", encode_bbox(&r.scene_location)),
        ("origin", encode_origin(&r.origin)),
        ("width", Value::num(r.width)),
        ("height", Value::num(r.height)),
    ])
}

/// Decodes a full image record.
pub fn decode_record(v: &Value) -> Result<ImageRecord, DecodeError> {
    Ok(ImageRecord {
        id: ImageId(num_field(v, "id")?),
        meta: decode_meta(field(v, "meta")?)?,
        scene_location: decode_bbox(field(v, "scene_location")?)?,
        origin: decode_origin(field(v, "origin")?)?,
        width: num_field(v, "width")?,
        height: num_field(v, "height")?,
    })
}

/// Encodes a classification scheme.
pub fn encode_scheme(s: &ClassificationScheme) -> Value {
    obj(vec![
        ("id", Value::num(s.id.raw())),
        ("name", Value::str(s.name.clone())),
        (
            "labels",
            Value::Arr(s.labels.iter().map(|l| Value::str(l.clone())).collect()),
        ),
    ])
}

/// Decodes a classification scheme (structure only; vocabulary
/// invariants are enforced by snapshot validation).
pub fn decode_scheme(v: &Value) -> Result<ClassificationScheme, DecodeError> {
    let labels = arr_field(v, "labels")?
        .iter()
        .map(|l| match l {
            Value::Str(s) => Ok(s.clone()),
            _ => Err("labels: expected strings".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ClassificationScheme {
        id: ClassificationId(num_field(v, "id")?),
        name: str_field(v, "name")?.to_string(),
        labels,
    })
}

fn encode_source(s: &AnnotationSource) -> Value {
    match s {
        AnnotationSource::Human(u) => obj(vec![("Human", Value::num(u.raw()))]),
        AnnotationSource::Machine(m) => obj(vec![("Machine", Value::num(m.raw()))]),
    }
}

fn decode_source(v: &Value) -> Result<AnnotationSource, DecodeError> {
    if let Some(u) = v.get("Human") {
        Ok(AnnotationSource::Human(UserId(num(u, "Human")?)))
    } else if let Some(m) = v.get("Machine") {
        Ok(AnnotationSource::Machine(ModelId(num(m, "Machine")?)))
    } else {
        Err("source: expected `Human` or `Machine`".into())
    }
}

fn encode_region(r: &RegionOfInterest) -> Value {
    obj(vec![
        ("x", Value::num(r.x)),
        ("y", Value::num(r.y)),
        ("width", Value::num(r.width)),
        ("height", Value::num(r.height)),
    ])
}

fn decode_region(v: &Value) -> Result<RegionOfInterest, DecodeError> {
    Ok(RegionOfInterest {
        x: num_field(v, "x")?,
        y: num_field(v, "y")?,
        width: num_field(v, "width")?,
        height: num_field(v, "height")?,
    })
}

/// Encodes an annotation row.
pub fn encode_annotation(a: &Annotation) -> Value {
    obj(vec![
        ("id", Value::num(a.id.raw())),
        ("image", Value::num(a.image.raw())),
        ("classification", Value::num(a.classification.raw())),
        ("label", Value::num(a.label)),
        ("confidence", Value::num(a.confidence)),
        ("source", encode_source(&a.source)),
        (
            "region",
            a.region.as_ref().map_or(Value::Null, encode_region),
        ),
    ])
}

/// Decodes an annotation row (structure only; range invariants are
/// enforced by snapshot validation).
pub fn decode_annotation(v: &Value) -> Result<Annotation, DecodeError> {
    let region = match field(v, "region")? {
        Value::Null => None,
        r => Some(decode_region(r)?),
    };
    Ok(Annotation {
        id: AnnotationId(num_field(v, "id")?),
        image: ImageId(num_field(v, "image")?),
        classification: ClassificationId(num_field(v, "classification")?),
        label: num_field(v, "label")?,
        confidence: num_field(v, "confidence")?,
        source: decode_source(field(v, "source")?)?,
        region,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let meta = ImageMeta {
            uploader: UserId(7),
            gps: GeoPoint::new(34.052_235, -118.243_683),
            fov: Some(Fov::new(GeoPoint::new(34.05, -118.24), 123.4, 60.0, 80.5)),
            captured_at: -5,
            uploaded_at: 1_546_300_800,
            keywords: vec!["street \"corner\"".into(), "λ".into()],
        };
        let augmented = ImageOrigin::Augmented {
            parent: ImageId(41),
            op: "flip_h".into(),
        };
        for rec in [
            ImageRecord::new(ImageId(42), meta.clone(), augmented, 64, 48),
            ImageRecord::new(ImageId(9), meta, ImageOrigin::Original, 32, 32),
        ] {
            let back = decode_record(&parse(&encode_record(&rec).render()).unwrap()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn annotation_and_scheme_roundtrip() {
        let scheme = ClassificationScheme {
            id: ClassificationId(3),
            name: "street-cleanliness".into(),
            labels: vec!["clean".into(), "dirty".into()],
        };
        let back = decode_scheme(&parse(&encode_scheme(&scheme).render()).unwrap()).unwrap();
        assert_eq!(back, scheme);

        for source in [
            AnnotationSource::Human(UserId(1)),
            AnnotationSource::Machine(ModelId(9)),
        ] {
            let ann = Annotation {
                id: AnnotationId(5),
                image: ImageId(42),
                classification: ClassificationId(3),
                label: 1,
                confidence: 0.75,
                source,
                region: Some(RegionOfInterest {
                    x: 1,
                    y: 2,
                    width: 3,
                    height: 4,
                }),
            };
            let back =
                decode_annotation(&parse(&encode_annotation(&ann).render()).unwrap()).unwrap();
            assert_eq!(back, ann);
        }
    }
}
