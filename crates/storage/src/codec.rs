//! JSON wire helpers for the domain types the API, the CLI and the
//! benchmark exchange: feature kinds, points and bounding boxes. No row
//! reaches disk through them — every on-disk row is a [`crate::wal`]
//! record.
//!
//! The value tree, parser, renderer and field helpers are the
//! workspace-wide [`tvdp_json`] codec, re-exported here so
//! `tvdp_storage::codec::{Value, parse, ..}` keeps resolving.

use tvdp_geo::{BBox, GeoPoint};
use tvdp_vision::FeatureKind;

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
