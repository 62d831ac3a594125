//! Image records: the `Images` entity plus its spatial descriptors.
use tvdp_geo::{BBox, Fov, GeoPoint};

use crate::ids::{ImageId, UserId};

/// Provenance of an image: captured in the field, or synthesized from
/// another stored image by an augmentation operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageOrigin {
    /// Captured by a camera and uploaded.
    Original,
    /// Derived from `parent` by the augmentation identified by `op`
    /// (an [`tvdp_vision::Augmentation::tag`] string).
    Augmented {
        /// The source image.
        parent: ImageId,
        /// Augmentation tag, e.g. `"flip_h"`.
        op: String,
    },
}

/// Descriptive metadata supplied at upload time.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageMeta {
    /// Uploading user.
    pub uploader: UserId,
    /// GPS camera location at capture time.
    pub gps: GeoPoint,
    /// Field-of-view descriptor, when direction sensors were available.
    pub fov: Option<Fov>,
    /// Capture timestamp (Unix seconds).
    pub captured_at: i64,
    /// Upload timestamp (Unix seconds).
    pub uploaded_at: i64,
    /// Free-text keywords supplied by the uploader.
    pub keywords: Vec<String>,
}

/// A stored image row: metadata plus derived spatial descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageRecord {
    /// Row identifier.
    pub id: ImageId,
    /// Upload-time metadata.
    pub meta: ImageMeta,
    /// [`ImageRecord::scene_location`], once read.
    scene: SceneCell,
    /// Original or augmented.
    pub origin: ImageOrigin,
    /// Pixel dimensions.
    pub width: usize,
    /// Pixel dimensions.
    pub height: usize,
}

/// The record's scene box cell. Any two are equal: the box is a
/// function of `meta`, so records compare by their stored fields alone.
#[derive(Debug, Clone, Default)]
struct SceneCell(std::sync::OnceLock<BBox>);

impl PartialEq for SceneCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl ImageRecord {
    /// Builds a record; its scene location is derived on first read.
    pub fn new(
        id: ImageId,
        meta: ImageMeta,
        origin: ImageOrigin,
        width: usize,
        height: usize,
    ) -> Self {
        Self {
            id,
            meta,
            scene: SceneCell::default(),
            origin,
            width,
            height,
        }
    }

    /// Scene location (MBR of the FOV sector), or the degenerate box at
    /// the GPS point without an FOV: derived on first read, then cached.
    pub fn scene_location(&self) -> BBox {
        *self.scene.0.get_or_init(|| match &self.meta.fov {
            Some(fov) => fov.scene_location(),
            None => BBox::from_point(self.meta.gps),
        })
    }

    /// Whether this row is an augmentation product.
    pub fn is_augmented(&self) -> bool {
        matches!(self.origin, ImageOrigin::Augmented { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_with_fov(fov: Option<Fov>) -> ImageMeta {
        ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0, -118.25),
            fov,
            captured_at: 1_000,
            uploaded_at: 1_050,
            keywords: vec!["street".into()],
        }
    }

    #[test]
    fn scene_location_from_fov() {
        let fov = Fov::new(GeoPoint::new(34.0, -118.25), 0.0, 60.0, 100.0);
        let rec = ImageRecord::new(
            ImageId(1),
            meta_with_fov(Some(fov)),
            ImageOrigin::Original,
            64,
            48,
        );
        assert_eq!(rec.scene_location(), fov.scene_location());
        assert!(!rec.is_augmented());
    }

    #[test]
    fn scene_location_degenerate_without_fov() {
        let rec = ImageRecord::new(
            ImageId(2),
            meta_with_fov(None),
            ImageOrigin::Original,
            64,
            48,
        );
        assert_eq!(
            rec.scene_location(),
            BBox::from_point(GeoPoint::new(34.0, -118.25))
        );
    }

    #[test]
    fn the_box_is_derived_once_then_read_from_the_cell() {
        let fov = Fov::new(GeoPoint::new(34.0, -118.25), 30.0, 60.0, 100.0);
        let meta = meta_with_fov(Some(fov));
        let rec = ImageRecord::new(ImageId(4), meta.clone(), ImageOrigin::Original, 8, 8);
        assert!(rec.scene.0.get().is_none(), "nothing is derived at new");
        assert_eq!(rec.scene_location(), fov.scene_location());
        assert_eq!(rec.scene.0.get(), Some(&fov.scene_location()));
        // A later read takes the cell, not the FOV.
        let planted = ImageRecord::new(ImageId(4), meta, ImageOrigin::Original, 8, 8);
        let marker = BBox::from_point(GeoPoint::new(1.0, 2.0));
        planted.scene.0.set(marker).unwrap();
        assert_eq!(planted.scene_location(), marker);
    }

    #[test]
    fn a_derived_record_equals_its_clone_taken_before_derivation() {
        let fov = Fov::new(GeoPoint::new(34.0, -118.25), 300.0, 90.0, 50.0);
        let rec = ImageRecord::new(
            ImageId(5),
            meta_with_fov(Some(fov)),
            ImageOrigin::Original,
            8,
            8,
        );
        let before = rec.clone();
        rec.scene_location();
        assert!(rec.scene.0.get().is_some() && before.scene.0.get().is_none());
        assert_eq!(rec, before);
        assert_eq!(before, rec);
        let mut other = before.clone();
        other.width += 1;
        assert_ne!(rec, other);
    }

    #[test]
    fn augmented_origin_tracks_parent() {
        let origin = ImageOrigin::Augmented {
            parent: ImageId(1),
            op: "flip_h".into(),
        };
        let rec = ImageRecord::new(ImageId(3), meta_with_fov(None), origin.clone(), 64, 48);
        assert!(rec.is_augmented());
        assert_eq!(rec.origin, origin);
    }
}
