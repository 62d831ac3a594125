//! Image records: the `Images` entity plus its spatial descriptors.
use std::sync::OnceLock;

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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct ImageRecord {
    /// Row identifier.
    pub id: ImageId,
    /// Upload-time metadata.
    pub meta: ImageMeta,
    /// [`ImageRecord::scene_location`], once read.
    scene: OnceLock<BBox>,
    /// Original or augmented.
    pub origin: ImageOrigin,
    /// Pixel dimensions.
    pub width: usize,
    /// Pixel dimensions.
    pub height: usize,
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
            scene: OnceLock::new(),
            origin,
            width,
            height,
        }
    }

    /// Scene location (MBR of the FOV sector), or the degenerate box at
    /// the GPS point without an FOV: derived on first read, then cached.
    pub fn scene_location(&self) -> BBox {
        *self.scene.get_or_init(|| match &self.meta.fov {
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
        assert!(rec.scene.get().is_none(), "nothing is derived at new");
        assert_eq!(rec.scene_location(), fov.scene_location());
        assert_eq!(rec.scene.get(), Some(&fov.scene_location()));
        // A later read takes the cell, not the FOV.
        let planted = ImageRecord::new(ImageId(4), meta, ImageOrigin::Original, 8, 8);
        let marker = BBox::from_point(GeoPoint::new(1.0, 2.0));
        planted.scene.set(marker).unwrap();
        assert_eq!(planted.scene_location(), marker);
    }

    /// A scene box is derived state: reading it changes no record's
    /// bytes, so a store whose boxes were derived has the digest of one
    /// whose boxes were not, and a different FOV is a different store.
    #[test]
    fn a_store_whose_scene_boxes_were_derived_has_the_digest_of_one_whose_were_not() {
        use crate::store::VisualStore;
        use crate::wal::WalOp;
        let store_of = |heading: f64| {
            let fov = Fov::new(GeoPoint::new(34.0, -118.25), heading, 90.0, 50.0);
            let store = VisualStore::new();
            let rows = (0..3).map(|i| WalOp::AddImage {
                id: ImageId(i),
                meta: meta_with_fov(Some(fov)),
                origin: ImageOrigin::Original,
                pixels: None,
            });
            store.apply_batch(rows.collect()).unwrap();
            store
        };
        let (derived, underived) = (store_of(300.0), store_of(300.0));
        derived.for_each_image(|r| {
            r.scene_location();
        });
        let mut boxes = 0;
        derived.for_each_image(|r| boxes += usize::from(r.scene.get().is_some()));
        underived.for_each_image(|r| assert!(r.scene.get().is_none()));
        assert_eq!(boxes, 3);
        assert_eq!(derived.digest(), underived.digest());
        assert_ne!(derived.digest(), store_of(301.0).digest());
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
