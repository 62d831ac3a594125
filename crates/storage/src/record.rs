//! Image records: the `Images` entity plus its spatial descriptors, in
//! the owned form an op carries ([`ImageRecord`], [`ImageMeta`]) and the
//! form the store's image table holds ([`ImageRow`]).
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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

/// An image row as an owned value, assembled only for a caller that
/// asks ([`crate::VisualStore::image`], a dump); readers that hold the
/// store's lock read [`ImageRow`]s in place.
#[derive(Debug, Clone)]
pub struct ImageRecord {
    /// Row identifier.
    pub id: ImageId,
    /// Upload-time metadata.
    pub meta: ImageMeta,
    /// Original or augmented.
    pub origin: ImageOrigin,
    /// Pixel dimensions.
    pub width: usize,
    /// Pixel dimensions.
    pub height: usize,
}

impl ImageRecord {
    /// Whether this row is an augmentation product.
    pub fn is_augmented(&self) -> bool {
        matches!(self.origin, ImageOrigin::Augmented { .. })
    }
}

/// The store's keywords: each distinct string once, numbered in the
/// order the store first met it, and every row's numbers as one
/// `(start, len)` run of a shared pool, in `u32`s as arena row handles
/// are.
#[derive(Debug, Default)]
pub(crate) struct Keywords {
    numbers: BTreeMap<Arc<str>, u32>,
    words: Vec<Arc<str>>,
    pool: Vec<u32>,
}

impl Keywords {
    /// Numbers `keywords` (exact strings, in order, repeats kept) and
    /// appends them to the pool as one run.
    fn intern(&mut self, keywords: Vec<String>) -> (u32, u32) {
        let start = self.pool.len() as u32;
        for word in keywords {
            let number = match self.numbers.get(word.as_str()) {
                Some(&n) => n,
                None => {
                    let n = self.words.len() as u32;
                    let word: Arc<str> = Arc::from(word);
                    self.words.push(Arc::clone(&word));
                    self.numbers.insert(word, n);
                    n
                }
            };
            self.pool.push(number);
        }
        (start, self.pool.len() as u32 - start)
    }
}

/// An image row as the store's table holds it, read through an
/// [`ImageRow`]: no heap of its own, its keywords a run of
/// [`Keywords`], an augmented origin in the table's side map, pixel
/// dimensions as `u32` (the validator refuses wider ones).
#[derive(Debug)]
pub struct StoredImage {
    /// Row identifier.
    pub id: ImageId,
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
    keywords: (u32, u32),
    pub(crate) width: u32,
    pub(crate) height: u32,
    /// [`StoredImage::scene_location`], once read.
    scene: OnceLock<BBox>,
}

impl StoredImage {
    /// The row of `meta` at `id`, its keywords numbered into
    /// `keywords`; its scene location is derived on first read.
    pub(crate) fn new(
        id: ImageId,
        meta: ImageMeta,
        (width, height): (u32, u32),
        keywords: &mut Keywords,
    ) -> Self {
        Self {
            id,
            uploader: meta.uploader,
            gps: meta.gps,
            fov: meta.fov,
            captured_at: meta.captured_at,
            uploaded_at: meta.uploaded_at,
            keywords: keywords.intern(meta.keywords),
            width,
            height,
            scene: OnceLock::new(),
        }
    }

    /// Scene location (MBR of the FOV sector), or the degenerate box at
    /// the GPS point without an FOV: derived on first read, then cached
    /// in the row.
    pub fn scene_location(&self) -> BBox {
        *self.scene.get_or_init(|| match &self.fov {
            Some(fov) => fov.scene_location(),
            None => BBox::from_point(self.gps),
        })
    }
}

/// One stored image row, borrowed from the store's table while its read
/// lock is held ([`crate::VisualStore::with_images`] and the other
/// walks): its fields read in place through `Deref`, its keywords
/// through the store's pool, nothing cloned unless asked for
/// ([`ImageRow::to_record`]).
#[derive(Clone, Copy)]
pub struct ImageRow<'a> {
    pub(crate) image: &'a StoredImage,
    pub(crate) keywords: &'a Keywords,
    /// The table's augmented origins: `(parent, op)` by child id.
    pub(crate) origins: &'a BTreeMap<ImageId, (ImageId, String)>,
}

/// A row prints as its record, not as the store's whole vocabulary.
impl std::fmt::Debug for ImageRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.to_record().fmt(f)
    }
}

impl std::ops::Deref for ImageRow<'_> {
    type Target = StoredImage;

    fn deref(&self) -> &StoredImage {
        self.image
    }
}

impl<'a> ImageRow<'a> {
    /// The keywords, exactly as uploaded and in order.
    pub fn keywords(&self) -> impl Iterator<Item = &'a str> + 'a {
        let words = &self.keywords.words;
        self.keyword_numbers()
            .iter()
            .map(move |&n| &*words[n as usize])
    }

    /// The store-wide numbers of [`ImageRow::keywords`], in the same
    /// order: one number per distinct string in the whole store, so a
    /// reader can derive something once per string, not once per row.
    pub fn keyword_numbers(&self) -> &'a [u32] {
        let (start, len) = self.image.keywords;
        &self.keywords.pool[start as usize..][..len as usize]
    }

    /// The row as an owned [`ImageRecord`].
    pub fn to_record(&self) -> ImageRecord {
        let origin = match self.origins.get(&self.id) {
            Some((parent, op)) => ImageOrigin::Augmented {
                parent: *parent,
                op: op.clone(),
            },
            None => ImageOrigin::Original,
        };
        let meta = ImageMeta {
            uploader: self.uploader,
            gps: self.gps,
            fov: self.fov,
            captured_at: self.captured_at,
            uploaded_at: self.uploaded_at,
            keywords: self.keywords().map(str::to_owned).collect(),
        };
        ImageRecord {
            id: self.id,
            meta,
            origin,
            width: self.width as usize,
            height: self.height as usize,
        }
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

    fn stored(id: u64, fov: Option<Fov>) -> StoredImage {
        StoredImage::new(
            ImageId(id),
            meta_with_fov(fov),
            (64, 48),
            &mut Keywords::default(),
        )
    }

    #[test]
    fn scene_location_from_fov() {
        let fov = Fov::new(GeoPoint::new(34.0, -118.25), 0.0, 60.0, 100.0);
        assert_eq!(stored(1, Some(fov)).scene_location(), fov.scene_location());
    }

    #[test]
    fn scene_location_degenerate_without_fov() {
        assert_eq!(
            stored(2, None).scene_location(),
            BBox::from_point(GeoPoint::new(34.0, -118.25))
        );
    }

    #[test]
    fn the_box_is_derived_once_then_read_from_the_cell() {
        let fov = Fov::new(GeoPoint::new(34.0, -118.25), 30.0, 60.0, 100.0);
        let (mut keywords, origins) = (Keywords::default(), BTreeMap::new());
        let image = StoredImage::new(ImageId(4), meta_with_fov(Some(fov)), (8, 8), &mut keywords);
        let planted = StoredImage::new(ImageId(4), meta_with_fov(Some(fov)), (8, 8), &mut keywords);
        let row = ImageRow {
            image: &image,
            keywords: &keywords,
            origins: &origins,
        };
        assert!(image.scene.get().is_none(), "nothing is derived at new");
        assert_eq!(row.scene_location(), fov.scene_location());
        assert_eq!(image.scene.get(), Some(&fov.scene_location()));
        // A later read takes the cell, not the FOV.
        let marker = BBox::from_point(GeoPoint::new(1.0, 2.0));
        planted.scene.set(marker).unwrap();
        let planted = ImageRow {
            image: &planted,
            ..row
        };
        assert_eq!(planted.scene_location(), marker);
    }

    /// A row holds its keywords as numbers into the store's pool and
    /// reads them back as uploaded: no keywords, repeats, mixed case,
    /// non-ASCII and long lists, each distinct string held once.
    #[test]
    fn a_row_reads_its_keywords_back_exactly_and_each_string_is_held_once() {
        let lists: [Vec<&str>; 5] = [
            vec![],
            vec!["Street", "street", "STREET", "Street"],
            vec!["Straße", "İstanbul", "ΟΔΟΣ", "", " two words "],
            (0..40).map(|i| ["a", "b", "Street", "c"][i % 4]).collect(),
            vec!["street"],
        ];
        let mut keywords = Keywords::default();
        let images: Vec<StoredImage> = lists
            .iter()
            .enumerate()
            .map(|(i, list)| {
                let mut meta = meta_with_fov(None);
                meta.keywords = list.iter().map(|k| k.to_string()).collect();
                StoredImage::new(ImageId(i as u64), meta, (0, 0), &mut keywords)
            })
            .collect();
        let origins = BTreeMap::new();
        let mut numbered: BTreeMap<&str, u32> = BTreeMap::new();
        for (image, list) in images.iter().zip(&lists) {
            let row = ImageRow {
                image,
                keywords: &keywords,
                origins: &origins,
            };
            assert_eq!(row.keywords().collect::<Vec<_>>(), *list);
            assert_eq!(row.to_record().meta.keywords, *list);
            for (&word, &number) in list.iter().zip(row.keyword_numbers()) {
                assert_eq!(*numbered.entry(word).or_insert(number), number);
            }
        }
        let numbers: std::collections::BTreeSet<u32> = numbered.values().copied().collect();
        assert_eq!(numbers.len(), numbered.len(), "one number per string");
        assert_eq!(keywords.words.len(), numbered.len());
        assert_eq!(keywords.numbers.len(), numbered.len());
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
        derived.for_each_image(|r| boxes += usize::from(r.image.scene.get().is_some()));
        underived.for_each_image(|r| assert!(r.image.scene.get().is_none()));
        assert_eq!(boxes, 3);
        assert_eq!(derived.digest(), underived.digest());
        assert_ne!(derived.digest(), store_of(301.0).digest());
    }

    /// An augmented origin lives in the table's side map and comes back
    /// whole in the owned record; an original row has no entry.
    #[test]
    fn augmented_origin_tracks_parent() {
        use crate::store::VisualStore;
        use crate::wal::WalOp;
        let origin = ImageOrigin::Augmented {
            parent: ImageId(1),
            op: "flip_h".into(),
        };
        let store = VisualStore::new();
        let add = |id: u64, origin: ImageOrigin| WalOp::AddImage {
            id: ImageId(id),
            meta: meta_with_fov(None),
            origin,
            pixels: None,
        };
        let ops = vec![add(1, ImageOrigin::Original), add(3, origin.clone())];
        store.apply_batch(ops).unwrap();
        let rec = store.image(ImageId(3)).unwrap();
        assert!(rec.is_augmented());
        assert_eq!(rec.origin, origin);
        assert!(!store.image(ImageId(1)).unwrap().is_augmented());
    }
}
