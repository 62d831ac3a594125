//! The concurrency-safe visual data store.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use tvdp_kernel::sync::RwLock;
use tvdp_kernel::{FeatureSlab, GenCell, RowRef, RowSource, SlabView};
use tvdp_vision::{FeatureKind, Image};

use crate::annotation::{Annotation, ClassificationScheme, RegionOfInterest};
use crate::ids::{AnnotationId, ClassificationId, ImageId};
use crate::pixels;
use crate::record::{ImageMeta, ImageOrigin, ImageRecord, ImageRow, Keywords, StoredImage};
use crate::wal::{self, pixel_blob, PixelBlob, WalOp, SEGMENT_MAGIC};

/// Capacity of the upload idempotency table (the markers of
/// [`WalOp::IngestUpload`]): at most this many marker keys are
/// remembered, and inserting past the bound evicts the oldest marker
/// (smallest sequence number). The table bounds memory; the window
/// bounds how stale a client retry can be and still deduplicate —
/// replays older than the window are ingested as fresh uploads.
pub const UPLOAD_MARKER_CAPACITY: usize = 4096;

/// Why the store refused a mutation. Every write — in-memory, journaled,
/// or replayed from a WAL — is checked by the one validator
/// ([`VisualStore::apply_batch`]), so these are the only shapes a refused
/// op can take.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// The referenced image does not exist.
    UnknownImage(ImageId),
    /// The referenced classification scheme does not exist.
    UnknownClassification(ClassificationId),
    /// The label index exceeds the scheme's vocabulary.
    LabelOutOfRange {
        /// Scheme whose vocabulary was exceeded.
        classification: ClassificationId,
        /// Offending label index.
        label: usize,
        /// Vocabulary size.
        vocabulary: usize,
    },
    /// A scheme with this name already exists.
    DuplicateScheme(String),
    /// An explicit-id insert targeted an id that is already occupied.
    DuplicateId {
        /// The occupied id (raw value).
        id: u64,
        /// The table involved (`"image"`, `"annotation"`, or
        /// `"classification"`).
        table: &'static str,
    },
    /// A scheme's label vocabulary is empty or repeats a label.
    BadVocabulary(String),
    /// An annotation's confidence is outside `[0, 1]` or not a number.
    BadConfidence(f32),
    /// A pixel code's byte count is one no code of a `width` x `height`
    /// image has ([`crate::pixels::coded_len_ok`]), or a dimension is
    /// zero or does not fit a `u32`.
    BlobShape {
        /// Image the code belongs to.
        image: ImageId,
        /// Declared width in pixels.
        width: usize,
        /// Declared height in pixels.
        height: usize,
        /// Byte count of the code.
        len: usize,
    },
    /// An upload-marker table ([`WalOp::UploadMarkers`]) names an
    /// idempotency key that is already held.
    DuplicateMarker(String),
    /// An annotation's region reaches past its image's pixel bounds.
    RegionOutOfBounds {
        /// The annotated image.
        image: ImageId,
        /// The refused region.
        region: RegionOfInterest,
        /// The image's width in pixels.
        width: usize,
        /// The image's height in pixels.
        height: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownImage(id) => write!(f, "unknown image {id}"),
            StorageError::UnknownClassification(id) => write!(f, "unknown classification {id}"),
            StorageError::LabelOutOfRange {
                classification,
                label,
                vocabulary,
            } => write!(
                f,
                "label {label} out of range for {classification} (vocabulary size {vocabulary})"
            ),
            StorageError::DuplicateScheme(name) => write!(f, "duplicate scheme name {name}"),
            StorageError::DuplicateId { id, table } => {
                write!(f, "{table} id {id} is already occupied")
            }
            StorageError::BadVocabulary(name) => write!(
                f,
                "scheme {name}: label vocabulary must be non-empty and unique"
            ),
            StorageError::BadConfidence(c) => write!(f, "confidence {c} outside [0, 1]"),
            StorageError::BlobShape {
                image,
                width,
                height,
                len,
            } => write!(
                f,
                "pixel code for {image}: {len} bytes is impossible for {width}x{height}"
            ),
            StorageError::DuplicateMarker(key) => write!(f, "duplicate upload marker `{key}`"),
            StorageError::RegionOutOfBounds {
                image,
                region,
                width,
                height,
            } => write!(
                f,
                "region at ({}, {}) of {}x{} exceeds {image}'s {width}x{height} pixels",
                region.x, region.y, region.width, region.height
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Uploads a batch skipped as replays, as `(id the op carried, id
/// already stored under its marker)`: an [`WalOp::IngestUpload`] whose
/// idempotency marker is already present is neither journaled nor
/// applied, and the id it carried stays unused.
pub type Replays = Vec<(ImageId, ImageId)>;

/// The `(width, height)` an image row gets from its pixels, `(0, 0)`
/// for a row stored without them.
fn pixel_dims(pixels: &Option<PixelBlob>) -> (usize, usize) {
    pixels.as_ref().map_or((0, 0), |(w, h, _)| (*w, *h))
}

fn vocabulary_ok(labels: &[String]) -> bool {
    let mut seen = BTreeSet::new();
    !labels.is_empty() && labels.iter().all(|l| seen.insert(l.as_str()))
}

/// `false` for NaN and the infinities as well as out-of-range values.
fn confidence_ok(confidence: f32) -> bool {
    (0.0..=1.0).contains(&confidence)
}

/// Dump of every table: what a base segment is rendered from
/// ([`Snapshot::into_ops`]).
///
/// A dump has no equality of its own: two stores are the same state
/// exactly when their ops encode to the same records, which
/// [`VisualStore::digest`] hashes and [`first_difference`] compares.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    pub(crate) images: Vec<ImageRecord>,
    /// Pixels as `(image, width, height, code)`.
    pub(crate) blobs: Vec<(ImageId, usize, usize, Vec<u8>)>,
    pub(crate) features: Vec<(ImageId, FeatureKind, Vec<f32>)>,
    pub(crate) schemes: Vec<ClassificationScheme>,
    pub(crate) annotations: Vec<Annotation>,
    /// Upload idempotency markers as `(key, image, sequence)`.
    pub(crate) markers: Vec<(String, ImageId, u64)>,
}

impl Snapshot {
    /// The dump as ops that rebuild it on an empty store, in an order
    /// the validator accepts: schemes; then each image with its pixels
    /// and features as one unkeyed upload, by id, except that an
    /// augmented child committed at a lower id than its parent follows
    /// that parent; then annotations; then the marker table, always
    /// and last, which is how a reader knows the dump is whole.
    pub fn into_ops(self) -> Vec<WalOp> {
        let mut blobs: BTreeMap<ImageId, PixelBlob> = self
            .blobs
            .into_iter()
            .map(|(id, width, height, raw)| (id, (width, height, raw)))
            .collect();
        let mut features: BTreeMap<ImageId, Vec<(FeatureKind, Vec<f32>)>> = BTreeMap::new();
        for (id, kind, vector) in self.features {
            features.entry(id).or_default().push((kind, vector));
        }
        let mut images: BTreeMap<ImageId, ImageRecord> =
            self.images.into_iter().map(|r| (r.id, r)).collect();
        let mut ops =
            Vec::with_capacity(self.schemes.len() + images.len() + self.annotations.len() + 1);
        ops.extend(self.schemes.into_iter().map(|s| WalOp::RegisterScheme {
            id: s.id,
            name: s.name,
            labels: s.labels,
        }));
        // `images` holds what is not yet emitted, so its first key is
        // the lowest such id and any parent still in it has a higher one.
        while let Some(lowest) = images.keys().next().copied() {
            let mut lineage = vec![lowest];
            while let Some(ImageOrigin::Augmented { parent, .. }) = lineage
                .last()
                .and_then(|id| images.get(id))
                .map(|r| &r.origin)
            {
                if !images.contains_key(parent) {
                    break;
                }
                lineage.push(*parent);
            }
            for id in lineage.into_iter().rev() {
                let Some(record) = images.remove(&id) else {
                    continue;
                };
                ops.push(WalOp::IngestUpload {
                    marker: None,
                    id,
                    meta: record.meta,
                    origin: record.origin,
                    pixels: blobs.remove(&id),
                    features: features.remove(&id).unwrap_or_default(),
                });
            }
        }
        ops.extend(self.annotations.into_iter().map(WalOp::Annotate));
        ops.push(WalOp::UploadMarkers(self.markers));
        ops
    }
}

/// Stable address of one feature row in the store's arena: the slab is
/// keyed by `(kind, dim)` and `row` indexes into it. Handles never move
/// once issued (replacement repoints the handle at a fresh row), so
/// indexes can hold them across arbitrary later ingests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FeatureHandle {
    /// Feature family the row belongs to.
    pub kind: FeatureKind,
    /// Row dimensionality; `0` marks an empty vector (no slab row).
    pub dim: u32,
    /// Row index within the `(kind, dim)` slab.
    pub row: u32,
}

/// One image's row of the image table: its record and, per
/// [`FeatureKind`] (at [`slot`]), the handle of its feature of that
/// kind in the arena, where vector bytes live exactly once.
#[derive(Debug)]
struct Row {
    image: StoredImage,
    features: [Option<FeatureHandle>; 3],
}

/// A kind's index in [`Row::features`]: `FeatureKind` order.
fn slot(kind: FeatureKind) -> usize {
    match kind {
        FeatureKind::ColorHistogram => 0,
        FeatureKind::SiftBow => 1,
        FeatureKind::Cnn => 2,
    }
}

#[derive(Debug, Default)]
struct Tables {
    next_image: u64,
    next_annotation: u64,
    next_classification: u64,
    // Every table iterates in key order (ordered maps, never hash maps,
    // and one sorted `Vec`): table iteration feeds query results and
    // persisted snapshots, so iteration order must be reproducible
    // (lint rule L2).
    /// The image table: one row per image, sorted by id. Ids are mostly
    /// handed out ascending, so a row is appended; an explicit id below
    /// the last one is inserted in place.
    rows: Vec<Row>,
    /// Every row's keywords, each distinct string held once.
    keywords: Keywords,
    /// Augmented rows' origins, `(parent, op)` by child id.
    origins: BTreeMap<ImageId, (ImageId, String)>,
    /// Each image's pixels, kept as the op carried them: coded.
    blobs: BTreeMap<ImageId, PixelBlob>,
    /// The feature arena: one append-only slab per `(kind, dim)` family.
    slabs: BTreeMap<(FeatureKind, u32), FeatureSlab>,
    schemes: BTreeMap<ClassificationId, ClassificationScheme>,
    annotations: BTreeMap<AnnotationId, Annotation>,
    annotations_by_image: BTreeMap<ImageId, Vec<AnnotationId>>,
    /// Incremental count of annotations per (scheme, label), serving
    /// the query layer's admission estimates in O(log n).
    label_counts: BTreeMap<(ClassificationId, usize), usize>,
    /// Bounded upload idempotency table: marker key → (image the upload
    /// produced, insertion sequence for oldest-first eviction).
    upload_markers: BTreeMap<String, (ImageId, u64)>,
    /// The same markers as `(sequence, key)`: the first is the one to
    /// evict.
    marker_order: BTreeSet<(u64, String)>,
    /// Sequence counter stamping marker insertion order.
    next_marker_seq: u64,
}

/// What the ops of a batch ahead of the one being checked add to the
/// tables ([`Tables::check`] consults it beside them). An empty one, as
/// a replayed op is checked with, allocates nothing.
#[derive(Default)]
struct Pending<'a> {
    /// Images, with their pixel `(width, height)`.
    images: BTreeMap<ImageId, (usize, usize)>,
    /// Schemes, with their vocabulary size.
    schemes: BTreeMap<ClassificationId, usize>,
    scheme_names: BTreeSet<&'a str>,
    annotations: BTreeSet<AnnotationId>,
    markers: BTreeMap<&'a str, ImageId>,
}

impl<'a> Pending<'a> {
    /// Adds what `op`, which [`Tables::check`] passed, adds.
    fn note(&mut self, op: &'a WalOp) {
        match op {
            WalOp::AddImage { id, pixels, .. } => {
                self.images.insert(*id, pixel_dims(pixels));
            }
            WalOp::PutFeature { .. } => {}
            WalOp::RegisterScheme { id, name, labels } => {
                self.schemes.insert(*id, labels.len());
                self.scheme_names.insert(name);
            }
            WalOp::Annotate(a) => {
                self.annotations.insert(a.id);
            }
            WalOp::IngestUpload {
                marker, id, pixels, ..
            } => {
                self.images.insert(*id, pixel_dims(pixels));
                if let Some(marker) = marker {
                    self.markers.insert(marker, *id);
                }
            }
            WalOp::UploadMarkers(markers) => {
                for (key, id, _) in markers {
                    self.markers.insert(key, *id);
                }
            }
        }
    }
}

impl Tables {
    /// Where image `id`'s row is (`Ok`) or would go (`Err`) in `rows`.
    /// Replay and live uploads name the last row or one past it, so the
    /// last row is checked before any binary search.
    fn row_index(&self, id: ImageId) -> Result<usize, usize> {
        match self.rows.last() {
            Some(last) if last.image.id == id => Ok(self.rows.len() - 1),
            Some(last) if last.image.id > id => self.rows.binary_search_by_key(&id, |r| r.image.id),
            _ => Err(self.rows.len()),
        }
    }

    /// The row of image `id`, if stored.
    fn row(&self, id: ImageId) -> Option<&Row> {
        Some(&self.rows[self.row_index(id).ok()?])
    }

    /// The handle of `image`'s feature of `kind`, if stored.
    fn handle(&self, image: ImageId, kind: FeatureKind) -> Option<FeatureHandle> {
        self.row(image)?.features[slot(kind)]
    }

    /// `row` read in place.
    fn view<'a>(&'a self, row: &'a Row) -> ImageRow<'a> {
        ImageRow {
            image: &row.image,
            keywords: &self.keywords,
            origins: &self.origins,
        }
    }

    /// Appends `vector` to the arena and repoints the `(image, kind)`
    /// handle in the image's row. Replacement leaves the previous arena
    /// row in place (rows are write-once so outstanding snapshots stay
    /// valid); the orphaned row is reclaimed on the next
    /// snapshot/restore cycle. The image must be stored (the validator
    /// has checked it).
    fn put_feature_row(&mut self, image: ImageId, kind: FeatureKind, vector: &[f32]) {
        let handle = if vector.is_empty() {
            FeatureHandle {
                kind,
                dim: 0,
                row: 0,
            }
        } else {
            let dim = vector.len() as u32;
            let slab = self
                .slabs
                .entry((kind, dim))
                .or_insert_with(|| FeatureSlab::new(vector.len()));
            let row = slab.push(vector);
            FeatureHandle { kind, dim, row }
        };
        if let Ok(at) = self.row_index(image) {
            self.rows[at].features[slot(kind)] = Some(handle);
        }
    }

    /// The feature bytes a handle points at.
    fn feature_slice(&self, handle: &FeatureHandle) -> &[f32] {
        if handle.dim == 0 {
            &[]
        } else {
            self.slabs[&(handle.kind, handle.dim)].row(handle.row)
        }
    }

    /// Checks `ops` against the tables *plus* the effects of earlier ops
    /// in the same batch (an `AddImage` makes a later `PutFeature` for
    /// that image legal, a scheme registered earlier in the batch can be
    /// annotated against later, and so on). Every write path runs this
    /// before anything is journaled or applied, so a batch is refused
    /// whole and [`Tables::apply_op`] cannot fail. Uploads whose marker
    /// is already stored (or appeared earlier in the batch) are removed
    /// from `ops` and returned as [`Replays`].
    fn validate_batch(&self, ops: &mut Vec<WalOp>) -> Result<Replays, StorageError> {
        let mut pending = Pending::default();
        let mut replays = Replays::new();
        let mut skipped: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match self.check(&pending, op)? {
                Some(replay) => {
                    replays.push(replay);
                    skipped.push(i);
                }
                None => pending.note(op),
            }
        }
        for i in skipped.into_iter().rev() {
            ops.remove(i);
        }
        Ok(replays)
    }

    /// The one validator: checks `op` against the tables plus what
    /// `pending` adds ahead of it. `Some((carried, stored))` is an
    /// upload whose marker is already held, which applies nothing.
    fn check(
        &self,
        pending: &Pending<'_>,
        op: &WalOp,
    ) -> Result<Option<(ImageId, ImageId)>, StorageError> {
        // The pixel `(width, height)` of a stored or pending image.
        let image = |id: ImageId| {
            pending.images.get(&id).copied().or_else(|| {
                self.row(id)
                    .map(|r| (r.image.width as usize, r.image.height as usize))
            })
        };
        let check_new_image = |id: ImageId, origin: &ImageOrigin, pixels: &Option<PixelBlob>| {
            if let ImageOrigin::Augmented { parent, .. } = origin {
                if image(*parent).is_none() {
                    return Err(StorageError::UnknownImage(*parent));
                }
            }
            if image(id).is_some() {
                return Err(StorageError::DuplicateId {
                    id: id.0,
                    table: "image",
                });
            }
            match pixels {
                Some((width, height, code))
                    if pixels::coded_len_ok(*width, *height, code.len()).is_none()
                        || u32::try_from(*width.max(height)).is_err() =>
                {
                    Err(StorageError::BlobShape {
                        image: id,
                        width: *width,
                        height: *height,
                        len: code.len(),
                    })
                }
                _ => Ok(()),
            }
        };
        match op {
            WalOp::AddImage {
                id, origin, pixels, ..
            } => check_new_image(*id, origin, pixels)?,
            WalOp::PutFeature { image: id, .. } => {
                if image(*id).is_none() {
                    return Err(StorageError::UnknownImage(*id));
                }
            }
            WalOp::RegisterScheme { id, name, labels } => {
                if !vocabulary_ok(labels) {
                    return Err(StorageError::BadVocabulary(name.clone()));
                }
                if pending.scheme_names.contains(name.as_str())
                    || self.schemes.values().any(|s| s.name == *name)
                {
                    return Err(StorageError::DuplicateScheme(name.clone()));
                }
                if pending.schemes.contains_key(id) || self.schemes.contains_key(id) {
                    return Err(StorageError::DuplicateId {
                        id: id.0,
                        table: "classification",
                    });
                }
            }
            WalOp::Annotate(a) => {
                if !confidence_ok(a.confidence) {
                    return Err(StorageError::BadConfidence(a.confidence));
                }
                let Some((width, height)) = image(a.image) else {
                    return Err(StorageError::UnknownImage(a.image));
                };
                // An image stored without pixels (width 0) takes any
                // region.
                let within = |at: usize, len: usize, bound: usize| {
                    at.checked_add(len).is_some_and(|end| end <= bound)
                };
                if let Some(region) = a.region.filter(|r| {
                    width > 0 && !(within(r.x, r.width, width) && within(r.y, r.height, height))
                }) {
                    return Err(StorageError::RegionOutOfBounds {
                        image: a.image,
                        region,
                        width,
                        height,
                    });
                }
                let vocabulary = pending
                    .schemes
                    .get(&a.classification)
                    .copied()
                    .or_else(|| self.schemes.get(&a.classification).map(|s| s.labels.len()))
                    .ok_or(StorageError::UnknownClassification(a.classification))?;
                if a.label >= vocabulary {
                    return Err(StorageError::LabelOutOfRange {
                        classification: a.classification,
                        label: a.label,
                        vocabulary,
                    });
                }
                if pending.annotations.contains(&a.id) || self.annotations.contains_key(&a.id) {
                    return Err(StorageError::DuplicateId {
                        id: a.id.0,
                        table: "annotation",
                    });
                }
            }
            WalOp::IngestUpload {
                marker,
                id,
                origin,
                pixels,
                ..
            } => {
                let stored = marker.as_deref().and_then(|marker| {
                    pending
                        .markers
                        .get(marker)
                        .copied()
                        .or_else(|| self.upload_markers.get(marker).map(|(image, _)| *image))
                });
                if let Some(stored) = stored {
                    return Ok(Some((*id, stored)));
                }
                check_new_image(*id, origin, pixels)?;
            }
            WalOp::UploadMarkers(markers) => {
                let mut keys = BTreeSet::new();
                for (key, id, _) in markers {
                    if image(*id).is_none() {
                        return Err(StorageError::UnknownImage(*id));
                    }
                    if pending.markers.contains_key(key.as_str())
                        || self.upload_markers.contains_key(key)
                        || !keys.insert(key)
                    {
                        return Err(StorageError::DuplicateMarker(key.clone()));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Replays one journaled op: checks it against the tables as every
    /// op before it left them, and applies it. No batch context, so a
    /// key reused after its marker was evicted is a fresh upload, as it
    /// was when it was journaled.
    fn replay_op(&mut self, op: WalOp) -> Result<Option<(ImageId, ImageId)>, StorageError> {
        let replay = self.check(&Pending::default(), &op)?;
        if replay.is_none() {
            self.apply_op(op);
        }
        Ok(replay)
    }

    /// Applies one op [`Tables::validate_batch`] has passed, at exactly
    /// the ids it carries; each auto-assign counter advances past them.
    fn apply_op(&mut self, op: WalOp) {
        match op {
            WalOp::AddImage {
                id,
                meta,
                origin,
                pixels,
            } => self.insert_image(id, meta, origin, pixels),
            WalOp::PutFeature {
                image,
                kind,
                vector,
            } => self.put_feature_row(image, kind, &vector),
            WalOp::RegisterScheme { id, name, labels } => {
                self.next_classification = self.next_classification.max(id.0.saturating_add(1));
                self.schemes
                    .insert(id, ClassificationScheme { id, name, labels });
            }
            WalOp::Annotate(a) => {
                self.next_annotation = self.next_annotation.max(a.id.0.saturating_add(1));
                self.annotations_by_image
                    .entry(a.image)
                    .or_default()
                    .push(a.id);
                *self
                    .label_counts
                    .entry((a.classification, a.label))
                    .or_default() += 1;
                self.annotations.insert(a.id, a);
            }
            WalOp::IngestUpload {
                marker,
                id,
                meta,
                origin,
                pixels,
                features,
            } => {
                self.insert_image(id, meta, origin, pixels);
                for (kind, vector) in &features {
                    self.put_feature_row(id, *kind, vector);
                }
                if let Some(marker) = marker {
                    self.remember_marker(marker, id, self.next_marker_seq);
                }
            }
            WalOp::UploadMarkers(markers) => {
                for (key, image, seq) in markers {
                    self.remember_marker(key, image, seq);
                }
            }
        }
    }

    /// Records an upload's idempotency marker at `seq` (the counter
    /// resumes past it), evicting the oldest one — the lowest sequence,
    /// then the lowest key — past [`UPLOAD_MARKER_CAPACITY`]. A validated
    /// op never names a held key, so the marker is a new one.
    fn remember_marker(&mut self, marker: String, id: ImageId, seq: u64) {
        self.next_marker_seq = self.next_marker_seq.max(seq.saturating_add(1));
        self.marker_order.insert((seq, marker.clone()));
        self.upload_markers.insert(marker, (id, seq));
        if self.upload_markers.len() > UPLOAD_MARKER_CAPACITY {
            if let Some((_, key)) = self.marker_order.pop_first() {
                self.upload_markers.remove(&key);
            }
        }
    }

    fn insert_image(
        &mut self,
        id: ImageId,
        meta: ImageMeta,
        origin: ImageOrigin,
        pixels: Option<PixelBlob>,
    ) {
        self.next_image = self.next_image.max(id.0.saturating_add(1));
        // The validator has refused a dimension wider than `u32`.
        let (width, height) = pixel_dims(&pixels);
        let dims = (width as u32, height as u32);
        if let ImageOrigin::Augmented { parent, op } = origin {
            self.origins.insert(id, (parent, op));
        }
        let row = Row {
            image: StoredImage::new(id, meta, dims, &mut self.keywords),
            features: [None; 3],
        };
        // At the end, unless an explicit id lands below the last one.
        let (Ok(at) | Err(at)) = self.row_index(id);
        self.rows.insert(at, row);
        if let Some(blob) = pixels {
            self.blobs.insert(id, blob);
        }
    }
}

/// FNV-1a 64 of `bytes`, continuing from `hash`.
fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-64's offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-64 over `ops` as a base segment holds them: the segment magic,
/// then each op's framed record ([`WalOp::encode_into`]).
fn ops_digest(ops: &[WalOp]) -> u64 {
    let mut record = Vec::new();
    ops.iter()
        .fold(fnv64(FNV_OFFSET, &SEGMENT_MAGIC), |hash, op| {
            record.clear();
            wal::push_record(&mut record, |out| op.encode_into(out));
            fnv64(hash, &record)
        })
}

/// `None` when `a` and `b` encode to the same records (one
/// [`VisualStore::digest`]), else the first record where they differ,
/// with the op each side holds there. How tests compare two store
/// states: `a` and `b` are dumps ([`Snapshot::into_ops`]) or the ops a
/// dump must equal.
// tvdp-lint: allow(dead_api, reason = "(a) test support: every test that compares two store states")
pub fn first_difference(a: &[WalOp], b: &[WalOp]) -> Option<String> {
    if ops_digest(a) == ops_digest(b) {
        return None;
    }
    let record = |op: Option<&WalOp>| op.map(WalOp::encode);
    (0..a.len().max(b.len()))
        .find(|&i| record(a.get(i)) != record(b.get(i)))
        .map(|i| format!("record {i}: {:?} against {:?}", a.get(i), b.get(i)))
}

/// The TVDP visual data store: all Fig. 2 tables behind one
/// readers-writer lock. Clone-out semantics: getters return owned copies
/// so readers never hold the lock across user code. Every write is a
/// batch of [`WalOp`]s through [`VisualStore::apply_batch`], at the ids
/// the ops carry.
///
/// ```
/// use tvdp_geo::GeoPoint;
/// use tvdp_storage::{
///     Annotation, AnnotationId, AnnotationSource, ClassificationId, ImageId, ImageMeta,
///     ImageOrigin, UserId, VisualStore, WalOp,
/// };
///
/// let store = VisualStore::new();
/// let (scheme, image) = (ClassificationId(0), ImageId(0));
/// store.apply_batch(vec![
///     WalOp::RegisterScheme {
///         id: scheme,
///         name: "cleanliness".into(),
///         labels: vec!["clean".into(), "dirty".into()],
///     },
///     WalOp::IngestUpload {
///         marker: None,
///         id: image,
///         meta: ImageMeta {
///             uploader: UserId(1),
///             gps: GeoPoint::new(34.05, -118.25),
///             fov: None,
///             captured_at: 1_546_300_800,
///             uploaded_at: 1_546_300_900,
///             keywords: vec!["corner".into()],
///         },
///         origin: ImageOrigin::Original,
///         pixels: None,
///         features: vec![],
///     },
///     WalOp::Annotate(Annotation {
///         id: AnnotationId(0),
///         image,
///         classification: scheme,
///         label: 1,
///         confidence: 0.9,
///         source: AnnotationSource::Human(UserId(1)),
///         region: None,
///     }),
/// ])?;
/// assert_eq!(store.annotations_with_label(scheme, 1).len(), 1);
/// # Ok::<(), tvdp_storage::StorageError>(())
/// ```
#[derive(Debug, Default)]
pub struct VisualStore {
    inner: RwLock<Tables>,
    /// The one arena view per `(kind, dim)` slab that every reader of
    /// this store shares ([`VisualStore::slab_view`]), published beside
    /// the tables so a covered lookup takes no table lock.
    views: GenCell<BTreeMap<(FeatureKind, u32), Arc<SlabView>>>,
}

impl VisualStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored images.
    #[expect(
        clippy::len_without_is_empty,
        reason = "nothing asks whether a store is empty"
    )]
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// The one mutation path: builds a batch from the tables' next ids,
    /// validates it whole, then applies it — all under one write-lock
    /// acquisition, so readers never observe an image without its
    /// features and a concurrent retry of one marker sees either no row
    /// or the finished one.
    fn commit(&self, build: impl FnOnce(&Tables) -> Vec<WalOp>) -> Result<Replays, StorageError> {
        let mut t = self.inner.write();
        let mut ops = build(&t);
        let replays = t.validate_batch(&mut ops)?;
        for op in ops {
            t.apply_op(op);
        }
        Ok(replays)
    }

    /// Validates `ops` against the store and against each other, then
    /// applies them in order at exactly the ids they carry — all or
    /// none. This is what an in-memory platform commits through, what
    /// [`crate::DurableStore`] runs either side of its journal write,
    /// and what WAL replay re-executes, so every check exists once.
    /// Uploads whose idempotency marker is already stored are skipped
    /// and reported as [`Replays`].
    pub fn apply_batch(&self, ops: Vec<WalOp>) -> Result<Replays, StorageError> {
        self.commit(|_| ops)
    }

    /// The checking half of [`VisualStore::apply_batch`] under the read
    /// lock, for a caller that journals between check and apply and is
    /// the store's only mutator. Replayed uploads are removed from `ops`.
    pub(crate) fn validate_batch(&self, ops: &mut Vec<WalOp>) -> Result<Replays, StorageError> {
        self.inner.read().validate_batch(ops)
    }

    /// The applying half: `ops` must have passed
    /// [`VisualStore::validate_batch`] with no mutation in between.
    pub(crate) fn apply_validated(&self, ops: Vec<WalOp>) {
        let mut t = self.inner.write();
        for op in ops {
            t.apply_op(op);
        }
    }

    /// Journal replay into a store its opener owns alone: checks `op`
    /// against the state every op before it left and applies it, taking
    /// no lock. `Some((carried, stored))` is an upload whose marker the
    /// store already holds; nothing is applied for it.
    pub(crate) fn replay(&mut self, op: WalOp) -> Result<Option<(ImageId, ImageId)>, StorageError> {
        self.inner.get_mut().replay_op(op)
    }

    /// Ingests an image row; `pixels` may be omitted for metadata-only
    /// rows (e.g. when only features were uploaded from an edge device).
    ///
    /// Returns the new row's id. Fails when an augmented origin
    /// references a missing parent. Kept beside [`VisualStore::apply_batch`]
    /// only for the end-to-end benchmark's corpus set-up, until that
    /// package is refreshed (ROADMAP item 1).
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn add_image(
        &self,
        meta: ImageMeta,
        origin: ImageOrigin,
        pixels: Option<Image>,
    ) -> Result<ImageId, StorageError> {
        let mut id = ImageId(0);
        self.commit(|t| {
            id = ImageId(t.next_image);
            vec![WalOp::AddImage {
                id,
                meta,
                origin,
                pixels: pixels.as_ref().map(pixel_blob),
            }]
        })?;
        Ok(id)
    }

    /// The image a previously acknowledged upload with this idempotency
    /// key produced, if the marker is still within the bounded window.
    pub fn upload_marker(&self, key: &str) -> Option<ImageId> {
        self.inner.read().upload_markers.get(key).map(|(id, _)| *id)
    }

    /// Whether image `id` is stored: one lookup in the row table, no
    /// record assembled.
    pub fn contains(&self, id: ImageId) -> bool {
        self.inner.read().row_index(id).is_ok()
    }

    /// The image row, if present, assembled as an owned record.
    pub fn image(&self, id: ImageId) -> Option<ImageRecord> {
        let t = self.inner.read();
        t.row(id).map(|r| t.view(r).to_record())
    }

    /// The pixel data, if stored, decoded from its code outside the
    /// lock. `None` also when the code does not decode, which only a
    /// hand-built op's bytes can cause: every code the store holds
    /// passed [`crate::pixels::coded_len_ok`], and every one
    /// [`crate::wal::pixel_blob`] made decodes.
    pub fn pixels(&self, id: ImageId) -> Option<Image> {
        let (width, height, code) = self.inner.read().blobs.get(&id).cloned()?;
        pixels::decode(width, height, &code).ok()
    }

    /// All image ids, ascending.
    pub fn image_ids(&self) -> Vec<ImageId> {
        self.inner.read().rows.iter().map(|r| r.image.id).collect()
    }

    /// Runs `f` over every image row, read in place (under the read
    /// lock; keep `f` cheap).
    pub fn for_each_image(&self, mut f: impl FnMut(ImageRow<'_>)) {
        let t = self.inner.read();
        for row in &t.rows {
            f(t.view(row));
        }
    }

    /// Runs `f` over the rows of `ids` (in the given order, skipping
    /// absent ids), read in place under a single read-lock acquisition
    /// — the zero-clone analogue of calling [`VisualStore::image`] in a
    /// loop. `f` must not call back into the store (the read lock is
    /// held and is not recursively acquirable).
    pub fn with_images(&self, ids: &[ImageId], mut f: impl FnMut(ImageRow<'_>)) {
        let t = self.inner.read();
        for &id in ids {
            if let Some(row) = t.row(id) {
                f(t.view(row));
            }
        }
    }

    /// Runs `f` over `(record, feature)` for each id in `ids` that has a
    /// stored feature of `kind`, under a single read-lock acquisition.
    /// Ids without a stored feature of `kind` are skipped. The same
    /// no-reentrancy rule as [`VisualStore::with_images`] applies.
    pub fn with_image_features(
        &self,
        ids: &[ImageId],
        kind: FeatureKind,
        mut f: impl FnMut(ImageRow<'_>, &[f32]),
    ) {
        let t = self.inner.read();
        for &id in ids {
            if let Some(row) = t.row(id) {
                if let Some(handle) = &row.features[slot(kind)] {
                    f(t.view(row), t.feature_slice(handle));
                }
            }
        }
    }

    /// Stores (or replaces) a feature vector for an image. The bytes
    /// land in the shared feature arena; replacement appends a fresh
    /// row and repoints the image's handle. Kept beside
    /// [`VisualStore::apply_batch`] only for the end-to-end benchmark's
    /// corpus set-up, until that package is refreshed (ROADMAP item 1).
    // tvdp-lint: allow(dead_api, reason = "(d) benchmark surface: only examples/e2e calls it; ROADMAP item 2 or 16 deletes it after item 1")
    pub fn put_feature(
        &self,
        image: ImageId,
        kind: FeatureKind,
        vector: Vec<f32>,
    ) -> Result<(), StorageError> {
        self.apply_batch(vec![WalOp::PutFeature {
            image,
            kind,
            vector,
        }])
        .map(drop)
    }

    /// The stored feature vector, if any, as an owned copy. Prefer
    /// [`VisualStore::feature_ref`] on hot paths — it shares the arena
    /// allocation instead of cloning.
    pub fn feature(&self, image: ImageId, kind: FeatureKind) -> Option<Vec<f32>> {
        let t = self.inner.read();
        let handle = t.handle(image, kind)?;
        Some(t.feature_slice(&handle).to_vec())
    }

    /// A zero-copy reference to the stored feature vector, if any.
    /// The returned [`RowRef`] keeps the underlying arena chunk alive
    /// and derefs to `&[f32]`; no bytes are copied for rows in frozen
    /// chunks.
    pub fn feature_ref(&self, image: ImageId, kind: FeatureKind) -> Option<RowRef> {
        let t = self.inner.read();
        let handle = t.handle(image, kind)?;
        if handle.dim == 0 {
            Some(RowRef::empty())
        } else {
            Some(t.slabs[&(handle.kind, handle.dim)].row_ref(handle.row))
        }
    }

    /// The arena handle for an image's feature of `kind`, if stored.
    pub fn feature_handle(&self, image: ImageId, kind: FeatureKind) -> Option<FeatureHandle> {
        self.inner.read().handle(image, kind)
    }

    /// The store's shared snapshot of the `(kind, dim)` feature slab,
    /// covering at least the first `rows` rows (the caller's row handles
    /// must all be below `rows`; handles resolve against the view
    /// without taking the store lock). The store keeps one view per
    /// slab: a call the cached view already covers returns that same
    /// `Arc`, and only a call it does not cover replaces it. A view
    /// shares the slab's partial tail chunk, so the first push after
    /// it copies that chunk once, under the write lock
    /// ([`FeatureSlab::push`]), and a store that only reads never does. An empty view when no feature of
    /// that shape is stored.
    pub fn slab_view(&self, kind: FeatureKind, dim: usize, rows: usize) -> Arc<SlabView> {
        let key = (kind, dim as u32);
        if let Some(view) = self.views.load().get(&key) {
            if view.rows() >= rows {
                return Arc::clone(view);
            }
        }
        let t = self.inner.read();
        let Some(slab) = t.slabs.get(&key) else {
            return Arc::new(SlabView::empty(dim.max(1)));
        };
        let fresh = Arc::new(slab.view());
        // Racing refreshes may publish in either order (and one may
        // drop another slab's entry): views only ever grow and callers
        // never hold uncovered handles, so the loser costs its next
        // caller one more refresh, never a different row.
        let mut views = BTreeMap::clone(&self.views.load());
        views.insert(key, Arc::clone(&fresh));
        self.views.store(Arc::new(views));
        fresh
    }

    /// The widths of the `kind` rows the feature arena holds, ascending:
    /// one per slab, so a read of a handful of map keys. A replaced
    /// feature's old row stays in its slab until the next snapshot, so
    /// a width listed here may have no live row left.
    pub fn feature_widths(&self, kind: FeatureKind) -> Vec<usize> {
        let t = self.inner.read();
        let slabs = t.slabs.range((kind, 1)..=(kind, u32::MAX));
        slabs.map(|(&(_, dim), _)| dim as usize).collect()
    }

    /// Runs `f` over the row of each of `ids` (ascending; absent ids
    /// are skipped), read in place, and, when it holds a non-empty feature of `kind`,
    /// that feature's arena handle: everything an index reads to build
    /// over the run, zero-copy, under one read-lock acquisition, walking
    /// the image table forward from the run's first row. Keep `f` cheap
    /// (it blocks writers); the no-reentrancy rule of
    /// [`VisualStore::with_images`] applies.
    pub fn with_image_rows(
        &self,
        ids: &[ImageId],
        kind: FeatureKind,
        mut f: impl FnMut(ImageRow<'_>, Option<FeatureHandle>),
    ) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        let t = self.inner.read();
        let mut at = 0;
        for &id in ids {
            // A run's ids are mostly consecutive rows: step to the next
            // one, and search forward only past a gap.
            if t.rows.get(at).is_none_or(|row| row.image.id != id) {
                at += t.rows[at.min(t.rows.len())..].partition_point(|row| row.image.id < id);
            }
            let Some(row) = t.rows.get(at).filter(|row| row.image.id == id) else {
                continue;
            };
            f(t.view(row), row.features[slot(kind)].filter(|h| h.dim > 0));
            at += 1;
        }
    }

    /// Images that have a stored feature of `kind`.
    pub fn images_with_feature(&self, kind: FeatureKind) -> Vec<ImageId> {
        let t = self.inner.read();
        t.rows
            .iter()
            .filter(|r| r.features[slot(kind)].is_some())
            .map(|r| r.image.id)
            .collect()
    }

    /// The scheme row, if present.
    pub fn scheme(&self, id: ClassificationId) -> Option<ClassificationScheme> {
        self.inner.read().schemes.get(&id).cloned()
    }

    /// Looks a scheme up by name.
    pub fn scheme_by_name(&self, name: &str) -> Option<ClassificationScheme> {
        self.inner
            .read()
            .schemes
            .values()
            .find(|s| s.name == name)
            .cloned()
    }

    /// All registered schemes.
    pub fn schemes(&self) -> Vec<ClassificationScheme> {
        self.inner.read().schemes.values().cloned().collect()
    }

    /// Number of annotations carrying a given (scheme, label) pair —
    /// maintained incrementally so the query layer can estimate
    /// categorical cardinality without scanning the annotation table.
    pub fn label_count(&self, classification: ClassificationId, label: usize) -> usize {
        self.inner
            .read()
            .label_counts
            .get(&(classification, label))
            .copied()
            .unwrap_or(0)
    }

    /// All annotations on one image.
    pub fn annotations_of(&self, image: ImageId) -> Vec<Annotation> {
        let t = self.inner.read();
        t.annotations_by_image
            .get(&image)
            .map(|ids| ids.iter().map(|id| t.annotations[id].clone()).collect())
            .unwrap_or_default()
    }

    /// All annotations carrying a given (scheme, label) pair — the
    /// translational-query primitive ("all encampment images").
    pub fn annotations_with_label(
        &self,
        classification: ClassificationId,
        label: usize,
    ) -> Vec<Annotation> {
        self.inner
            .read()
            .annotations
            .values()
            .filter(|a| a.classification == classification && a.label == label)
            .cloned()
            .collect()
    }

    /// Total number of annotations.
    pub fn annotation_count(&self) -> usize {
        self.inner.read().annotations.len()
    }

    /// Dump of every table.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.inner.read();
        Snapshot {
            images: t.rows.iter().map(|r| t.view(r).to_record()).collect(),
            blobs: t
                .blobs
                .iter()
                .map(|(id, (width, height, code))| (*id, *width, *height, code.clone()))
                .collect(),
            // By id, then in `FeatureKind` order.
            features: t
                .rows
                .iter()
                .flat_map(|r| r.features.iter().flatten().map(move |h| (r.image.id, h)))
                .map(|(id, handle)| (id, handle.kind, t.feature_slice(handle).to_vec()))
                .collect(),
            schemes: t.schemes.values().cloned().collect(),
            annotations: t.annotations.values().cloned().collect(),
            markers: t
                .upload_markers
                .iter()
                .map(|(key, (id, seq))| (key.clone(), *id, *seq))
                .collect(),
        }
    }

    /// The store's identity: the FNV-64 of the base segment
    /// `persist::write_base` would publish for it now (the
    /// segment magic, then each op of [`Snapshot::into_ops`] as the
    /// framed record [`WalOp::encode_into`] fills), with no file
    /// written. Two stores hold the same state exactly when their
    /// digests agree. A float counts by its bits, so `-0.0` is not
    /// `+0.0` and a NaN's payload is part of the state.
    pub fn digest(&self) -> u64 {
        ops_digest(&self.snapshot().into_ops())
    }

    /// The lowest image id above every stored one: the id a caller
    /// gives the next image it commits. Only meaningful while the
    /// caller holds exclusive mutation rights (the WAL wrapper journals
    /// the peeked id before applying the op).
    pub fn peek_next_image_id(&self) -> ImageId {
        ImageId(self.inner.read().next_image)
    }

    /// The lowest scheme id above every stored one. See
    /// [`VisualStore::peek_next_image_id`] for the exclusivity caveat.
    pub fn peek_next_classification_id(&self) -> ClassificationId {
        ClassificationId(self.inner.read().next_classification)
    }

    /// The lowest annotation id above every stored one. See
    /// [`VisualStore::peek_next_image_id`] for the exclusivity caveat.
    pub fn peek_next_annotation_id(&self) -> AnnotationId {
        AnnotationId(self.inner.read().next_annotation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationSource;
    use crate::ids::UserId;
    use tvdp_geo::GeoPoint;

    fn meta() -> ImageMeta {
        ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0, -118.25),
            fov: None,
            captured_at: 100,
            uploaded_at: 110,
            keywords: vec!["test".into()],
        }
    }

    fn tiny_image() -> Image {
        Image::from_fn(4, 4, |x, y| [x as u8, y as u8, 0])
    }

    /// An image row committed at the store's next id.
    fn add(
        store: &VisualStore,
        origin: ImageOrigin,
        pixels: Option<Image>,
    ) -> Result<ImageId, StorageError> {
        let id = store.peek_next_image_id();
        store.apply_batch(vec![WalOp::AddImage {
            id,
            meta: meta(),
            origin,
            pixels: pixels.as_ref().map(pixel_blob),
        }])?;
        Ok(id)
    }

    fn put(
        store: &VisualStore,
        image: ImageId,
        kind: FeatureKind,
        vector: Vec<f32>,
    ) -> Result<Replays, StorageError> {
        store.apply_batch(vec![WalOp::PutFeature {
            image,
            kind,
            vector,
        }])
    }

    /// A scheme committed at the store's next scheme id.
    fn scheme(
        store: &VisualStore,
        name: &str,
        labels: &[&str],
    ) -> Result<ClassificationId, StorageError> {
        let id = store.peek_next_classification_id();
        store.apply_batch(vec![WalOp::RegisterScheme {
            id,
            name: name.into(),
            labels: labels.iter().map(|l| l.to_string()).collect(),
        }])?;
        Ok(id)
    }

    /// A human label committed at the store's next annotation id.
    fn label(
        store: &VisualStore,
        image: ImageId,
        classification: ClassificationId,
        label: usize,
    ) -> Result<AnnotationId, StorageError> {
        let id = store.peek_next_annotation_id();
        store.apply_batch(vec![WalOp::Annotate(Annotation {
            id,
            image,
            classification,
            label,
            confidence: 1.0,
            source: AnnotationSource::Human(UserId(1)),
            region: None,
        })])?;
        Ok(id)
    }

    /// One keyed upload at the store's next id, as `Tvdp` commits it:
    /// `(id, replayed)`, the stored image's id when the marker is held.
    fn upload(
        store: &VisualStore,
        marker: &str,
        origin: ImageOrigin,
        pixels: Option<Image>,
        features: &[(FeatureKind, Vec<f32>)],
    ) -> Result<(ImageId, bool), StorageError> {
        let id = store.peek_next_image_id();
        let replays = store.apply_batch(vec![WalOp::IngestUpload {
            marker: Some(marker.to_string()),
            id,
            meta: meta(),
            origin,
            pixels: pixels.as_ref().map(pixel_blob),
            features: features.to_vec(),
        }])?;
        Ok(replays
            .first()
            .map_or((id, false), |&(_, stored)| (stored, true)))
    }

    /// A fresh store rebuilt from `store`'s dump, as a base segment is.
    fn rebuilt(store: &VisualStore) -> VisualStore {
        let fresh = VisualStore::new();
        let replays = fresh.apply_batch(store.snapshot().into_ops()).unwrap();
        assert!(replays.is_empty());
        fresh
    }

    #[test]
    fn add_and_fetch_image() {
        let store = VisualStore::new();
        let id = add(&store, ImageOrigin::Original, Some(tiny_image())).unwrap();
        assert_eq!(store.len(), 1);
        let rec = store.image(id).unwrap();
        assert_eq!(rec.width, 4);
        assert_eq!(store.pixels(id).unwrap(), tiny_image());
        assert!(store.image(ImageId(99)).is_none());
    }

    #[test]
    fn augmented_requires_parent() {
        let store = VisualStore::new();
        let augmented = |parent| ImageOrigin::Augmented {
            parent,
            op: "flip_h".into(),
        };
        let bad = add(&store, augmented(ImageId(5)), None);
        assert_eq!(bad.unwrap_err(), StorageError::UnknownImage(ImageId(5)));
        let parent = add(&store, ImageOrigin::Original, None).unwrap();
        let child = add(&store, augmented(parent), None).unwrap();
        let origin = store.image(child).unwrap().origin;
        assert!(matches!(origin, ImageOrigin::Augmented { parent: p, .. } if p == parent));
    }

    #[test]
    fn features_keyed_by_kind() {
        let store = VisualStore::new();
        let id = add(&store, ImageOrigin::Original, None).unwrap();
        put(&store, id, FeatureKind::Cnn, vec![1.0, 2.0]).unwrap();
        put(&store, id, FeatureKind::ColorHistogram, vec![3.0]).unwrap();
        assert_eq!(store.feature(id, FeatureKind::Cnn).unwrap(), vec![1.0, 2.0]);
        assert_eq!(store.feature(id, FeatureKind::SiftBow), None);
        assert_eq!(store.images_with_feature(FeatureKind::Cnn), vec![id]);
        assert!(put(&store, ImageId(9), FeatureKind::Cnn, vec![]).is_err());
    }

    #[test]
    fn arena_handles_refs_and_replacement() {
        let store = VisualStore::new();
        let a = add(&store, ImageOrigin::Original, None).unwrap();
        let b = add(&store, ImageOrigin::Original, None).unwrap();
        put(&store, a, FeatureKind::Cnn, vec![1.0, 2.0]).unwrap();
        put(&store, b, FeatureKind::Cnn, vec![3.0, 4.0]).unwrap();

        let ha = store.feature_handle(a, FeatureKind::Cnn).unwrap();
        let hb = store.feature_handle(b, FeatureKind::Cnn).unwrap();
        assert_eq!((ha.dim, ha.row), (2, 0));
        assert_eq!((hb.dim, hb.row), (2, 1));

        // Zero-copy ref sees the same bytes as the cloning getter.
        let r = store.feature_ref(a, FeatureKind::Cnn).unwrap();
        assert_eq!(&*r, &[1.0, 2.0]);

        // A view snapshot resolves issued handles without the lock.
        let view = store.slab_view(FeatureKind::Cnn, 2, 2);
        assert_eq!(view.rows(), 2);
        assert_eq!(view.row(hb.row), &[3.0, 4.0]);

        // Replacement appends a new row and repoints the handle; the
        // old row (and snapshots over it) stay valid.
        put(&store, a, FeatureKind::Cnn, vec![9.0, 9.0]).unwrap();
        let ha2 = store.feature_handle(a, FeatureKind::Cnn).unwrap();
        assert_eq!(ha2.row, 2);
        assert_eq!(store.feature(a, FeatureKind::Cnn).unwrap(), vec![9.0, 9.0]);
        assert_eq!(view.row(ha.row), &[1.0, 2.0]);
        assert_eq!(store.inner.read().slabs[&(FeatureKind::Cnn, 2)].rows(), 3);

        // Different dims of the same kind live in separate slabs.
        put(&store, b, FeatureKind::SiftBow, vec![7.0; 5]).unwrap();
        assert_eq!(
            store.inner.read().slabs[&(FeatureKind::SiftBow, 5)].rows(),
            1
        );
        let sift_row = |id| {
            let mut seen = None;
            store.with_image_rows(&[id], FeatureKind::SiftBow, |record, handle| {
                assert_eq!(record.id, id);
                seen = Some(handle.map(|h| (h.dim, h.row)));
            });
            seen
        };
        assert_eq!(sift_row(b), Some(Some((5, 0))));
        assert_eq!(
            store.feature(b, FeatureKind::SiftBow).unwrap(),
            vec![7.0; 5]
        );
        assert_eq!(sift_row(a), Some(None), "no feature of that kind");
        assert_eq!(sift_row(ImageId(999)), None, "no such image");

        // Empty vectors round-trip without a slab row.
        put(&store, b, FeatureKind::ColorHistogram, vec![]).unwrap();
        assert_eq!(
            store.feature(b, FeatureKind::ColorHistogram).unwrap(),
            Vec::<f32>::new()
        );
        assert!(store
            .feature_ref(b, FeatureKind::ColorHistogram)
            .unwrap()
            .is_empty());
    }

    /// A run's walk visits exactly the stored ids of the run, in order,
    /// across gaps in the run and in the table, past absent ids at
    /// either end.
    #[test]
    fn a_run_is_read_in_one_walk_across_gaps_and_absent_ids() {
        let store = VisualStore::new();
        let ids: Vec<ImageId> = (0..12).map(ImageId).collect();
        let rows = ids.iter().map(|&id| WalOp::IngestUpload {
            marker: None,
            id,
            meta: ImageMeta {
                gps: GeoPoint::new(34.0, -118.0),
                captured_at: id.raw() as i64,
                uploaded_at: id.raw() as i64,
                keywords: Vec::new(),
                ..meta()
            },
            origin: ImageOrigin::Original,
            pixels: None,
            features: if id.raw() % 3 == 0 {
                vec![(FeatureKind::Cnn, vec![1.0; 3])]
            } else {
                Vec::new()
            },
        });
        store.apply_batch(rows.collect()).unwrap();
        let absent = |n: u64| ImageId(ids[11].0 + n);
        let run = [
            ids[0],
            ids[1],
            ids[2],
            ids[5],
            ids[6],
            ids[10],
            absent(1),
            absent(7),
        ];
        let mut seen = Vec::new();
        store.with_image_rows(&run, FeatureKind::Cnn, |record, handle| {
            seen.push((record.id, handle.is_some()));
        });
        let want: Vec<(ImageId, bool)> = [0, 1, 2, 5, 6, 10]
            .into_iter()
            .map(|i| (ids[i], i % 3 == 0))
            .collect();
        assert_eq!(seen, want);
        let mut none = 0;
        store.with_image_rows(&[absent(1), absent(2)], FeatureKind::Cnn, |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn slab_view_is_shared_until_a_caller_needs_rows_it_lacks() {
        let store = VisualStore::new();
        let row = |v: f32| {
            let id = add(&store, ImageOrigin::Original, None).unwrap();
            put(&store, id, FeatureKind::Cnn, vec![v; 3]).unwrap();
        };
        row(0.0);
        row(1.0);
        let cached = store.slab_view(FeatureKind::Cnn, 3, 2);
        assert_eq!(cached.rows(), 2);
        // Covered requests, including smaller ones, share the cached view.
        for rows in [0, 1, 2] {
            assert!(Arc::ptr_eq(
                &cached,
                &store.slab_view(FeatureKind::Cnn, 3, rows)
            ));
        }
        // Growth alone replaces nothing: only a caller that needs the
        // new row gets (and publishes) a fresh view that covers it.
        row(2.0);
        assert!(Arc::ptr_eq(
            &cached,
            &store.slab_view(FeatureKind::Cnn, 3, 2)
        ));
        let grown = store.slab_view(FeatureKind::Cnn, 3, 3);
        assert!(!Arc::ptr_eq(&cached, &grown));
        assert_eq!(grown.rows(), 3);
        assert_eq!(grown.row(2), &[2.0; 3]);
        assert_eq!(cached.rows(), 2, "a view in flight never changes");
        // Asking for fewer rows after growth returns the new cached view.
        assert!(Arc::ptr_eq(
            &grown,
            &store.slab_view(FeatureKind::Cnn, 3, 1)
        ));
        // Slabs are cached independently; an unknown shape is empty.
        row(3.0);
        let id = store.image_ids()[0];
        put(&store, id, FeatureKind::SiftBow, vec![7.0; 5]).unwrap();
        let sift = store.slab_view(FeatureKind::SiftBow, 5, 1);
        assert_eq!(sift.row(0), &[7.0; 5]);
        assert!(Arc::ptr_eq(
            &grown,
            &store.slab_view(FeatureKind::Cnn, 3, 3)
        ));
        assert!(Arc::ptr_eq(
            &sift,
            &store.slab_view(FeatureKind::SiftBow, 5, 1)
        ));
        for rows in [0, 4] {
            let unknown = store.slab_view(FeatureKind::SiftBow, 9, rows);
            assert_eq!(unknown.rows(), 0);
            assert_eq!(unknown.dim(), 9);
        }
    }

    #[test]
    fn label_counts_track_annotations_and_snapshots() {
        let store = VisualStore::new();
        let cls = scheme(&store, "c", &["a", "b"]).unwrap();
        for i in 0..5 {
            let img = add(&store, ImageOrigin::Original, None).unwrap();
            label(&store, img, cls, i % 2).unwrap();
        }
        assert_eq!(store.label_count(cls, 0), 3);
        assert_eq!(store.label_count(cls, 1), 2);
        assert_eq!(store.label_count(cls, 9), 0);
        let restored = rebuilt(&store);
        assert_eq!(restored.label_count(cls, 0), 3);
        assert_eq!(restored.label_count(cls, 1), 2);
    }

    #[test]
    fn scheme_registration_and_lookup() {
        let store = VisualStore::new();
        let id = scheme(&store, "street-cleanliness", &["clean", "dirty"]).unwrap();
        assert_eq!(store.scheme(id).unwrap().labels.len(), 2);
        assert_eq!(store.scheme_by_name("street-cleanliness").unwrap().id, id);
        let dup = scheme(&store, "street-cleanliness", &["x"]);
        assert!(matches!(dup, Err(StorageError::DuplicateScheme(_))));
        assert_eq!(store.schemes().len(), 1);
    }

    #[test]
    fn annotate_validates_foreign_keys() {
        let store = VisualStore::new();
        let img = add(&store, ImageOrigin::Original, None).unwrap();
        let cls = scheme(&store, "c", &["a", "b"]).unwrap();
        assert!(matches!(
            label(&store, ImageId(50), cls, 0),
            Err(StorageError::UnknownImage(_))
        ));
        assert!(matches!(
            label(&store, img, ClassificationId(50), 0),
            Err(StorageError::UnknownClassification(_))
        ));
        assert!(matches!(
            label(&store, img, cls, 7),
            Err(StorageError::LabelOutOfRange { .. })
        ));
        let ann = label(&store, img, cls, 1).unwrap();
        assert_eq!(store.annotations_of(img).len(), 1);
        assert_eq!(store.annotations_of(img)[0].id, ann);
        assert_eq!(store.annotation_count(), 1);
    }

    #[test]
    fn annotations_with_label_filters() {
        let store = VisualStore::new();
        let cls = scheme(&store, "c", &["a", "b"]).unwrap();
        let mut b_images = Vec::new();
        for i in 0..6 {
            let img = add(&store, ImageOrigin::Original, None).unwrap();
            label(&store, img, cls, i % 2).unwrap();
            if i % 2 == 1 {
                b_images.push(img);
            }
        }
        let hits = store.annotations_with_label(cls, 1);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|a| b_images.contains(&a.image)));
    }

    #[test]
    fn snapshot_roundtrip() {
        let store = VisualStore::new();
        let img = add(&store, ImageOrigin::Original, Some(tiny_image())).unwrap();
        let cls = scheme(&store, "c", &["a"]).unwrap();
        put(&store, img, FeatureKind::Cnn, vec![0.5; 4]).unwrap();
        label(&store, img, cls, 0).unwrap();
        let restored = rebuilt(&store);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.pixels(img).unwrap(), tiny_image());
        assert_eq!(
            restored.feature(img, FeatureKind::Cnn).unwrap(),
            vec![0.5; 4]
        );
        assert_eq!(restored.annotations_of(img).len(), 1);
        assert_eq!(restored.digest(), store.digest());
        // Id allocation continues past restored rows.
        let next = add(&restored, ImageOrigin::Original, None).unwrap();
        assert!(next.raw() > img.raw());
    }

    /// A store's identity is its bytes: a `-0.0` is not a `+0.0`, a NaN
    /// payload survives a reopen, and the digest is the FNV-64 of the
    /// base segment a fold of the store publishes.
    #[test]
    fn the_digest_is_the_bytes_of_the_base_a_fold_publishes() {
        let store_with = |vector: Vec<f32>| {
            let store = VisualStore::new();
            let id = add(&store, ImageOrigin::Original, None).unwrap();
            put(&store, id, FeatureKind::Cnn, vector).unwrap();
            store
        };
        let positive = store_with(vec![0.0, 1.0]);
        let negative = store_with(vec![-0.0, 1.0]);
        assert_eq!(
            positive.feature(ImageId(0), FeatureKind::Cnn),
            negative.feature(ImageId(0), FeatureKind::Cnn),
            "the floats compare equal"
        );
        assert_ne!(positive.digest(), negative.digest());
        let reference = [
            positive.snapshot().into_ops(),
            negative.snapshot().into_ops(),
        ];
        assert!(first_difference(&reference[0], &reference[1])
            .is_some_and(|found| found.starts_with("record 0: Some(IngestUpload")));

        let nan = f32::from_bits(0x7fc0_1234);
        let dir = crate::recovery::tests::temp_dir("store-digest");
        let (durable, _) = crate::DurableStore::open(&dir).unwrap();
        durable
            .apply_batch(store_with(vec![nan, -0.0, 2.0]).snapshot().into_ops()[..1].to_vec())
            .unwrap();
        let live = durable.store_arc().digest();
        assert_ne!(live, store_with(vec![f32::NAN, -0.0, 2.0]).digest());
        drop(durable);
        let (reopened, report) = crate::DurableStore::open(&dir).unwrap();
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(reopened.store_arc().digest(), live, "replayed");
        let epoch = reopened.compact().unwrap().epoch;
        let base = std::fs::read(dir.join(format!("base-{epoch}.seg"))).unwrap();
        assert_eq!(fnv64(FNV_OFFSET, &base), live, "the folded base's bytes");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_ops_put_a_parent_before_a_child_committed_at_a_lower_id() {
        let store = VisualStore::new();
        let add = |id: u64, parent: Option<u64>| WalOp::AddImage {
            id: ImageId(id),
            meta: meta(),
            origin: parent.map_or(ImageOrigin::Original, |p| ImageOrigin::Augmented {
                parent: ImageId(p),
                op: "flip_h".into(),
            }),
            pixels: None,
        };
        // 9 <- 4 <- 2, committed oldest ancestor first; 5 is a bystander
        // and 7 a child in the usual order.
        store
            .apply_batch(vec![
                add(9, None),
                add(4, Some(9)),
                add(2, Some(4)),
                add(5, None),
                add(7, Some(5)),
            ])
            .unwrap();
        let order: Vec<u64> = store
            .snapshot()
            .into_ops()
            .iter()
            .filter_map(|op| match op {
                WalOp::IngestUpload { id, .. } => Some(id.raw()),
                WalOp::UploadMarkers(markers) if markers.is_empty() => None,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![9, 4, 2, 5, 7]);
        assert_eq!(rebuilt(&store).digest(), store.digest());
    }

    /// The image table is one `Vec` sorted by id: an explicit id below
    /// the last one is inserted in place, so ids stay ascending, every
    /// lookup finds its own row, and the dump rebuilds the same store.
    #[test]
    fn an_explicit_id_below_the_last_is_inserted_in_place() {
        let store = VisualStore::new();
        let add = |id: u64| WalOp::AddImage {
            id: ImageId(id),
            meta: ImageMeta {
                captured_at: id as i64,
                ..meta()
            },
            origin: ImageOrigin::Original,
            pixels: None,
        };
        let put = |id: u64, kind| WalOp::PutFeature {
            image: ImageId(id),
            kind,
            vector: vec![id as f32; 2],
        };
        store.apply_batch(vec![add(5), add(9)]).unwrap();
        store
            .apply_batch(vec![add(2), put(2, FeatureKind::Cnn), add(7), add(0)])
            .unwrap();
        store
            .apply_batch(vec![
                put(9, FeatureKind::Cnn),
                put(7, FeatureKind::SiftBow),
                put(7, FeatureKind::ColorHistogram),
            ])
            .unwrap();
        let ids: Vec<u64> = store.image_ids().iter().map(|id| id.raw()).collect();
        assert_eq!(ids, vec![0, 2, 5, 7, 9]);
        for id in [0, 2, 5, 7, 9] {
            let record = store.image(ImageId(id)).unwrap();
            assert_eq!(
                (record.id, record.meta.captured_at),
                (ImageId(id), id as i64)
            );
        }
        assert!(store.image(ImageId(3)).is_none());
        assert_eq!(
            store.images_with_feature(FeatureKind::Cnn),
            vec![ImageId(2), ImageId(9)]
        );
        assert_eq!(
            store.feature(ImageId(9), FeatureKind::Cnn),
            Some(vec![9.0; 2])
        );
        assert_eq!(store.feature(ImageId(5), FeatureKind::Cnn), None);
        let mut seen = Vec::new();
        store.with_image_features(
            &[ImageId(9), ImageId(5), ImageId(2)],
            FeatureKind::Cnn,
            |r, row| seen.push((r.id.raw(), row[0])),
        );
        assert_eq!(
            seen,
            vec![(9, 9.0), (2, 2.0)],
            "in the order asked, featureless skipped"
        );
        // Features dump by id, then in `FeatureKind` order.
        let dump = store.snapshot();
        let features: Vec<(u64, FeatureKind)> = dump
            .features
            .iter()
            .map(|(id, kind, _)| (id.raw(), *kind))
            .collect();
        assert_eq!(
            features,
            vec![
                (2, FeatureKind::Cnn),
                (7, FeatureKind::ColorHistogram),
                (7, FeatureKind::SiftBow),
                (9, FeatureKind::Cnn),
            ]
        );
        let restored = rebuilt(&store);
        assert_eq!(
            first_difference(&restored.snapshot().into_ops(), &dump.into_ops()),
            None
        );
        assert_eq!(restored.image_ids(), store.image_ids());
        assert_eq!(restored.peek_next_image_id(), ImageId(10));
    }

    /// Replacing a feature repoints that one slot of the image's row:
    /// no row is added, the other kinds keep their handles, and the dump
    /// holds the new vector once.
    #[test]
    fn a_feature_replacement_repoints_the_handle_in_place() {
        let store = VisualStore::new();
        let a = add(&store, ImageOrigin::Original, None).unwrap();
        put(&store, a, FeatureKind::Cnn, vec![1.0; 3]).unwrap();
        put(&store, a, FeatureKind::SiftBow, vec![5.0; 2]).unwrap();
        let sift = store.feature_handle(a, FeatureKind::SiftBow);
        let first = store.feature_handle(a, FeatureKind::Cnn).unwrap();
        put(&store, a, FeatureKind::Cnn, vec![2.0; 3]).unwrap();
        let second = store.feature_handle(a, FeatureKind::Cnn).unwrap();
        assert_eq!((first.row, second.row), (0, 1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.image_ids(), vec![a]);
        assert_eq!(store.feature_handle(a, FeatureKind::SiftBow), sift);
        assert_eq!(store.feature(a, FeatureKind::Cnn), Some(vec![2.0; 3]));
        let dump = store.snapshot();
        let cnn: Vec<&Vec<f32>> = dump
            .features
            .iter()
            .filter(|(_, kind, _)| *kind == FeatureKind::Cnn)
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(cnn, vec![&vec![2.0; 3]]);
    }

    /// Each peek names the lowest id above every committed one, so a
    /// caller that commits at the peeked id never collides, and an
    /// explicit id below the peek does not move it back.
    #[test]
    fn peeked_ids_match_assigned_ids() {
        let store = VisualStore::new();
        let peek_img = store.peek_next_image_id();
        let img = add(&store, ImageOrigin::Original, None).unwrap();
        assert_eq!((peek_img, img), (ImageId(0), ImageId(0)));
        let peek_cls = store.peek_next_classification_id();
        let cls = scheme(&store, "c", &["a"]).unwrap();
        assert_eq!(peek_cls, cls);
        let peek_ann = store.peek_next_annotation_id();
        let ann = label(&store, img, cls, 0).unwrap();
        assert_eq!(peek_ann, ann);
        // Peeks advance past explicit ids, and never back.
        store
            .apply_batch(vec![
                WalOp::AddImage {
                    id: ImageId(7),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                },
                WalOp::AddImage {
                    id: ImageId(3),
                    meta: meta(),
                    origin: ImageOrigin::Original,
                    pixels: None,
                },
            ])
            .unwrap();
        assert_eq!(store.peek_next_image_id(), ImageId(8));
        assert_eq!(store.peek_next_classification_id(), ClassificationId(1));
        assert_eq!(store.peek_next_annotation_id(), AnnotationId(1));
    }

    #[test]
    fn ingest_upload_dedups_by_marker() {
        let store = VisualStore::new();
        let features = vec![(FeatureKind::Cnn, vec![1.0, 2.0])];
        let (id, replayed) = upload(
            &store,
            "edge3-s41",
            ImageOrigin::Original,
            Some(tiny_image()),
            &features,
        )
        .unwrap();
        assert!(!replayed);
        assert_eq!(store.len(), 1);
        assert_eq!(store.upload_marker("edge3-s41"), Some(id));
        assert_eq!(store.feature(id, FeatureKind::Cnn).unwrap(), vec![1.0, 2.0]);

        // A retry of the same upload is acknowledged without writing.
        let (again, replayed) = upload(
            &store,
            "edge3-s41",
            ImageOrigin::Original,
            Some(tiny_image()),
            &features,
        )
        .unwrap();
        assert!(replayed);
        assert_eq!(again, id);
        assert_eq!(store.len(), 1);
        assert_eq!(store.inner.read().upload_markers.len(), 1);

        // A different marker is a fresh upload.
        let (other, replayed) =
            upload(&store, "edge3-s42", ImageOrigin::Original, None, &[]).unwrap();
        assert!(!replayed);
        assert_ne!(other, id);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn ingest_upload_validates_augmented_parent() {
        let store = VisualStore::new();
        let bad = upload(
            &store,
            "k",
            ImageOrigin::Augmented {
                parent: ImageId(9),
                op: "flip_h".into(),
            },
            None,
            &[],
        );
        assert_eq!(bad.unwrap_err(), StorageError::UnknownImage(ImageId(9)));
        assert!(store.upload_marker("k").is_none(), "no marker on failure");
    }

    #[test]
    fn upload_marker_table_is_bounded_with_oldest_first_eviction() {
        let store = VisualStore::new();
        for i in 0..=UPLOAD_MARKER_CAPACITY {
            upload(&store, &format!("m{i}"), ImageOrigin::Original, None, &[]).unwrap();
        }
        assert_eq!(
            store.inner.read().upload_markers.len(),
            UPLOAD_MARKER_CAPACITY
        );
        assert!(
            store.upload_marker("m0").is_none(),
            "oldest marker evicted first"
        );
        assert!(store.upload_marker("m1").is_some());
        assert!(store
            .upload_marker(&format!("m{UPLOAD_MARKER_CAPACITY}"))
            .is_some());
        // Images themselves are never evicted, only dedup markers.
        assert_eq!(store.len(), UPLOAD_MARKER_CAPACITY + 1);
    }

    #[test]
    fn a_marker_table_op_restores_the_markers_and_refuses_bad_ones() {
        let store = VisualStore::new();
        let (id, _) = upload(&store, "edge0-s1", ImageOrigin::Original, None, &[]).unwrap();
        let good = store.snapshot();
        assert_eq!(good.markers, vec![("edge0-s1".to_string(), id, 0)]);
        let good = good.into_ops();

        let restored = rebuilt(&store);
        assert_eq!(restored.upload_marker("edge0-s1"), Some(id));
        // The sequence counter resumes past restored markers, so new
        // markers still evict in insertion order.
        let (_, replayed) =
            upload(&restored, "edge0-s1", ImageOrigin::Original, None, &[]).unwrap();
        assert!(replayed);
        assert_eq!(
            first_difference(&restored.snapshot().into_ops(), &good),
            None
        );
        upload(&restored, "edge0-s2", ImageOrigin::Original, None, &[]).unwrap();
        assert_eq!(restored.snapshot().markers[1].2, 1);

        // A marker naming no image, a key the table holds, a key twice.
        let table = |markers: &[(&str, ImageId)]| {
            WalOp::UploadMarkers(
                markers
                    .iter()
                    .map(|(key, image)| (key.to_string(), *image, 7))
                    .collect(),
            )
        };
        assert_eq!(
            restored.apply_batch(vec![table(&[("k", ImageId(77))])]),
            Err(StorageError::UnknownImage(ImageId(77)))
        );
        for markers in [&[("edge0-s1", id)][..], &[("k", id), ("k", id)]] {
            assert!(matches!(
                restored.apply_batch(vec![table(markers)]),
                Err(StorageError::DuplicateMarker(_))
            ));
        }
        // An upload later in the batch whose key the table just brought
        // in is a replay of it.
        let fresh = VisualStore::new();
        let mut ops = good.clone();
        ops.push(WalOp::IngestUpload {
            marker: Some("edge0-s1".into()),
            id: ImageId(9),
            meta: meta(),
            origin: ImageOrigin::Original,
            pixels: None,
            features: vec![],
        });
        assert_eq!(fresh.apply_batch(ops).unwrap(), vec![(ImageId(9), id)]);
        assert_eq!(first_difference(&fresh.snapshot().into_ops(), &good), None);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test races real OS threads against the store's own locking"
    )]
    fn concurrent_ingest_is_safe() {
        let store = Arc::new(VisualStore::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                // Interleaved ids, so rows often land below the last one.
                for i in 0..50 {
                    let row = WalOp::AddImage {
                        id: ImageId(t + 4 * i),
                        meta: meta(),
                        origin: ImageOrigin::Original,
                        pixels: None,
                    };
                    s.apply_batch(vec![row]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 200);
        // Ids are unique and ascend.
        assert_eq!(store.image_ids(), (0..200).map(ImageId).collect::<Vec<_>>());
    }
}
