//! A store as one file: a base segment.
//!
//! A base segment is a journal segment ([`crate::wal`]: the same
//! [`SEGMENT_MAGIC`] header, the same CRC-framed records) holding the
//! ops that rebuild a store on an empty one
//! ([`crate::store::Snapshot::into_ops`]). Compaction publishes its cut
//! as one; [`save`] and [`load`] are the same thing for a store kept as
//! a single file (the CLI's store file), so there is one encoder, one
//! scanner and one validator for every row that reaches disk.
//!
//! Writing is crash-safe: the bytes go to a sibling `<name>.tmp` file,
//! which is `fsync`ed, atomically renamed over the destination, and
//! made durable by an `fsync` of the parent directory. A crash at any
//! byte offset leaves either the complete old file or the complete new
//! one — never a torn one.
//!
//! Reading is strict, because a published base is a sealed segment: a
//! missing header, a torn tail, a record that does not decode, and a
//! record the store's validator refuses are all typed errors. A file
//! in the JSON form of builds up to PR 20 is refused untouched
//! ([`crate::wal::WalError::UnsupportedFormat`]).

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::recovery::{replay_sealed, DurableError};
use crate::store::VisualStore;
use crate::wal::{self, WalOp, SEGMENT_MAGIC};

/// Ops encoded per write while rendering a base segment.
pub(crate) const BASE_WRITE_OPS: usize = 2048;

/// The sibling temporary path a base segment stages its bytes in before
/// the atomic rename (`<name>.tmp` in the same directory). Exposed so
/// tests can plant crash debris.
pub fn staging_path(path: &Path) -> std::io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "base segment path has no file name",
        )
    })?;
    let mut tmp = name.to_os_string();
    tmp.push(".tmp");
    Ok(path.with_file_name(tmp))
}

/// Fsyncs the directory containing `path`, making a rename, create, or
/// unlink of that path itself durable. Every staged-rename site in the
/// crate (base publish, WAL create/rotate, segment removal) must call
/// this after the metadata operation — the PR 4 protocol.
pub(crate) fn fsync_parent(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    File::open(parent)?.sync_all()
}

/// A base segment being staged beside its destination.
#[derive(Debug)]
pub(crate) struct BaseWriter {
    file: File,
    dest: PathBuf,
    staging: PathBuf,
    buf: Vec<u8>,
}

impl BaseWriter {
    /// Creates the staging file for `dest`, holding the segment header.
    pub(crate) fn create(dest: &Path) -> Result<Self, DurableError> {
        let staging = staging_path(dest)?;
        let mut file = File::create(&staging)?;
        file.write_all(&SEGMENT_MAGIC)?;
        Ok(BaseWriter {
            file,
            dest: dest.to_path_buf(),
            staging,
            buf: Vec::new(),
        })
    }

    /// Appends `ops` as framed records.
    pub(crate) fn write(&mut self, ops: &[WalOp]) -> Result<(), DurableError> {
        self.buf.clear();
        wal::push_records(&mut self.buf, ops)?;
        Ok(self.file.write_all(&self.buf)?)
    }

    /// Makes the staged bytes durable and atomically renames them over
    /// the destination; returns the segment's size in bytes. Nothing
    /// may be written after it.
    pub(crate) fn publish(&self) -> Result<u64, DurableError> {
        self.file.sync_all()?;
        let len = self.file.metadata()?.len();
        std::fs::rename(&self.staging, &self.dest)?;
        fsync_parent(&self.dest)?;
        Ok(len)
    }

    /// Drops the staging file: nothing was published.
    pub(crate) fn abandon(self) {
        drop(self.file);
        std::fs::remove_file(&self.staging).ok();
    }
}

/// Atomically replaces the file at `path` with a base segment of
/// `store`. The previous file survives intact until the rename commits.
pub fn save(store: &VisualStore, path: &Path) -> Result<(), DurableError> {
    let mut writer = BaseWriter::create(path)?;
    for ops in store.snapshot().into_ops().chunks(BASE_WRITE_OPS) {
        writer.write(ops)?;
    }
    writer.publish().map(drop)
}

/// Loads the base segment at `path` into a fresh store, every record
/// through the store's validator.
pub fn load(path: &Path) -> Result<VisualStore, DurableError> {
    let store = VisualStore::new();
    replay_sealed(&store, path, true)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationSource;
    use crate::ids::UserId;
    use crate::record::{ImageMeta, ImageOrigin};
    use crate::wal::WalError;
    use tvdp_geo::GeoPoint;
    use tvdp_vision::{FeatureKind, Image};

    fn populated_store() -> VisualStore {
        let store = VisualStore::new();
        let meta = ImageMeta {
            uploader: UserId(1),
            gps: GeoPoint::new(34.0, -118.25),
            fov: None,
            captured_at: 100,
            uploaded_at: 110,
            keywords: vec!["street".into(), "corner".into()],
        };
        let img = store
            .add_image(
                meta.clone(),
                ImageOrigin::Original,
                Some(Image::from_fn(4, 4, |x, y| [x as u8, y as u8, 9])),
            )
            .unwrap();
        let cls = store
            .register_scheme("cleanliness", vec!["clean".into(), "dirty".into()])
            .unwrap();
        store
            .put_feature(img, FeatureKind::Cnn, vec![0.1, 0.2, 0.3])
            .unwrap();
        store
            .annotate(img, cls, 1, 0.7, AnnotationSource::Human(UserId(1)), None)
            .unwrap();
        store.add_image(meta, ImageOrigin::Original, None).unwrap();
        store
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-persist-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let store = populated_store();
        let path = temp_path("roundtrip");
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.annotation_count(), 1);
        let ids = loaded.image_ids();
        assert_eq!(
            loaded.feature(ids[0], FeatureKind::Cnn).unwrap(),
            vec![0.1, 0.2, 0.3]
        );
        assert_eq!(loaded.pixels(ids[0]).unwrap().get(1, 2), [1, 2, 9]);
        assert!(loaded.scheme_by_name("cleanliness").is_some());
        // Snapshot equality: the restored store is exactly the saved one.
        assert_eq!(loaded.snapshot(), store.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_staging_file() {
        let store = populated_store();
        let path = temp_path("atomic");
        save(&store, &path).unwrap();
        // Second save over an existing file succeeds and the staging
        // file is gone after the rename.
        save(&store, &path).unwrap();
        assert!(!staging_path(&path).unwrap().exists());
        assert_eq!(load(&path).unwrap().snapshot(), store.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_file_that_is_not_a_whole_base_segment_is_refused() {
        let path = temp_path("not-a-base");
        // Empty, half a header, another format version, and the JSON
        // store file of older builds: none of them is a sealed segment.
        let json = b"{\"Header\":{\"version\":2,\"wal_epoch\":0}}\n";
        for bytes in [&b""[..], &SEGMENT_MAGIC[..5], b"TVDPWAL\x04", json] {
            std::fs::write(&path, bytes).unwrap();
            let Err(DurableError::Wal(refusal @ WalError::UnsupportedFormat { .. })) = load(&path)
            else {
                panic!("{bytes:?} loaded");
            };
            assert!(refusal.to_string().contains("0104dbe"), "{refusal}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "refused untouched");
        }
        // A store file cut short or with bytes after its last record is
        // torn, and a base is never repaired by truncation.
        let store = populated_store();
        save(&store, &path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let mut longer = whole.clone();
        longer.extend_from_slice(b"{not a record\n");
        for bytes in [&whole[..whole.len() - 1], &longer[..]] {
            std::fs::write(&path, bytes).unwrap();
            let Err(DurableError::Replay(message)) = load(&path) else {
                panic!("a torn store file loaded");
            };
            assert!(message.contains("torn"), "{message}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        // Cut at a record boundary nothing is torn, but the marker table
        // that closes every base is missing.
        let table = wal::frame(&WalOp::UploadMarkers(Vec::new()).encode());
        assert!(whole.ends_with(&table));
        std::fs::write(&path, &whole[..whole.len() - table.len()]).unwrap();
        let Err(DurableError::Replay(message)) = load(&path) else {
            panic!("a store file without its last record loaded");
        };
        assert!(message.contains("cut short"), "{message}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let path = temp_path("missing-file-never-created");
        assert!(matches!(load(&path), Err(DurableError::Io(_))));
    }

    #[test]
    fn upload_markers_roundtrip_through_a_store_file() {
        let store = populated_store();
        let (id, _) = store
            .ingest_upload(
                "edge2-s9",
                ImageMeta {
                    uploader: UserId(3),
                    gps: GeoPoint::new(34.1, -118.2),
                    fov: None,
                    captured_at: 300,
                    uploaded_at: 310,
                    keywords: vec![],
                },
                ImageOrigin::Original,
                None,
                &[(FeatureKind::Cnn, vec![0.9])],
            )
            .unwrap();
        let path = temp_path("markers");
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.upload_marker("edge2-s9"), Some(id));
        assert_eq!(loaded.snapshot(), store.snapshot());
        std::fs::remove_file(&path).ok();
    }
}
