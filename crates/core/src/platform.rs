//! The platform: the paper's four services composed over one store.
//!
//! Each service owns its state in its own file, private to it:
//! Acquisition ([`crate::acquisition`]) the feature extractors and the
//! image-id counter, Access ([`crate::access`]) the query engine,
//! Analysis ([`crate::analysis`]) the model registry, the training
//! settings and the annotation and scheme counters. Action keeps no
//! platform state: the API's `edge/dispatch` route calls the edge
//! crate's dispatcher. This file holds what the services share: the one
//! store and its journal, the users, and the `Tvdp::commit` seam every
//! mutation goes through.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tvdp_kernel::sync::Mutex;
use tvdp_query::{EngineConfig, DEFAULT_SEAL_CAP};
use tvdp_storage::{
    CompactionReport, DurableStore, RecoveryReport, Replays, StoreHealth, UserId, VisualStore,
    WalOp,
};
use tvdp_vision::{CnnConfig, FeatureKind};

use crate::access::Access;
use crate::acquisition::Acquisition;
use crate::analysis::Analysis;
use crate::error::{PlatformError, WidthSetBy};
use crate::users::{Role, UserRegistry};

// The services' request types, where callers of the platform name them.
pub use crate::acquisition::{IngestOutcome, IngestRequest};
pub use crate::analysis::Algorithm;

/// Platform construction options.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// CNN extractor architecture.
    pub cnn: CnnConfig,
    /// Minimum labelled samples before a model may be trained.
    pub min_training_samples: usize,
    /// Seed for stochastic training algorithms.
    pub seed: u64,
    /// Pending images the engine accumulates before sealing them into an
    /// immutable indexed segment (see
    /// [`tvdp_query::DEFAULT_SEAL_CAP`]). Validated to at least 1 at
    /// platform construction; query results are independent of the
    /// chosen cap — only the scan/index balance moves.
    pub seal_cap: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            cnn: CnnConfig::default(),
            min_training_samples: 10,
            seed: 0x7D_1D,
            seal_cap: DEFAULT_SEAL_CAP,
        }
    }
}

/// Aggregate platform statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformStats {
    /// Stored images.
    pub images: usize,
    /// Stored annotations.
    pub annotations: usize,
    /// Registered models.
    pub models: usize,
    /// Registered users.
    pub users: usize,
}

/// The Translational Visual Data Platform.
///
/// One store holds every row, and (for a durable platform) one
/// write-ahead log journals every mutation. Queries never block on
/// ingest: the engine publishes immutable index generations that
/// readers pick up atomically, and a query scatters across the
/// generation's sealed segments and tail and gathers a deterministic
/// merge.
pub struct Tvdp {
    pub(crate) store: Arc<VisualStore>,
    durable: Option<DurableStore>,
    users: UserRegistry,
    pub(crate) acquisition: Acquisition,
    pub(crate) access: Access,
    pub(crate) analysis: Analysis,
}

impl Tvdp {
    /// Creates an empty in-memory platform (no persistence).
    pub fn new(config: PlatformConfig) -> Self {
        Self::with_store(Arc::new(VisualStore::new()), config)
    }

    /// Wraps an existing store (e.g. one reloaded from disk), rebuilding
    /// every index over its current contents. Users and models are
    /// runtime state and start empty.
    pub fn with_store(store: Arc<VisualStore>, config: PlatformConfig) -> Self {
        Self {
            acquisition: Acquisition::new(&store, config.cnn),
            access: Access::new(&store, config.seal_cap),
            analysis: Analysis::new(&store, config.min_training_samples, config.seed),
            store,
            durable: None,
            users: UserRegistry::new(),
        }
    }

    /// Opens (or creates) a crash-safe platform persisted under `dir`.
    ///
    /// Recovery replays the snapshot plus the write-ahead log, so every
    /// mutation that returned `Ok` before a crash is visible again; the
    /// returned [`RecoveryReport`] says what was replayed or repaired.
    /// All subsequent mutations are journaled to disk before they are
    /// applied. Users and models are runtime state and start empty.
    ///
    /// The store persists directly under `dir`. A directory holding a
    /// `shard-<i>/` subdirectory was laid out by a geo-sharded build;
    /// it is refused with [`PlatformError::ShardedLayout`] before
    /// anything in it is touched.
    pub fn open(
        dir: &Path,
        config: PlatformConfig,
    ) -> Result<(Self, RecoveryReport), PlatformError> {
        if let Some(shard) = shard_subdirectory(dir) {
            return Err(PlatformError::ShardedLayout(shard));
        }
        let (durable, report) = DurableStore::open(dir)?;
        one_width(&durable.store_arc(), EngineConfig::default().visual_kind)?;
        let mut platform = Self::with_store(durable.store_arc(), config);
        platform.durable = Some(durable);
        Ok((platform, report))
    }

    /// Folds the journal into a fresh snapshot — a base segment in the
    /// journal's own record format — and rotates the write-ahead log
    /// (durable platforms only). Call periodically to bound the log and
    /// keep reopen cost proportional to store size, not mutation
    /// history.
    ///
    /// **Wait-for-quiesce semantics:** `flush` waits only for in-flight
    /// writers to quiesce at the journal lock — the snapshot cut and
    /// segment rotation happen atomically inside that critical section,
    /// so an op either lands wholly before the cut (folded into the
    /// snapshot) or wholly after (journaled in the new live segment).
    /// Writers are *not* blocked for the fold itself:
    /// [`tvdp_storage::DurableStore::compact`] writes and publishes the
    /// base outside the lock, concurrent with new writes, and `flush`
    /// returns once it has published. Ops acknowledged after `flush`
    /// was called may therefore be in the new live segment rather than
    /// the snapshot — durable either way.
    pub fn flush(&self) -> Result<CompactionReport, PlatformError> {
        let durable = self.durable.as_ref().ok_or(PlatformError::NotDurable)?;
        Ok(durable.compact()?)
    }

    /// The one write seam, and the only place that knows a durable
    /// platform from an in-memory one. Either way `ops` are validated
    /// whole against the store and each other, then applied in order,
    /// all or none; a durable platform journals them in between as one
    /// framed write + one fsync. Uploads whose marker the store already
    /// holds are skipped and returned.
    pub(crate) fn commit(&self, ops: Vec<WalOp>) -> Result<Replays, PlatformError> {
        Ok(match &self.durable {
            Some(durable) => durable.apply_batch(ops)?,
            None => self.store.apply_batch(ops)?,
        })
    }

    /// The store (read access for analysis pipelines).
    pub fn store(&self) -> &Arc<VisualStore> {
        &self.store
    }

    /// Registers a participant.
    pub fn register_user(&self, name: impl Into<String>, role: Role) -> UserId {
        self.users.register(name, role)
    }

    pub(crate) fn require_user(&self, user: UserId) -> Result<(), PlatformError> {
        if self.users.exists(user) {
            Ok(())
        } else {
            Err(PlatformError::UnknownUser(user))
        }
    }

    /// The durable store's health (see [`tvdp_storage::HealthState`]:
    /// `Ok` → `ReadOnly` on a journal write fault, `ReadOnly` →
    /// `Degraded` on the first repaired write, `Degraded` → `Ok` on the
    /// next), or `None` for an in-memory platform, which has no journal
    /// to fault and is always serving. Drives the API health endpoint.
    pub fn health(&self) -> Option<StoreHealth> {
        self.durable.as_ref().map(DurableStore::health)
    }

    /// Installs (or, with `None`, removes) a write-fault plan on the
    /// durable store's WAL — chaos instrumentation for exercising
    /// the degraded-mode state machine against live traffic. Durable
    /// platforms only.
    // tvdp-lint: allow(dead_api, reason = "(a) test support: tvdp-api's resilience tests inject write faults through it")
    pub fn set_write_fault_plan(
        &self,
        plan: Option<std::sync::Arc<tvdp_storage::WriteFaultPlan>>,
    ) -> Result<(), PlatformError> {
        let durable = self.durable.as_ref().ok_or(PlatformError::NotDurable)?;
        durable.set_write_fault_plan(plan);
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PlatformStats {
        PlatformStats {
            images: self.store.len(),
            annotations: self.store.annotation_count(),
            models: self.models().ids().len(),
            users: self.users.all().len(),
        }
    }
}

/// Takes the next id from a service's counter. Ids are allocated ahead
/// of the insert that takes them and the insert happens *at* the
/// allocated id, so ids are dense and the allocation order (= upload
/// order) is recoverable from ids alone.
pub(crate) fn take_id(counter: &Mutex<u64>) -> u64 {
    let mut next = counter.lock();
    *next += 1;
    *next - 1
}

/// Refuses a store whose live `kind` rows have two widths (a directory
/// written under two extractor configurations), which no index can
/// mix: the first row's width is expected, and the first image holding
/// another is named. Every row agreeing is found without a scan unless
/// the arena holds two widths of `kind`.
fn one_width(store: &VisualStore, kind: FeatureKind) -> Result<(), PlatformError> {
    if store.feature_widths(kind).len() < 2 {
        return Ok(());
    }
    let mut expected = None;
    let mixed = store.image_ids().into_iter().find_map(|image| {
        let found = store.feature_handle(image, kind).filter(|h| h.dim > 0)?.dim as usize;
        match *expected.get_or_insert(found) {
            width if width == found => None,
            width => Some(PlatformError::FeatureWidth {
                image,
                kind,
                expected: width,
                found,
                set_by: WidthSetBy::Store,
            }),
        }
    });
    mixed.map_or(Ok(()), Err)
}

/// The first `shard-<i>` subdirectory of `dir`, the layout geo-sharded
/// builds wrote a multi-shard platform in. A directory that cannot be
/// listed has none; the store's own open reports why.
fn shard_subdirectory(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            let digits = path
                .file_name()
                .and_then(|name| name.to_str()?.strip_prefix("shard-"));
            digits.is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                && path.is_dir()
        })
        .min()
}

#[cfg(test)]
mod durability_tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_query::{Query, TextualMode};
    use tvdp_storage::ClassificationId;
    use tvdp_vision::{FeatureKind, Image};

    fn fast_config() -> PlatformConfig {
        PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4, 8],
                pool_grid: 2,
                seed: 1,
            },
            min_training_samples: 6,
            ..Default::default()
        }
    }

    fn scene(class: usize, seed: usize) -> Image {
        Image::from_fn(24, 24, |x, y| {
            let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
            if class == 0 {
                [200, v, v]
            } else {
                [v, v, 220]
            }
        })
    }

    fn request(i: i64) -> IngestRequest {
        IngestRequest {
            gps: GeoPoint::new(34.0 + i as f64 * 1e-4, -118.25),
            fov: None,
            captured_at: 1000 + i,
            uploaded_at: 1100 + i,
            keywords: vec!["street".into()],
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvdp-platform-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn durable_platform_survives_reopen() {
        let dir = temp_dir("reopen");
        let (id, scheme, ann);
        {
            let (tvdp, report) = Tvdp::open(&dir, fast_config()).unwrap();
            assert!(tvdp.health().is_some());
            assert!(!report.snapshot_found);
            let user = tvdp.register_user("LASAN", Role::Government);
            scheme = tvdp
                .register_scheme("binary", vec!["red".into(), "blue".into()])
                .unwrap();
            id = tvdp.ingest(user, scene(0, 0), request(0)).unwrap();
            ann = tvdp.annotate(user, id, scheme, 0, 1.0, None).unwrap();
            // No flush: everything below must come back from the WAL alone.
        }
        let (tvdp, report) = Tvdp::open(&dir, fast_config()).unwrap();
        // scheme + upload + annotation
        assert_eq!(report.replayed_ops, 3);
        assert_eq!(tvdp.stats().images, 1);
        assert!(tvdp.store().feature(id, FeatureKind::Cnn).is_some());
        assert_eq!(tvdp.store().annotations_of(id)[0].id, ann);
        assert_eq!(tvdp.store().scheme(scheme).unwrap().labels.len(), 2);
        // The query engine was rebuilt over the recovered rows.
        let hits = tvdp
            .search(&Query::Textual {
                text: "street".into(),
                mode: TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 1);
        // Ids keep advancing from where the journal left off.
        let user = tvdp.register_user("LASAN", Role::Government);
        let next = tvdp.ingest(user, scene(1, 1), request(1)).unwrap();
        assert!(next.0 > id.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_compacts_the_journal() {
        let dir = temp_dir("flush");
        {
            let (tvdp, _) = Tvdp::open(&dir, fast_config()).unwrap();
            let user = tvdp.register_user("LASAN", Role::Government);
            tvdp.ingest(user, scene(0, 0), request(0)).unwrap();
            let report = tvdp.flush().unwrap();
            assert_eq!(report.ops_compacted, 1); // the upload's one record
            assert!(report.wal_bytes_before > 0);
        }
        // After compaction the state comes back from the snapshot, not a replay.
        let (tvdp, report) = Tvdp::open(&dir, fast_config()).unwrap();
        assert!(report.snapshot_found);
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(tvdp.stats().images, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_platform_rejects_flush() {
        let tvdp = Tvdp::new(fast_config());
        assert!(tvdp.health().is_none());
        assert!(matches!(tvdp.flush(), Err(PlatformError::NotDurable)));
    }

    /// A listing of everything under `dir`: each path relative to it,
    /// with a file's bytes (a directory has none).
    fn tree(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            for entry in std::fs::read_dir(&at).unwrap() {
                let path = entry.unwrap().path();
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                if path.is_dir() {
                    out.push((rel, None));
                    pending.push(path);
                } else {
                    out.push((rel, Some(std::fs::read(&path).unwrap())));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn a_sharded_directory_is_refused_untouched() {
        let dir = temp_dir("sharded-layout");
        {
            let (store, _) = DurableStore::open(&dir.join("shard-0")).unwrap();
            store
                .apply_batch(vec![WalOp::RegisterScheme {
                    id: ClassificationId(0),
                    name: "binary".into(),
                    labels: vec!["red".into(), "blue".into()],
                }])
                .unwrap();
        }
        let before = tree(&dir);
        assert_eq!(before.len(), 2, "{before:?}");
        let Err(refusal) = Tvdp::open(&dir, fast_config()) else {
            panic!("a sharded directory opened");
        };
        assert!(
            matches!(&refusal, PlatformError::ShardedLayout(shard) if *shard == dir.join("shard-0")),
            "{refusal:?}"
        );
        assert!(refusal.to_string().contains("shard-0"), "{refusal}");
        assert_eq!(tree(&dir), before, "nothing created, swept or rewritten");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_ingest_group_commits_and_survives_reopen() {
        let dir = temp_dir("batch-reopen");
        let config = fast_config();
        let ids;
        let live;
        {
            let (tvdp, _) = Tvdp::open(&dir, config.clone()).unwrap();
            let user = tvdp.register_user("LASAN", Role::Government);
            let batch: Vec<(Image, IngestRequest)> = (0..9)
                .map(|i| {
                    let mut rq = request(i);
                    rq.gps = GeoPoint::new(34.0 + 0.03 * i as f64, -118.25 - 0.02 * i as f64);
                    (scene(0, i as usize), rq)
                })
                .collect();
            ids = tvdp.ingest_batch(user, batch, 4).unwrap();
            live = tvdp.store().digest();
            // No flush: the batch must come back from the group-committed
            // WAL frames alone.
        }
        let (tvdp, report) = Tvdp::open(&dir, config).unwrap();
        // 9 uploads, journaled as one run of records.
        assert_eq!(report.replayed_ops, 9);
        assert_eq!(tvdp.stats().images, 9);
        assert_eq!(tvdp.store().digest(), live);
        for &id in &ids {
            assert!(tvdp.store().image(id).is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
