//! The platform facade.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tvdp_kernel::sync::Mutex;

use tvdp_crowd::{simulate_campaign, Campaign, SimulationConfig};
use tvdp_edge::{
    DeviceProfile, DispatchConstraints, DispatchDecision, LinkConditions, ModelDispatcher,
    MODEL_ZOO,
};
use tvdp_geo::Fov;
use tvdp_kernel::Pool;
use tvdp_ml::mlp::MlpParams;
use tvdp_ml::{
    Classifier, DecisionTree, GaussianNb, KnnClassifier, LinearSvm, LogisticRegression, Mlp,
    RandomForest, ScaledClassifier, SerializableModel,
};
use tvdp_query::engine::EngineConfig;
use tvdp_query::{Query, QueryResult, ShardedEngine, VisualMode, DEFAULT_SEAL_CAP};
use tvdp_storage::{
    Annotation, AnnotationId, AnnotationSource, ClassificationId, CompactionReport, DurableStore,
    HealthState, ImageId, ImageOrigin, ModelId, RecoveryReport, RegionOfInterest, UserId,
    VisualStore, WalOp,
};
use tvdp_vision::{
    Augmentation, CnnConfig, CnnExtractor, ColorHistogramExtractor, FeatureExtractor, FeatureKind,
    Image,
};

use crate::error::PlatformError;
use crate::ingest::{upload_op, Upload};
use crate::models::{ModelInterface, ModelRegistry};
use crate::users::{Role, UserRegistry};

/// Training algorithms a participant can pick when devising a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// k-nearest neighbours with the given `k`.
    Knn(usize),
    /// CART decision tree.
    DecisionTree,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Random forest with the given tree count.
    RandomForest(usize),
    /// Linear SVM (the paper's best performer).
    Svm,
    /// Multinomial logistic regression.
    LogisticRegression,
    /// Single-hidden-layer MLP.
    Mlp,
}

impl Algorithm {
    fn build(self, seed: u64) -> SerializableModel {
        // Scale-sensitive algorithms train behind a standardization
        // pipeline fitted on the training split; every variant is
        // portable (downloadable through the API).
        match self {
            Algorithm::Knn(k) => {
                SerializableModel::Knn(ScaledClassifier::new(KnnClassifier::new(k).weighted()))
            }
            Algorithm::DecisionTree => SerializableModel::DecisionTree(DecisionTree::new()),
            Algorithm::NaiveBayes => SerializableModel::NaiveBayes(GaussianNb::new()),
            Algorithm::RandomForest(n) => {
                SerializableModel::RandomForest(RandomForest::new(n, seed))
            }
            Algorithm::Svm => SerializableModel::Svm(ScaledClassifier::new(LinearSvm::new())),
            Algorithm::LogisticRegression => SerializableModel::LogisticRegression(
                ScaledClassifier::new(LogisticRegression::new()),
            ),
            Algorithm::Mlp => {
                SerializableModel::Mlp(ScaledClassifier::new(Mlp::with_params(MlpParams {
                    hidden: 96,
                    epochs: 80,
                    seed,
                    ..Default::default()
                })))
            }
        }
    }
}

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

/// Outcome of a deduplicating upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestOutcome {
    /// The image was new and stored under this id.
    Stored(ImageId),
    /// A near-duplicate already existed; nothing was stored.
    Duplicate {
        /// The previously stored near-duplicate.
        existing: ImageId,
        /// Feature distance to it.
        feature_distance: f32,
    },
}

/// Upload-time metadata for [`Tvdp::ingest`].
#[derive(Debug, Clone)]
pub struct IngestRequest {
    /// Camera GPS position.
    pub gps: tvdp_geo::GeoPoint,
    /// FOV descriptor when direction sensors were available.
    pub fov: Option<Fov>,
    /// Capture timestamp, Unix seconds.
    pub captured_at: i64,
    /// Upload timestamp, Unix seconds.
    pub uploaded_at: i64,
    /// Uploader-supplied keywords.
    pub keywords: Vec<String>,
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

/// Serving-health report ([`Tvdp::health`]): the durable store's
/// [`HealthState`] plus fault accounting. The state machine is the
/// storage layer's — `Ok` → `ReadOnly` on a journal write fault,
/// `ReadOnly` → `Degraded` on the first repaired write, `Degraded` →
/// `Ok` on the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The store's write-path state; `Ok` for an in-memory platform.
    pub state: HealthState,
    /// Journal write faults observed since open.
    pub write_faults: u64,
    /// The most recent write fault's message, until fully recovered.
    pub last_error: Option<String>,
    /// Whether the platform journals to disk at all.
    pub durable: bool,
}

/// Platform id counters. Ids are allocated here, ahead of the insert
/// that takes them, so they are dense in allocation order.
struct NextIds {
    image: u64,
    annotation: u64,
    classification: u64,
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
    config: PlatformConfig,
    pub(crate) store: Arc<VisualStore>,
    pub(crate) durable: Option<DurableStore>,
    pub(crate) engine: ShardedEngine,
    ids: Mutex<NextIds>,
    users: UserRegistry,
    models: ModelRegistry,
    color: ColorHistogramExtractor,
    cnn: CnnExtractor,
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
        // The engine indexes exactly one store, given as a one-element
        // vector.
        let engine = ShardedEngine::with_seal_cap(
            vec![Arc::clone(&store)],
            EngineConfig::default(),
            config.seal_cap.max(1),
        );
        let ids = NextIds {
            image: store.peek_next_image_id().0,
            annotation: store.peek_next_annotation_id().0,
            classification: store.peek_next_classification_id().0,
        };
        let cnn = CnnExtractor::with_config(config.cnn.clone());
        Self {
            config,
            store,
            durable: None,
            engine,
            ids: Mutex::new(ids),
            users: UserRegistry::new(),
            models: ModelRegistry::new(),
            color: ColorHistogramExtractor::paper_default(),
            cnn,
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

    // Id allocation. The insert happens *at* the allocated id, so the
    // allocation order (= upload order) is recoverable from ids alone.

    pub(crate) fn alloc_image_id(&self) -> ImageId {
        let mut ids = self.ids.lock();
        let id = ImageId(ids.image);
        ids.image += 1;
        id
    }

    fn alloc_annotation_id(&self) -> AnnotationId {
        let mut ids = self.ids.lock();
        let id = AnnotationId(ids.annotation);
        ids.annotation += 1;
        id
    }

    fn alloc_classification_id(&self) -> ClassificationId {
        let mut ids = self.ids.lock();
        let id = ClassificationId(ids.classification);
        ids.classification += 1;
        id
    }

    /// The store (read access for analysis pipelines).
    pub fn store(&self) -> &Arc<VisualStore> {
        &self.store
    }

    /// The model registry.
    pub fn models(&self) -> &ModelRegistry {
        &self.models
    }

    /// Registers a participant.
    pub fn register_user(&self, name: impl Into<String>, role: Role) -> UserId {
        self.users.register(name, role)
    }

    /// Registers a classification scheme (a labelling task).
    pub fn register_scheme(
        &self,
        name: impl Into<String>,
        labels: Vec<String>,
    ) -> Result<ClassificationId, PlatformError> {
        let id = self.alloc_classification_id();
        let op = WalOp::RegisterScheme {
            id,
            name: name.into(),
            labels,
        };
        self.commit(vec![op])?;
        Ok(id)
    }

    pub(crate) fn require_user(&self, user: UserId) -> Result<(), PlatformError> {
        if self.users.exists(user) {
            Ok(())
        } else {
            Err(PlatformError::UnknownUser(user))
        }
    }

    /// **Acquisition**: uploads an image; features (color histogram and
    /// CNN embedding) are extracted and every index is updated. A batch
    /// of one through [`Tvdp::ingest_uploads`].
    pub fn ingest(
        &self,
        user: UserId,
        image: Image,
        request: IngestRequest,
    ) -> Result<ImageId, PlatformError> {
        let uploads = vec![Upload::from((image, request))];
        Ok(self.ingest_uploads(user, uploads, &Pool::serial())?[0].0)
    }

    /// **Acquisition**: bulk upload — [`Tvdp::ingest_uploads`] without
    /// idempotency keys on a pool of `threads` workers. Ids are returned
    /// in input order.
    pub fn ingest_batch(
        &self,
        user: UserId,
        batch: Vec<(Image, IngestRequest)>,
        threads: usize,
    ) -> Result<Vec<ImageId>, PlatformError> {
        let uploads = batch.into_iter().map(Upload::from).collect();
        let stored = self.ingest_uploads(user, uploads, &Pool::new(threads))?;
        Ok(stored.into_iter().map(|(id, _)| id).collect())
    }

    /// **Acquisition**: uploads an image with near-duplicate detection
    /// (the paper's challenge 2: "visual data is huge in size and many
    /// times redundant"). When a stored image is visually within
    /// `max_feature_dist` (CNN feature distance) *and* spatially within
    /// `max_camera_distance_m`, the upload is rejected as a duplicate and
    /// the existing row is returned instead.
    pub fn ingest_dedup(
        &self,
        user: UserId,
        image: Image,
        request: IngestRequest,
        max_feature_dist: f32,
        max_camera_distance_m: f64,
    ) -> Result<IngestOutcome, PlatformError> {
        self.require_user(user)?;
        // A visual threshold query like any other request: validated
        // (a platform indexing another family refuses it), thresholded
        // in squared-distance space, nearest first.
        let candidates = self.search(&Query::Visual {
            example: self.cnn.extract(&image),
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(max_feature_dist),
        })?;
        for candidate in candidates {
            let Some(existing) = self.store.image(candidate.image) else {
                continue;
            };
            if existing.meta.gps.fast_distance_m(&request.gps) <= max_camera_distance_m {
                return Ok(IngestOutcome::Duplicate {
                    existing: candidate.image,
                    feature_distance: candidate.score as f32,
                });
            }
        }
        Ok(IngestOutcome::Stored(self.ingest(user, image, request)?))
    }

    /// **Acquisition**: ingests a video as a key-frame sequence (paper
    /// Section IV-B: "a video is represented by a sequence of key frames
    /// … each one is tagged with various descriptors"). Frames dropped by
    /// `policy` never hit storage.
    pub fn ingest_video(
        &self,
        user: UserId,
        frames: &[crate::video::VideoFrame],
        policy: crate::video::KeyframePolicy,
        keywords: Vec<String>,
    ) -> Result<crate::video::VideoIngestReport, PlatformError> {
        let uploads = crate::video::select_keyframes(frames, policy)
            .into_iter()
            .map(|i| {
                let frame = &frames[i];
                let request = IngestRequest {
                    gps: frame.fov.camera,
                    fov: Some(frame.fov),
                    captured_at: frame.captured_at,
                    uploaded_at: frame.captured_at + 1,
                    keywords: keywords.clone(),
                };
                Upload::from((frame.image.clone(), request))
            })
            .collect();
        let keyframes: Vec<ImageId> = self
            .ingest_uploads(user, uploads, Pool::global())?
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        Ok(crate::video::VideoIngestReport {
            frames_offered: frames.len(),
            frames_dropped: frames.len() - keyframes.len(),
            keyframes,
        })
    }

    /// **Acquisition**: synthesizes an augmented variant of a stored
    /// image, recording lineage and extracting fresh features.
    // tvdp-lint: allow(dead_api, reason = "(c) paper capability: augmentation (Acquisition), awaiting a route (ROADMAP item 11)")
    pub fn augment(
        &self,
        user: UserId,
        parent: ImageId,
        op: Augmentation,
    ) -> Result<ImageId, PlatformError> {
        self.require_user(user)?;
        let record = self
            .store
            .image(parent)
            .ok_or(PlatformError::UnknownImage(parent))?;
        let pixels = self
            .store
            .pixels(parent)
            .ok_or(PlatformError::MissingPixels(parent))?;
        let augmented = op.apply(&pixels);
        let features = self.extract_features(&augmented);
        let origin = ImageOrigin::Augmented {
            parent,
            op: op.tag(),
        };
        let id = self.alloc_image_id();
        let op = upload_op(id, record.meta, origin, augmented, features, None);
        self.commit(vec![op])?;
        self.engine.index_image(0, id);
        Ok(id)
    }

    /// **Acquisition**: runs a spatial-crowdsourcing campaign. For each
    /// captured FOV, `capture` synthesizes the photo a worker would take
    /// (pixels, keywords, capture time); everything is ingested under
    /// `user` and the resulting image ids returned.
    pub fn acquire_via_campaign(
        &self,
        user: UserId,
        campaign: &Campaign,
        sim: &SimulationConfig,
        mut capture: impl FnMut(&Fov) -> (Image, Vec<String>, i64),
    ) -> Result<(tvdp_crowd::CampaignReport, Vec<ImageId>), PlatformError> {
        self.require_user(user)?;
        let (report, fovs) = simulate_campaign(campaign, sim);
        let uploads = fovs
            .iter()
            .map(|fov| {
                let (image, keywords, captured_at) = capture(fov);
                let request = IngestRequest {
                    gps: fov.camera,
                    fov: Some(*fov),
                    captured_at,
                    uploaded_at: captured_at + 60,
                    keywords,
                };
                Upload::from((image, request))
            })
            .collect();
        let stored = self.ingest_uploads(user, uploads, Pool::global())?;
        Ok((report, stored.into_iter().map(|(id, _)| id).collect()))
    }

    /// **Access**: executes a query, scattering it across the published
    /// index generation's segments and gathering a deterministic merge. Reads never block on ingest. Malformed queries (e.g. a
    /// visual example of the wrong dimension) surface as
    /// [`PlatformError::Query`] instead of panicking.
    pub fn search(&self, query: &Query) -> Result<Vec<QueryResult>, PlatformError> {
        Ok(self.engine.try_execute(query)?)
    }

    /// **Access**: executes independent queries concurrently on the global
    /// worker pool. Results are in query order and identical to calling
    /// [`Tvdp::search`] per query.
    // tvdp-lint: allow(dead_api, reason = "(c) paper capability: batched search (Access), awaiting a route (ROADMAP item 11)")
    pub fn search_batch(&self, queries: &[Query]) -> Result<Vec<Vec<QueryResult>>, PlatformError> {
        Ok(self
            .engine
            .try_execute_batch_with_pool(queries, Pool::global())?)
    }

    /// **Access**: [`Tvdp::search`] under a virtual-clock deadline. The
    /// engine charges a modeled clock at scatter/gather and
    /// segment-scan boundaries and aborts with
    /// [`tvdp_query::QueryError::DeadlineExceeded`] (surfaced as
    /// [`PlatformError::Query`]) instead of burning pool time once the
    /// clock passes `deadline_ms`. The trip decision is deterministic
    /// across pool widths.
    pub fn search_with_deadline(
        &self,
        query: &Query,
        now_ms: i64,
        deadline_ms: i64,
    ) -> Result<Vec<QueryResult>, PlatformError> {
        Ok(self
            .engine
            .try_execute_with_deadline(query, Pool::global(), now_ms, deadline_ms)?)
    }

    /// Prices `query` in admission work units from each segment's
    /// cardinality statistics over the current published index
    /// generation. Read-only and deterministic; the admission
    /// controller charges this against its capacity budget before the
    /// query runs.
    pub fn estimate_query_cost(&self, query: &Query) -> u64 {
        self.engine.estimate_query_units(query)
    }

    /// Platform health: the durable store's state (an in-memory
    /// platform is always `Ok`), observed write faults, and the last
    /// recorded error. Drives the API health endpoint and the
    /// degraded-mode behavior of callers.
    pub fn health(&self) -> HealthReport {
        let Some(durable) = &self.durable else {
            return HealthReport {
                state: HealthState::Ok,
                write_faults: 0,
                last_error: None,
                durable: false,
            };
        };
        let h = durable.health();
        HealthReport {
            state: h.state,
            write_faults: h.write_faults,
            last_error: h.last_error,
            durable: true,
        }
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

    /// Extracts the platform's feature families from an image *without*
    /// storing it (the "get visual features" API: edge devices and
    /// collaborators compute-on-upload).
    pub fn extract_features(&self, image: &Image) -> Vec<(FeatureKind, Vec<f32>)> {
        vec![
            (FeatureKind::ColorHistogram, self.color.extract(image)),
            (FeatureKind::Cnn, self.cnn.extract(image)),
        ]
    }

    /// Records a human annotation (confidence 1.0).
    pub fn annotate_human(
        &self,
        user: UserId,
        image: ImageId,
        scheme: ClassificationId,
        label: usize,
    ) -> Result<AnnotationId, PlatformError> {
        self.annotate(user, image, scheme, label, 1.0, None)
    }

    /// Records a human annotation with the annotator's own `confidence`
    /// in `[0, 1]`, on the whole image or on `region` of it.
    pub fn annotate(
        &self,
        user: UserId,
        image: ImageId,
        scheme: ClassificationId,
        label: usize,
        confidence: f32,
        region: Option<RegionOfInterest>,
    ) -> Result<AnnotationId, PlatformError> {
        self.require_user(user)?;
        if self.store.image(image).is_none() {
            return Err(PlatformError::UnknownImage(image));
        }
        let id = self.alloc_annotation_id();
        let op = WalOp::Annotate(Annotation {
            id,
            image,
            classification: scheme,
            label,
            confidence,
            source: AnnotationSource::Human(user),
            region,
        });
        self.commit(vec![op])?;
        Ok(id)
    }

    /// **Analysis**: trains a classifier on every stored image that has
    /// both a feature of `feature_kind` and a (sufficiently confident)
    /// annotation under `scheme`, then registers it.
    pub fn train_model(
        &self,
        user: UserId,
        name: impl Into<String>,
        scheme: ClassificationId,
        feature_kind: FeatureKind,
        algorithm: Algorithm,
    ) -> Result<ModelId, PlatformError> {
        self.require_user(user)?;
        let store = &self.store;
        let scheme_row = store
            .scheme(scheme)
            .ok_or(PlatformError::UnknownScheme(scheme))?;
        let n_classes = scheme_row.labels.len();
        // In ascending id order, so the training set order — and with it
        // every seeded algorithm's output — is the upload order.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for image in store.images_with_feature(feature_kind) {
            let anns = store.annotations_of(image);
            // Prefer human labels; fall back to the most confident
            // machine label for the scheme.
            let best = anns
                .iter()
                .filter(|a| a.classification == scheme)
                .max_by(|a, b| {
                    (a.is_human() as u8)
                        .cmp(&(b.is_human() as u8))
                        .then(a.confidence.total_cmp(&b.confidence))
                });
            if let Some(ann) = best {
                let Some(feature) = store.feature(image, feature_kind) else {
                    continue;
                };
                features.push(feature);
                labels.push(ann.label);
            }
        }
        if features.len() < self.config.min_training_samples {
            return Err(PlatformError::NotEnoughTrainingData {
                scheme,
                found: features.len(),
                needed: self.config.min_training_samples,
            });
        }
        let input_dim = features[0].len();
        let mut classifier = algorithm.build(self.config.seed);
        classifier.fit(&features, &labels, n_classes);
        let id = self.models.register_portable(
            name,
            user,
            ModelInterface {
                feature_kind,
                input_dim,
                scheme,
            },
            classifier,
        );
        Ok(id)
    }

    /// Registers an externally trained portable model under `user` (the
    /// upload half of the paper's model-sharing APIs). The declared
    /// scheme must exist.
    pub fn upload_model(
        &self,
        user: UserId,
        name: impl Into<String>,
        interface: ModelInterface,
        model: SerializableModel,
    ) -> Result<ModelId, PlatformError> {
        self.require_user(user)?;
        if self.store.scheme(interface.scheme).is_none() {
            return Err(PlatformError::UnknownScheme(interface.scheme));
        }
        Ok(self.models.register_portable(name, user, interface, model))
    }

    /// **Analysis → translational write-back**: applies a registered
    /// model to images, storing each prediction as a machine annotation.
    /// Returns `(image, label, confidence)` per processed image; an image
    /// lacking the required feature, or holding one of another width
    /// than the model's declared `input_dim`, is reported as an error
    /// and nothing is stored.
    pub fn apply_model(
        &self,
        model: ModelId,
        images: &[ImageId],
    ) -> Result<Vec<(ImageId, usize, f32)>, PlatformError> {
        let interface = self
            .models
            .interface(model)
            .ok_or(PlatformError::UnknownModel(model))?;
        let mut out = Vec::with_capacity(images.len());
        let mut ops = Vec::with_capacity(images.len());
        for &image in images {
            // Borrow the feature row from the store's arena; no per-image
            // clone.
            let feature = self
                .store
                .feature_ref(image, interface.feature_kind)
                .ok_or(PlatformError::MissingFeature(image, interface.feature_kind))?;
            if feature.len() != interface.input_dim {
                return Err(PlatformError::FeatureWidth {
                    image,
                    kind: interface.feature_kind,
                    expected: interface.input_dim,
                    found: feature.len(),
                });
            }
            let (label, confidence) = self
                .models
                .predict(model, &feature)
                .ok_or(PlatformError::UnknownModel(model))?;
            ops.push(WalOp::Annotate(Annotation {
                id: self.alloc_annotation_id(),
                image,
                classification: interface.scheme,
                label,
                confidence,
                source: AnnotationSource::Machine(model),
                region: None,
            }));
            out.push((image, label, confidence));
        }
        // One commit: every prediction is made before the first is
        // stored, and the annotations land together or not at all.
        self.commit(ops)?;
        Ok(out)
    }

    /// **Action**: chooses what to deploy on a device given observed
    /// link health. Falls back to a smaller zoo model when the preferred
    /// one cannot download within the link budget, and to server-side
    /// inference when nothing qualifies, the device's breaker is open or
    /// its bandwidth has collapsed.
    pub fn dispatch_to_device(
        &self,
        device: &DeviceProfile,
        constraints: &DispatchConstraints,
        link: &LinkConditions,
    ) -> DispatchDecision {
        // MODEL_ZOO is non-empty, so construction cannot fail; an empty
        // zoo would simply leave inference on the server.
        match ModelDispatcher::new(MODEL_ZOO.to_vec()) {
            Ok(d) => d.dispatch(device, constraints, link),
            Err(_) => DispatchDecision::ServerSide {
                reason: tvdp_edge::DegradeReason::NoQualifyingModel,
            },
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PlatformStats {
        PlatformStats {
            images: self.store.len(),
            annotations: self.store.annotation_count(),
            models: self.models.ids().len(),
            users: self.users.all().len(),
        }
    }
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
mod tests {
    use super::*;
    use tvdp_geo::GeoPoint;

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
        // Two visually distinct synthetic classes.
        Image::from_fn(24, 24, |x, y| {
            let v = ((x * 3 + y * 5 + seed) % 17) as u8 * 3;
            if class == 0 {
                [200, v, v]
            } else if (x / 4 + y / 4) % 2 == 0 {
                [v, v, 220]
            } else {
                [20, 20, 40]
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

    #[test]
    fn ingest_extracts_features_and_indexes() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("LASAN", Role::Government);
        let id = tvdp.ingest(user, scene(0, 0), request(0)).unwrap();
        assert!(tvdp.store().feature(id, FeatureKind::Cnn).is_some());
        assert!(tvdp
            .store()
            .feature(id, FeatureKind::ColorHistogram)
            .is_some());
        let hits = tvdp
            .search(&Query::Textual {
                text: "street".into(),
                mode: tvdp_query::TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(tvdp.stats().images, 1);
    }

    #[test]
    fn unknown_user_rejected() {
        let tvdp = Tvdp::new(fast_config());
        let err = tvdp.ingest(UserId(7), scene(0, 0), request(0)).unwrap_err();
        assert!(matches!(err, PlatformError::UnknownUser(_)));
    }

    #[test]
    fn train_and_apply_model_end_to_end() {
        let tvdp = Tvdp::new(fast_config());
        let gov = tvdp.register_user("LASAN", Role::Government);
        let researcher = tvdp.register_user("USC", Role::Researcher);
        let scheme = tvdp
            .register_scheme("binary", vec!["red".into(), "blue".into()])
            .unwrap();
        // Labelled training uploads.
        for i in 0..16 {
            let class = i % 2;
            let id = tvdp
                .ingest(gov, scene(class, i), request(i as i64))
                .unwrap();
            tvdp.annotate_human(gov, id, scheme, class).unwrap();
        }
        let model = tvdp
            .train_model(
                researcher,
                "red-vs-blue",
                scheme,
                FeatureKind::Cnn,
                Algorithm::Svm,
            )
            .unwrap();
        // New unlabeled uploads get machine annotations.
        let new0 = tvdp.ingest(gov, scene(0, 99), request(99)).unwrap();
        let new1 = tvdp.ingest(gov, scene(1, 98), request(98)).unwrap();
        let results = tvdp.apply_model(model, &[new0, new1]).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1, 0, "red scene misclassified");
        assert_eq!(results[1].1, 1, "blue scene misclassified");
        // Write-back happened: annotations are queryable.
        let anns = tvdp.store().annotations_of(new0);
        assert_eq!(anns.len(), 1);
        assert!(!anns[0].is_human());
    }

    #[test]
    fn training_requires_enough_data() {
        let tvdp = Tvdp::new(fast_config());
        let gov = tvdp.register_user("LASAN", Role::Government);
        let scheme = tvdp
            .register_scheme("s", vec!["a".into(), "b".into()])
            .unwrap();
        let id = tvdp.ingest(gov, scene(0, 0), request(0)).unwrap();
        tvdp.annotate_human(gov, id, scheme, 0).unwrap();
        let err = tvdp
            .train_model(gov, "m", scheme, FeatureKind::Cnn, Algorithm::NaiveBayes)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::NotEnoughTrainingData { found: 1, .. }
        ));
    }

    #[test]
    fn augment_records_lineage_and_is_searchable() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let parent = tvdp.ingest(user, scene(0, 1), request(1)).unwrap();
        let child = tvdp
            .augment(user, parent, Augmentation::FlipHorizontal)
            .unwrap();
        let rec = tvdp.store().image(child).unwrap();
        assert!(matches!(rec.origin, ImageOrigin::Augmented { parent: p, .. } if p == parent));
        assert!(tvdp.store().feature(child, FeatureKind::Cnn).is_some());
    }

    #[test]
    fn dedup_rejects_near_duplicates() {
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let first = tvdp.ingest(user, scene(0, 1), request(1)).unwrap();
        // Same pixels, same place: duplicate.
        let outcome = tvdp
            .ingest_dedup(user, scene(0, 1), request(1), 0.05, 50.0)
            .unwrap();
        assert_eq!(
            outcome,
            IngestOutcome::Duplicate {
                existing: first,
                feature_distance: 0.0
            }
        );
        assert_eq!(tvdp.stats().images, 1);
        // Same pixels far away: stored.
        let mut far = request(2);
        far.gps = GeoPoint::new(34.2, -118.25);
        let outcome = tvdp
            .ingest_dedup(user, scene(0, 1), far, 0.05, 50.0)
            .unwrap();
        assert!(matches!(outcome, IngestOutcome::Stored(_)));
        // Different pixels nearby: stored.
        let outcome = tvdp
            .ingest_dedup(user, scene(1, 9), request(1), 0.05, 50.0)
            .unwrap();
        assert!(matches!(outcome, IngestOutcome::Stored(_)));
        assert_eq!(tvdp.stats().images, 3);
    }

    #[test]
    fn dedup_threshold_matches_brute_force_distance() {
        // Regression test for the squared-distance dedup path: the
        // duplicate decision must be exactly `distance <= max_feature_dist`
        // where distance is the plain scalar Euclidean feature distance —
        // ranking on d² must not move the threshold boundary.
        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let first_img = scene(0, 1);
        let first = tvdp.ingest(user, first_img.clone(), request(1)).unwrap();
        let stored = tvdp.store().feature(first, FeatureKind::Cnn).unwrap();

        let probe = scene(0, 3);
        let probe_feature = tvdp
            .extract_features(&probe)
            .into_iter()
            .find(|(k, _)| *k == FeatureKind::Cnn)
            .unwrap()
            .1;
        let brute_force: f32 = stored
            .iter()
            .zip(&probe_feature)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(brute_force > 0.0, "probe must differ from the stored image");

        // Thresholds straddling the true distance flip the outcome.
        let above = brute_force * 1.01;
        let below = brute_force * 0.99;
        match tvdp
            .ingest_dedup(user, probe.clone(), request(1), above, 50.0)
            .unwrap()
        {
            IngestOutcome::Duplicate {
                existing,
                feature_distance,
            } => {
                assert_eq!(existing, first);
                assert!(
                    (feature_distance - brute_force).abs() <= 1e-5 * brute_force.max(1.0),
                    "reported {feature_distance} vs brute-force {brute_force}"
                );
            }
            other => panic!("expected duplicate at threshold {above}, got {other:?}"),
        }
        assert!(matches!(
            tvdp.ingest_dedup(user, probe, request(1), below, 50.0)
                .unwrap(),
            IngestOutcome::Stored(_)
        ));
    }

    #[test]
    fn video_ingest_keeps_only_keyframes() {
        use crate::video::{KeyframePolicy, VideoFrame};
        use tvdp_geo::Fov;

        let tvdp = Tvdp::new(fast_config());
        let user = tvdp.register_user("u", Role::Government);
        let base = GeoPoint::new(34.0, -118.25);
        // 12 frames: truck parked for 8, then driving for 4.
        let frames: Vec<VideoFrame> = (0..12)
            .map(|i| {
                let moved = if i < 8 { 0.0 } else { (i - 7) as f64 * 40.0 };
                VideoFrame {
                    image: scene(0, i),
                    fov: Fov::new(base.destination(90.0, moved), 90.0, 60.0, 80.0),
                    captured_at: 100 + i as i64,
                }
            })
            .collect();
        let report = tvdp
            .ingest_video(
                user,
                &frames,
                KeyframePolicy::SpatialNovelty {
                    min_move_m: 20.0,
                    min_turn_deg: 45.0,
                },
                vec!["route-7".into()],
            )
            .unwrap();
        assert_eq!(report.frames_offered, 12);
        assert_eq!(report.keyframes.len(), 5, "1 parked + 4 moving");
        assert_eq!(report.frames_dropped, 7);
        assert_eq!(tvdp.stats().images, 5);
        // Every key frame carries its own FOV and is searchable.
        for &id in &report.keyframes {
            assert!(tvdp.store().image(id).unwrap().meta.fov.is_some());
        }
        let hits = tvdp
            .search(&Query::Textual {
                text: "route 7".into(),
                mode: tvdp_query::TextualMode::All,
            })
            .unwrap();
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn dispatch_respects_device_tier() {
        let tvdp = Tvdp::new(fast_config());
        let pick = tvdp.dispatch_to_device(
            &tvdp_edge::DeviceClass::Desktop.profile(),
            &DispatchConstraints::default(),
            &LinkConditions::nominal(),
        );
        assert!(
            matches!(pick, DispatchDecision::Deploy(m) if m.name == "InceptionV3"),
            "nominal link deploys the preferred model"
        );
    }

    #[test]
    fn degraded_dispatch_reaches_the_platform_facade() {
        let tvdp = Tvdp::new(fast_config());
        let device = tvdp_edge::DeviceClass::Desktop.profile();
        let broken = tvdp.dispatch_to_device(
            &device,
            &DispatchConstraints::default(),
            &LinkConditions {
                breaker_open: true,
                ..LinkConditions::nominal()
            },
        );
        assert!(matches!(broken, DispatchDecision::ServerSide { .. }));
    }
}

#[cfg(test)]
mod region_annotation_tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_storage::StorageError;

    #[test]
    fn region_annotations_validate_bounds() {
        let tvdp = Tvdp::new(PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4],
                pool_grid: 2,
                seed: 1,
            },
            ..Default::default()
        });
        let user = tvdp.register_user("u", Role::CommunityPartner);
        let scheme = tvdp
            .register_scheme("parts", vec!["tent".into(), "bag".into()])
            .unwrap();
        let img = Image::from_fn(32, 24, |_, _| [50, 50, 50]);
        let id = tvdp
            .ingest(
                user,
                img,
                IngestRequest {
                    gps: GeoPoint::new(34.0, -118.25),
                    fov: None,
                    captured_at: 0,
                    uploaded_at: 1,
                    keywords: vec![],
                },
            )
            .unwrap();
        let region = |x, y, width, height| {
            Some(RegionOfInterest {
                x,
                y,
                width,
                height,
            })
        };
        // In-bounds regions work, up to one flush with both far edges.
        let ann = tvdp
            .annotate(user, id, scheme, 0, 1.0, region(4, 4, 10, 10))
            .unwrap();
        let rows = tvdp.store().annotations_of(id);
        assert_eq!(rows[0].id, ann);
        assert_eq!(rows[0].region.unwrap().width, 10);
        tvdp.annotate(user, id, scheme, 1, 1.0, region(22, 14, 10, 10))
            .unwrap();
        // Out-of-bounds regions are a typed refusal, overflowing
        // offsets included, and store nothing.
        for bad in [
            region(30, 0, 10, 5),
            region(usize::MAX, 0, 1, 1),
            region(0, usize::MAX, 1, 1),
        ] {
            let err = tvdp.annotate(user, id, scheme, 0, 1.0, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    PlatformError::Storage(StorageError::RegionOutOfBounds {
                        image,
                        width: 32,
                        height: 24,
                        ..
                    }) if image == id
                ),
                "{err}"
            );
        }
        assert_eq!(tvdp.store().annotations_of(id).len(), 2);
    }
}

#[cfg(test)]
mod durability_tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_query::TextualMode;

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
            assert!(tvdp.health().durable);
            assert!(!report.snapshot_found);
            let user = tvdp.register_user("LASAN", Role::Government);
            scheme = tvdp
                .register_scheme("binary", vec!["red".into(), "blue".into()])
                .unwrap();
            id = tvdp.ingest(user, scene(0, 0), request(0)).unwrap();
            ann = tvdp.annotate_human(user, id, scheme, 0).unwrap();
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
        assert!(!tvdp.health().durable);
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
            live = tvdp.store().snapshot();
            // No flush: the batch must come back from the group-committed
            // WAL frames alone.
        }
        let (tvdp, report) = Tvdp::open(&dir, config).unwrap();
        // 9 uploads, journaled as one run of records.
        assert_eq!(report.replayed_ops, 9);
        assert_eq!(tvdp.stats().images, 9);
        assert_eq!(tvdp.store().snapshot(), live);
        for &id in &ids {
            assert!(tvdp.store().image(id).is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use tvdp_geo::GeoPoint;
    use tvdp_query::{SpatialQuery, TemporalField, TextualMode, VisualMode};

    fn cfg() -> PlatformConfig {
        PlatformConfig {
            cnn: CnnConfig {
                input_size: 16,
                stage_channels: vec![4, 8],
                pool_grid: 2,
                seed: 1,
            },
            ..Default::default()
        }
    }

    fn img(i: usize) -> Image {
        Image::from_fn(20, 20, |x, y| [(x * i) as u8, (y + 2 * i) as u8, 31])
    }

    fn req(i: i64) -> IngestRequest {
        IngestRequest {
            // Spread across the city, a few kilometres apart.
            gps: GeoPoint::new(34.0 + 0.025 * i as f64, -118.25 - 0.015 * i as f64),
            fov: None,
            captured_at: 1000 + i,
            uploaded_at: 1100 + i,
            keywords: vec!["street".into(), format!("kw{i}")],
        }
    }

    fn populated_with(config: PlatformConfig) -> Tvdp {
        let tvdp = Tvdp::new(config);
        let user = tvdp.register_user("LASAN", Role::Government);
        let scheme = tvdp
            .register_scheme("binary", vec!["red".into(), "blue".into()])
            .unwrap();
        for i in 0..24 {
            let id = tvdp.ingest(user, img(i), req(i as i64)).unwrap();
            tvdp.annotate_human(user, id, scheme, i % 2).unwrap();
        }
        tvdp
    }

    #[test]
    fn seal_cap_choices_agree_on_every_query_family() {
        // The seal cap only moves the sealed-segment/tail-scan balance;
        // results must be bit-identical whether every row seals
        // immediately (cap 1), pairs seal (cap 2), or nothing seals in a
        // 24-row run (default cap 128).
        let reference = populated_with(cfg());
        assert_eq!(reference.config.seal_cap, tvdp_query::DEFAULT_SEAL_CAP);
        let example = reference
            .store()
            .feature(ImageId(0), FeatureKind::Cnn)
            .unwrap();
        let queries = vec![
            Query::Textual {
                text: "street".into(),
                mode: TextualMode::Ranked(9),
            },
            Query::Temporal {
                field: TemporalField::Uploaded,
                from: 1104,
                to: 1118,
            },
            Query::Spatial(SpatialQuery::Nearest {
                point: GeoPoint::new(34.2, -118.4),
                k: 5,
            }),
            Query::Visual {
                example: example.clone(),
                kind: FeatureKind::Cnn,
                mode: VisualMode::TopK(6),
            },
            Query::Categorical {
                scheme: ClassificationId(0),
                label: 0,
                min_confidence: 0.5,
            },
            Query::And(vec![
                Query::Temporal {
                    field: TemporalField::Captured,
                    from: 1000,
                    to: 1020,
                },
                Query::Visual {
                    example,
                    kind: FeatureKind::Cnn,
                    mode: VisualMode::TopK(4),
                },
            ]),
        ];
        // seal_cap: 0 is invalid input; construction clamps it to 1
        // rather than panicking deep inside the query layer.
        for cap in [0usize, 1, 2] {
            let tvdp = populated_with(PlatformConfig {
                seal_cap: cap,
                ..cfg()
            });
            assert_eq!(tvdp.stats().images, 24);
            for q in &queries {
                assert_eq!(
                    reference.search(q).unwrap(),
                    tvdp.search(q).unwrap(),
                    "seal_cap {cap} diverged from the default cap on {q:?}"
                );
            }
        }
    }

    /// Only a visual top-k reads projected bounds. The shapes the
    /// selective mixes send — spatial, temporal and keyword filters, a
    /// nearest-k, and a visual threshold alone or inside a region — run
    /// over a store past two arena chunks and leave the projection
    /// unfitted and every column underived; the first top-k derives
    /// them.
    #[test]
    fn only_a_visual_top_k_derives_the_projected_column() {
        const DIM: usize = 8;
        let store = Arc::new(VisualStore::new());
        for i in 0..2_100 {
            let meta = tvdp_storage::ImageMeta {
                uploader: UserId(1),
                gps: GeoPoint::new(34.0 + 1e-5 * i as f64, -118.25),
                fov: None,
                captured_at: 1_000 + i as i64,
                uploaded_at: 2_000,
                keywords: vec!["street".into()],
            };
            let id = store.add_image(meta, ImageOrigin::Original, None).unwrap();
            let feature = (0..DIM).map(|d| ((i * 7 + d * 13) % 17) as f32).collect();
            store.put_feature(id, FeatureKind::Cnn, feature).unwrap();
        }
        let tvdp = Tvdp::with_store(Arc::clone(&store), PlatformConfig::default());
        let derived = || store.slab_view(FeatureKind::Cnn, DIM, 0).projected_bytes();
        let region = Query::Spatial(SpatialQuery::Range(tvdp_geo::BBox::new(
            34.0, -118.26, 34.01, -118.24,
        )));
        let threshold = Query::Visual {
            example: vec![3.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::Threshold(20.0),
        };
        let selective = [
            region.clone(),
            Query::Spatial(SpatialQuery::Nearest {
                point: GeoPoint::new(34.001, -118.25),
                k: 10,
            }),
            Query::And(vec![region.clone(), threshold.clone()]),
            Query::And(vec![
                Query::Temporal {
                    field: TemporalField::Captured,
                    from: 1_100,
                    to: 1_200,
                },
                Query::Textual {
                    text: "street".into(),
                    mode: TextualMode::Any,
                },
            ]),
            threshold,
        ];
        for q in &selective {
            assert!(!tvdp.search(q).unwrap().is_empty(), "{q:?}");
        }
        assert_eq!(derived(), 0, "a selective shape fitted or projected");
        let top = Query::Visual {
            example: vec![3.0; DIM],
            kind: FeatureKind::Cnn,
            mode: VisualMode::TopK(5),
        };
        assert_eq!(tvdp.search(&top).unwrap().len(), 5);
        assert!(derived() > 0, "a top-k derived nothing");
    }

    #[test]
    fn search_surfaces_kind_mismatch_instead_of_panicking() {
        let tvdp = populated_with(cfg());
        let err = tvdp
            .search(&Query::Visual {
                example: vec![0.5; 4],
                kind: FeatureKind::ColorHistogram,
                mode: VisualMode::TopK(3),
            })
            .unwrap_err();
        assert!(matches!(err, PlatformError::Query(_)), "got {err:?}");
        let err = tvdp
            .search_batch(&[Query::And(vec![Query::Visual {
                example: vec![0.5; 4],
                kind: FeatureKind::ColorHistogram,
                mode: VisualMode::Threshold(0.1),
            }])])
            .unwrap_err();
        assert!(matches!(err, PlatformError::Query(_)), "got {err:?}");
    }
}
