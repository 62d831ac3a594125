//! The endpoint router.
//!
//! Requests carry their JSON body as a *string* and responses carry a
//! parsed [`Value`] tree — both sides of the wire format go through the
//! workspace's own codec ([`tvdp_storage::codec`]), so the API layer
//! runs without any external JSON machinery. Model weights
//! (`models/upload`, `models/download` with `include_weights`) travel as
//! the value tree of [`tvdp_ml::SerializableModel`].
//!
//! Mutating uploads may attach an [`ApiRequest::idempotency_key`]: the
//! platform stores the first outcome per key and replays it verbatim on
//! retransmission, which is what makes at-least-once edge transports
//! (see `tvdp-edge`) safe — acked once means ingested exactly once.

use std::sync::Arc;

use tvdp_core::models::ModelInterface;
use tvdp_core::platform::Algorithm;
use tvdp_core::{
    AdmissionConfig, AdmissionController, IngestRequest, PlatformError, RequestClass, Tvdp, Upload,
};
use tvdp_edge::{
    DeviceClass, DispatchConstraints, DispatchDecision, LinkConditions, ModelDispatcher, MODEL_ZOO,
};
use tvdp_geo::{AngularRange, Fov, GeoPoint, GeoPolygon};
use tvdp_kernel::Pool;
use tvdp_ml::SerializableModel;
use tvdp_query::{Query, QueryError, SpatialQuery, TemporalField, TextualMode, Trace, VisualMode};
use tvdp_storage::codec::{self, obj, Value};
use tvdp_storage::{ClassificationId, HealthState, ImageId, ModelId, UserId};
use tvdp_vision::Image;

use crate::keys::ApiKeyRegistry;
use crate::limit::{RateLimitConfig, RateLimiter};

/// An API request: key, endpoint path, JSON body text, and an optional
/// idempotency key for mutating endpoints.
#[derive(Debug, Clone)]
pub struct ApiRequest {
    /// The caller's API key.
    pub key: String,
    /// Endpoint path, e.g. `"data/search"`.
    pub endpoint: String,
    /// JSON body text (endpoint-specific); an empty string is treated
    /// as `{}`.
    pub body: String,
    /// When set on `data/add`, retransmissions carrying the same key
    /// are deduplicated server-side and answered with the original
    /// response, byte for byte.
    pub idempotency_key: Option<String>,
    /// Optional absolute virtual-clock deadline. When set on
    /// `data/search`, the sharded engine charges a modeled cost clock
    /// as it walks scatter units and abandons the query with status 504
    /// the moment the clock passes the deadline — same decision on
    /// every pool width.
    pub deadline_ms: Option<i64>,
}

impl ApiRequest {
    /// Convenience constructor for a request without an idempotency
    /// key or deadline.
    pub fn new(
        key: impl Into<String>,
        endpoint: impl Into<String>,
        body: impl Into<String>,
    ) -> Self {
        Self {
            key: key.into(),
            endpoint: endpoint.into(),
            body: body.into(),
            idempotency_key: None,
            deadline_ms: None,
        }
    }

    /// Attaches an absolute virtual-clock deadline.
    // tvdp-lint: allow(dead_api, reason = "(c) API capability: a per-request deadline for callers building requests in code; no route sets one yet")
    pub fn with_deadline(mut self, deadline_ms: i64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// An API response: HTTP-style status plus parsed JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// 200 on success; 4xx on caller errors; 429 when throttled.
    pub status: u16,
    /// Response body or `{ "error": ... }`.
    pub body: Value,
}

impl ApiResponse {
    fn ok(body: Value) -> Self {
        Self { status: 200, body }
    }

    fn err(status: u16, message: impl std::fmt::Display) -> Self {
        Self {
            status,
            body: obj(vec![("error", Value::str(message.to_string()))]),
        }
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }

    /// The response body rendered to compact JSON — the exact bytes a
    /// wire transport would carry.
    pub fn render_body(&self) -> String {
        self.body.render()
    }
}

fn status_for(e: &PlatformError) -> u16 {
    match e {
        PlatformError::UnknownUser(_)
        | PlatformError::UnknownModel(_)
        | PlatformError::UnknownScheme(_)
        | PlatformError::UnknownImage(_) => 404,
        // Shed by admission control: the server is fine, just full.
        PlatformError::Overloaded { .. } => 503,
        // The durable layer is degraded (e.g. read-only after a write
        // fault); the request was well-formed but the service cannot
        // take it right now.
        PlatformError::Durable(_) => 503,
        // The modeled cost clock passed the caller's deadline.
        PlatformError::Query(QueryError::DeadlineExceeded { .. }) => 504,
        _ => 400,
    }
}

/// A handler's outcome: the 200 body, or the finished refusal.
type Handled = Result<Value, ApiResponse>;

/// A platform error as the response body, attaching the
/// machine-readable retry hint for shed requests so clients back off by
/// exactly the modeled backlog instead of guessing.
impl From<PlatformError> for ApiResponse {
    fn from(e: PlatformError) -> Self {
        let status = status_for(&e);
        let mut fields = vec![("error", Value::str(e.to_string()))];
        if let PlatformError::Overloaded { retry_after_ms } = e {
            fields.push(("retry_after_ms", Value::num(retry_after_ms)));
        }
        ApiResponse {
            status,
            body: obj(fields),
        }
    }
}

// ---------------------------------------------------------------------
// Body decoding: hand-written decoders of the shapes the wire
// format used historically (externally tagged enums, field-for-field
// structs), so existing client payloads keep working unchanged.
// ---------------------------------------------------------------------

type ParseError = String;

/// A body that does not decode is a 400 naming the decoder's complaint.
impl From<ParseError> for ApiResponse {
    fn from(e: ParseError) -> Self {
        ApiResponse::err(400, bad_body(e))
    }
}

fn bad_body(e: ParseError) -> String {
    format!("bad request body: {e}")
}

/// An optional object field: absent or `null` both mean `None`.
fn opt_field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    v.get(name).filter(|f| !f.is_null())
}

/// Pixel payloads arrive as a lowercase hex string.
fn decode_pixels(v: &Value) -> Result<Vec<u8>, ParseError> {
    match v {
        Value::Str(hex) => codec::hex_decode(hex),
        _ => Err("pixels: expected a hex string".into()),
    }
}

fn decode_strings(items: &[Value], what: &str) -> Result<Vec<String>, ParseError> {
    items
        .iter()
        .map(|s| match s {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("{what}: expected strings")),
        })
        .collect()
}

fn decode_ids(items: &[Value], what: &str) -> Result<Vec<u64>, ParseError> {
    items.iter().map(|v| codec::num(v, what)).collect()
}

fn decode_fov_body(v: &Value, gps: GeoPoint) -> Result<Fov, ParseError> {
    Fov::try_new(
        gps,
        codec::num_field(v, "heading_deg")?,
        codec::num_field(v, "angle_deg")?,
        codec::num_field(v, "radius_m")?,
    )
    .ok_or_else(|| "fov: heading must be finite, angle in (0, 360], radius positive".into())
}

/// Decodes one upload object (the `data/add` body shape) into the
/// un-keyed [`Upload`] it describes. Shared by `data/add` and every
/// element of `data/add_batch`, which prefixes the message with the
/// element's index.
fn decode_upload(body: &Value) -> Result<Upload, String> {
    let width: usize = codec::num_field(body, "width").map_err(bad_body)?;
    let height: usize = codec::num_field(body, "height").map_err(bad_body)?;
    let pixels = codec::field(body, "pixels")
        .and_then(decode_pixels)
        .map_err(bad_body)?;
    let lat: f64 = codec::num_field(body, "lat").map_err(bad_body)?;
    let lon: f64 = codec::num_field(body, "lon").map_err(bad_body)?;
    let captured_at: i64 = codec::num_field(body, "captured_at").map_err(bad_body)?;
    let uploaded_at: i64 = codec::num_field(body, "uploaded_at").map_err(bad_body)?;
    let keywords = match opt_field(body, "keywords") {
        Some(Value::Arr(items)) => decode_strings(items, "keywords").map_err(bad_body)?,
        Some(_) => return Err(bad_body("keywords: expected an array".into())),
        None => Vec::new(),
    };
    let image = Image::try_from_raw(width, height, pixels).ok_or("pixel buffer size mismatch")?;
    let gps = GeoPoint::try_new(lat, lon).ok_or("invalid coordinates")?;
    let fov = opt_field(body, "fov")
        .map(|f| decode_fov_body(f, gps).map_err(bad_body))
        .transpose()?;
    Ok(Upload {
        image,
        request: IngestRequest {
            gps,
            fov,
            captured_at,
            uploaded_at,
            keywords,
        },
        key: None,
    })
}

fn decode_visual_mode(v: &Value) -> Result<VisualMode, ParseError> {
    if let Some(k) = v.get("TopK") {
        Ok(VisualMode::TopK(codec::num(k, "TopK")?))
    } else if let Some(t) = v.get("Threshold") {
        Ok(VisualMode::Threshold(codec::num(t, "Threshold")?))
    } else {
        Err("visual mode: expected `TopK` or `Threshold`".into())
    }
}

fn decode_textual_mode(v: &Value) -> Result<TextualMode, ParseError> {
    match v {
        Value::Str(s) if s == "All" => Ok(TextualMode::All),
        Value::Str(s) if s == "Any" => Ok(TextualMode::Any),
        _ => {
            if let Some(k) = v.get("Ranked") {
                Ok(TextualMode::Ranked(codec::num(k, "Ranked")?))
            } else {
                Err("textual mode: expected `All`, `Any`, or `Ranked`".into())
            }
        }
    }
}

fn decode_temporal_field(v: &Value) -> Result<TemporalField, ParseError> {
    match v {
        Value::Str(s) if s == "Captured" => Ok(TemporalField::Captured),
        Value::Str(s) if s == "Uploaded" => Ok(TemporalField::Uploaded),
        _ => Err("temporal field: expected `Captured` or `Uploaded`".into()),
    }
}

fn decode_spatial(v: &Value) -> Result<SpatialQuery, ParseError> {
    if let Some(b) = v.get("Range") {
        Ok(SpatialQuery::Range(codec::decode_bbox(b)?))
    } else if let Some(n) = v.get("Nearest") {
        Ok(SpatialQuery::Nearest {
            point: codec::decode_point(codec::field(n, "point")?)?,
            k: codec::num_field(n, "k")?,
        })
    } else if let Some(p) = v.get("Covering") {
        Ok(SpatialQuery::Covering(codec::decode_point(p)?))
    } else if let Some(w) = v.get("Within") {
        let vertices = codec::arr_field(w, "vertices")?
            .iter()
            .map(codec::decode_point)
            .collect::<Result<Vec<_>, _>>()?;
        if vertices.len() < 3 {
            return Err("Within: a polygon needs at least three vertices".into());
        }
        Ok(SpatialQuery::Within(GeoPolygon::new(vertices)))
    } else if let Some(d) = v.get("Directed") {
        let dirs = codec::field(d, "directions")?;
        Ok(SpatialQuery::Directed {
            region: codec::decode_bbox(codec::field(d, "region")?)?,
            directions: AngularRange::new(
                codec::num_field(dirs, "start")?,
                codec::num_field(dirs, "width")?,
            ),
        })
    } else {
        Err(
            "spatial query: expected `Range`, `Nearest`, `Covering`, `Within`, or `Directed`"
                .into(),
        )
    }
}

/// A query's EXPLAIN as `data/search` renders it: the planner's counts,
/// then one object per leaf it answered.
fn explain_json(trace: &Trace) -> Value {
    let leaves = trace.leaves.iter().map(|leaf| {
        obj(vec![
            ("kind", Value::str(leaf.kind)),
            (
                "path",
                Value::Arr(leaf.path.iter().map(|&i| Value::num(i)).collect()),
            ),
            ("drove", Value::Bool(leaf.drove)),
            ("estimate", Value::num(leaf.estimate)),
            ("actual", Value::num(leaf.actual)),
        ])
    });
    obj(vec![
        ("segments_visited", Value::num(trace.segments_visited)),
        ("units_dispatched", Value::num(trace.units_dispatched)),
        ("rows_bounded", Value::num(trace.rows_bounded)),
        ("rows_scored", Value::num(trace.rows_scored)),
        ("nodes_touched", Value::num(trace.nodes_touched)),
        ("leaves", Value::Arr(leaves.collect())),
    ])
}

fn decode_query(v: &Value) -> Result<Query, ParseError> {
    if let Some(s) = v.get("Spatial") {
        Ok(Query::Spatial(decode_spatial(s)?))
    } else if let Some(o) = v.get("Visual") {
        Ok(Query::Visual {
            example: codec::decode_vector(codec::field(o, "example")?)?,
            kind: codec::decode_kind(codec::field(o, "kind")?)?,
            mode: decode_visual_mode(codec::field(o, "mode")?)?,
        })
    } else if let Some(o) = v.get("Categorical") {
        Ok(Query::Categorical {
            scheme: ClassificationId(codec::num_field(o, "scheme")?),
            label: codec::num_field(o, "label")?,
            min_confidence: codec::num_field(o, "min_confidence")?,
        })
    } else if let Some(o) = v.get("Textual") {
        Ok(Query::Textual {
            text: codec::str_field(o, "text")?.to_string(),
            mode: decode_textual_mode(codec::field(o, "mode")?)?,
        })
    } else if let Some(o) = v.get("Temporal") {
        Ok(Query::Temporal {
            field: decode_temporal_field(codec::field(o, "field")?)?,
            from: codec::num_field(o, "from")?,
            to: codec::num_field(o, "to")?,
        })
    } else if let Some(subs) = v.get("And") {
        Ok(Query::And(decode_queries(subs)?))
    } else if let Some(subs) = v.get("Or") {
        Ok(Query::Or(decode_queries(subs)?))
    } else {
        Err(
            "query: expected one of `Spatial`, `Visual`, `Categorical`, `Textual`, `Temporal`, \
             `And`, `Or`"
                .into(),
        )
    }
}

fn decode_queries(v: &Value) -> Result<Vec<Query>, ParseError> {
    match v {
        Value::Arr(items) => items.iter().map(decode_query).collect(),
        _ => Err("And/Or: expected an array of sub-queries".into()),
    }
}

fn decode_algorithm(v: &Value) -> Result<Algorithm, ParseError> {
    match v {
        Value::Str(s) => match s.as_str() {
            "DecisionTree" => Ok(Algorithm::DecisionTree),
            "NaiveBayes" => Ok(Algorithm::NaiveBayes),
            "Svm" => Ok(Algorithm::Svm),
            "LogisticRegression" => Ok(Algorithm::LogisticRegression),
            "Mlp" => Ok(Algorithm::Mlp),
            other => Err(format!("unknown algorithm `{other}`")),
        },
        _ => {
            if let Some(k) = v.get("Knn") {
                Ok(Algorithm::Knn(codec::num(k, "Knn")?))
            } else if let Some(n) = v.get("RandomForest") {
                Ok(Algorithm::RandomForest(codec::num(n, "RandomForest")?))
            } else {
                Err("algorithm: expected a name or `Knn`/`RandomForest`".into())
            }
        }
    }
}

/// The TVDP API server: routes authenticated, rate-limited requests to
/// platform operations.
pub struct ApiServer {
    platform: Arc<Tvdp>,
    keys: ApiKeyRegistry,
    limiter: RateLimiter,
    admission: Option<AdmissionController>,
    /// The Action service: model dispatch over the zoo, which keeps no
    /// platform state.
    dispatcher: ModelDispatcher,
}

impl ApiServer {
    /// Wraps a platform with an explicit rate limit and no admission
    /// control.
    pub fn with_rate_limit(platform: Arc<Tvdp>, limit: RateLimitConfig) -> Self {
        Self::serving(platform, limit, None)
    }

    /// Wraps a platform with admission control: every priced endpoint
    /// (ingest, search, dispatch) asks the controller before doing
    /// work, and shed requests are answered 503 with `retry_after_ms`.
    pub fn with_admission(
        platform: Arc<Tvdp>,
        limit: RateLimitConfig,
        admission: AdmissionConfig,
    ) -> Self {
        Self::serving(platform, limit, Some(AdmissionController::new(admission)))
    }

    fn serving(
        platform: Arc<Tvdp>,
        limit: RateLimitConfig,
        admission: Option<AdmissionController>,
    ) -> Self {
        Self {
            platform,
            keys: ApiKeyRegistry::new(),
            limiter: RateLimiter::new(limit),
            admission,
            // tvdp-lint: allow(no_panic, reason = "MODEL_ZOO is a non-empty constant, the one zoo the dispatcher refuses is the empty one")
            dispatcher: ModelDispatcher::new(MODEL_ZOO.to_vec()).expect("MODEL_ZOO is non-empty"),
        }
    }

    /// Asks the admission controller (when configured) to price and
    /// admit `cost_units` of `class` work. `Err` carries the finished
    /// 503 response.
    fn admit(&self, class: RequestClass, cost_units: u64, now_ms: i64) -> Result<(), ApiResponse> {
        match &self.admission {
            Some(ctl) => ctl
                .admit(class, cost_units, now_ms)
                .map(drop)
                .map_err(Into::into),
            None => Ok(()),
        }
    }

    /// Issues an API key for a registered platform user.
    pub fn issue_key(&self, user: UserId) -> String {
        self.keys.issue(user)
    }

    /// Revokes a key.
    // tvdp-lint: allow(dead_api, reason = "(c) API capability: key revocation, which no admin route exposes yet")
    pub fn revoke_key(&self, key: &str) -> bool {
        self.keys.revoke(key)
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Arc<Tvdp> {
        &self.platform
    }

    /// Handles one request at wall-clock `now_ms`.
    ///
    /// Throttled requests are answered with status 429 and a body that
    /// carries `retry_after_ms`, computed from the caller's token
    /// bucket: retrying after exactly that long succeeds (absent
    /// competing traffic on the same key). The edge transport honours
    /// the hint instead of blind exponential backoff.
    pub fn handle(&self, request: &ApiRequest, now_ms: i64) -> ApiResponse {
        let Some(user) = self.keys.validate(&request.key) else {
            return ApiResponse::err(401, "invalid API key");
        };
        if let Err(retry_after_ms) = self.limiter.check(&request.key, now_ms) {
            return ApiResponse {
                status: 429,
                body: obj(vec![
                    ("error", Value::str("rate limit exceeded")),
                    ("retry_after_ms", Value::num(retry_after_ms)),
                ]),
            };
        }
        match self.route(user, request, now_ms) {
            Ok(body) => ApiResponse::ok(body),
            Err(refusal) => refusal,
        }
    }

    /// Decodes the body and runs the endpoint's handler.
    fn route(&self, user: UserId, request: &ApiRequest, now_ms: i64) -> Handled {
        let body = if request.body.trim().is_empty() {
            Value::Obj(Vec::new())
        } else {
            codec::parse(&request.body)?
        };
        match request.endpoint.as_str() {
            "data/add" => self.add_data(user, &body, request.idempotency_key.as_deref(), now_ms),
            "data/add_batch" => self.add_data_batch(user, &body, now_ms),
            "data/search" => self.search(&body, now_ms, request.deadline_ms),
            "data/download" => self.download(&body),
            "features/extract" => self.extract(&body),
            "models/apply" => self.apply_model(&body),
            "models/download" => self.download_model(&body),
            "models/devise" => self.devise_model(user, &body),
            "models/upload" => self.upload_model(user, &body),
            "schemes/register" => self.register_scheme(&body),
            "annotations/add" => self.annotate(user, &body),
            "edge/dispatch" => self.dispatch(&body, now_ms),
            "health" => Ok(self.health(now_ms)),
            "stats" => {
                let s = self.platform.stats();
                Ok(obj(vec![
                    ("images", Value::num(s.images)),
                    ("annotations", Value::num(s.annotations)),
                    ("models", Value::num(s.models)),
                    ("users", Value::num(s.users)),
                ]))
            }
            other => Err(ApiResponse::err(404, format!("unknown endpoint {other}"))),
        }
    }

    /// Modeled admission cost of one upload, in work units. Roughly
    /// the feature-extraction plus index-insert work relative to one
    /// scanned query row.
    const INGEST_UNITS_PER_IMAGE: u64 = 8;

    fn add_data(
        &self,
        user: UserId,
        body: &Value,
        idempotency_key: Option<&str>,
        now_ms: i64,
    ) -> Handled {
        let mut upload = decode_upload(body).map_err(|e| ApiResponse::err(400, e))?;
        upload.key = idempotency_key.map(str::to_string);
        self.admit(RequestClass::Ingest, Self::INGEST_UNITS_PER_IMAGE, now_ms)?;
        let stored = self
            .platform
            .ingest_uploads(user, vec![upload], &Pool::serial())?;
        Ok(obj(vec![("image", Value::num(stored[0].0.raw()))]))
    }

    /// `data/add_batch`: bulk upload. Body: `{"uploads": [<data/add
    /// body>...]}`, where each element may carry its own
    /// `"idempotency_key"`. The whole batch rides one WAL fsync instead
    /// of one per op.
    fn add_data_batch(&self, user: UserId, body: &Value, now_ms: i64) -> Handled {
        let items = codec::arr_field(body, "uploads")?;
        let mut uploads = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let refuse = |e: String| ApiResponse::err(400, format!("uploads[{i}]: {e}"));
            let mut upload = decode_upload(item).map_err(refuse)?;
            upload.key = match opt_field(item, "idempotency_key") {
                Some(Value::Str(k)) => Some(k.clone()),
                Some(_) => return Err(refuse("idempotency_key: expected a string".into())),
                None => None,
            };
            uploads.push(upload);
        }
        let batch_units = Self::INGEST_UNITS_PER_IMAGE * uploads.len().max(1) as u64;
        self.admit(RequestClass::Ingest, batch_units, now_ms)?;
        let pool = Pool::new(uploads.len().clamp(1, 8));
        let rows = self.platform.ingest_uploads(user, uploads, &pool)?;
        Ok(obj(vec![
            ("count", Value::num(rows.len())),
            (
                "images",
                Value::Arr(rows.iter().map(|(id, _)| Value::num(id.raw())).collect()),
            ),
            (
                "replayed",
                Value::Arr(rows.iter().map(|&(_, r)| Value::Bool(r)).collect()),
            ),
        ]))
    }

    fn search(&self, body: &Value, now_ms: i64, deadline_ms: Option<i64>) -> Handled {
        let query = decode_query(codec::field(body, "query")?)?;
        // Priced from the planner's cardinality estimates: an expensive
        // query costs more admission budget than a point lookup.
        let cost = self.platform.estimate_query_cost(&query);
        self.admit(RequestClass::Query, cost, now_ms)?;
        // A request without a deadline runs under one that never trips.
        let deadline_ms = deadline_ms.unwrap_or(i64::MAX);
        let explain = opt_field(body, "explain")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let (results, trace) = if explain {
            let (results, trace) =
                self.platform
                    .explain_with_deadline(&query, now_ms, deadline_ms)?;
            (results, Some(trace))
        } else {
            let results = self
                .platform
                .search_with_deadline(&query, now_ms, deadline_ms)?;
            (results, None)
        };
        let rows: Vec<Value> = results
            .iter()
            .map(|r| {
                obj(vec![
                    ("image", Value::num(r.image.raw())),
                    ("score", Value::num(r.score)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("count", Value::num(rows.len())),
            ("results", Value::Arr(rows)),
        ];
        fields.extend(trace.map(|trace| ("explain", explain_json(&trace))));
        Ok(obj(fields))
    }

    fn download(&self, body: &Value) -> Handled {
        let ids = decode_ids(codec::arr_field(body, "ids")?, "ids")?;
        let include_pixels = opt_field(body, "include_pixels")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let store = self.platform.store();
        let mut rows = Vec::with_capacity(ids.len());
        for &raw in &ids {
            let Some(record) = store.image(ImageId(raw)) else {
                return Err(ApiResponse::err(404, format!("unknown image img-{raw}")));
            };
            rows.push(vec![
                ("image", Value::num(raw)),
                ("lat", Value::num(record.meta.gps.lat)),
                ("lon", Value::num(record.meta.gps.lon)),
                ("captured_at", Value::num(record.meta.captured_at)),
                ("uploaded_at", Value::num(record.meta.uploaded_at)),
                (
                    "keywords",
                    Value::Arr(
                        record
                            .meta
                            .keywords
                            .iter()
                            .map(|k| Value::str(k.clone()))
                            .collect(),
                    ),
                ),
                ("augmented", Value::Bool(record.is_augmented())),
                ("width", Value::num(record.width)),
                ("height", Value::num(record.height)),
            ]);
        }
        if include_pixels {
            // Decoding a code is serial bit work, ~80 µs a 48×48 row: the
            // rows decode on the pool, and land in id order. One row runs
            // on this thread; from two rows on the pool was faster
            // (DESIGN.md §9).
            let pixels = Pool::global().map_index(ids.len(), |i| {
                store
                    .pixels(ImageId(ids[i]))
                    .map(|img| codec::hex_encode(img.raw()))
            });
            for (fields, hex) in rows.iter_mut().zip(pixels) {
                fields.extend(hex.map(|hex| ("pixels", Value::str(hex))));
            }
        }
        Ok(obj(vec![(
            "items",
            Value::Arr(rows.into_iter().map(obj).collect()),
        )]))
    }

    fn extract(&self, body: &Value) -> Handled {
        let width: usize = codec::num_field(body, "width")?;
        let height: usize = codec::num_field(body, "height")?;
        let pixels = decode_pixels(codec::field(body, "pixels")?)?;
        let Some(image) = Image::try_from_raw(width, height, pixels) else {
            return Err(ApiResponse::err(400, "pixel buffer size mismatch"));
        };
        let features = self.platform.extract_features(&image);
        let rows: Vec<Value> = features
            .into_iter()
            .map(|(kind, v)| {
                obj(vec![
                    ("kind", codec::encode_kind(kind)),
                    ("dim", Value::num(v.len())),
                    ("vector", codec::encode_vector(&v)),
                ])
            })
            .collect();
        Ok(obj(vec![("features", Value::Arr(rows))]))
    }

    fn apply_model(&self, body: &Value) -> Handled {
        let model: u64 = codec::num_field(body, "model")?;
        let images = decode_ids(codec::arr_field(body, "images")?, "images")?;
        let images: Vec<ImageId> = images.into_iter().map(ImageId).collect();
        let results = self.platform.apply_model(ModelId(model), &images)?;
        let rows: Vec<Value> = results
            .into_iter()
            .map(|(img, label, conf)| {
                obj(vec![
                    ("image", Value::num(img.raw())),
                    ("label", Value::num(label)),
                    ("confidence", Value::num(conf)),
                ])
            })
            .collect();
        Ok(obj(vec![("predictions", Value::Arr(rows))]))
    }

    fn download_model(&self, body: &Value) -> Handled {
        let model: u64 = codec::num_field(body, "model")?;
        let include_weights = opt_field(body, "include_weights")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let id = ModelId(model);
        let unknown = || ApiResponse::err(404, format!("unknown model model-{model}"));
        let models = self.platform.models();
        let interface = models.interface(id).ok_or_else(unknown)?;
        let (name, owner, algorithm) = models.describe(id).ok_or_else(unknown)?;
        let mut fields = vec![
            ("model", Value::num(model)),
            ("name", Value::str(name)),
            ("owner", Value::num(owner.raw())),
            ("algorithm", Value::str(algorithm)),
            (
                "interface",
                obj(vec![
                    ("feature_kind", codec::encode_kind(interface.feature_kind)),
                    ("input_dim", Value::num(interface.input_dim)),
                    ("scheme", Value::num(interface.scheme.raw())),
                ]),
            ),
        ];
        if include_weights {
            let weights = models.export(id).ok_or_else(unknown)?;
            fields.push(("weights", weights.to_value()));
        }
        Ok(obj(fields))
    }

    fn upload_model(&self, user: UserId, body: &Value) -> Handled {
        let name = codec::str_field(body, "name")?.to_string();
        let scheme: u64 = codec::num_field(body, "scheme")?;
        let feature_kind = codec::decode_kind(codec::field(body, "feature_kind")?)?;
        let input_dim: usize = codec::num_field(body, "input_dim")?;
        let weights = codec::field(body, "weights")?;
        let model = SerializableModel::from_value(weights, input_dim)
            .map_err(|e| format!("bad model weights: {e}"))?;
        let interface = ModelInterface {
            feature_kind,
            input_dim,
            scheme: ClassificationId(scheme),
        };
        let id = self.platform.upload_model(user, name, interface, model)?;
        Ok(obj(vec![("model", Value::num(id.raw()))]))
    }

    fn devise_model(&self, user: UserId, body: &Value) -> Handled {
        let name = codec::str_field(body, "name")?.to_string();
        let scheme: u64 = codec::num_field(body, "scheme")?;
        let feature_kind = codec::decode_kind(codec::field(body, "feature_kind")?)?;
        let algorithm = decode_algorithm(codec::field(body, "algorithm")?)?;
        let scheme = ClassificationId(scheme);
        let id = self
            .platform
            .train_model(user, name, scheme, feature_kind, algorithm)?;
        Ok(obj(vec![("model", Value::num(id.raw()))]))
    }

    fn register_scheme(&self, body: &Value) -> Handled {
        let name = codec::str_field(body, "name")?.to_string();
        let labels = decode_strings(codec::arr_field(body, "labels")?, "labels")?;
        let id = self.platform.register_scheme(name, labels)?;
        Ok(obj(vec![("scheme", Value::num(id.raw()))]))
    }

    fn annotate(&self, user: UserId, body: &Value) -> Handled {
        let image: u64 = codec::num_field(body, "image")?;
        let scheme: u64 = codec::num_field(body, "scheme")?;
        let label: usize = codec::num_field(body, "label")?;
        // The annotator's own confidence; a plain label is certain.
        let confidence: f32 = match opt_field(body, "confidence") {
            Some(c) => codec::num(c, "confidence")?,
            None => 1.0,
        };
        let (image, scheme) = (ImageId(image), ClassificationId(scheme));
        let id = self
            .platform
            .annotate(user, image, scheme, label, confidence, None)?;
        Ok(obj(vec![("annotation", Value::num(id.raw()))]))
    }

    /// `edge/dispatch`, the Action service: the body is decoded and the
    /// device named before admission, as every priced route decodes
    /// first, so a malformed body is refused without being admitted.
    fn dispatch(&self, body: &Value, now_ms: i64) -> Handled {
        let device = codec::str_field(body, "device")?.to_string();
        let max_latency_ms: f64 = codec::num_field(body, "max_latency_ms")?;
        let min_accuracy = match opt_field(body, "min_accuracy") {
            Some(v) => Some(codec::num(v, "min_accuracy")?),
            None => None,
        };
        let min_inferences_per_charge = match opt_field(body, "min_inferences_per_charge") {
            Some(v) => Some(codec::num(v, "min_inferences_per_charge")?),
            None => None,
        };
        let device = match device.to_lowercase().as_str() {
            "desktop" => DeviceClass::Desktop,
            "smartphone" | "phone" => DeviceClass::Smartphone,
            "rpi" | "raspberrypi" | "raspberry_pi" => DeviceClass::RaspberryPi,
            other => return Err(ApiResponse::err(400, format!("unknown device {other}"))),
        };
        self.admit(RequestClass::Dispatch, 1, now_ms)?;
        let constraints = DispatchConstraints {
            max_latency_ms,
            min_accuracy,
            min_inferences_per_charge,
        };
        // The route reports no link state, so it dispatches over a nominal
        // link: a deploy, or nothing qualifies.
        let link = LinkConditions::nominal();
        match self
            .dispatcher
            .dispatch(&device.profile(), &constraints, &link)
        {
            DispatchDecision::Deploy(model) | DispatchDecision::Degraded { chosen: model, .. } => {
                Ok(obj(vec![
                    ("model", Value::str(model.name)),
                    ("mflops", Value::num(model.mflops)),
                    ("download_bytes", Value::num(model.download_bytes())),
                    ("accuracy", Value::num(model.accuracy)),
                ]))
            }
            DispatchDecision::ServerSide { .. } => {
                Err(ApiResponse::err(409, "no model satisfies the constraints"))
            }
        }
    }

    /// `health`: the platform's durability state machine plus (when
    /// admission control is configured) the shed counters and modeled
    /// backlog. Always status 200 — a degraded platform still answers
    /// health probes; the body says how bad it is. An in-memory
    /// platform has no journal and is always `ok`.
    fn health(&self, now_ms: i64) -> Value {
        let h = self.platform.health();
        let mut fields = vec![
            (
                "state",
                Value::str(h.as_ref().map_or(HealthState::Ok, |h| h.state).as_str()),
            ),
            ("durable", Value::Bool(h.is_some())),
            (
                "write_faults",
                Value::num(h.as_ref().map_or(0, |h| h.write_faults)),
            ),
            (
                "last_error",
                h.and_then(|h| h.last_error).map_or(Value::Null, Value::str),
            ),
        ];
        if let Some(ctl) = &self.admission {
            let stats = ctl.stats();
            let per_class: Vec<Value> = tvdp_core::AdmissionStats::classes()
                .iter()
                .map(|&c| {
                    let s = stats.class(c);
                    obj(vec![
                        ("class", Value::str(c.as_str())),
                        ("admitted", Value::num(s.admitted)),
                        ("shed", Value::num(s.shed)),
                        ("admitted_units", Value::num(s.admitted_units)),
                    ])
                })
                .collect();
            fields.push((
                "admission",
                obj(vec![
                    ("backlog_ms", Value::num(ctl.backlog_ms(now_ms))),
                    ("admitted", Value::num(stats.total.admitted)),
                    ("shed", Value::num(stats.total.shed)),
                    ("per_class", Value::Arr(per_class)),
                ]),
            ));
        }
        obj(fields)
    }
}
