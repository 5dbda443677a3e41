//! The server half: [`ProviderService`] decodes, dispatches and encodes.

use super::envelope::{
    correlation_hint, EnvelopeError, OpCode, RequestEnvelope, ResponseEnvelope, WireRequest,
    WireResponse, OPCODE_COUNT,
};
use super::error::{ApiError, ApiErrorCode};
use crate::entities::provider::{ContentProvider, Issuance, MemBackend};
use crate::entities::ra::RegistrationAuthority;
use crate::protocol::messages::{
    AttributeIssueResponse, CatalogResponse, CrlSync, DownloadResponse, LicenseStatusResponse,
    MetricEntry, MetricSummary, MetricsDumpResponse, PseudonymIssueResponse, PurchaseResponse,
    SpanEntry, SpanStage, TransferResponse,
};
use p2drm_crypto::rng::{ChaChaRng, CryptoRng};
use p2drm_obs::{
    AtomicHistogram, Counter, MetricSource, MetricValue, Registry, Snapshot, Summary, Timer, Tracer,
};
use p2drm_store::ConcurrentKv;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Registry-backed service instrumentation: request/error counters and
/// one latency histogram per wire op, resolved once at construction so
/// the hot path is plain relaxed atomics.
struct ServiceStats {
    served: Arc<Counter>,
    errors: Arc<Counter>,
    /// Indexed by op-code byte; slot 0 (`Error`) receives requests whose
    /// envelope never parsed to an op.
    op_ns: [Arc<AtomicHistogram>; OPCODE_COUNT],
}

impl ServiceStats {
    fn new(registry: &Registry) -> Self {
        let op_ns = std::array::from_fn(|i| {
            let op = OpCode::from_byte(i as u8).unwrap_or(OpCode::Error);
            registry.histogram(op.histogram())
        });
        ServiceStats {
            served: registry.counter("service_requests"),
            errors: registry.counter("service_errors"),
            op_ns,
        }
    }

    fn hist(&self, op_byte: u8) -> &AtomicHistogram {
        // Unknown bytes never reach here with a real op; route any
        // out-of-range byte to the error slot rather than indexing.
        match self.op_ns.get(op_byte as usize) {
            Some(h) => h,
            None => &self.op_ns[0], // the array is non-empty by construction
        }
    }
}

/// The byte-level DRM service: decodes envelopes, dispatches onto the
/// shared `&self` provider (and RA, when attached) and encodes replies.
///
/// Generic over the provider's [`ConcurrentKv`] backend, so the same
/// service fronts the volatile [`MemBackend`] and the durable
/// [`WalShardedKv`](p2drm_store::WalShardedKv). All entry points take
/// `&self`; the service is `Sync` whenever the backend is, so N transport
/// threads share one instance.
///
/// The service keeps its own view of protocol time (epoch + clock) —
/// server-authoritative, like a deployment would — settable through
/// [`ProviderService::set_time`].
///
/// The provider (and optional RA) are held by [`Arc`], so the service is
/// a self-contained value: hand it to a transport server that spawns its
/// own threads (`p2drm-net`'s `DrmServer` does exactly that) while the
/// caller keeps its own handles to the same provider for inspection.
pub struct ProviderService<B: ConcurrentKv = MemBackend> {
    provider: Arc<ContentProvider<B>>,
    ra: Option<Arc<RegistrationAuthority>>,
    epoch: AtomicU32,
    now: AtomicU64,
    /// 256-bit key for per-request RNG derivation (license ids, envelope
    /// sealing): SHA-256 of the caller's seed mixed with fresh OS
    /// entropy. The caller seed only *separates* services — it is never
    /// the sole source of cryptographic randomness — and each request
    /// keys an independent ChaCha20 stream by its counter, so concurrent
    /// requests never share generator state or a lock.
    rng_key: [u8; 32],
    requests: AtomicU64,
    /// Metrics registry this service records into (and snapshots for
    /// [`OpCode::MetricsDump`]).
    registry: Arc<Registry>,
    /// Correlation-id request tracer; starts disabled, enabled via
    /// [`ProviderService::set_tracing`].
    tracer: Arc<Tracer>,
    stats: ServiceStats,
}

impl<B: ConcurrentKv> ProviderService<B> {
    /// Service over a provider, with no RA attached (issuance ops answer
    /// [`ApiErrorCode::ServiceUnavailable`]). Starts at epoch 0, time 1.
    ///
    /// `seed` separates this service's RNG streams from other instances;
    /// it is hashed together with 256 bits of fresh OS entropy into the
    /// service's RNG key, so the randomness behind
    /// [`ProviderService::handle`] — license ids, key envelopes — is a
    /// ChaCha20 keystream unpredictable even to a caller who knows the
    /// seed (and, unlike the test-grade xoshiro `StdRng`, not
    /// recoverable from observed output). Deterministic tests should
    /// drive [`ProviderService::handle_with_rng`] instead.
    ///
    /// Records into the process-wide [`p2drm_obs::global`] registry; use
    /// [`ProviderService::with_registry`] to isolate metrics (tests,
    /// side-by-side services).
    pub fn new(provider: Arc<ContentProvider<B>>, seed: u64) -> Self
    where
        B: Send + Sync + 'static,
    {
        let registry = Arc::clone(p2drm_obs::global());
        Self::with_registry(provider, seed, registry)
    }

    /// [`ProviderService::new`] recording into a caller-supplied
    /// [`Registry`] instead of the global one. The provider (verify
    /// cache, store) and the tracer are registered as weak snapshot
    /// sources, so one [`Registry::snapshot`] — or one wire
    /// [`OpCode::MetricsDump`] — carries service, cache and store
    /// metrics together.
    pub fn with_registry(
        provider: Arc<ContentProvider<B>>,
        seed: u64,
        registry: Arc<Registry>,
    ) -> Self
    where
        B: Send + Sync + 'static,
    {
        let stats = ServiceStats::new(&registry);
        let tracer = Arc::new(Tracer::new());
        let provider_weak = Arc::downgrade(&provider);
        registry.register_source(provider_weak as Weak<dyn MetricSource + Send + Sync>);
        let tracer_weak = Arc::downgrade(&tracer);
        registry.register_source(tracer_weak as Weak<dyn MetricSource + Send + Sync>);
        ProviderService {
            provider,
            ra: None,
            epoch: AtomicU32::new(0),
            now: AtomicU64::new(1),
            rng_key: p2drm_crypto::sha256::sha256_concat(&[
                b"p2drm-service-rng-v1",
                &seed.to_le_bytes(),
                &p2drm_crypto::rng::os_entropy32(),
            ]),
            requests: AtomicU64::new(0),
            registry,
            tracer,
            stats,
        }
    }

    /// Attaches a registration authority, enabling the pseudonym and
    /// attribute issuance ops.
    pub fn with_ra(mut self, ra: Arc<RegistrationAuthority>) -> Self {
        self.ra = Some(ra);
        self
    }

    /// The provider this service fronts (shared handle).
    pub fn provider(&self) -> &Arc<ContentProvider<B>> {
        &self.provider
    }

    /// The metrics registry this service records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The correlation-id tracer (disabled until
    /// [`ProviderService::set_tracing`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Enables or disables per-request span capture. Span fields are
    /// static labels, durations and the client-chosen wire correlation
    /// id — never pseudonyms, card ids, license ids or coin serials.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Sets the service's protocol time.
    pub fn set_time(&self, epoch: u32, now: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.now.store(now, Ordering::Relaxed);
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Current wall-clock (unix-second stand-in).
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    /// The single byte-level entry point: decode, dispatch, encode.
    ///
    /// Total: every input — truncated, bit-flipped, wrong version,
    /// unknown op, trailing garbage — produces a well-formed
    /// [`ResponseEnvelope`], never a panic, and a failed request leaves
    /// the underlying provider fully serviceable.
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        self.handle_with_rng(request, &mut self.request_rng())
    }

    /// The next request's randomness. Nonce-separated ChaCha20 streams
    /// under one entropy-keyed 256-bit key: one independent CSPRNG per
    /// request, no shared lock on the hot path, and no way to predict
    /// one request's randomness from another's output.
    fn request_rng(&self) -> ChaChaRng {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&n.to_le_bytes());
        ChaChaRng::new(self.rng_key, nonce)
    }

    /// [`ProviderService::handle`] with caller-supplied randomness
    /// (deterministic tests).
    pub fn handle_with_rng<R: CryptoRng + ?Sized>(&self, request: &[u8], rng: &mut R) -> Vec<u8> {
        let timer = Timer::start(self.registry.is_enabled());
        self.answer(request, RequestEnvelope::from_bytes(request), timer, rng)
    }

    /// Answers several requests that arrived together; `reply(i, bytes)`
    /// receives request `i`'s response as soon as it is ready. Every
    /// request gets what [`ProviderService::handle`] would give it — its
    /// own ChaCha20 stream, span and stats — but the purchases and
    /// transfers among them are settled by one
    /// [`ContentProvider::handle_batch`], so their public-key operations
    /// and license signatures share the vertical kernel's lanes. Every
    /// other request is answered first, one by one, so a download or a
    /// read never waits behind the batch's signatures.
    pub fn handle_batch(&self, requests: &[&[u8]], reply: &mut dyn FnMut(usize, Vec<u8>)) {
        let mut rngs: Vec<ChaChaRng> = requests.iter().map(|_| self.request_rng()).collect();
        self.handle_batch_with_rngs(requests, &mut rngs, reply);
    }

    /// [`ProviderService::handle_batch`] with caller-supplied randomness,
    /// `rngs[i]` for request `i` (deterministic tests): one generator per
    /// request.
    pub fn handle_batch_with_rngs<R: CryptoRng>(
        &self,
        requests: &[&[u8]],
        rngs: &mut [R],
        reply: &mut dyn FnMut(usize, Vec<u8>),
    ) {
        debug_assert_eq!(requests.len(), rngs.len(), "one generator per request");
        let mut issuances = Vec::new();
        for (i, (request, rng)) in requests.iter().zip(rngs.iter_mut()).enumerate() {
            let timer = Timer::start(self.registry.is_enabled());
            match RequestEnvelope::from_bytes(request) {
                Ok(envelope) if issuance(&envelope.body).is_some() => {
                    issuances.push((i, envelope, rng, timer))
                }
                decoded => reply(i, self.answer(request, decoded, timer, rng)),
            }
        }
        if issuances.is_empty() {
            return;
        }
        let spans: Vec<_> = issuances
            .iter()
            .map(|(_, envelope, _, _)| (envelope.correlation_id, envelope.body.opcode().label()))
            .collect();
        let mut batch: Vec<_> = issuances
            .iter_mut()
            .filter_map(|(_, envelope, rng, _)| Some((issuance(&envelope.body)?, &mut **rng)))
            .collect();
        let results = self.provider.handle_batch(&mut batch, self.epoch(), |k| {
            spans
                .get(k)
                .map(|&(id, label)| self.tracer.begin(id, label))
        });
        for ((i, envelope, _, timer), result) in issuances.into_iter().zip(results) {
            self.stats.served.inc();
            let op = envelope.body.opcode();
            let body = match result {
                Ok(license) if op == OpCode::Transfer => {
                    WireResponse::Transfer(TransferResponse { license })
                }
                Ok(license) => WireResponse::Purchase(PurchaseResponse { license }),
                Err(e) => WireResponse::Error(e.into()),
            };
            let response = ResponseEnvelope {
                correlation_id: envelope.correlation_id,
                body,
            };
            reply(i, self.encode(op.byte(), &response, timer));
        }
    }

    /// Dispatches a decoded request, or answers the decoding error, and
    /// encodes the reply.
    fn answer<R: CryptoRng + ?Sized>(
        &self,
        request: &[u8],
        decoded: Result<RequestEnvelope, EnvelopeError>,
        timer: Timer,
        rng: &mut R,
    ) -> Vec<u8> {
        self.stats.served.inc();
        let (op_byte, response) = match decoded {
            Ok(envelope) => {
                let op = envelope.body.opcode();
                // Span fields: correlation id (client-chosen, already on
                // the wire) + static op label. Nothing identifying.
                let _span = self.tracer.begin(envelope.correlation_id, op.label());
                let body = self
                    .dispatch(&envelope.body, rng)
                    .unwrap_or_else(WireResponse::Error);
                (
                    op.byte(),
                    ResponseEnvelope {
                        correlation_id: envelope.correlation_id,
                        body,
                    },
                )
            }
            Err(e) => (
                OpCode::Error.byte(),
                ResponseEnvelope {
                    correlation_id: correlation_hint(request),
                    body: WireResponse::Error(e.into()),
                },
            ),
        };
        self.encode(op_byte, &response, timer)
    }

    /// Encodes a reply, counting an error reply and timing the request
    /// into its op's histogram.
    fn encode(&self, op_byte: u8, response: &ResponseEnvelope, timer: Timer) -> Vec<u8> {
        if matches!(response.body, WireResponse::Error(_)) {
            self.stats.errors.inc();
        }
        let bytes = response.to_bytes();
        if let Some(ns) = timer.elapsed_ns() {
            self.stats.hist(op_byte).record(ns);
        }
        bytes
    }

    /// Typed dispatch (the decoded middle of [`ProviderService::handle`]).
    pub fn dispatch<R: CryptoRng + ?Sized>(
        &self,
        request: &WireRequest,
        rng: &mut R,
    ) -> Result<WireResponse, ApiError> {
        let epoch = self.epoch();
        let now = self.now();
        match request {
            WireRequest::Purchase(req) => {
                let license = self.provider.handle_purchase(req, epoch, rng)?;
                Ok(WireResponse::Purchase(PurchaseResponse { license }))
            }
            WireRequest::Download(req) => {
                let (nonce, ciphertext) = self.provider.download(&req.content_id)?;
                Ok(WireResponse::Download(DownloadResponse {
                    nonce,
                    ciphertext,
                }))
            }
            WireRequest::Transfer(req) => {
                let license = self.provider.handle_transfer(req, epoch, rng)?;
                Ok(WireResponse::Transfer(TransferResponse { license }))
            }
            WireRequest::PseudonymIssue(req) => {
                let ra = self.require_ra("pseudonym issuance")?;
                let blind_sig = ra.issue_pseudonym(
                    req.card_id,
                    &req.card_cert,
                    &req.blinded,
                    &req.auth_sig,
                    now,
                )?;
                Ok(WireResponse::PseudonymIssue(PseudonymIssueResponse {
                    blind_sig,
                }))
            }
            WireRequest::AttributeIssue(req) => {
                let ra = self.require_ra("attribute issuance")?;
                let blind_sig = ra.issue_attribute(
                    req.card_id,
                    &req.card_cert,
                    &req.attribute,
                    &req.blinded,
                    &req.auth_sig,
                    now,
                )?;
                Ok(WireResponse::AttributeIssue(AttributeIssueResponse {
                    blind_sig,
                }))
            }
            WireRequest::CrlSync(_) => Ok(WireResponse::CrlSync(CrlSync {
                license_crl: self.provider.signed_license_crl(now),
                pseudonym_crl: self.provider.signed_pseudonym_crl(now),
            })),
            WireRequest::Catalog(req) => {
                let response = match req.content_id {
                    Some(id) => CatalogResponse::new(vec![self
                        .provider
                        .content_meta(&id)
                        .ok_or_else(|| {
                            ApiError::new(
                                ApiErrorCode::UnknownContent,
                                format!("unknown content {id}"),
                            )
                        })?]),
                    None => CatalogResponse::listing(self.provider.list_content()),
                };
                Ok(WireResponse::Catalog(response))
            }
            WireRequest::LicenseStatus(req) => {
                // A row the provider cannot read is its own fault, not
                // the asker's and not "never issued": answer `Internal`
                // so a client never drops a license it holds.
                let status = self
                    .provider
                    .license_status(&req.license_id)
                    .map_err(|e| ApiError::new(ApiErrorCode::Internal, e.to_string()))?;
                Ok(WireResponse::LicenseStatus(LicenseStatusResponse {
                    status,
                }))
            }
            WireRequest::MetricsDump(_) => {
                if !self.provider.config().metrics_dump {
                    return Err(ApiError::new(
                        ApiErrorCode::ServiceUnavailable,
                        "metrics dump not enabled on this endpoint",
                    ));
                }
                Ok(WireResponse::MetricsDump(self.metrics_dump_response()))
            }
        }
    }

    /// The unified snapshot as a wire message: every registry metric
    /// (service, verify cache, store) plus the tracer's recent spans.
    pub fn metrics_dump_response(&self) -> MetricsDumpResponse {
        let snapshot = self.registry.snapshot();
        MetricsDumpResponse {
            metrics: snapshot.entries.iter().map(metric_entry).collect(),
            spans: self.tracer.recent().iter().map(span_entry).collect(),
        }
    }

    fn require_ra(&self, what: &str) -> Result<&RegistrationAuthority, ApiError> {
        self.ra.as_deref().ok_or_else(|| {
            ApiError::new(
                ApiErrorCode::ServiceUnavailable,
                format!("{what} not served by this endpoint (no RA attached)"),
            )
        })
    }
}

/// The request `body` is, if it issues a license.
fn issuance(body: &WireRequest) -> Option<Issuance<'_>> {
    match body {
        WireRequest::Purchase(req) => Some(Issuance::Purchase(req)),
        WireRequest::Transfer(req) => Some(Issuance::Transfer(req)),
        _ => None,
    }
}

fn metric_entry((name, value): &(String, MetricValue)) -> MetricEntry {
    match value {
        MetricValue::Counter(v) => MetricEntry::Counter {
            name: name.clone(),
            value: *v,
        },
        MetricValue::Gauge(v) => MetricEntry::Gauge {
            name: name.clone(),
            value: *v,
        },
        MetricValue::Histogram(s) => MetricEntry::Histogram {
            name: name.clone(),
            summary: MetricSummary {
                count: s.count,
                mean_ns: s.mean_ns.round() as u64,
                p50_ns: s.p50_ns,
                p90_ns: s.p90_ns,
                p99_ns: s.p99_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            },
        },
    }
}

fn span_entry(r: &p2drm_obs::SpanRecord) -> SpanEntry {
    SpanEntry {
        corr_id: r.corr_id,
        op: r.op.to_string(),
        total_ns: r.total_ns,
        slow: r.slow,
        stages: r
            .stages
            .iter()
            .map(|(label, ns)| SpanStage {
                label: (*label).to_string(),
                ns: *ns,
            })
            .collect(),
    }
}

/// Rebuilds an exposition-ready [`Snapshot`] from a decoded
/// [`MetricsDumpResponse`] (the client side of [`OpCode::MetricsDump`]):
/// same entries in the same order, with each histogram mean carried as
/// the rounded integer that travelled the wire. Render with
/// [`Snapshot::to_text`] or [`Snapshot::to_json`].
pub fn snapshot_from_dump(dump: &MetricsDumpResponse) -> Snapshot {
    let entries = dump
        .metrics
        .iter()
        .map(|e| match e {
            MetricEntry::Counter { name, value } => (name.clone(), MetricValue::Counter(*value)),
            MetricEntry::Gauge { name, value } => (name.clone(), MetricValue::Gauge(*value)),
            MetricEntry::Histogram { name, summary } => (
                name.clone(),
                MetricValue::Histogram(Summary {
                    count: summary.count,
                    mean_ns: summary.mean_ns as f64,
                    p50_ns: summary.p50_ns,
                    p90_ns: summary.p90_ns,
                    p99_ns: summary.p99_ns,
                    min_ns: summary.min_ns,
                    max_ns: summary.max_ns,
                }),
            ),
        })
        .collect();
    Snapshot { entries }
}
