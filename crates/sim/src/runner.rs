//! Concurrent purchase throughput (experiments E3/E4/E5).
//!
//! Client threads submit pre-built purchase requests against **one shared
//! provider** through `&self` — the refactored `ContentProvider` is `Sync`,
//! so no external mutex and no per-thread provider clones are involved.
//! Parallelism comes from the provider's internal lock sharding: the
//! spent-ID/license store is lock-sharded, the catalog and rights
//! templates are read-locked, and license signing needs no lock at all.
//! `store_shards = 1` degenerates to a fully serialized store, which is
//! the paper's single-license-server baseline.
//!
//! Two orthogonal knobs pick the deployment shape under test:
//! [`StoreBackend`] (volatile vs WAL-backed) and [`DispatchMode`]
//! (direct `&self` calls, the byte-level wire path through
//! [`ProviderService`] — encode request, dispatch, decode response —
//! which is what experiment E5 uses to price serialization, or real
//! TCP sockets through `p2drm-net`'s `DrmServer`/`TcpTransport`, which
//! is what experiment E6 uses to price the network stack itself).

use crate::json::{Json, ToJson};
use crate::metrics::{Histogram, Summary};
use p2drm_core::entities::provider::{ContentProvider, ProviderConfig};
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::service::{
    ProviderService, RequestEnvelope, ResponseEnvelope, WireRequest, WireResponse,
};
use p2drm_core::system::{System, SystemConfig};
use p2drm_net::{ClientConfig, DrmServer, NetConfig, ServerHandle, TcpTransport};
use p2drm_store::{ConcurrentKv, SyncPolicy, WalShardedConfig};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Which store backend the provider under test runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreBackend {
    /// Volatile lock-sharded store (`MemKv`) — the upper
    /// bound: no durability cost.
    Mem,
    /// WAL-backed sharded store (`WalShardedKv`) at the given durability
    /// level, in a unique temp directory (removed after the run).
    WalSharded(SyncPolicy),
}

impl StoreBackend {
    /// Short label for tables/JSON (`mem`, `wal-buffered`, …).
    pub fn label(&self) -> String {
        match self {
            StoreBackend::Mem => "mem".into(),
            StoreBackend::WalSharded(SyncPolicy::Buffered) => "wal-buffered".into(),
            StoreBackend::WalSharded(SyncPolicy::FlushEach) => "wal-flush-each".into(),
            StoreBackend::WalSharded(SyncPolicy::SyncEach) => "wal-sync-each".into(),
        }
    }
}

/// How client threads reach the provider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Direct in-process `&self` calls (no serialization).
    InProc,
    /// Full wire path per purchase: encode a [`RequestEnvelope`],
    /// [`ProviderService::handle`] the bytes, decode the
    /// [`ResponseEnvelope`].
    Wire,
    /// Real sockets: a `DrmServer` bound to a loopback port with one
    /// worker per client thread, each client holding a keep-alive
    /// `TcpTransport` connection. Adds framing plus the kernel TCP
    /// stack on top of [`DispatchMode::Wire`].
    Tcp,
}

impl DispatchMode {
    /// Short label for tables/JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchMode::InProc => "in-proc",
            DispatchMode::Wire => "wire",
            DispatchMode::Tcp => "tcp",
        }
    }
}

/// Throughput run parameters.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Purchases per client.
    pub purchases_per_client: usize,
    /// Lock shards inside the provider's store (1 = fully serialized
    /// store, the single-license-server shape).
    pub store_shards: usize,
    /// Store backend under test.
    pub backend: StoreBackend,
    /// In-process calls or the byte-level wire path.
    pub mode: DispatchMode,
    /// Private metrics registry for the run. `Some` routes the service
    /// (and, in TCP mode, the server) through
    /// [`ProviderService::with_registry`] so the run's counters and
    /// latency histograms land in a caller-owned registry instead of the
    /// process-wide one, and [`ThroughputResult::snapshot`] carries the
    /// end-of-run exposition. `None` keeps the default (global registry,
    /// no snapshot) — zero behaviour change for existing callers.
    pub registry: Option<Arc<p2drm_obs::Registry>>,
    /// Enable per-request tracing on the run's service(s). Only
    /// meaningful with a private `registry`; prices the tracer's
    /// overhead in experiment E14.
    pub tracing: bool,
}

impl Default for ThroughputConfig {
    /// Smallest meaningful run: one client, one purchase, serialized
    /// store, volatile backend, in-process dispatch, global registry, no
    /// tracing.
    fn default() -> Self {
        ThroughputConfig {
            clients: 1,
            purchases_per_client: 1,
            store_shards: 1,
            backend: StoreBackend::Mem,
            mode: DispatchMode::InProc,
            registry: None,
            tracing: false,
        }
    }
}

/// Throughput results.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Threads used.
    pub clients: usize,
    /// Store lock shards used.
    pub store_shards: usize,
    /// Backend label (`mem`, `wal-flush-each`, …).
    pub backend: String,
    /// Dispatch label (`in-proc`, `wire`).
    pub mode: String,
    /// Completed purchases.
    pub completed: usize,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Purchases per second (aggregate).
    pub throughput: f64,
    /// Per-purchase latency summary.
    pub latency: Summary,
    /// Exact median per-purchase latency in nanoseconds, computed from
    /// the raw samples rather than histogram buckets. Robust to
    /// scheduler stalls (which contaminate wall-clock throughput and
    /// the mean but shift the median of thousands of samples by almost
    /// nothing), so it is the statistic of choice for small-overhead
    /// comparisons like E14's ≤2% observability budget.
    pub median_op_ns: u64,
    /// End-of-run unified metrics snapshot, taken from the private
    /// registry while the provider is still alive (its weak
    /// [`p2drm_obs::MetricSource`] registration would go dead once the
    /// run's `Arc`s drop). `None` unless [`ThroughputConfig::registry`]
    /// was supplied.
    pub snapshot: Option<p2drm_obs::Snapshot>,
}

impl ToJson for ThroughputResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("clients", self.clients.to_json()),
            ("store_shards", self.store_shards.to_json()),
            ("backend", self.backend.to_json()),
            ("mode", self.mode.to_json()),
            ("completed", self.completed.to_json()),
            ("wall_secs", self.wall_secs.to_json()),
            ("throughput", self.throughput.to_json()),
            ("latency", self.latency.to_json()),
            ("median_op_ns", self.median_op_ns.to_json()),
        ])
    }
}

/// Self-cleaning unique temp directory for WAL-backed runs.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("p2drm-sim-throughput-{}-{n}", std::process::id()));
        // Pre-clean: a stale directory from a crashed prior run (possibly
        // with a different shard count) would fail the MANIFEST check.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the throughput experiment on the configured backend. Setup
/// (users, pseudonyms, coins) is excluded from the measured section; only
/// provider-side handling is timed — the license-server capacity
/// question, now including the cost of durability when the backend is
/// WAL-backed.
pub fn purchase_throughput<R: Rng>(config: ThroughputConfig, rng: &mut R) -> ThroughputResult {
    let mut sys = System::bootstrap(SystemConfig::fast_test(), rng);
    let provider_config = ProviderConfig {
        store_shards: config.store_shards,
        ..ProviderConfig::fast_test()
    };

    // The shared provider under test, with the requested store sharding
    // and backend. It shares the system's mint, so deposits (and
    // double-spend protection) stay globally consistent.
    match config.backend.clone() {
        StoreBackend::Mem => {
            let provider = ContentProvider::new(
                &mut sys.root,
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                provider_config,
                rng,
            );
            drive_provider(config, sys, provider, rng)
        }
        StoreBackend::WalSharded(policy) => {
            let tmp = TempDir::new();
            let (provider, _report) = ContentProvider::open_durable(
                &mut sys.root,
                sys.mint.clone(),
                sys.ra.blind_public().clone(),
                &tmp.0,
                WalShardedConfig {
                    shards: config.store_shards.max(1),
                    policy,
                },
                provider_config,
                rng,
            )
            .expect("open durable provider");
            drive_provider(config, sys, provider, rng)
        }
    }
}

/// Backend-generic measured section.
fn drive_provider<B: ConcurrentKv + Send + Sync + 'static, R: Rng>(
    config: ThroughputConfig,
    sys: System,
    provider: ContentProvider<B>,
    rng: &mut R,
) -> ThroughputResult {
    let provider = Arc::new(provider);
    let template = sys.config().rights_template.clone();
    let cid = provider.publish("hot-item", 100, &vec![0u8; 1024], template, rng);
    let epoch = sys.epoch();

    // Pre-build all requests: one user per client, coins + pseudonyms
    // prepared up front.
    let total = config.clients * config.purchases_per_client;
    let mut requests: Vec<Vec<PurchaseRequest>> = Vec::with_capacity(config.clients);
    for c in 0..config.clients {
        // Every purchase mints a fresh pseudonym, so size the card's
        // budget to the workload instead of the 64-slot default.
        let budget = p2drm_core::entities::CardBudget {
            max_pseudonyms: config.purchases_per_client + 8,
        };
        let mut user = sys
            .register_user_with_budget(&format!("client-{c}"), budget, rng)
            .unwrap();
        sys.fund(&user, 100 * config.purchases_per_client as u64);
        let mut reqs = Vec::with_capacity(config.purchases_per_client);
        for _ in 0..config.purchases_per_client {
            sys.ensure_pseudonym(&mut user, rng).unwrap();
            let cert = user.current_pseudonym().unwrap().clone();
            let account = user.account.clone();
            let coin = user.wallet.withdraw(&sys.mint, &account, 100, rng).unwrap();
            user.wallet.take(100);
            user.note_pseudonym_use();
            reqs.push(PurchaseRequest {
                content_id: cid,
                pseudonym_cert: cert,
                coin,
                attribute_cert: None,
            });
        }
        requests.push(reqs);
    }

    let completed = std::sync::atomic::AtomicUsize::new(0);
    let histograms: Vec<Mutex<Histogram>> = (0..config.clients)
        .map(|_| Mutex::new(Histogram::new()))
        .collect();
    // Raw per-op samples, kept alongside the bucketed histogram so the
    // exact median survives (see `ThroughputResult::median_op_ns`).
    let samples: Vec<Mutex<Vec<u64>>> = (0..config.clients)
        .map(|_| Mutex::new(Vec::with_capacity(config.purchases_per_client)))
        .collect();

    // Wire mode fronts the same provider with the byte-level service;
    // each purchase then pays encode → handle (decode, dispatch, encode)
    // → decode inside the timed section. A caller-supplied registry
    // keeps the run's metrics out of the process-wide tables.
    let service = match &config.registry {
        Some(registry) => {
            // Fold the batch crypto layer's process-wide counters into
            // the private snapshot too.
            registry.register_source(Arc::downgrade(p2drm_crypto::batch::batch_metric_source()));
            ProviderService::with_registry(provider.clone(), 0x317E_0000, registry.clone())
        }
        None => ProviderService::new(provider.clone(), 0x317E_0000),
    };
    service.set_tracing(config.tracing);
    service.set_time(epoch, sys.now());
    let mode = config.mode;

    // Tcp mode additionally boots a real server on a loopback port (its
    // own service instance over the same shared provider) with one
    // worker per client thread, so keep-alive connections are never
    // starved. Connections are established outside the timed section —
    // the steady-state cost under test is request/reply, not dialing.
    let server: Option<ServerHandle> = match mode {
        DispatchMode::Tcp => {
            let tcp_service = match &config.registry {
                Some(registry) => {
                    ProviderService::with_registry(provider.clone(), 0x317E_0001, registry.clone())
                }
                None => ProviderService::new(provider.clone(), 0x317E_0001),
            };
            tcp_service.set_tracing(config.tracing);
            tcp_service.set_time(epoch, sys.now());
            Some(
                DrmServer::bind(
                    "127.0.0.1:0",
                    tcp_service,
                    NetConfig {
                        workers: config.clients,
                        max_connections: config.clients + 4,
                        registry: config.registry.clone(),
                        ..NetConfig::default()
                    },
                )
                .expect("bind loopback server"),
            )
        }
        _ => None,
    };

    // Dial every keep-alive client connection *before* the clock
    // starts: the steady-state cost under test is request/reply, not
    // connection establishment.
    let mut transports: Vec<Option<TcpTransport>> = (0..config.clients)
        .map(|_| {
            server.as_ref().map(|s| {
                TcpTransport::connect_with(s.local_addr(), ClientConfig::default())
                    .expect("connect to loopback server")
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for ((c, reqs), mut transport) in requests.iter().enumerate().zip(transports.drain(..)) {
            let provider = &provider;
            let service = &service;
            let completed = &completed;
            let histograms = &histograms;
            let samples = &samples;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC11E57 + c as u64);
                for (i, req) in reqs.iter().enumerate() {
                    // The request clone stands in for the client-side
                    // message the caller would already hold; it stays
                    // outside the timed section so wire/tcp modes
                    // measure encode → dispatch → decode, nothing else.
                    let body = match mode {
                        DispatchMode::InProc => None,
                        DispatchMode::Wire | DispatchMode::Tcp => {
                            Some(WireRequest::Purchase(req.clone()))
                        }
                    };
                    let t0 = Instant::now();
                    let ok = match body {
                        None => provider.handle_purchase(req, epoch, &mut rng).is_ok(),
                        Some(body) => {
                            // Correlation id 0 is reserved for server
                            // pre-decode errors, so the per-request index
                            // is offset by one.
                            let corr = ((c as u64) << 32) | (i as u64 + 1);
                            let envelope = RequestEnvelope {
                                correlation_id: corr,
                                body,
                            };
                            let request = envelope.to_bytes();
                            let reply = match &mut transport {
                                None => service.handle(&request),
                                Some(t) => {
                                    use p2drm_core::service::Transport;
                                    t.roundtrip(corr, &request).expect("loopback tcp roundtrip")
                                }
                            };
                            let envelope = ResponseEnvelope::from_bytes(&reply)
                                .expect("service replies are well-formed");
                            matches!(envelope.body, WireResponse::Purchase(_))
                        }
                    };
                    let dt = t0.elapsed();
                    if ok {
                        completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        histograms[c].lock().record_duration(dt);
                        samples[c]
                            .lock()
                            .push(dt.as_nanos().min(u64::MAX as u128) as u64);
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    // Snapshot before shutdown: the TCP server owns its service, whose
    // tracer and `ServerMetrics` are weak sources in the registry —
    // they die with it.
    let snapshot = config.registry.as_ref().map(|r| r.snapshot());
    if let Some(server) = server {
        server.shutdown();
    }

    let mut merged = Histogram::new();
    for h in &histograms {
        merged.merge(&h.lock());
    }
    let mut all_samples: Vec<u64> = samples.iter().flat_map(|s| s.lock().clone()).collect();
    all_samples.sort_unstable();
    let median_op_ns = all_samples.get(all_samples.len() / 2).copied().unwrap_or(0);
    let completed = completed.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(completed, total, "all purchases must succeed");
    assert_eq!(
        provider.license_count(),
        total,
        "license store accounts for every issuance"
    );

    ThroughputResult {
        clients: config.clients,
        store_shards: config.store_shards,
        backend: config.backend.label(),
        mode: config.mode.label().to_string(),
        completed,
        wall_secs: wall.as_secs_f64(),
        throughput: completed as f64 / wall.as_secs_f64(),
        latency: merged.summary(),
        median_op_ns,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    #[test]
    fn throughput_completes_all_purchases() {
        let mut rng = test_rng(270);
        let r = purchase_throughput(
            ThroughputConfig {
                clients: 2,
                purchases_per_client: 3,
                store_shards: 1,
                backend: StoreBackend::Mem,
                mode: DispatchMode::InProc,
                ..ThroughputConfig::default()
            },
            &mut rng,
        );
        assert_eq!(r.completed, 6);
        assert!(r.throughput > 0.0);
        assert_eq!(r.latency.count, 6);
        assert_eq!(r.backend, "mem");
        assert_eq!(r.mode, "in-proc");
    }

    #[test]
    fn sharded_store_run_completes() {
        let mut rng = test_rng(271);
        let r = purchase_throughput(
            ThroughputConfig {
                clients: 4,
                purchases_per_client: 2,
                store_shards: 8,
                backend: StoreBackend::Mem,
                mode: DispatchMode::InProc,
                ..ThroughputConfig::default()
            },
            &mut rng,
        );
        assert_eq!(r.completed, 8);
        assert_eq!(r.store_shards, 8);
    }

    #[test]
    fn wire_mode_completes_all_purchases() {
        let mut rng = test_rng(272);
        let r = purchase_throughput(
            ThroughputConfig {
                clients: 2,
                purchases_per_client: 3,
                store_shards: 8,
                backend: StoreBackend::Mem,
                mode: DispatchMode::Wire,
                ..ThroughputConfig::default()
            },
            &mut rng,
        );
        assert_eq!(r.completed, 6);
        assert_eq!(r.mode, "wire");
    }

    #[test]
    fn tcp_mode_completes_all_purchases() {
        let mut rng = test_rng(274);
        let r = purchase_throughput(
            ThroughputConfig {
                clients: 2,
                purchases_per_client: 3,
                store_shards: 8,
                backend: StoreBackend::Mem,
                mode: DispatchMode::Tcp,
                ..ThroughputConfig::default()
            },
            &mut rng,
        );
        assert_eq!(r.completed, 6);
        assert_eq!(r.mode, "tcp");
    }

    #[test]
    fn wire_mode_works_over_wal_backend() {
        let mut rng = test_rng(273);
        let r = purchase_throughput(
            ThroughputConfig {
                clients: 2,
                purchases_per_client: 2,
                store_shards: 4,
                backend: StoreBackend::WalSharded(SyncPolicy::Buffered),
                mode: DispatchMode::Wire,
                ..ThroughputConfig::default()
            },
            &mut rng,
        );
        assert_eq!(r.completed, 4);
        assert_eq!(r.mode, "wire");
        assert!(r.backend.starts_with("wal-"));
    }

    #[test]
    fn wal_backed_run_completes_under_each_policy() {
        for (i, policy) in [
            SyncPolicy::Buffered,
            SyncPolicy::FlushEach,
            SyncPolicy::SyncEach,
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = test_rng(280 + i as u64);
            let r = purchase_throughput(
                ThroughputConfig {
                    clients: 2,
                    purchases_per_client: 2,
                    store_shards: 4,
                    backend: StoreBackend::WalSharded(policy),
                    mode: DispatchMode::InProc,
                    ..ThroughputConfig::default()
                },
                &mut rng,
            );
            assert_eq!(r.completed, 4, "{policy:?}");
            assert!(r.backend.starts_with("wal-"));
        }
    }
}
