//! The system under test, stood up the way a deployment would: a
//! `System` at realistic key sizes over a `WalShardedKv`, a catalog, a
//! pool of certified pseudonyms — plus the two thin wrappers (store and
//! service) through which the traced run sees layer boundaries.

use crate::spans::{self, Recorder, Span, SpanKind};
use crate::sysinfo::now_ns;
use p2drm_core::entities::smartcard::CardBudget;
use p2drm_core::entities::user::{PseudonymPolicy, UserAgent};
use p2drm_core::protocol;
use p2drm_core::protocol::messages::PurchaseRequest;
use p2drm_core::service::{
    correlation_hint, OpCode, ProviderService, RequestEnvelope, ResponseEnvelope, WireResponse,
};
use p2drm_core::system::{System, SystemConfig};
use p2drm_core::{ContentId, License, Transcript, UserId};
use p2drm_crypto::rng::{ChaChaRng, CryptoRng};
use p2drm_crypto::rsa::RsaSignature;
use p2drm_crypto::sha256::{sha256, sha256_concat};
use p2drm_net::NetService;
use p2drm_payment::{Coin, Mint};
use p2drm_pki::cert::{KeyId, PseudonymCertificate};
use p2drm_store::{ConcurrentKv, StoreError, WalShardedConfig, WalShardedKv};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Catalog size every workload runs against.
pub const CATALOG_ITEMS: usize = 256;
/// Payload size of every catalog item.
pub const ITEM_BYTES: usize = 16 * 1024;
/// Price of every item — a denomination, so one coin pays exactly.
pub const PRICE: u64 = 100;
/// Certified pseudonyms the pipelined workloads buy under (well inside
/// the provider's 4,096-entry verify cache).
pub const POOL_PSEUDONYMS: usize = 64;
const POOL_USERS: usize = 4;
/// Mint account every benchmark coin is drawn on.
pub const ACCOUNT: &str = "acct-bench";

/// RNG streams, one per purpose; item `i` of stream `d` under `seed` is
/// ChaCha20 keyed by `seed` with nonce `(d, i)`.
#[derive(Clone, Copy)]
#[repr(u32)]
pub enum Stream {
    Keys = 1,
    Catalog = 2,
    PoolUser = 3,
    Preload = 4,
    Item = 5,
    Shuffle = 6,
    Journey = 7,
    Coverage = 8,
    Probe = 9,
    Session = 10,
}

/// The ChaCha20 key every RNG stream of a run is derived under.
pub fn seed_key(seed: u64) -> [u8; 32] {
    sha256_concat(&[b"p2drm-benchmark-v1", &seed.to_le_bytes()])
}

/// The RNG for item `index` of `stream` — a pure function of its
/// arguments, so the corpus is too.
pub fn stream_rng(key: &[u8; 32], stream: Stream, index: u64) -> ChaChaRng {
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&(stream as u32).to_le_bytes());
    nonce[4..].copy_from_slice(&index.to_le_bytes());
    ChaChaRng::new(*key, nonce)
}

/// A uniform draw from `0..bound`.
pub fn draw<R: CryptoRng + ?Sized>(rng: &mut R, bound: usize) -> usize {
    let mut b = [0u8; 8];
    rng.fill_bytes(&mut b);
    (u64::from_le_bytes(b) % bound as u64) as usize
}

/// Maps `f` over `range` on up to `nproc` threads, keeping order.
pub fn par_map<T: Send>(range: Range<u64>, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let len = range.end.saturating_sub(range.start);
    let threads = (crate::sysinfo::nproc() as u64).clamp(1, len.max(1));
    let chunk = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = range.start + t * chunk;
                let hi = (lo + chunk).min(range.end);
                let f = &f;
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("corpus worker thread panicked"))
            .collect()
    })
}

/// The run's private directory (WAL shards, corpus file), inside the
/// build's target directory so nothing is written outside the checkout.
/// Removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new(".")).join("runs");
        let dir = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `WalShardedKv` with its calls counted and, while the recorder is on
/// and a request is being dispatched on this thread, spanned.
pub struct BenchKv {
    inner: WalShardedKv,
    reads: AtomicU64,
    writes: AtomicU64,
    rec: Arc<Recorder>,
}

impl BenchKv {
    pub fn new(inner: WalShardedKv, rec: Arc<Recorder>) -> Self {
        BenchKv {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rec,
        }
    }

    pub fn inner(&self) -> &WalShardedKv {
        &self.inner
    }

    /// `(point reads, logged-write attempts)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    fn spanned<T>(&self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let counter = match kind {
            SpanKind::StoreRead => &self.reads,
            _ => &self.writes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        match spans::current_request() {
            Some((id, op)) if self.rec.is_enabled() => {
                let start_ns = now_ns();
                let out = f();
                self.rec.record(Span {
                    id,
                    kind,
                    op,
                    start_ns,
                    end_ns: now_ns(),
                });
                out
            }
            _ => f(),
        }
    }
}

impl ConcurrentKv for BenchKv {
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.spanned(SpanKind::StoreRead, || self.inner.get(key))
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.spanned(SpanKind::StoreWrite, || self.inner.put(key, value))
    }

    fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.spanned(SpanKind::StoreWrite, || self.inner.delete(key))
    }

    fn insert_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool, StoreError> {
        self.spanned(SpanKind::StoreWrite, || {
            self.inner.insert_if_absent(key, value)
        })
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.scan_prefix(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.spanned(SpanKind::StoreRead, || self.inner.contains(key))
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }

    fn collect_metrics(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        self.inner.collect_metrics(out);
    }
}

/// The traced run's service: while the recorder is on it composes the
/// public decode → dispatch → encode steps of `ProviderService::handle`
/// itself, with a span around each; while it is off it is `handle`.
pub struct SpanService {
    inner: ProviderService<BenchKv>,
    rec: Arc<Recorder>,
    rng_key: [u8; 32],
    requests: AtomicU64,
}

impl SpanService {
    pub fn new(inner: ProviderService<BenchKv>, rec: Arc<Recorder>) -> Self {
        SpanService {
            inner,
            rec,
            rng_key: p2drm_crypto::rng::os_entropy32(),
            requests: AtomicU64::new(0),
        }
    }

    fn handle_spanned(&self, request: &[u8]) -> Vec<u8> {
        let t_handle = now_ns();
        let decoded = RequestEnvelope::from_bytes(request);
        let t_decoded = now_ns();
        let envelope = match decoded {
            Ok(envelope) => envelope,
            Err(e) => {
                return ResponseEnvelope {
                    correlation_id: correlation_hint(request),
                    body: WireResponse::Error(e.into()),
                }
                .to_bytes()
            }
        };
        let (id, op) = (envelope.correlation_id, envelope.body.opcode().byte());
        // Same construction as `ProviderService::handle`: one ChaCha20
        // stream per request under an OS-entropy key.
        let mut nonce = [0u8; 12];
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        nonce[..8].copy_from_slice(&n.to_le_bytes());
        let mut rng = ChaChaRng::new(self.rng_key, nonce);
        let body = spans::with_request(id, op, || {
            self.inner
                .dispatch(&envelope.body, &mut rng)
                .unwrap_or_else(WireResponse::Error)
        });
        let t_dispatched = now_ns();
        let bytes = ResponseEnvelope {
            correlation_id: id,
            body,
        }
        .to_bytes();
        let t_encoded = now_ns();
        for (kind, start_ns, end_ns) in [
            (SpanKind::CoreHandle, t_handle, t_encoded),
            (SpanKind::CodecDecode, t_handle, t_decoded),
            (SpanKind::CoreDispatch, t_decoded, t_dispatched),
            (SpanKind::CodecEncode, t_dispatched, t_encoded),
        ] {
            self.rec.record(Span {
                id,
                kind,
                op,
                start_ns,
                end_ns,
            });
        }
        bytes
    }
}

impl NetService for SpanService {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if self.rec.is_enabled() {
            self.handle_spanned(request)
        } else {
            self.inner.handle(request)
        }
    }
}

/// What the generator knows about one published item.
pub struct CatalogItem {
    pub id: ContentId,
    /// SHA-256 of the plaintext, recorded at publish time.
    pub plain_sha256: [u8; 32],
    /// The protected payload exactly as `Download` must return it.
    pub nonce: [u8; 12],
    pub ciphertext: Vec<u8>,
}

/// A certified pseudonym and the pool user whose card holds its key.
pub struct PoolCert {
    pub user: usize,
    pub id: KeyId,
    pub cert: PseudonymCertificate,
}

/// Pseudonyms the pipelined workloads buy and transfer under.
pub struct Pool {
    pub users: Vec<UserAgent>,
    pub certs: Vec<PoolCert>,
}

/// A license bought in set-up, and the pool pseudonym holding it.
pub struct Preloaded {
    pub license: License,
    pub holder: usize,
}

/// The system under test plus what the generator needs to address it.
pub struct Stack {
    pub sys: System<BenchKv>,
    pub catalog: Vec<CatalogItem>,
    key: [u8; 32],
}

impl Stack {
    /// Generates every key from `seed`, opens the store under `dir` at
    /// `WalShardedConfig::default()` and publishes the catalog.
    pub fn build(seed: u64, dir: &Path, rec: Arc<Recorder>) -> Result<Self, String> {
        Self::build_with(SystemConfig::realistic(), CATALOG_ITEMS, seed, dir, rec)
    }

    /// [`Stack::build`] at a caller-chosen key size and catalog size
    /// (unit tests use small ones).
    pub fn build_with(
        config: SystemConfig,
        items: usize,
        seed: u64,
        dir: &Path,
        rec: Arc<Recorder>,
    ) -> Result<Self, String> {
        let (store, _) = WalShardedKv::open(dir.join("wal"), WalShardedConfig::default())
            .map_err(|e| format!("open store: {e}"))?;
        let key = seed_key(seed);
        let mut rng = stream_rng(&key, Stream::Keys, 0);
        let sys = System::bootstrap_with_backend(config, BenchKv::new(store, rec), &mut rng);
        sys.mint.fund_account(ACCOUNT, u64::MAX / 2);
        let mut catalog = Vec::with_capacity(items);
        for i in 0..items {
            let mut rng = stream_rng(&key, Stream::Catalog, i as u64);
            let mut payload = vec![0u8; ITEM_BYTES];
            rng.fill_bytes(&mut payload);
            let id = sys.publish_content(&format!("Item {i:03}"), PRICE, &payload, &mut rng);
            let (nonce, ciphertext) = sys
                .provider
                .download(&id)
                .map_err(|e| format!("published item unreadable: {e}"))?;
            catalog.push(CatalogItem {
                id,
                plain_sha256: sha256(&payload),
                nonce,
                ciphertext,
            });
        }
        Ok(Stack { sys, catalog, key })
    }

    /// The RNG for item `index` of `stream` in this run.
    pub fn rng(&self, stream: Stream, index: u64) -> ChaChaRng {
        stream_rng(&self.key, stream, index)
    }

    pub fn store(&self) -> &BenchKv {
        self.sys.provider.store()
    }

    /// Registers one user with room on the card for `pseudonyms` keys.
    pub fn register(&self, label: &str, pseudonyms: usize, rng: &mut ChaChaRng) -> UserAgent {
        protocol::register(
            &self.sys.ra,
            UserId::from_label(label),
            ACCOUNT,
            PseudonymPolicy::FreshPerPurchase,
            CardBudget {
                max_pseudonyms: pseudonyms,
            },
            rng,
            &mut Transcript::new(),
        )
        .expect("fresh label registers on a fresh RA")
    }

    /// Certifies one more pseudonym for `user` through the real blind
    /// issuance protocol (in-process).
    pub fn certify(&self, user: &mut UserAgent, rng: &mut ChaChaRng) {
        protocol::obtain_pseudonym(
            user,
            &self.sys.ra,
            self.sys.ttp.escrow_key(),
            self.sys.epoch(),
            self.sys.now(),
            rng,
            &mut Transcript::new(),
        )
        .expect("registered card obtains pseudonyms within its budget");
    }

    /// Certifies [`POOL_PSEUDONYMS`] pseudonyms, spread over a fixed
    /// number of users so the result does not depend on how many threads
    /// built it.
    pub fn build_pool(&self) -> Pool {
        self.build_pool_of(POOL_USERS, POOL_PSEUDONYMS / POOL_USERS)
    }

    /// [`Stack::build_pool`] with a caller-chosen shape.
    pub fn build_pool_of(&self, users: usize, per_user: usize) -> Pool {
        let users = par_map(0..users as u64, |u| {
            let mut rng = self.rng(Stream::PoolUser, u);
            let mut user = self.register(&format!("pool-{u}"), per_user, &mut rng);
            for _ in 0..per_user {
                self.certify(&mut user, &mut rng);
            }
            user
        });
        let certs = users
            .iter()
            .enumerate()
            .flat_map(|(u, user)| {
                user.pseudonym_certs().iter().map(move |cert| PoolCert {
                    user: u,
                    id: cert.pseudonym_id(),
                    cert: cert.clone(),
                })
            })
            .collect();
        Pool { users, certs }
    }

    /// A fresh valid coin worth [`PRICE`]. The mint signs whatever
    /// residue it is handed, so the corpus builder hands it the coin's
    /// full-domain hash unblinded: the coin is indistinguishable from a
    /// blindly withdrawn one to everyone but the mint, at a fraction of
    /// the cost. (The real blinding dance is priced by `client_session`
    /// and `payment.withdraw_us`.)
    pub fn mint_coin<R: CryptoRng + ?Sized>(mint: &Mint, rng: &mut R) -> Coin {
        let mut serial = [0u8; 32];
        rng.fill_bytes(&mut serial);
        let key = mint.public_key(PRICE).expect("PRICE is a denomination");
        let message = Coin::message_bytes(&serial, PRICE);
        let signature = mint
            .withdraw(
                ACCOUNT,
                PRICE,
                &p2drm_crypto::rsa::fdh(&message, key.modulus_len()),
            )
            .expect("benchmark account is funded");
        Coin {
            serial,
            denomination: PRICE,
            signature: RsaSignature::from_ubig(signature),
        }
    }

    /// A purchase of a uniformly drawn item under a uniformly drawn pool
    /// pseudonym with a fresh coin; returns `(request, item, pseudonym)`.
    pub fn purchase_request(
        &self,
        pool: &Pool,
        rng: &mut ChaChaRng,
    ) -> (PurchaseRequest, usize, usize) {
        let item = draw(rng, self.catalog.len());
        let holder = draw(rng, pool.certs.len());
        let request = PurchaseRequest {
            content_id: self.catalog[item].id,
            pseudonym_cert: pool.certs[holder].cert.clone(),
            coin: Self::mint_coin(&self.sys.mint, rng),
            attribute_cert: None,
        };
        (request, item, holder)
    }

    /// Buys licenses `range` of the set-up stream through the provider's
    /// purchase path (in-process, on every core) — the store contents
    /// `lifecycle_mix` starts from.
    pub fn preload(&self, pool: &Pool, range: Range<u64>) -> Vec<Preloaded> {
        par_map(range, |i| {
            let mut rng = self.rng(Stream::Preload, i);
            let (request, _, holder) = self.purchase_request(pool, &mut rng);
            let license = self
                .sys
                .provider
                .handle_purchase(&request, self.sys.epoch(), &mut rng)
                .expect("set-up purchase of a published item with a fresh coin succeeds");
            Preloaded { license, holder }
        })
    }
}

/// Envelope bytes of `body` with a zero correlation id, which the
/// generator overwrites when it sends.
pub fn request_bytes(body: p2drm_core::service::WireRequest) -> Vec<u8> {
    RequestEnvelope {
        correlation_id: 0,
        body,
    }
    .to_bytes()
}

/// Byte offsets of the correlation id inside envelope bytes.
pub const CORRELATION_BYTES: Range<usize> = 2..10;

/// Wire label of an op-code byte, for per-op metric names.
pub fn op_label(op: u8) -> &'static str {
    OpCode::from_byte(op).map_or("unknown", OpCode::label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rngs_are_a_pure_function_of_their_arguments() {
        let bytes = |seed, stream, i| {
            let mut b = [0u8; 32];
            stream_rng(&seed_key(seed), stream, i).fill_bytes(&mut b);
            b
        };
        assert_eq!(bytes(1, Stream::Item, 7), bytes(1, Stream::Item, 7));
        assert_ne!(bytes(1, Stream::Item, 7), bytes(2, Stream::Item, 7));
        assert_ne!(bytes(1, Stream::Item, 7), bytes(1, Stream::Item, 8));
        assert_ne!(bytes(1, Stream::Item, 7), bytes(1, Stream::Preload, 7));
    }

    #[test]
    fn par_map_keeps_order_and_covers_the_range() {
        assert_eq!(
            par_map(3..11, |i| i * 2),
            (3..11).map(|i| i * 2).collect::<Vec<_>>()
        );
        assert!(par_map(5..5, |i| i).is_empty());
        assert_eq!(par_map(0..1, |i| i), vec![0]);
    }
}
