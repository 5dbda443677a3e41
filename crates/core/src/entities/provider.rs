//! The content provider / license server.
//!
//! Sells content to **pseudonyms**: verifies blind-issued certificates,
//! deposits anonymous coins, issues uniquely-identified anonymous licenses,
//! executes privacy-preserving transfers, and maintains the spent-ID store
//! that makes each license id redeemable exactly once.
//!
//! # Replay-safe purchase and transfer
//!
//! A license id is derived from the request that asks for it — a
//! purchase's from its coin serial, pseudonym and content
//! ([`purchase_license_id`]), a transfer successor's from the old id and
//! the recipient ([`transfer_license_id`]) — and the one atomic row that
//! decides each operation records it: the mint's `spent/<serial>` row
//! holds the purchased id, the provider's `spent/<old id>` row the
//! successor. A request whose deciding row already names the id it
//! derives is a **replay** (its reply was lost, or the process died
//! before the license row was written): the provider re-signs and
//! re-seals that license, rewrites whichever row is missing, and records
//! nothing else — no second deposit or license row. Any other
//! occupant of the row is still [`CoreError::AlreadyRedeemed`] /
//! `DoubleSpend`. So a client may re-send both operations after any
//! failure, and the customer pays if and only if the license can be
//! obtained.
//!
//! # Concurrency architecture: core / state split
//!
//! The provider is the system's only serialization point — every purchase
//! must atomically consult the spent-ID store and sign a license — so it
//! is built as a **shared-state concurrent service**. One logical
//! [`ContentProvider`] serves N client threads through `&self`:
//!
//! * [`ProviderCore`] (`core` field) — the immutable identity: signing
//!   key pair, certificate, RA trust anchor, configuration. Written
//!   once at construction, read lock-free from every thread.
//! * [`ProviderState`] (`state` field) — the mutable tables, each behind
//!   its own lock so unrelated operations never contend:
//!   - the KV **backend** (any [`ConcurrentKv`]) holding the **spent-ID
//!     set**, one [`LicenseRecord`] per issued id (the holder's key id —
//!     the signed license itself leaves with the buyer and is not
//!     kept), persisted catalog/rights/CRL tables;
//!     `insert_if_absent` (the double-redemption primitive) is atomic per
//!     key inside the backend;
//!   - the in-memory catalog: one [`CatalogEntry`] per item — metadata,
//!     content key, nonce and rights template, but not the ciphertext
//!     (`RwLock`, read-mostly; the catalog's listing snapshot is built
//!     and read under the read lock, and `publish` takes the write lock
//!     only for the map insert — packaging and persistence happen before
//!     it);
//!   - trusted attribute keys (`RwLock`, read-mostly);
//!   - CRL state — both revocation lists, their sequence numbers and
//!     event logs — under one `RwLock` (revocation is rare, CRL reads are
//!     cheap).
//!
//! An item's ciphertext has one copy: its `content/<id>` row in the
//! backend. [`ContentProvider::download`] checks the catalog, then reads
//! that row and returns its tail ([`content::row_ciphertext`]); a listed
//! item whose row is missing or short answers [`CoreError::Store`].
//!
//! Per sale the provider keeps only the index rows the protocol reads
//! back — the mint's `spent/<serial>`, then `lic/<id>`, and for a
//! transfer `spent/<old id>` — and no history of who bought or passed
//! on what: there is no purchase or transfer log to join.
//!
//! Every protocol entry point (`handle_purchase`, `handle_transfer`,
//! `download`, CRL sync) takes `&self`; `ContentProvider<B>` is `Sync`
//! whenever the backend is, so threads share one provider by reference —
//! no shard cloning, no external mutex.
//!
//! # Backend matrix and durability
//!
//! The backend type parameter picks the deployment shape:
//!
//! * [`MemKv`] (the [`MemBackend`] default, [`ContentProvider::new`]) —
//!   volatile, lock-sharded per [`ProviderConfig::store_shards`]; tests
//!   and simulations;
//! * [`WalShardedKv`] ([`ContentProvider::open_durable`]) — the
//!   production shape: 1..N per-shard WALs with group commit, so the
//!   provider survives an unclean drop. Reopen with
//!   [`ContentProvider::resume_durable`] (keys from the operator's
//!   vault): spent ids, license records, catalog and CRLs are intact, and a
//!   double-redeem race spanning the restart still has exactly one
//!   winner — the claim is WAL-logged before the in-memory index changes,
//!   so the exactly-once decision is as durable as the chosen
//!   [`p2drm_store::SyncPolicy`];
//! * any other [`ConcurrentKv`] ([`ContentProvider::with_backend`]) —
//!   wrappers that inject faults or record timings around one of the
//!   two above.

use crate::content::{
    self, CatalogEntry, CatalogListing, ContentCatalog, ContentMeta, PackagedContent,
};
use crate::ids::{ContentId, LicenseId};
use crate::license::{License, LicenseBody, LicenseRecord};
use crate::protocol::messages::{self, LicenseStatus, PurchaseRequest, TransferRequest};
use crate::CoreError;
use p2drm_crypto::envelope;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaPublicKey, RsaSignature};
use p2drm_payment::Mint;
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{digest_id, Certificate, KeyId, PseudonymCertificate};
use p2drm_pki::crl::{RevocationList, SignedCrl};
use p2drm_rel::{Limit, Rights};
use p2drm_store::typed::Table;
use p2drm_store::{
    ConcurrentKv, MemKv, RecoveryReport, StoreError, WalShardedConfig, WalShardedKv,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The default volatile backend: lock-sharded in-memory store.
pub type MemBackend = MemKv;

/// Provider construction parameters.
#[derive(Clone, Debug)]
pub struct ProviderConfig {
    /// RSA modulus bits for the license-signing key.
    pub key_bits: usize,
    /// How many epochs old a pseudonym certificate may be.
    pub epoch_window: u32,
    /// Certificate validity window.
    pub validity: p2drm_pki::cert::Validity,
    /// Lock shards for the default in-memory store (a caller-supplied
    /// backend brings its own).
    pub store_shards: usize,
    /// Entry bound of the signature-verification cache consulted by
    /// [`ContentProvider::verify_pseudonym`] and the attribute-credential
    /// check; `0` disables caching (every presentation pays the full RSA
    /// verify).
    pub verify_cache_capacity: usize,
    /// Whether this endpoint answers the wire `MetricsDump` op
    /// (`opcode 9`). Off by default: the snapshot carries only static
    /// metric names, counts and durations — never pseudonyms, card ids,
    /// license ids or coin serials — but exposing load shape is still an
    /// operator decision.
    pub metrics_dump: bool,
}

impl ProviderConfig {
    /// Small keys, generous windows — unit-test defaults.
    pub fn fast_test() -> Self {
        ProviderConfig {
            key_bits: 512,
            epoch_window: 4,
            validity: p2drm_pki::cert::Validity::new(0, u64::MAX / 2),
            store_shards: 8,
            verify_cache_capacity: 4096,
            metrics_dump: false,
        }
    }
}

/// The provider's immutable identity: signing keys, certificate, trust
/// anchors and configuration. Shared lock-free across threads.
pub struct ProviderCore {
    keys: p2drm_crypto::rsa::RsaKeyPair,
    cert: Certificate,
    ra_blind_key: RsaPublicKey,
    /// Cached fingerprint of `ra_blind_key` (cache-key component; hashing
    /// the key on every verification would eat into the cache win).
    ra_blind_key_fp: [u8; 32],
    config: ProviderConfig,
    /// Signature-verification cache: N requests presenting the same
    /// certificate bytes in the same epoch pay for one RSA verify.
    /// Interior-mutable and sharded, so it lives in the otherwise
    /// immutable core and is consulted lock-free-ish from every thread.
    vcache: p2drm_pki::VerifyCache,
}

/// CRL state: both revocation lists plus their sequence counters.
struct CrlState {
    pseudonym_crl: RevocationList,
    license_crl: RevocationList,
    license_crl_seq: u64,
    pseudonym_crl_seq: u64,
}

impl CrlState {
    fn empty() -> Self {
        CrlState {
            pseudonym_crl: RevocationList::new(),
            license_crl: RevocationList::new(),
            license_crl_seq: 0,
            pseudonym_crl_seq: 0,
        }
    }
}

/// The provider's mutable tables, each behind its own lock. See the
/// module docs for the locking layout. Generic over the [`ConcurrentKv`]
/// backend holding the persisted tables.
pub struct ProviderState<B: ConcurrentKv> {
    store: B,
    licenses: Table<LicenseRecord>,
    /// `spent/<license id>` → the successor a transfer issued, or `None`
    /// for a direct revocation: the row that retires an id.
    spent: Table<Option<LicenseId>>,
    rights_table: Table<Rights>,
    crl_table: Table<u64>,
    catalog: RwLock<ContentCatalog>,
    /// Trusted per-attribute RA verification keys.
    attribute_trust: RwLock<HashMap<String, RsaPublicKey>>,
    crl: RwLock<CrlState>,
    mint: Mint,
}

/// What the provider's license signing cost: values, never labels, so
/// nothing about which requests shared a batch reaches telemetry.
#[derive(Default)]
struct SignStats {
    /// Licenses signed, purchases and transfers alike.
    signatures: AtomicU64,
    /// Vertical-kernel calls those signatures took (0 where the CPU has
    /// no AVX-512 IFMA or the key is too wide for the kernel).
    kernel_calls: AtomicU64,
    /// Licenses per signing call: one sample per call.
    batch_size: p2drm_obs::AtomicHistogram,
}

/// A purchase that passed every check and was paid for: its license
/// body, waiting for the provider's signature, and whether its
/// `lic/<id>` row is new (`false` for a replay).
struct Unsigned {
    body: LicenseBody,
    fresh: bool,
}

/// The content provider, generic over its [`ConcurrentKv`] store backend.
pub struct ContentProvider<B: ConcurrentKv = MemBackend> {
    core: ProviderCore,
    state: ProviderState<B>,
    signing: SignStats,
}

/// One registry snapshot carries the provider's verify-cache, listing,
/// license-signing and store metrics together; the wire service
/// registers the provider as a weak source at construction. Names are
/// static, values are counts and durations — no pseudonyms, card ids,
/// license ids or coin serials.
impl<B: ConcurrentKv> p2drm_obs::MetricSource for ContentProvider<B> {
    fn collect(&self, out: &mut p2drm_obs::SnapshotBuilder) {
        let c = self.verify_cache_counters();
        out.counter("vcache_hits", c.hits);
        out.counter("vcache_misses", c.misses);
        out.counter("vcache_insertions", c.insertions);
        out.counter("vcache_evictions", c.evictions);
        out.counter(
            "catalog_listing_builds",
            self.state.catalog.read().listing_builds(),
        );
        let signing = &self.signing;
        out.counter(
            "license_signatures",
            signing.signatures.load(Ordering::Relaxed),
        );
        out.counter(
            "sign_kernel_calls",
            signing.kernel_calls.load(Ordering::Relaxed),
        );
        out.histogram("sign_batch_size", &signing.batch_size.snapshot());
        self.state.store.collect_metrics(out);
    }
}

impl ContentProvider<MemBackend> {
    /// Provider with a volatile store, lock-sharded per
    /// [`ProviderConfig::store_shards`].
    pub fn new<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        config: ProviderConfig,
        rng: &mut R,
    ) -> Self {
        let shards = config.store_shards.max(1);
        Self::with_backend(
            root,
            mint,
            ra_blind_key,
            MemKv::with_shards(shards),
            config,
            rng,
        )
    }
}

impl ContentProvider<WalShardedKv> {
    /// Opens a **durable** provider over a [`WalShardedKv`] directory:
    /// N per-shard write-ahead logs with group commit at
    /// `durable.policy`. All shard logs are replayed (in parallel) and
    /// any persisted catalog/rights/CRL/spent state is restored, so an
    /// existing directory reopens with its tables intact.
    ///
    /// A **fresh signing identity** is generated; licenses issued by a
    /// previous identity will not verify against the new key. For a true
    /// restart — same keys, old licenses still valid — pair
    /// [`ContentProvider::export_keys`] with
    /// [`ContentProvider::resume_durable`].
    pub fn open_durable<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        dir: impl Into<PathBuf>,
        durable: WalShardedConfig,
        config: ProviderConfig,
        rng: &mut R,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let (store, report) = WalShardedKv::open(dir, durable)?;
        let provider = Self::with_backend(root, mint, ra_blind_key, store, config, rng);
        provider.restore_from_store()?;
        Ok((provider, report))
    }

    /// The full durable restart: signing keys from the operator's vault
    /// (see [`ContentProvider::export_keys`]), state replayed from the
    /// WAL directory. Old licenses verify, spent ids stay spent, CRL
    /// sequences continue monotonically.
    pub fn resume_durable(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        dir: impl Into<PathBuf>,
        durable: WalShardedConfig,
        config: ProviderConfig,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let (store, report) = WalShardedKv::open(dir, durable)?;
        let provider = Self::assemble(keys, cert, mint, ra_blind_key, store, config);
        provider.restore_from_store()?;
        Ok((provider, report))
    }
}

impl<B: ConcurrentKv> ContentProvider<B> {
    /// Provider over any concurrent store backend — the most general
    /// constructor ([`ContentProvider::new`] and [`open_durable`] are
    /// conveniences over it).
    ///
    /// [`open_durable`]: ContentProvider::open_durable
    pub fn with_backend<R: CryptoRng + ?Sized>(
        root: &mut CertificateAuthority,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        backend: B,
        config: ProviderConfig,
        rng: &mut R,
    ) -> Self {
        let keys = p2drm_crypto::rsa::RsaKeyPair::generate(config.key_bits, rng);
        let cert = root.issue(
            p2drm_pki::cert::EntityKind::ContentProvider,
            p2drm_pki::cert::SubjectKey::Rsa(keys.public().clone()),
            config.validity,
            vec![],
        );
        Self::assemble(keys, cert, mint, ra_blind_key, backend, config)
    }

    fn assemble(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        store: B,
        config: ProviderConfig,
    ) -> Self {
        ContentProvider {
            core: ProviderCore {
                ra_blind_key_fp: ra_blind_key.fingerprint(),
                vcache: p2drm_pki::VerifyCache::new(config.verify_cache_capacity),
                keys,
                cert,
                ra_blind_key,
                config,
            },
            state: ProviderState {
                store,
                licenses: Table::new("lic/"),
                spent: Table::new("spent/"),
                rights_table: Table::new("rightst/"),
                crl_table: Table::new("crl/"),
                catalog: RwLock::new(ContentCatalog::new()),
                attribute_trust: RwLock::new(HashMap::new()),
                crl: RwLock::new(CrlState::empty()),
                mint,
            },
            signing: SignStats::default(),
        }
    }

    /// Rebuilds the in-memory mirrors (catalog entries, CRL
    /// sets/sequences) from the persisted tables in the store backend.
    /// Idempotent; called by every resume/open-durable path.
    ///
    /// An item exists once its `content/<id>` row does; `publish` writes
    /// its `rightst/<id>` row first, so a content row without one is
    /// damage, and restoring fails naming the id rather than selling the
    /// item under rights it was never published with.
    pub fn restore_from_store(&self) -> Result<(), CoreError> {
        {
            let state = &self.state;
            let mut catalog = state.catalog.write();
            for (_, row) in state.store.scan_prefix(CONTENT_PREFIX) {
                let (meta, key, nonce) = content::row_head(&row).map_err(StoreError::from)?;
                let rights = state
                    .rights_table
                    .get(&state.store, meta.id.as_bytes())?
                    .ok_or_else(|| broken_row(format!("{} has no rights template row", meta.id)))?;
                catalog.insert(CatalogEntry {
                    meta,
                    key,
                    nonce,
                    rights,
                });
            }
        }
        {
            // CRLs: "crl/l/<id>" and "crl/p/<id>" entries whose value is
            // the sequence number at which the revocation happened.
            let state = &self.state;
            let mut crl = state.crl.write();
            for (key, seq) in state.crl_table.scan(&state.store)? {
                if let Some(id_bytes) = key.strip_prefix(b"l/") {
                    if id_bytes.len() == 32 {
                        let id = KeyId(id_bytes.try_into().expect("checked width"));
                        crl.license_crl.insert(id);
                        crl.license_crl_seq = crl.license_crl_seq.max(seq);
                    }
                } else if let Some(id_bytes) = key.strip_prefix(b"p/") {
                    if id_bytes.len() == 32 {
                        let id = KeyId(id_bytes.try_into().expect("checked width"));
                        crl.pseudonym_crl.insert(id);
                        crl.pseudonym_crl_seq = crl.pseudonym_crl_seq.max(seq);
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialized private key material for the operator's key vault
    /// (pair this with [`ContentProvider::resume_durable`]). **Secret bytes.**
    pub fn export_keys(&self) -> Vec<u8> {
        p2drm_codec::to_bytes(&self.core.keys)
    }

    /// Persists one revocation, made at sequence `seq`, into the CRL
    /// table. Caller holds the CRL write lock.
    fn persist_crl_entry(&self, kind: u8, id: &KeyId, seq: u64) -> Result<(), CoreError> {
        let mut key = Vec::with_capacity(34);
        key.push(kind);
        key.push(b'/');
        key.extend_from_slice(&id.0);
        Ok(self.state.crl_table.put(&self.state.store, &key, &seq)?)
    }

    /// Writes the provider's row for an issued license: its
    /// [`LicenseRecord`], not the license, which only the buyer keeps. A
    /// replay (`fresh == false`) writes it only if a crash left it
    /// missing.
    fn persist_record(&self, license: &License, fresh: bool) -> Result<(), CoreError> {
        let (state, id) = (&self.state, license.id());
        if fresh || !state.licenses.contains(&state.store, id.as_bytes()) {
            state
                .licenses
                .put(&state.store, id.as_bytes(), &license.record())?;
        }
        Ok(())
    }

    /// License verification key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.core.keys.public()
    }

    /// Provider certificate (chains to the root).
    pub fn certificate(&self) -> &Certificate {
        &self.core.cert
    }

    /// Publishes content with a rights template applied to every sale.
    /// The packaged item (including its content key) and the template are
    /// persisted so the catalog survives [`ContentProvider::resume_durable`].
    /// A failed store write is returned and the item is not listed.
    pub fn publish<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        self.publish_with_requirement(title, price, payload, rights, None, rng)
    }

    /// Publishes attribute-restricted content (e.g. age-rated): buyers
    /// must present a credential for `attribute` bound to their pseudonym.
    pub fn publish_restricted<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        attribute: &str,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        self.publish_with_requirement(
            title,
            price,
            payload,
            rights,
            Some(attribute.to_string()),
            rng,
        )
    }

    fn publish_with_requirement<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        required_attribute: Option<String>,
        rng: &mut R,
    ) -> Result<ContentId, StoreError> {
        // Package and persist with no lock held: ChaCha20 over the whole
        // payload and two store commits must not stall downloads,
        // listings and purchases. The item becomes visible only once it
        // is durable, and the catalog write lock covers just the map
        // insert and the listing-snapshot invalidation. The template is
        // written first: the content row is what makes the item exist
        // after a restart, so a crash between the two leaves no item,
        // never one without its template.
        let item = PackagedContent::package(title, price, payload, required_attribute, rng);
        let id = item.meta.id;
        self.state
            .rights_table
            .put(&self.state.store, id.as_bytes(), &rights)?;
        self.state
            .store
            .put(&content_row_key(&id), &p2drm_codec::to_bytes(&item))?;
        // The store row is the ciphertext's only copy; the entry drops it.
        let entry = item.into_entry(rights);
        self.state.catalog.write().insert(entry);
        Ok(id)
    }

    /// Trusts an RA per-attribute verification key (operator setup).
    pub fn trust_attribute(&self, attribute: &str, key: RsaPublicKey) {
        self.state
            .attribute_trust
            .write()
            .insert(attribute.to_string(), key);
    }

    /// Checks the attribute requirement of a purchase, if any.
    fn check_attribute_requirement(
        &self,
        req: &PurchaseRequest,
        required: Option<&str>,
        now_epoch: u32,
    ) -> Result<(), CoreError> {
        let Some(attr) = required else { return Ok(()) };
        let cert = req
            .attribute_cert
            .as_ref()
            .ok_or(CoreError::BadPseudonym("attribute credential required"))?;
        if cert.attribute != attr {
            return Err(CoreError::BadPseudonym("wrong attribute credential"));
        }
        let trust = self.state.attribute_trust.read();
        let key = trust
            .get(attr)
            .ok_or(CoreError::BadPseudonym("attribute issuer not trusted"))?;
        // Cached like the pseudonym check: repeat presentations of the
        // same credential skip the RSA verify; the binding and epoch
        // checks below always re-run.
        let cache_key = p2drm_pki::VerifyCache::key(&[
            &p2drm_codec::to_bytes(cert),
            &key.fingerprint(),
            &now_epoch.to_le_bytes(),
        ]);
        self.core.vcache.verify_with(cache_key, || {
            cert.verify(key)
                .map_err(|_| CoreError::BadPseudonym("attribute signature invalid"))
        })?;
        // The credential must bind to the very pseudonym making the
        // purchase — it cannot be lent to another card.
        if cert.pseudonym_id() != req.pseudonym_cert.pseudonym_id() {
            return Err(CoreError::BadPseudonym(
                "attribute bound to a different pseudonym",
            ));
        }
        if cert.body.epoch > now_epoch
            || now_epoch - cert.body.epoch > self.core.config.epoch_window
        {
            return Err(CoreError::BadPseudonym("attribute credential epoch stale"));
        }
        Ok(())
    }

    /// Public metadata for one catalog item.
    pub fn content_meta(&self, id: &ContentId) -> Option<ContentMeta> {
        self.state
            .catalog
            .read()
            .get(id)
            .map(|item| item.meta.clone())
    }

    /// Public metadata listing (what an anonymous browser sees),
    /// id-sorted: the catalog's shared snapshot, built at most once per
    /// catalog state (see [`crate::content`]).
    pub fn list_content(&self) -> Arc<CatalogListing> {
        self.state.catalog.read().listing()
    }

    /// Validates a pseudonym certificate: RA blind signature, epoch
    /// freshness, and the pseudonym CRL.
    ///
    /// The blind-signature check consults the provider's verification
    /// cache (key = SHA-256 of cert bytes ‖ RA key fingerprint ‖ epoch),
    /// so N purchases presenting the same certificate pay for one RSA
    /// verify. Epoch freshness and the CRL are *always* re-checked — a
    /// revoked or aged-out certificate is refused even when a signature
    /// success from an earlier request (or earlier epoch bucket) is still
    /// cached.
    pub fn verify_pseudonym(
        &self,
        cert: &PseudonymCertificate,
        now_epoch: u32,
    ) -> Result<(), CoreError> {
        // Cheap structural checks first, unconditionally.
        if cert.body.epoch > now_epoch {
            return Err(CoreError::BadPseudonym("epoch in the future"));
        }
        if now_epoch - cert.body.epoch > self.core.config.epoch_window {
            return Err(CoreError::BadPseudonym("epoch too old"));
        }
        if self
            .state
            .crl
            .read()
            .pseudonym_crl
            .contains(&cert.pseudonym_id())
        {
            return Err(CoreError::BadPseudonym("pseudonym revoked"));
        }
        let key = p2drm_pki::VerifyCache::key(&[
            &p2drm_codec::to_bytes(cert),
            &self.core.ra_blind_key_fp,
            &now_epoch.to_le_bytes(),
        ]);
        self.core.vcache.verify_with(key, || {
            // Only misses reach this closure; hits return above it
            // without a marker.
            p2drm_obs::flag("vcache_miss");
            cert.verify(&self.core.ra_blind_key)
                .map_err(|_| CoreError::BadPseudonym("RA signature invalid"))
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ProviderConfig {
        &self.core.config
    }

    /// Hit/miss counters of the provider's verification cache (reported
    /// by the sim).
    pub fn verify_cache_counters(&self) -> p2drm_pki::CacheCounters {
        self.core.vcache.counters()
    }

    /// Anonymous purchase: verify pseudonym + coin, deposit, issue license.
    /// Callable from many threads at once through `&self`. Re-sending a
    /// request (same coin, pseudonym and content) answers the same
    /// license id and deposits nothing more, even once the pseudonym has
    /// aged out or been revoked; the coin under any other pseudonym or
    /// content is a double spend.
    ///
    /// The one-request case of [`ContentProvider::handle_purchase_batch`].
    pub fn handle_purchase<R: CryptoRng + ?Sized>(
        &self,
        req: &PurchaseRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        self.handle_purchase_batch(&mut [(req, rng)], now_epoch, |_| ())
            .pop()
            .expect("one result per request")
    }

    /// Several purchases at once, each with its own randomness; results
    /// in request order. Each request is checked, paid for and given its
    /// license body exactly as [`ContentProvider::handle_purchase`] does
    /// it, in order; then every body is signed by one
    /// [`RsaKeyPair::sign_batch`](p2drm_crypto::rsa::RsaKeyPair::sign_batch),
    /// whose exponentiations share the vertical kernel's lanes (eight
    /// RSA-1024 signatures are three kernel calls, where one alone is
    /// one); then each license row is written. A refused or failed
    /// request answers its own error and leaves the others alone.
    ///
    /// `scope(i)` is called just before request `i` is checked, and what
    /// it returns is dropped once that request is settled: at once for a
    /// refusal, after its row is written otherwise. Rows are written last
    /// request first, so the scopes close in the reverse of the order
    /// they opened — the nesting a thread-local tracing span needs to
    /// charge each request's stages (deposit, store commit) to its own
    /// span.
    pub fn handle_purchase_batch<R: CryptoRng + ?Sized, G>(
        &self,
        batch: &mut [(&PurchaseRequest, &mut R)],
        now_epoch: u32,
        mut scope: impl FnMut(usize) -> G,
    ) -> Vec<Result<License, CoreError>> {
        let mut scopes = Vec::with_capacity(batch.len());
        let mut checked = Vec::with_capacity(batch.len());
        for (i, (req, rng)) in batch.iter_mut().enumerate() {
            let guard = scope(i);
            let unsigned = self.prepare_purchase(req, now_epoch, &mut **rng);
            // A refusal's scope closes here, before the next one opens.
            scopes.push(unsigned.is_ok().then_some(guard));
            checked.push(unsigned);
        }
        let bodies = checked
            .iter()
            .filter_map(|u| u.as_ref().ok().map(|u| &u.body));
        let mut signatures = self.sign_licenses(bodies.collect()).into_iter();
        let mut issued: Vec<_> = checked
            .into_iter()
            .map(|unsigned| {
                unsigned.map(|Unsigned { body, fresh }| {
                    let signature = signatures.next().expect("one signature per body");
                    (License { body, signature }, fresh)
                })
            })
            .collect();
        let mut results = Vec::with_capacity(issued.len());
        while let Some(settled) = issued.pop() {
            results.push(settled.and_then(|(license, fresh)| {
                self.persist_record(&license, fresh)?;
                Ok(license)
            }));
            drop(scopes.pop());
        }
        results.reverse();
        results
    }

    /// Everything of a purchase before its signature: the checks, the
    /// deposit and the license body.
    fn prepare_purchase<R: CryptoRng + ?Sized>(
        &self,
        req: &PurchaseRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<Unsigned, CoreError> {
        let pseudonym = req.pseudonym_cert.pseudonym_id();
        let license_id = purchase_license_id(&req.coin.serial, &pseudonym, &req.content_id);
        // A replay (the serial's spent row already names this license)
        // skips the checks, which time can change: it was paid for, and
        // the license is sealed to the key its id was derived from.
        // Otherwise every check that can refuse the request runs before
        // the deposit, so a refusal never costs the buyer a coin.
        let replay = self
            .state
            .mint
            .paid_for(&req.coin.serial, license_id.as_bytes());
        if !replay {
            self.verify_pseudonym(&req.pseudonym_cert, now_epoch)?;
        }
        let (price, required, content_key, rights) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(&req.content_id)
                .ok_or(CoreError::UnknownContent(req.content_id))?;
            (
                item.meta.price,
                item.meta.required_attribute.clone(),
                item.key,
                item.rights.clone(),
            )
        };
        if !replay {
            if req.coin.denomination < price {
                return Err(CoreError::Payment(
                    p2drm_payment::PaymentError::InsufficientFunds {
                        balance: req.coin.denomination,
                        requested: price,
                    },
                ));
            }
            self.check_attribute_requirement(req, required.as_deref(), now_epoch)?;
            self.state.mint.check_coin(&req.coin)?;
        }
        // The deposit decides: fresh, a racing replay of this very
        // request, or a double spend.
        let fresh = !replay && {
            let _stage = p2drm_obs::stage("mint_deposit");
            self.state
                .mint
                .deposit_for(&req.coin, license_id.as_bytes())?
        };

        let body = LicenseBody {
            license_id,
            content_id: req.content_id,
            holder: req.pseudonym_cert.body.pseudonym_key.clone(),
            rights,
            key_envelope: envelope::seal(&req.pseudonym_cert.body.pseudonym_key, &content_key, rng),
            issued_epoch: now_epoch,
        };
        Ok(Unsigned { body, fresh })
    }

    /// The provider's signatures over `bodies`, in order, from one
    /// [`RsaKeyPair::sign_batch`](p2drm_crypto::rsa::RsaKeyPair::sign_batch);
    /// counted in the provider's [`SignStats`].
    fn sign_licenses(&self, bodies: Vec<&LicenseBody>) -> Vec<RsaSignature> {
        if bodies.is_empty() {
            return Vec::new();
        }
        let bytes: Vec<Vec<u8>> = bodies.iter().map(|b| b.signing_bytes()).collect();
        let messages: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        let calls_before = p2drm_bignum::ifma::kernel_calls();
        let signatures = self.core.keys.sign_batch(&messages);
        let calls = p2drm_bignum::ifma::kernel_calls() - calls_before;
        let stats = &self.signing;
        stats
            .signatures
            .fetch_add(messages.len() as u64, Ordering::Relaxed);
        stats.kernel_calls.fetch_add(calls, Ordering::Relaxed);
        stats.batch_size.record(messages.len() as u64);
        signatures
    }

    /// Privacy-preserving transfer: revoke the old anonymous license,
    /// issue a fresh one to the recipient pseudonym. The provider sees two
    /// pseudonyms and cannot link either to an identity.
    ///
    /// Concurrency: of N racing transfers of the same license id toward
    /// different recipients, exactly one passes the atomic spent-ID
    /// `insert_if_absent`; the rest fail with
    /// [`CoreError::AlreadyRedeemed`]. Racers toward the *same* recipient
    /// are one transfer and all receive its successor, as does a later
    /// replay even once the recipient's certificate has aged out.
    pub fn handle_transfer<R: CryptoRng + ?Sized>(
        &self,
        req: &TransferRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        req.license.verify(self.core.keys.public())?;
        let lid = req.license.id();
        // Transfer must be granted by the license's own rights.
        match req.license.body.rights.transfer {
            Limit::None => {
                return Err(CoreError::Denied(p2drm_rel::DenyReason::NotGranted(
                    p2drm_rel::Action::Transfer,
                )))
            }
            Limit::Count(0) => {
                return Err(CoreError::Denied(p2drm_rel::DenyReason::CountExhausted(
                    p2drm_rel::Action::Transfer,
                )))
            }
            _ => {}
        }
        // Holder proof: current holder signed (lid ‖ recipient key id).
        let proof_bytes = messages::transfer_proof_bytes(&lid, &req.recipient_cert.pseudonym_id());
        req.license
            .body
            .holder
            .verify(&proof_bytes, &req.proof)
            .map_err(|_| CoreError::BadProof)?;

        // The unique-ID rule: exactly one transfer of this lid ever
        // succeeds, atomically, even across restarts (WAL-backed store)
        // and across threads (check-and-set under the shard write lock).
        // A row naming this very successor is that transfer, replayed; it
        // skips the recipient check, which time can change.
        let successor = transfer_license_id(&lid, &req.recipient_cert.pseudonym_id());
        let (state, key) = (&self.state, lid.as_bytes());
        let unclaimed = state.spent.get(&state.store, key)?.is_none();
        if unclaimed {
            self.verify_pseudonym(&req.recipient_cert, now_epoch)?;
        }
        let fresh = unclaimed
            && state
                .spent
                .insert_if_absent(&state.store, key, &Some(successor))?;
        if !fresh && state.spent.get(&state.store, key)? != Some(Some(successor)) {
            return Err(CoreError::AlreadyRedeemed(lid));
        }
        {
            // Listed only once its row is written, so a replay after a
            // failed write writes it again.
            let id = license_crl_id(&lid);
            let mut crl = state.crl.write();
            if !crl.license_crl.contains(&id) {
                let seq = crl.license_crl_seq + 1;
                self.persist_crl_entry(b'l', &id, seq)?;
                crl.license_crl_seq = seq;
                crl.license_crl.insert(id);
            }
        }

        let content_key = {
            let catalog = self.state.catalog.read();
            catalog
                .get(&req.license.body.content_id)
                .ok_or(CoreError::UnknownContent(req.license.body.content_id))?
                .key
        };
        let new_rights = decrement_transfer(&req.license.body.rights);
        let body = LicenseBody {
            license_id: successor,
            content_id: req.license.body.content_id,
            holder: req.recipient_cert.body.pseudonym_key.clone(),
            rights: new_rights,
            key_envelope: envelope::seal(&req.recipient_cert.body.pseudonym_key, &content_key, rng),
            issued_epoch: now_epoch,
        };
        let signature = self
            .sign_licenses(vec![&body])
            .pop()
            .expect("one signature per body");
        let license = License { body, signature };
        self.persist_record(&license, fresh)?;
        Ok(license)
    }

    /// Anonymous content download (no authentication — the payload is
    /// useless without a license).
    ///
    /// The catalog decides whether the item exists; its ciphertext comes
    /// out of the item's `content/<id>` row, the only copy, with one
    /// store read. A listed item whose row is missing or shorter than
    /// its ciphertext is a [`CoreError::Store`], never
    /// [`CoreError::UnknownContent`] or a short payload.
    pub fn download(&self, content_id: &ContentId) -> Result<([u8; 12], Vec<u8>), CoreError> {
        let (nonce, size) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(content_id)
                .ok_or(CoreError::UnknownContent(*content_id))?;
            (item.nonce, item.meta.size)
        };
        let row = self
            .state
            .store
            .get(&content_row_key(content_id))
            .ok_or_else(|| broken_row(format!("{content_id} is listed but has no content row")))?;
        let row_len = row.len();
        let ciphertext = content::row_ciphertext(row, size).ok_or_else(|| {
            broken_row(format!(
                "{content_id}'s content row is {row_len} B, shorter than its {size} B ciphertext"
            ))
        })?;
        Ok((nonce, ciphertext))
    }

    /// Revokes a pseudonym (after TTP de-anonymization).
    pub fn revoke_pseudonym(&self, id: KeyId) -> Result<(), CoreError> {
        // Row first: a failed write leaves the served list and its
        // sequence as they were.
        let mut crl = self.state.crl.write();
        let seq = crl.pseudonym_crl_seq + 1;
        self.persist_crl_entry(b'p', &id, seq)?;
        crl.pseudonym_crl_seq = seq;
        crl.pseudonym_crl.insert(id);
        Ok(())
    }

    /// Revokes a license id directly (e.g. refund, abuse).
    pub fn revoke_license(&self, lid: &LicenseId) -> Result<(), CoreError> {
        // Claim the id in the spent table *first*: the spent-ID
        // check-and-set is the authoritative exactly-once decision shared
        // with `handle_transfer`, so a transfer racing this revocation
        // either already won (and the revocation lands on a transferred
        // license, same as the sequential order transfer-then-revoke) or
        // loses with `AlreadyRedeemed`. Without this, a transfer racing
        // the revocation could re-issue revoked content. `None` marks
        // "revoked, not transferred" (transfers store the successor id).
        let _ = self
            .state
            .spent
            .insert_if_absent(&self.state.store, lid.as_bytes(), &None)?;
        let id = license_crl_id(lid);
        let mut crl = self.state.crl.write();
        let seq = crl.license_crl_seq + 1;
        self.persist_crl_entry(b'l', &id, seq)?;
        crl.license_crl_seq = seq;
        crl.license_crl.insert(id);
        Ok(())
    }

    /// Authoritative status of a license id: `Active` (with its holder),
    /// `Transferred`, `Revoked` or `Unknown`. License ids are derived
    /// from a secret coin serial (or from such an id), so only a party
    /// already holding the id can ask about it.
    ///
    /// `Unknown` means the id has no row at all. A row that is present
    /// but unreadable — a store fault, a truncated value, a directory
    /// written in another layout — is an error, never "not issued".
    pub fn license_status(&self, lid: &LicenseId) -> Result<LicenseStatus, CoreError> {
        // The spent table is the authoritative exactly-once record; its
        // value distinguishes a committed transfer (the successor id)
        // from a direct revocation (`None`, see `revoke_license`).
        if let Some(successor) = self.state.spent.get(&self.state.store, lid.as_bytes())? {
            return Ok(match successor {
                Some(_) => LicenseStatus::Transferred,
                None => LicenseStatus::Revoked,
            });
        }
        if self
            .state
            .crl
            .read()
            .license_crl
            .contains(&license_crl_id(lid))
        {
            return Ok(LicenseStatus::Revoked);
        }
        let record = self.state.licenses.get(&self.state.store, lid.as_bytes())?;
        Ok(
            record.map_or(LicenseStatus::Unknown, |r| LicenseStatus::Active {
                holder: r.holder,
            }),
        )
    }

    /// Signed license CRL for full device sync.
    pub fn signed_license_crl(&self, issued_at: u64) -> SignedCrl {
        let crl = self.state.crl.read();
        SignedCrl::create(
            &self.core.keys,
            crl.license_crl_seq,
            issued_at,
            crl.license_crl.clone(),
        )
    }

    /// Signed pseudonym CRL for full device sync.
    pub fn signed_pseudonym_crl(&self, issued_at: u64) -> SignedCrl {
        let crl = self.state.crl.read();
        SignedCrl::create(
            &self.core.keys,
            crl.pseudonym_crl_seq,
            issued_at,
            crl.pseudonym_crl.clone(),
        )
    }

    /// Licenses issued so far.
    pub fn license_count(&self) -> usize {
        self.state.licenses.len(&self.state.store)
    }

    /// Spent license ids so far: transferred/redeemed or directly
    /// revoked — every id that can never be redeemed again.
    pub fn spent_count(&self) -> usize {
        self.state.spent.len(&self.state.store)
    }

    /// Direct backend access (storage metrics in E6, maintenance such as
    /// compaction via [`WalShardedKv::compact_all`]).
    pub fn store(&self) -> &B {
        &self.state.store
    }
}

/// Key prefix of the `content/<id>` rows: each a [`PackagedContent`]
/// encoding, the one copy of the item's ciphertext.
const CONTENT_PREFIX: &[u8] = b"content/";

fn content_row_key(id: &ContentId) -> Vec<u8> {
    [CONTENT_PREFIX, id.as_bytes()].concat()
}

/// A row the catalog relies on is missing or unreadable: a store error
/// (`Storage` on the wire), like any other damaged state.
fn broken_row(detail: String) -> CoreError {
    CoreError::Store(StoreError::Corrupt { offset: 0, detail })
}

/// License ids enter CRLs as their SHA-256 [`KeyId`] image.
pub fn license_crl_id(lid: &LicenseId) -> KeyId {
    digest_id(lid.as_bytes())
}

/// The id of the license a purchase issues: `SHA-256("p2drm/purchase" ‖
/// coin serial ‖ pseudonym key id ‖ content id)[..16]`. Unguessable
/// without the coin's secret serial, and the same for a re-sent request.
pub fn purchase_license_id(serial: &[u8; 32], pseudonym: &KeyId, content: &ContentId) -> LicenseId {
    derive_license_id(&[b"p2drm/purchase", serial, &pseudonym.0, content.as_bytes()])
}

/// The id of a transfer's successor license: `SHA-256("p2drm/transfer" ‖
/// old id ‖ recipient key id)[..16]`.
pub fn transfer_license_id(old: &LicenseId, recipient: &KeyId) -> LicenseId {
    derive_license_id(&[b"p2drm/transfer", old.as_bytes(), &recipient.0])
}

fn derive_license_id(parts: &[&[u8]]) -> LicenseId {
    let digest = p2drm_crypto::sha256::sha256_concat(parts);
    LicenseId(digest[..16].try_into().expect("a digest is 32 bytes"))
}

/// Transfer semantics: the fresh license carries one fewer transfer use.
fn decrement_transfer(rights: &Rights) -> Rights {
    let mut r = rights.clone();
    r.transfer = match r.transfer {
        Limit::None => Limit::None,
        Limit::Count(n) => Limit::Count(n.saturating_sub(1)),
        Limit::Unlimited => Limit::Unlimited,
    };
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decrement_transfer_semantics() {
        let r = Rights::builder().transfer(Limit::Count(2)).build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::Count(1));
        let r = Rights::builder().transfer(Limit::Unlimited).build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::Unlimited);
        let r = Rights::builder().build();
        assert_eq!(decrement_transfer(&r).transfer, Limit::None);
    }

    #[test]
    fn license_crl_id_is_stable() {
        let lid = LicenseId::from_label("x");
        assert_eq!(license_crl_id(&lid), license_crl_id(&lid));
        assert_ne!(
            license_crl_id(&lid),
            license_crl_id(&LicenseId::from_label("y"))
        );
    }

    #[test]
    fn provider_is_sync_over_sync_backends() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ContentProvider<MemBackend>>();
        assert_sync::<ContentProvider<WalShardedKv>>();
    }
}
