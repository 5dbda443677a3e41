//! The content provider / license server.
//!
//! Sells content to **pseudonyms**: verifies blind-issued certificates,
//! deposits anonymous coins, issues uniquely-identified anonymous licenses,
//! executes privacy-preserving transfers, and maintains the spent-ID store
//! that makes each license id redeemable exactly once.
//!
//! # Concurrency architecture: core / state split
//!
//! The provider is the system's only serialization point — every purchase
//! must atomically consult the spent-ID store and sign a license — so it
//! is built as a **shared-state concurrent service**. One logical
//! [`ContentProvider`] serves N client threads through `&self`:
//!
//! * [`ProviderCore`] (`core` field) — the immutable identity: signing
//!   key pair, certificate, root/RA trust anchors, configuration. Written
//!   once at construction, read lock-free from every thread.
//! * [`ProviderState`] (`state` field) — the mutable tables, each behind
//!   its own lock so unrelated operations never contend:
//!   - the KV **backend** (any [`ConcurrentKv`]) holding the **spent-ID
//!     set**, one [`LicenseRecord`] per issued id (the holder's key id —
//!     the signed license itself leaves with the buyer and is not
//!     kept), persisted catalog/rights/CRL tables;
//!     `insert_if_absent` (the double-redemption primitive) is atomic per
//!     key inside the backend;
//!   - the in-memory catalog + rights templates (`RwLock`, read-mostly;
//!     the catalog's listing snapshot is built and read under the read
//!     lock, and `publish` takes the write lock only for the map insert
//!     — packaging and persistence happen before it);
//!   - trusted attribute keys (`RwLock`, read-mostly);
//!   - CRL state — both revocation lists, their sequence numbers and
//!     event logs — under one `RwLock` (revocation is rare, CRL reads are
//!     cheap);
//!   - the purchase/transfer observation logs (`Mutex`, append-only).
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

use crate::content::{CatalogListing, ContentCatalog, ContentMeta, PackagedContent};
use crate::ids::{ContentId, LicenseId};
use crate::license::{License, LicenseBody, LicenseRecord};
use crate::protocol::messages::{self, LicenseStatus, PurchaseRequest, TransferRequest};
use crate::CoreError;
use p2drm_crypto::envelope;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::RsaPublicKey;
use p2drm_payment::Mint;
use p2drm_pki::authority::CertificateAuthority;
use p2drm_pki::cert::{digest_id, Certificate, KeyId, PseudonymCertificate};
use p2drm_pki::crl::{RevocationList, SignedCrl};
use p2drm_rel::{Limit, Rights};
use p2drm_store::typed::Table;
use p2drm_store::{ConcurrentKv, MemKv, RecoveryReport, WalShardedConfig, WalShardedKv};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
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

/// What the provider logs per sale — the adversarial-provider view used by
/// the linkability experiment (E7). Note: pseudonym ids only, no identity.
#[derive(Clone, Debug)]
pub struct PurchaseRecord {
    /// Buyer pseudonym.
    pub pseudonym: KeyId,
    /// What was bought.
    pub content: ContentId,
    /// When (epoch granularity).
    pub epoch: u32,
}

/// A transfer the provider witnessed: two pseudonyms, no identities.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// Old holder pseudonym.
    pub from_pseudonym: KeyId,
    /// New holder pseudonym.
    pub to_pseudonym: KeyId,
    /// Content involved.
    pub content: ContentId,
}

/// The provider's immutable identity: signing keys, certificate, trust
/// anchors and configuration. Shared lock-free across threads.
pub struct ProviderCore {
    keys: p2drm_crypto::rsa::RsaKeyPair,
    cert: Certificate,
    root_key: RsaPublicKey,
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
    spent: Table<u32>,
    content_table: Table<PackagedContent>,
    rights_table: Table<Rights>,
    crl_table: Table<u64>,
    catalog: RwLock<ContentCatalog>,
    rights_templates: RwLock<HashMap<ContentId, Rights>>,
    /// Trusted per-attribute RA verification keys.
    attribute_trust: RwLock<HashMap<String, RsaPublicKey>>,
    crl: RwLock<CrlState>,
    purchase_log: Mutex<Vec<PurchaseRecord>>,
    transfer_log: Mutex<Vec<TransferRecord>>,
    mint: Mint,
}

/// The content provider, generic over its [`ConcurrentKv`] store backend.
pub struct ContentProvider<B: ConcurrentKv = MemBackend> {
    core: ProviderCore,
    state: ProviderState<B>,
}

/// One registry snapshot carries the provider's verify-cache, listing
/// and store metrics together; the wire service registers the provider
/// as a weak source at construction. Names are static, values are counts and
/// durations — no pseudonyms, card ids, license ids or coin serials.
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
    #[allow(clippy::too_many_arguments)]
    pub fn resume_durable(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        root_key: RsaPublicKey,
        mint: Mint,
        ra_blind_key: RsaPublicKey,
        dir: impl Into<PathBuf>,
        durable: WalShardedConfig,
        config: ProviderConfig,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let (store, report) = WalShardedKv::open(dir, durable)?;
        let provider = Self::assemble(keys, cert, root_key, mint, ra_blind_key, store, config);
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
        let root_key = root.public_key().clone();
        Self::assemble(keys, cert, root_key, mint, ra_blind_key, backend, config)
    }

    fn assemble(
        keys: p2drm_crypto::rsa::RsaKeyPair,
        cert: Certificate,
        root_key: RsaPublicKey,
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
                root_key,
                ra_blind_key,
                config,
            },
            state: ProviderState {
                store,
                licenses: Table::new("lic/"),
                spent: Table::new("spent/"),
                content_table: Table::new("content/"),
                rights_table: Table::new("rightst/"),
                crl_table: Table::new("crl/"),
                catalog: RwLock::new(ContentCatalog::new()),
                rights_templates: RwLock::new(HashMap::new()),
                attribute_trust: RwLock::new(HashMap::new()),
                crl: RwLock::new(CrlState::empty()),
                purchase_log: Mutex::new(Vec::new()),
                transfer_log: Mutex::new(Vec::new()),
                mint,
            },
        }
    }

    /// Rebuilds the in-memory mirrors (catalog, rights templates, CRL
    /// sets/sequences) from the persisted tables in the store backend.
    /// Idempotent; called by every resume/open-durable path.
    pub fn restore_from_store(&self) -> Result<(), CoreError> {
        {
            // Catalog + rights templates.
            let state = &self.state;
            let mut catalog = state.catalog.write();
            let mut templates = state.rights_templates.write();
            for (_, item) in state.content_table.scan(&state.store)? {
                templates.insert(
                    item.meta.id,
                    state
                        .rights_table
                        .get(&state.store, item.meta.id.as_bytes())?
                        .unwrap_or_else(Rights::standard_purchase),
                );
                catalog.restore(item);
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

    /// Persists one revocation into the CRL table. Caller holds the CRL
    /// write lock and has already bumped the relevant sequence counter.
    fn persist_crl_entry(&self, crl: &CrlState, kind: u8, id: &KeyId) -> Result<(), CoreError> {
        let seq = match kind {
            b'l' => crl.license_crl_seq,
            _ => crl.pseudonym_crl_seq,
        };
        let mut key = Vec::with_capacity(34);
        key.push(kind);
        key.push(b'/');
        key.extend_from_slice(&id.0);
        Ok(self.state.crl_table.put(&self.state.store, &key, &seq)?)
    }

    /// Writes the provider's row for a freshly issued license: its
    /// [`LicenseRecord`], not the license, which only the buyer keeps.
    fn persist_record(&self, license: &License) -> Result<(), CoreError> {
        let (state, row) = (&self.state, license.record());
        Ok(state
            .licenses
            .put(&state.store, license.id().as_bytes(), &row)?)
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
    pub fn publish<R: CryptoRng + ?Sized>(
        &self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rights: Rights,
        rng: &mut R,
    ) -> ContentId {
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
    ) -> ContentId {
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
    ) -> ContentId {
        // Package and persist with no lock held: ChaCha20 over the whole
        // payload and two store commits must not stall downloads,
        // listings and purchases. The item becomes visible only once it
        // is durable, and the catalog write lock covers just the two map
        // inserts and the listing-snapshot invalidation.
        let item = PackagedContent::package(title, price, payload, required_attribute, rng);
        let id = item.meta.id;
        self.state
            .content_table
            .put(&self.state.store, id.as_bytes(), &item)
            .expect("catalog persistence");
        self.state
            .rights_table
            .put(&self.state.store, id.as_bytes(), &rights)
            .expect("template persistence");
        let mut catalog = self.state.catalog.write();
        catalog.restore(item);
        self.state.rights_templates.write().insert(id, rights);
        id
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
    /// Callable from many threads at once through `&self`.
    pub fn handle_purchase<R: CryptoRng + ?Sized>(
        &self,
        req: &PurchaseRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        // Every check that can refuse the request runs before the deposit,
        // the first side effect, so a refusal never costs the buyer a coin.
        self.verify_pseudonym(&req.pseudonym_cert, now_epoch)?;
        let (price, required, content_key) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(&req.content_id)
                .ok_or(CoreError::UnknownContent(req.content_id))?;
            (
                item.meta.price,
                item.meta.required_attribute.clone(),
                item.key,
            )
        };
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
        // A double-spent coin is rejected here by the mint's spent store
        // (its signature was checked just above).
        {
            let _stage = p2drm_obs::stage("mint_deposit");
            self.state.mint.deposit_prechecked(&req.coin)?;
        }

        let rights = self
            .state
            .rights_templates
            .read()
            .get(&req.content_id)
            .cloned()
            .unwrap_or_else(Rights::standard_purchase);
        let body = LicenseBody {
            license_id: LicenseId::random(rng),
            content_id: req.content_id,
            holder: req.pseudonym_cert.body.pseudonym_key.clone(),
            rights,
            key_envelope: envelope::seal(&req.pseudonym_cert.body.pseudonym_key, &content_key, rng),
            issued_epoch: now_epoch,
        };
        let license = License::issue(body, &self.core.keys);
        self.persist_record(&license)?;
        self.state.purchase_log.lock().push(PurchaseRecord {
            pseudonym: req.pseudonym_cert.pseudonym_id(),
            content: req.content_id,
            epoch: now_epoch,
        });
        Ok(license)
    }

    /// Privacy-preserving transfer: revoke the old anonymous license,
    /// issue a fresh one to the recipient pseudonym. The provider sees two
    /// pseudonyms and cannot link either to an identity.
    ///
    /// Concurrency: of N racing transfers of the same license id, exactly
    /// one passes the atomic spent-ID `insert_if_absent`; the rest fail
    /// with [`CoreError::AlreadyRedeemed`].
    pub fn handle_transfer<R: CryptoRng + ?Sized>(
        &self,
        req: &TransferRequest,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        req.license.verify(self.core.keys.public())?;
        self.verify_pseudonym(&req.recipient_cert, now_epoch)?;
        let lid = req.license.id();
        // Fast-path reject for ids already revoked (the authoritative
        // exactly-once decision is the spent-ID insert below).
        if self
            .state
            .crl
            .read()
            .license_crl
            .contains(&license_crl_id(&lid))
        {
            return Err(CoreError::AlreadyRedeemed(lid));
        }
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
        let fresh =
            self.state
                .spent
                .insert_if_absent(&self.state.store, lid.as_bytes(), &now_epoch)?;
        if !fresh {
            return Err(CoreError::AlreadyRedeemed(lid));
        }
        {
            let mut crl = self.state.crl.write();
            crl.license_crl.insert(license_crl_id(&lid));
            crl.license_crl_seq += 1;
            self.persist_crl_entry(&crl, b'l', &license_crl_id(&lid))?;
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
            license_id: LicenseId::random(rng),
            content_id: req.license.body.content_id,
            holder: req.recipient_cert.body.pseudonym_key.clone(),
            rights: new_rights,
            key_envelope: envelope::seal(&req.recipient_cert.body.pseudonym_key, &content_key, rng),
            issued_epoch: now_epoch,
        };
        let license = License::issue(body, &self.core.keys);
        self.persist_record(&license)?;
        self.state.transfer_log.lock().push(TransferRecord {
            from_pseudonym: KeyId::of_rsa(&req.license.body.holder),
            to_pseudonym: req.recipient_cert.pseudonym_id(),
            content: req.license.body.content_id,
        });
        Ok(license)
    }

    /// Domain purchase (authorized-domain extension, `p2drm-domain`):
    /// sells a license bound to a **domain manager key**. The provider
    /// verifies the manager is a certified domain manager and takes an
    /// anonymous coin; it learns "domain D bought X" but never which
    /// devices or people compose the domain.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_domain_purchase<R: CryptoRng + ?Sized>(
        &self,
        manager_cert: &Certificate,
        coin: &p2drm_payment::Coin,
        content_id: ContentId,
        domain_name: &str,
        now: u64,
        now_epoch: u32,
        rng: &mut R,
    ) -> Result<License, CoreError> {
        manager_cert.verify(&self.core.root_key, now)?;
        if manager_cert.body.extension("domain-manager").is_none() {
            return Err(CoreError::BadLicense("not a certified domain manager"));
        }
        let manager_key = manager_cert.body.subject_key.as_rsa()?.clone();
        let (price, content_key) = {
            let catalog = self.state.catalog.read();
            let item = catalog
                .get(&content_id)
                .ok_or(CoreError::UnknownContent(content_id))?;
            (item.meta.price, item.key)
        };
        if coin.denomination < price {
            return Err(CoreError::Payment(
                p2drm_payment::PaymentError::InsufficientFunds {
                    balance: coin.denomination,
                    requested: price,
                },
            ));
        }
        self.state.mint.deposit(coin)?;

        let mut rights = self
            .state
            .rights_templates
            .read()
            .get(&content_id)
            .cloned()
            .unwrap_or_else(Rights::standard_purchase);
        rights.domain = Some(domain_name.to_string());
        let body = LicenseBody {
            license_id: LicenseId::random(rng),
            content_id,
            holder: manager_key.clone(),
            rights,
            key_envelope: envelope::seal(&manager_key, &content_key, rng),
            issued_epoch: now_epoch,
        };
        let license = License::issue(body, &self.core.keys);
        self.persist_record(&license)?;
        self.state.purchase_log.lock().push(PurchaseRecord {
            pseudonym: KeyId::of_rsa(&manager_key),
            content: content_id,
            epoch: now_epoch,
        });
        Ok(license)
    }

    /// Anonymous content download (no authentication — the payload is
    /// useless without a license).
    pub fn download(&self, content_id: &ContentId) -> Result<([u8; 12], Vec<u8>), CoreError> {
        let catalog = self.state.catalog.read();
        let item = catalog
            .get(content_id)
            .ok_or(CoreError::UnknownContent(*content_id))?;
        Ok((item.nonce, item.ciphertext.clone()))
    }

    /// Revokes a pseudonym (after TTP de-anonymization).
    pub fn revoke_pseudonym(&self, id: KeyId) -> Result<(), CoreError> {
        let mut crl = self.state.crl.write();
        crl.pseudonym_crl.insert(id);
        crl.pseudonym_crl_seq += 1;
        self.persist_crl_entry(&crl, b'p', &id)
    }

    /// Revokes a license id directly (e.g. refund, abuse).
    pub fn revoke_license(&self, lid: &LicenseId) -> Result<(), CoreError> {
        // Claim the id in the spent table *first*: the spent-ID
        // check-and-set is the authoritative exactly-once decision shared
        // with `handle_transfer`, so a transfer racing this revocation
        // either already won (and the revocation lands on a transferred
        // license, same as the sequential order transfer-then-revoke) or
        // loses with `AlreadyRedeemed`. Without this, a transfer could
        // pass the CRL fast-path read just before the revocation commits
        // and re-issue revoked content. `u32::MAX` marks "revoked, not
        // transferred" (transfers store the transfer epoch).
        let _ = self
            .state
            .spent
            .insert_if_absent(&self.state.store, lid.as_bytes(), &u32::MAX)?;
        let id = license_crl_id(lid);
        let mut crl = self.state.crl.write();
        crl.license_crl.insert(id);
        crl.license_crl_seq += 1;
        self.persist_crl_entry(&crl, b'l', &id)
    }

    /// Authoritative status of a license id — the reconciliation query
    /// for ambiguous wire outcomes: a client whose transfer response was
    /// lost re-asks here whether the old id committed (`Transferred`) or
    /// is still `Active`. License ids are 16 unguessable random bytes,
    /// so only a party already holding the id can ask about it.
    ///
    /// `Unknown` means the id has no row at all. A row that is present
    /// but unreadable — a store fault, a truncated value, a directory
    /// written in another layout — is an error, never "not issued".
    pub fn license_status(&self, lid: &LicenseId) -> Result<LicenseStatus, CoreError> {
        // The spent table is the authoritative exactly-once record; its
        // value distinguishes a committed transfer (the transfer epoch)
        // from a direct revocation (`u32::MAX`, see `revoke_license`).
        if let Some(mark) = self.state.spent.get(&self.state.store, lid.as_bytes())? {
            return Ok(if mark == u32::MAX {
                LicenseStatus::Revoked
            } else {
                LicenseStatus::Transferred
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

    /// Snapshot of the adversarial-provider purchase view.
    pub fn purchase_log(&self) -> Vec<PurchaseRecord> {
        self.state.purchase_log.lock().clone()
    }

    /// Snapshot of the adversarial-provider transfer view.
    pub fn transfer_log(&self) -> Vec<TransferRecord> {
        self.state.transfer_log.lock().clone()
    }

    /// Direct backend access (storage metrics in E6, maintenance such as
    /// compaction via [`WalShardedKv::compact_all`]).
    pub fn store(&self) -> &B {
        &self.state.store
    }
}

/// License ids enter CRLs as their SHA-256 [`KeyId`] image.
pub fn license_crl_id(lid: &LicenseId) -> KeyId {
    digest_id(lid.as_bytes())
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
