//! Content packaging: every catalog item is encrypted once under its own
//! ChaCha20 content key; licenses carry that key sealed to the holder.
//!
//! # One copy of each item
//!
//! The provider persists each item as one `content/<id>` row, the
//! [`PackagedContent`] encoding, whose last field is the ciphertext. That
//! row is the only copy of the ciphertext: the in-memory
//! [`ContentCatalog`] holds one [`CatalogEntry`] per item — metadata,
//! content key, nonce and rights template — and a download takes the
//! ciphertext out of the row ([`row_ciphertext`]), while a restart reads
//! entries back from the rows' heads ([`row_head`]) without copying it.
//!
//! # The listing snapshot
//!
//! The anonymous catalogue listing carries no identity — it is the same
//! byte string for whoever asks — so [`ContentCatalog`] answers it from
//! an immutable [`CatalogListing`]: the id-sorted metadata of one catalog
//! state together with its wire encoding, behind an [`Arc`].
//!
//! * **Who builds:** the first [`ContentCatalog::listing`] call after a
//!   change, under whatever shared access the caller already holds (the
//!   provider's catalog read lock); racing first readers wait for the one
//!   build instead of repeating it.
//! * **Who invalidates:** the one mutator, [`ContentCatalog::insert`] — it
//!   takes `&mut self`, so no reader can observe a snapshot older than
//!   the map it was handed with.
//! * **Why lazy:** publishing n items in a row sorts and encodes once,
//!   at the first listing, not n times — bulk publishing stays linear.
//!
//! The snapshot's lifetime *is* the catalog state: there is no TTL, size
//! limit or switch. A reply holding the `Arc` stays valid (and stays the
//! listing of the state it was taken from) however many publishes follow.
//!
//! Packaging ([`PackagedContent::package`]: the ChaCha20 pass over the
//! whole payload) needs no catalog access, so the provider's `publish`
//! runs it — and the durable write of the packaged item — *before*
//! taking its catalog write lock, which then covers only the map insert
//! and the snapshot invalidation.

use crate::ids::ContentId;
use p2drm_codec::{CodecError, Decode, Reader, Writer};
use p2drm_crypto::chacha20;
use p2drm_crypto::rng::CryptoRng;
use p2drm_rel::Rights;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

p2drm_codec::record! {
    /// Public catalog metadata for one item.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ContentMeta {
        /// Catalog id.
        pub id: ContentId,
        /// Display title.
        pub title: String,
        /// Price in minor units.
        pub price: u64,
        /// Ciphertext size (what a client downloads).
        pub size: usize,
        /// Attribute buyers must prove (e.g. "adult"); None = unrestricted.
        pub required_attribute: Option<String>,
    }
}

p2drm_codec::record! {
    /// A packaged item: metadata + ciphertext + (provider-held) content key.
    /// Its encoding is the item's `content/<id>` row: it holds **the content
    /// key**, so it is provider-side persistence only, never wire bytes.
    pub struct PackagedContent {
        /// Public metadata.
        pub meta: ContentMeta,
        /// ChaCha20 content key — **provider secret**, leaves only inside
        /// license envelopes.
        pub key: [u8; 32],
        /// Per-item nonce.
        pub nonce: [u8; 12],
        /// The protected payload.
        pub ciphertext: Vec<u8>,
    }
}

impl PackagedContent {
    /// Encrypts `payload` under a fresh content key. Draws the id, the
    /// key and the nonce from `rng`, in that order.
    pub fn package<R: CryptoRng + ?Sized>(
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        required_attribute: Option<String>,
        rng: &mut R,
    ) -> Self {
        let id = ContentId::random(rng);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let ciphertext = chacha20::encrypt(&key, &nonce, payload);
        PackagedContent {
            meta: ContentMeta {
                id,
                title: title.into(),
                price,
                size: ciphertext.len(),
                required_attribute,
            },
            key,
            nonce,
            ciphertext,
        }
    }

    /// The catalog entry for this item under the rights template
    /// `rights`. The ciphertext is dropped: the provider persists the
    /// item before it builds the entry.
    pub fn into_entry(self, rights: Rights) -> CatalogEntry {
        CatalogEntry {
            meta: self.meta,
            key: self.key,
            nonce: self.nonce,
            rights,
        }
    }
}

/// The fields of a `content/<id>` row (a [`PackagedContent`] encoding)
/// that precede its ciphertext: the metadata, the content key and the
/// nonce. The ciphertext field is checked — `meta.size` bytes that end
/// the row — but not copied.
pub fn row_head(row: &[u8]) -> p2drm_codec::Result<(ContentMeta, [u8; 32], [u8; 12])> {
    let mut r = Reader::new(row);
    let meta = ContentMeta::decode(&mut r)?;
    let key = <[u8; 32]>::decode(&mut r)?;
    let nonce = <[u8; 12]>::decode(&mut r)?;
    let ciphertext = r.get_bytes()?;
    if ciphertext.len() != meta.size {
        return Err(CodecError::BadLength(ciphertext.len() as u64));
    }
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok((meta, key, nonce))
}

/// The ciphertext of an item of `size` bytes, taken from its
/// `content/<id>` row: the ciphertext is the row's last field, so it is
/// the row's last `size` bytes, moved to the front of the row's own
/// buffer — no decode and no second buffer. `None` when the row is
/// shorter than `size`.
pub fn row_ciphertext(mut row: Vec<u8>, size: usize) -> Option<Vec<u8>> {
    let start = row.len().checked_sub(size)?;
    row.drain(..start);
    Some(row)
}

/// The public listing of one catalog state: the id-sorted metadata and
/// its wire encoding (what [`Writer::put_seq`] emits for it), built
/// together so the two can never disagree. See the module docs.
#[derive(Debug)]
pub struct CatalogListing {
    metas: Vec<ContentMeta>,
    encoded: Vec<u8>,
}

impl CatalogListing {
    fn build<'a>(metas: impl Iterator<Item = &'a ContentMeta>) -> Self {
        let mut metas: Vec<ContentMeta> = metas.cloned().collect();
        metas.sort_by_key(|m| m.id);
        let mut w = Writer::new();
        w.put_seq(&metas);
        CatalogListing {
            metas,
            encoded: w.into_bytes(),
        }
    }

    /// The items, id-sorted.
    pub fn metas(&self) -> &[ContentMeta] {
        &self.metas
    }

    /// The items' sequence encoding, byte for byte what
    /// [`Writer::put_seq`] writes for [`CatalogListing::metas`].
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }
}

/// The catalog's entry for one item: everything the provider needs to
/// list, sell and serve it except the ciphertext, which only the item's
/// `content/<id>` row holds.
pub struct CatalogEntry {
    /// Public metadata.
    pub meta: ContentMeta,
    /// ChaCha20 content key — **provider secret**, leaves only inside
    /// license envelopes.
    pub key: [u8; 32],
    /// Per-item nonce.
    pub nonce: [u8; 12],
    /// The rights every sale of the item carries.
    pub rights: Rights,
}

/// The provider's content catalog: one [`CatalogEntry`] per item.
#[derive(Default)]
pub struct ContentCatalog {
    items: HashMap<ContentId, CatalogEntry>,
    /// The listing of the current `items`; empty after a change until the
    /// next [`ContentCatalog::listing`] call.
    listing: OnceLock<Arc<CatalogListing>>,
    listing_builds: AtomicU64,
}

impl ContentCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an item.
    pub fn get(&self, id: &ContentId) -> Option<&CatalogEntry> {
        self.items.get(id)
    }

    /// Inserts an item's entry (the provider's publish and restore paths)
    /// and invalidates the listing snapshot.
    pub fn insert(&mut self, entry: CatalogEntry) {
        self.items.insert(entry.meta.id, entry);
        self.listing = OnceLock::new();
    }

    /// Public metadata listing (what an anonymous browser sees),
    /// id-sorted: the snapshot of the current state, built here if this
    /// is the first call since the catalog changed.
    pub fn listing(&self) -> Arc<CatalogListing> {
        Arc::clone(self.listing.get_or_init(|| {
            self.listing_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(CatalogListing::build(self.items.values().map(|p| &p.meta)))
        }))
    }

    /// How many listing snapshots this catalog has built — one per
    /// catalog state that was ever listed, never one per request.
    pub fn listing_builds(&self) -> u64 {
        self.listing_builds.load(Ordering::Relaxed)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Decrypts a downloaded payload with an unwrapped content key — the final
/// step a compliant device performs after license checks pass.
pub fn decrypt_payload(key: &[u8; 32], nonce: &[u8; 12], ciphertext: &[u8]) -> Vec<u8> {
    chacha20::decrypt(key, nonce, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2drm_crypto::rng::test_rng;

    /// Packages `payload` and inserts its entry, as the provider's
    /// publish does after persisting the row.
    fn add<R: CryptoRng + ?Sized>(
        cat: &mut ContentCatalog,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        required_attribute: Option<String>,
        rng: &mut R,
    ) -> ContentId {
        let item = PackagedContent::package(title, price, payload, required_attribute, rng);
        let id = item.meta.id;
        cat.insert(item.into_entry(Rights::standard_purchase()));
        id
    }

    #[test]
    fn items_have_distinct_keys() {
        let mut rng = test_rng(121);
        let a = PackagedContent::package("A", 1, b"xxxx", None, &mut rng);
        let b = PackagedContent::package("B", 2, b"xxxx", None, &mut rng);
        assert_ne!(a.key, b.key);
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn a_row_yields_its_head_and_its_ciphertext_without_a_full_decode() {
        let mut rng = test_rng(126);
        for len in [0usize, 1, 127, 128, 16 * 1024] {
            let payload = vec![0xA5; len];
            let attr = (len % 2 == 1).then(|| "adult".to_string());
            let item = PackagedContent::package("T", 7, &payload, attr, &mut rng);
            let row = p2drm_codec::to_bytes(&item);
            let full: PackagedContent = p2drm_codec::from_bytes(&row).unwrap();

            let (meta, key, nonce) = row_head(&row).unwrap();
            assert_eq!((&meta, key, nonce), (&full.meta, full.key, full.nonce));
            let ciphertext = row_ciphertext(row.clone(), meta.size).unwrap();
            assert_eq!(ciphertext, full.ciphertext, "{len} bytes");

            // A row cut short is refused by both readers.
            assert!(row_head(&row[..row.len() - 1]).is_err());
            assert!(row_ciphertext(vec![0; len], len + 1).is_none());
        }
        assert_eq!(row_ciphertext(vec![1, 2, 3], 0), Some(Vec::new()));
    }

    #[test]
    fn listing_is_sorted_and_metadata_only() {
        let mut rng = test_rng(122);
        let mut cat = ContentCatalog::new();
        for i in 0..5 {
            add(&mut cat, format!("T{i}"), i, b"data", None, &mut rng);
        }
        let listing = cat.listing();
        let list = listing.metas();
        assert_eq!(list.len(), 5);
        assert!(list.windows(2).all(|w| w[0].id <= w[1].id));
        assert_eq!(cat.len(), 5);
    }

    /// What the listing path computed before the snapshot existed:
    /// collect, sort, clone, encode — per call.
    fn fresh_listing(cat: &ContentCatalog) -> (Vec<ContentMeta>, Vec<u8>) {
        let mut metas: Vec<ContentMeta> = cat.items.values().map(|p| p.meta.clone()).collect();
        metas.sort_by_key(|m| m.id);
        let mut w = Writer::new();
        w.put_seq(&metas);
        (metas, w.into_bytes())
    }

    #[test]
    fn snapshot_equals_a_fresh_sort_and_encode_at_every_size() {
        let mut rng = test_rng(123);
        let mut cat = ContentCatalog::new();
        for n in 0..=256usize {
            if [0, 1, 2, 256].contains(&n) {
                let (metas, encoded) = fresh_listing(&cat);
                let listing = cat.listing();
                assert_eq!(listing.metas(), metas, "{n} items");
                assert_eq!(listing.encoded(), encoded, "{n} items");
                let decoded: Vec<ContentMeta> = Reader::new(listing.encoded()).get_seq().unwrap();
                assert_eq!(decoded, metas);
            }
            let attr = (n % 3 == 0).then(|| "adult".to_string());
            add(
                &mut cat,
                format!("Item {n:03}"),
                n as u64,
                b"x",
                attr,
                &mut rng,
            );
        }
    }

    #[test]
    fn snapshot_is_built_once_per_state_and_old_handles_stay_valid() {
        let mut rng = test_rng(124);
        let mut cat = ContentCatalog::new();
        add(&mut cat, "A", 1, b"a", None, &mut rng);
        add(&mut cat, "B", 2, b"b", None, &mut rng);
        assert_eq!(cat.listing_builds(), 0, "inserting alone builds nothing");
        let first = cat.listing();
        for _ in 0..1_000 {
            assert!(Arc::ptr_eq(&first, &cat.listing()));
        }
        assert_eq!(cat.listing_builds(), 1);

        add(&mut cat, "C", 3, b"c", None, &mut rng);
        assert_eq!(cat.listing_builds(), 1, "invalidation is not a build");
        let second = cat.listing();
        assert_eq!(cat.listing_builds(), 2);
        assert_eq!(
            first.metas().len(),
            2,
            "a handed-out snapshot never changes"
        );
        assert_eq!(second.metas().len(), 3);
        assert!(second.metas().windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn package_draws_id_key_nonce_in_that_order() {
        let item = PackagedContent::package("T", 9, b"payload", None, &mut test_rng(125));
        let mut rng = test_rng(125);
        assert_eq!(item.meta.id, ContentId::random(&mut rng));
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        assert_eq!((item.key, item.nonce), (key, nonce));
        assert_ne!(item.ciphertext, b"payload");
        assert_eq!(decrypt_payload(&key, &nonce, &item.ciphertext), b"payload");
    }

    #[test]
    fn missing_item_is_none() {
        let cat = ContentCatalog::new();
        assert!(cat.get(&ContentId::from_label("nope")).is_none());
        assert!(cat.is_empty());
    }
}
