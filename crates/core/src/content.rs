//! Content packaging: every catalog item is encrypted once under its own
//! ChaCha20 content key; licenses carry that key sealed to the holder.
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
//! * **Who invalidates:** the two mutators,
//!   [`ContentCatalog::publish_with_requirement`] and
//!   [`ContentCatalog::restore`] — both take `&mut self`, so no reader
//!   can observe a snapshot older than the map it was handed with.
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
use p2drm_codec::{Decode, Encode, Reader, Writer};
use p2drm_crypto::chacha20;
use p2drm_crypto::rng::CryptoRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// A packaged item: metadata + ciphertext + (provider-held) content key.
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
}

impl Encode for ContentMeta {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        w.put_str(&self.title);
        w.put_u64(self.price);
        w.put_u64(self.size as u64);
        w.put_option(&self.required_attribute);
    }
}

impl Decode for ContentMeta {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(ContentMeta {
            id: ContentId::decode(r)?,
            title: r.get_str()?,
            price: r.get_u64()?,
            size: r.get_u64()? as usize,
            required_attribute: r.get_option()?,
        })
    }
}

impl Encode for PackagedContent {
    /// Serializes metadata **and the content key** — provider-side
    /// persistence only; never put these bytes on the wire.
    fn encode(&self, w: &mut Writer) {
        self.meta.encode(w);
        w.put_raw(&self.key);
        w.put_raw(&self.nonce);
        w.put_bytes(&self.ciphertext);
    }
}

impl Decode for PackagedContent {
    fn decode(r: &mut Reader) -> p2drm_codec::Result<Self> {
        Ok(PackagedContent {
            meta: ContentMeta::decode(r)?,
            key: r.get_raw(32)?.try_into().expect("fixed width"),
            nonce: r.get_raw(12)?.try_into().expect("fixed width"),
            ciphertext: r.get_bytes_owned()?,
        })
    }
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

/// The provider's content catalog.
#[derive(Default)]
pub struct ContentCatalog {
    items: HashMap<ContentId, PackagedContent>,
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

    /// Encrypts and stores `payload`, returning its id.
    pub fn publish<R: CryptoRng + ?Sized>(
        &mut self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        rng: &mut R,
    ) -> ContentId {
        self.publish_with_requirement(title, price, payload, None, rng)
    }

    /// Like [`ContentCatalog::publish`], with an attribute requirement
    /// buyers must prove (age rating etc.).
    pub fn publish_with_requirement<R: CryptoRng + ?Sized>(
        &mut self,
        title: impl Into<String>,
        price: u64,
        payload: &[u8],
        required_attribute: Option<String>,
        rng: &mut R,
    ) -> ContentId {
        let item = PackagedContent::package(title, price, payload, required_attribute, rng);
        let id = item.meta.id;
        self.restore(item);
        id
    }

    /// Looks up an item.
    pub fn get(&self, id: &ContentId) -> Option<&PackagedContent> {
        self.items.get(id)
    }

    /// Inserts an already packaged item (the provider's publish and
    /// resume paths) and invalidates the listing snapshot.
    pub fn restore(&mut self, item: PackagedContent) {
        self.items.insert(item.meta.id, item);
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

    #[test]
    fn publish_and_decrypt() {
        let mut rng = test_rng(120);
        let mut cat = ContentCatalog::new();
        let id = cat.publish("Song A", 100, b"PCM DATA", &mut rng);
        let item = cat.get(&id).unwrap();
        assert_ne!(item.ciphertext, b"PCM DATA");
        assert_eq!(
            decrypt_payload(&item.key, &item.nonce, &item.ciphertext),
            b"PCM DATA"
        );
    }

    #[test]
    fn items_have_distinct_keys() {
        let mut rng = test_rng(121);
        let mut cat = ContentCatalog::new();
        let a = cat.publish("A", 1, b"xxxx", &mut rng);
        let b = cat.publish("B", 2, b"xxxx", &mut rng);
        assert_ne!(cat.get(&a).unwrap().key, cat.get(&b).unwrap().key);
        assert_ne!(
            cat.get(&a).unwrap().ciphertext,
            cat.get(&b).unwrap().ciphertext
        );
    }

    #[test]
    fn listing_is_sorted_and_metadata_only() {
        let mut rng = test_rng(122);
        let mut cat = ContentCatalog::new();
        for i in 0..5 {
            cat.publish(format!("T{i}"), i, b"data", &mut rng);
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
            cat.publish_with_requirement(format!("Item {n:03}"), n as u64, b"x", attr, &mut rng);
        }
    }

    #[test]
    fn snapshot_is_built_once_per_state_and_old_handles_stay_valid() {
        let mut rng = test_rng(124);
        let mut cat = ContentCatalog::new();
        cat.publish("A", 1, b"a", &mut rng);
        cat.publish("B", 2, b"b", &mut rng);
        assert_eq!(cat.listing_builds(), 0, "publishing alone builds nothing");
        let first = cat.listing();
        for _ in 0..1_000 {
            assert!(Arc::ptr_eq(&first, &cat.listing()));
        }
        assert_eq!(cat.listing_builds(), 1);

        cat.publish("C", 3, b"c", &mut rng);
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

        // `restore` is the other mutator: same rule.
        let item = PackagedContent::package("D", 4, b"d", None, &mut rng);
        cat.restore(item);
        assert_eq!(cat.listing().metas().len(), 4);
        assert_eq!(cat.listing_builds(), 3);
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
        assert_eq!(decrypt_payload(&key, &nonce, &item.ciphertext), b"payload");
    }

    #[test]
    fn missing_item_is_none() {
        let cat = ContentCatalog::new();
        assert!(cat.get(&ContentId::from_label("nope")).is_none());
        assert!(cat.is_empty());
    }
}
