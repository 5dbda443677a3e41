//! Counting-allocator regression test: a frame may *claim* a sequence
//! length up to its own size, but the decoder must not reserve memory in
//! proportion to the claim before any element has decoded.
//!
//! `Reader::get_seq` checks `len <= remaining` (every element costs at
//! least a byte) and used to reserve `len × size_of::<T>()` up front — so
//! a 1 MiB catalog reply claiming a million `ContentMeta` (80 bytes each
//! in memory) made the client reserve ~80 MB before the first element
//! failed. The reservation is now capped at 1,024 elements; pushes grow
//! it once elements really decode.

mod common;

use common::{LARGE_REQUESTS, REQUESTED};
use p2drm_codec::{CodecError, Writer};
use p2drm_core::content::ContentMeta;
use p2drm_core::ids::ContentId;
use p2drm_core::protocol::messages::CatalogResponse;
use p2drm_core::service::{EnvelopeError, OpCode, ResponseEnvelope, WireResponse, WIRE_VERSION};
use std::sync::atomic::Ordering;

/// Runs `f`, returning its value, the bytes it requested and how many of
/// its requests were [`common::LARGE`] bytes or more.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, large) = (
        REQUESTED.load(Ordering::Relaxed),
        LARGE_REQUESTS.load(Ordering::Relaxed),
    );
    let v = f();
    (
        v,
        REQUESTED.load(Ordering::Relaxed) - bytes,
        LARGE_REQUESTS.load(Ordering::Relaxed) - large,
    )
}

/// A catalog reply envelope whose payload is `payload`.
fn catalog_reply(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(OpCode::Catalog.byte());
    w.put_u64(7);
    w.put_raw(payload);
    w.into_bytes()
}

#[test]
fn claimed_sequence_length_does_not_size_the_reservation() {
    // 1 MiB of payload: "a million items follow", then one id and a title
    // whose declared length overruns the frame.
    let mut w = Writer::new();
    w.put_varint(1_000_000);
    w.put_raw(&[0xAB; 16]);
    w.put_varint(2_000_000);
    let mut payload = w.into_bytes();
    payload.resize(1 << 20, 0);
    let hostile = catalog_reply(&payload);

    let (result, bytes, _) = measured(|| ResponseEnvelope::from_bytes(&hostile));
    assert_eq!(
        result,
        Err(EnvelopeError::Malformed(CodecError::BadLength(2_000_000)))
    );
    assert!(
        bytes < 256 * 1024,
        "decoder requested {bytes} bytes for a frame that holds no item"
    );

    // A real 256-item listing: one reservation, never regrown.
    let items: Vec<ContentMeta> = (0..256u64)
        .map(|i| ContentMeta {
            id: ContentId::from_label(&format!("item-{i}")),
            title: format!("Item {i:03}"),
            price: 100 + i,
            size: 16_384,
            required_attribute: (i % 4 == 0).then(|| "adult".to_string()),
        })
        .collect();
    let reply = ResponseEnvelope {
        correlation_id: 7,
        body: WireResponse::Catalog(CatalogResponse::new(items.clone())),
    }
    .to_bytes();
    let (decoded, _, large) = measured(|| ResponseEnvelope::from_bytes(&reply));
    match decoded.expect("well-formed listing").body {
        WireResponse::Catalog(c) => assert_eq!(*c.items, *items),
        other => panic!("expected a catalog reply, got {}", other.label()),
    }
    assert_eq!(
        large, 1,
        "the item vector is reserved once and never regrown"
    );
}
