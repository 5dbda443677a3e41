//! Layers that sit below `dispatch` cannot be spanned from outside, so
//! the traced run times their public functions directly, on inputs of
//! the shapes the corpus carries, in batches long enough (≥ 1 ms) that
//! the clock is not what is measured. Also here: the bare-forwarding and
//! fsync probes, which need a server or a store of their own.

use crate::stack::{request_bytes, Pool, Preloaded, Stack, Stream, ACCOUNT, ITEM_BYTES, PRICE};
use crate::stats::median;
use p2drm_bignum::{prime, rng as bigrng, Mont};
use p2drm_core::entities::ttp::Ttp;
use p2drm_core::protocol::messages::{
    DownloadRequest, DownloadResponse, PurchaseResponse, TransferResponse,
};
use p2drm_core::service::{
    RequestEnvelope, ResponseEnvelope, Transport, WireRequest, WireResponse,
};
use p2drm_core::UserId;
use p2drm_crypto::rsa::{RsaKeyPair, RsaSignature};
use p2drm_crypto::{blind, chacha20, envelope, sha256};
use p2drm_net::{DrmServer, NetConfig, ServiceFn, TcpTransport};
use p2drm_payment::{Coin, Mint, MintConfig, Wallet};
use p2drm_rel::{AccessRequest, RightsState};
use p2drm_store::{ConcurrentKv, SyncPolicy, WalShardedConfig, WalShardedKv};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shortest batch a sample may be timed over.
const MIN_BATCH: Duration = Duration::from_millis(1);
/// Batches per probe; the probe reports their median.
const SAMPLES: usize = 5;

/// Median nanoseconds per call of a repeatable `f`.
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        let took = t.elapsed();
        if took >= MIN_BATCH {
            break;
        }
        let ns = took.as_nanos().max(100) as f64;
        calls = (calls as f64 * 1.3 * MIN_BATCH.as_nanos() as f64 / ns).ceil() as u64;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples).expect("SAMPLES > 0")
}

/// Median nanoseconds per item of an `f` that uses each input once:
/// `items` is cut into [`SAMPLES`] equal batches.
pub fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let batch = items.len() / SAMPLES;
    assert!(
        batch > 0,
        "a one-shot probe needs at least {SAMPLES} inputs"
    );
    let samples: Vec<f64> = items
        .chunks_exact(batch)
        .map(|chunk| {
            let t = Instant::now();
            chunk.iter().for_each(&mut f);
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples).expect("at least one batch")
}

fn mb_per_s(bytes: usize, ns_per_call: f64) -> f64 {
    bytes as f64 / ns_per_call * 1e3
}

/// Appends `(name, value)` pairs.
type Out = Vec<(&'static str, f64)>;

/// crypto, bignum, codec, payment, pki and rel timings.
pub fn micro(stack: &Stack, pool: &Pool, owned: &Preloaded, out: &mut Out) {
    let mut rng = stack.rng(Stream::Probe, 0);
    let us = |ns: f64| ns / 1e3;
    let keypair = RsaKeyPair::generate(stack.sys.config().key_bits, &mut rng);
    let public = keypair.public();
    let license = &owned.license;
    let message = license.body.signing_bytes();

    // crypto
    let signature = keypair.sign(&message);
    out.push((
        "crypto.rsa_sign_us",
        us(per_call_ns(|| {
            black_box(keypair.sign(black_box(&message)));
        })),
    ));
    out.push((
        "crypto.rsa_verify_us",
        us(per_call_ns(|| {
            black_box(public.verify(black_box(&message), &signature)).expect("own signature");
        })),
    ));
    let blinded = blind::Blinded::new(public, &message, &mut rng).expect("blinding");
    let blind_signature = blind::blind_sign(&keypair, &blinded.blinded).expect("blind sign");
    out.push((
        "crypto.blind_us",
        us(per_call_ns(|| {
            black_box(blind::Blinded::new(public, &message, &mut rng)).expect("blinding");
        })),
    ));
    out.push((
        "crypto.blind_sign_us",
        us(per_call_ns(|| {
            black_box(blind::blind_sign(&keypair, black_box(&blinded.blinded)))
                .expect("blind sign");
        })),
    ));
    out.push((
        "crypto.unblind_us",
        us(per_call_ns(|| {
            black_box(blinded.unblind(public, black_box(&blind_signature))).expect("unblind");
        })),
    ));
    let content_key = [0x5au8; 32];
    let sealed = envelope::seal(public, &content_key, &mut rng);
    out.push((
        "crypto.envelope_seal_us",
        us(per_call_ns(|| {
            black_box(envelope::seal(public, black_box(&content_key), &mut rng));
        })),
    ));
    out.push((
        "crypto.envelope_open_us",
        us(per_call_ns(|| {
            black_box(envelope::open(&keypair, black_box(&sealed))).expect("own envelope");
        })),
    ));
    let escrow = Ttp::escrow_plaintext(&UserId::from_label("probe"), &mut rng);
    let ttp_key = stack.sys.ttp.escrow_key();
    out.push((
        "crypto.elgamal_encrypt_us",
        us(per_call_ns(|| {
            black_box(ttp_key.encrypt(black_box(&escrow), &mut rng));
        })),
    ));
    const KEYGENS: u64 = 32;
    let t = Instant::now();
    for k in 0..KEYGENS {
        black_box(RsaKeyPair::generate(
            stack.sys.config().key_bits,
            &mut stack.rng(Stream::Probe, 1 + k),
        ));
    }
    out.push((
        "crypto.rsa_keygen_ms",
        t.elapsed().as_secs_f64() * 1e3 / KEYGENS as f64,
    ));
    let block = vec![0xa5u8; ITEM_BYTES];
    out.push((
        "crypto.sha256_mb_s",
        mb_per_s(
            block.len(),
            per_call_ns(|| {
                black_box(sha256::sha256(black_box(&block)));
            }),
        ),
    ));
    out.push((
        "crypto.chacha20_mb_s",
        mb_per_s(
            block.len(),
            per_call_ns(|| {
                black_box(chacha20::encrypt(
                    &content_key,
                    &[7u8; 12],
                    black_box(&block),
                ));
            }),
        ),
    ));

    // bignum
    let modulus = public.modulus();
    let mont = Mont::new(modulus).expect("RSA modulus is odd");
    let base = bigrng::random_below(&mut rng, modulus);
    let other = bigrng::random_below(&mut rng, modulus);
    out.push((
        "bignum.modexp_1024_us",
        us(per_call_ns(|| {
            black_box(mont.pow(black_box(&base), keypair.private_exponent()));
        })),
    ));
    out.push((
        "bignum.modexp_e65537_us",
        us(per_call_ns(|| {
            black_box(mont.pow_u64(black_box(&base), p2drm_crypto::rsa::PUBLIC_EXPONENT));
        })),
    ));
    let half_bits = stack.sys.config().key_bits / 2;
    let half_prime = prime::gen_prime(half_bits, 16, &mut rng);
    let half_mont = Mont::new(&half_prime).expect("prime is odd");
    let half_base = bigrng::random_below(&mut rng, &half_prime);
    let half_exp = bigrng::random_bits(&mut rng, half_bits);
    out.push((
        "bignum.modexp_512_us",
        us(per_call_ns(|| {
            black_box(half_mont.pow(black_box(&half_base), &half_exp));
        })),
    ));
    let (a, b) = (mont.to_mont(&base), mont.to_mont(&other));
    let mut product = vec![0u64; mont.limb_len()];
    let mut scratch = mont.alloc_scratch();
    out.push((
        "bignum.mont_mul_16limb_ns",
        per_call_ns(|| {
            mont.mont_mul_into(black_box(&a), black_box(&b), &mut product, &mut scratch);
        }),
    ));
    const PRIMES: u64 = 16;
    let t = Instant::now();
    for k in 0..PRIMES {
        black_box(prime::gen_prime(
            half_bits,
            16,
            &mut stack.rng(Stream::Probe, 100 + k),
        ));
    }
    out.push((
        "bignum.prime_gen_512_ms",
        t.elapsed().as_secs_f64() * 1e3 / PRIMES as f64,
    ));

    // codec: what a server worker decodes and encodes per op.
    let (purchase, item, _) = stack.purchase_request(pool, &mut rng);
    // The transfer request exactly as the corpus builder emits it.
    let transfer_request = crate::corpus::CorpusBuilder {
        stack,
        pool: Some(pool),
        preloaded: std::slice::from_ref(owned),
        shape: crate::corpus::Shape::Mix,
        ops_per_slice: 20,
        slices: 1,
    }
    .transfer(0, 0)
    .request;
    let catalog_item = &stack.catalog[item];
    let requests = [
        (
            "codec.decode_purchase_ns",
            request_bytes(WireRequest::Purchase(purchase.clone())),
        ),
        (
            "codec.decode_download_ns",
            request_bytes(WireRequest::Download(DownloadRequest {
                content_id: catalog_item.id,
            })),
        ),
        ("codec.decode_transfer_ns", transfer_request),
    ];
    for (name, bytes) in &requests {
        out.push((
            name,
            per_call_ns(|| {
                black_box(RequestEnvelope::from_bytes(black_box(bytes))).expect("corpus request");
            }),
        ));
    }
    let replies = [
        (
            "codec.encode_purchase_ns",
            WireResponse::Purchase(PurchaseResponse {
                license: license.clone(),
            }),
        ),
        (
            "codec.encode_download_ns",
            WireResponse::Download(DownloadResponse {
                nonce: catalog_item.nonce,
                ciphertext: catalog_item.ciphertext.clone(),
            }),
        ),
        (
            "codec.encode_transfer_ns",
            WireResponse::Transfer(TransferResponse {
                license: license.clone(),
            }),
        ),
    ];
    for (name, body) in replies {
        let envelope = ResponseEnvelope {
            correlation_id: 1,
            body,
        };
        out.push((
            name,
            per_call_ns(|| {
                black_box(black_box(&envelope).to_bytes());
            }),
        ));
    }
    out.push((
        "codec.crc32_mb_s",
        mb_per_s(
            block.len(),
            per_call_ns(|| {
                black_box(p2drm_codec::crc32::crc32(black_box(&block)));
            }),
        ),
    ));

    // payment
    let mint = &stack.sys.mint;
    out.push((
        "payment.coin_check_us",
        us(per_call_ns(|| {
            black_box(mint.check_coin(black_box(&purchase.coin))).expect("fresh coin");
        })),
    ));
    let mut wallet = Wallet::new();
    out.push((
        "payment.withdraw_us",
        us(per_call_ns(|| {
            black_box(wallet.withdraw(mint, ACCOUNT, PRICE, &mut rng)).expect("funded account");
        })),
    ));
    // `deposit_prechecked` never looks at the signature, so the serials
    // alone make these coins; a mint of its own keeps the run's spent
    // count exact.
    let probe_mint = Mint::new(
        MintConfig {
            key_bits: 512,
            denominations: vec![PRICE],
        },
        &mut rng,
    );
    let coins: Vec<Coin> = (0..10_000)
        .map(|_| Coin {
            serial: p2drm_crypto::rng::random_array(&mut rng),
            denomination: PRICE,
            signature: RsaSignature::from_ubig(p2drm_bignum::UBig::one()),
        })
        .collect();
    out.push((
        "payment.deposit_us",
        us(per_item_ns(&coins, |coin| {
            probe_mint.deposit_prechecked(coin).expect("fresh serial");
        })),
    ));

    // pki
    let cert = &pool.certs[0].cert;
    let ra_key = stack.sys.ra.blind_public();
    out.push((
        "pki.pseudonym_verify_us",
        us(per_call_ns(|| {
            black_box(black_box(cert).verify(ra_key)).expect("pool certificate");
        })),
    ));
    let provider_key = stack.sys.provider.public_key();
    out.push((
        "pki.license_verify_us",
        us(per_call_ns(|| {
            black_box(black_box(license).verify(provider_key)).expect("set-up license");
        })),
    ));

    // rel
    let state = RightsState::new();
    let access = AccessRequest::play(stack.sys.now(), [9u8; 32]);
    out.push((
        "rel.eval_ns",
        per_call_ns(|| {
            black_box(license.body.rights.evaluate(black_box(&state), &access));
        }),
    ));
}

/// `ProviderService::handle` called directly — a purchase with no socket
/// under it.
pub fn purchase_inproc_us(stack: &Stack, pool: &Pool) -> f64 {
    let service = stack.sys.wire_service(0xB0);
    let requests: Vec<Vec<u8>> = crate::stack::par_map(0..200, |i| {
        let mut rng = stack.rng(Stream::Probe, 1_000 + i);
        let mut bytes = request_bytes(WireRequest::Purchase(
            stack.purchase_request(pool, &mut rng).0,
        ));
        bytes[crate::stack::CORRELATION_BYTES].copy_from_slice(&(i + 1).to_le_bytes());
        bytes
    });
    per_item_ns(&requests, |bytes| {
        let reply = service.handle(bytes);
        assert_eq!(
            reply[1],
            p2drm_core::service::OpCode::Purchase.byte(),
            "in-process purchase probe was refused"
        );
    }) / 1e3
}

/// Round-trip time of bare forwarding: an echo service behind the same
/// server, one request at a time, at the smallest and at a 16 KiB frame.
pub fn frame_rtt_us(config: &NetConfig, out: &mut Out) -> Result<(), String> {
    let server = DrmServer::bind(
        "127.0.0.1:0",
        ServiceFn(|request: &[u8]| request.to_vec()),
        config.clone(),
    )
    .map_err(|e| format!("bind echo server: {e}"))?;
    let transport =
        TcpTransport::connect(server.local_addr()).map_err(|e| format!("connect echo: {e}"))?;
    for (name, len) in [
        ("net.frame_rtt_64b_us", 64usize),
        ("net.frame_rtt_16k_us", ITEM_BYTES),
    ] {
        let mut payload = vec![0x11u8; len];
        let mut id = 0u64;
        let mut failure = None;
        let ns = per_call_ns(|| {
            id += 1;
            payload[crate::stack::CORRELATION_BYTES].copy_from_slice(&id.to_le_bytes());
            match transport.roundtrip(id, &payload) {
                Ok(reply) if reply == payload => {}
                Ok(_) => failure = Some("echo differs from request".to_string()),
                Err(e) => failure = Some(e.to_string()),
            }
        });
        if let Some(why) = failure {
            return Err(format!("echo probe: {why}"));
        }
        out.push((name, ns / 1e3));
    }
    drop(transport);
    server.shutdown();
    Ok(())
}

/// Commits timed under `SyncEach` — the only place the benchmark pays
/// for fsync. Four writers share eight shards so group commit has
/// something to group. Pushes the mean commit latency and the
/// commits-per-fsync ratio.
pub fn sync_commit(dir: &Path, out: &mut Out) -> Result<(), String> {
    const WRITERS: u64 = 4;
    const COMMITS_EACH: u64 = 500;
    let (store, _) = WalShardedKv::open(
        dir.join("sync-probe"),
        WalShardedConfig::with_policy(SyncPolicy::SyncEach),
    )
    .map_err(|e| format!("open sync probe store: {e}"))?;
    let value = vec![0x42u8; 600];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, value) = (&store, &value);
                scope.spawn(move || {
                    (0..COMMITS_EACH)
                        .try_for_each(|i| store.put(format!("lic/probe-{w}-{i}").as_bytes(), value))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("sync probe writer panicked"))
    })
    .map_err(|e| format!("sync probe commit: {e}"))?;
    let mut builder = p2drm_obs::SnapshotBuilder::new();
    store.collect_metrics(&mut builder);
    let snapshot = builder.finish();
    let commits = snapshot
        .histogram("store_commit_ns")
        .ok_or("store reports no commit histogram")?;
    let fsyncs = snapshot
        .histogram("store_fsync_ns")
        .ok_or("store reports no fsync histogram")?;
    out.push(("store.commit_sync_us", commits.mean_ns / 1e3));
    out.push((
        "store.commits_per_flush",
        commits.count as f64 / fsyncs.count.max(1) as f64,
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_batches_are_long_enough_to_time() {
        let mut calls = 0u64;
        let ns = per_call_ns(|| {
            calls += 1;
            black_box((0..50u64).fold(0u64, |a, b| black_box(a ^ b)));
        });
        assert!(ns > 0.0);
        // At well under a microsecond per call, a 1 ms batch needs
        // thousands of calls.
        assert!(calls > 1_000, "only {calls} calls");
    }

    #[test]
    fn per_item_uses_every_batch_once() {
        let items: Vec<u32> = (0..50).collect();
        let mut seen = Vec::new();
        let ns = per_item_ns(&items, |i| seen.push(*i));
        assert!(ns >= 0.0);
        assert_eq!(seen, items);
    }

    #[test]
    fn throughput_units() {
        // 16 KiB in 16.384 µs is 1,000 MB/s.
        assert!((mb_per_s(16_384, 16_384.0) - 1_000.0).abs() < 1e-9);
    }
}
