//! SHA-256 (FIPS 180-4), implemented from scratch and checked against the
//! standard test vectors.
//!
//! # Two compression kernels
//!
//! Every digest, HMAC tag, HKDF expansion, FDH / MGF1 mask and PKCS#1
//! signature in the workspace ends in one function, the compression of
//! whole 64-byte blocks into the eight-word state. It has two
//! implementations with one signature, `(state, blocks)`, where `blocks`
//! is any whole number of blocks:
//!
//! - **SHA-NI** (x86-64 only): the CPU's SHA extensions, `sha256rnds2`
//!   for two rounds at a time and `sha256msg1` / `sha256msg2` for the
//!   message schedule. It is a safe `#[target_feature]` function: message
//!   words and state go in through `_mm_set_epi32` and come out through
//!   `_mm_extract_epi32`, so its body has no pointer loads and no
//!   `unsafe`.
//! - **Portable**: the FIPS 180-4 round function in plain integer code.
//!
//! The dispatch rule: a run of blocks goes to SHA-NI when
//! `is_x86_feature_detected!` reports `sha`, `ssse3` and `sse4.1`, and to
//! the portable kernel otherwise. std caches the detection, so it is
//! asked on every call; there is no switch, cargo feature or setting.
//! Calling the SHA-NI function is this crate's one `unsafe` operation,
//! and the feature check right above it is what makes it sound.
//!
//! The portable kernel stays because CPUs without the extensions and
//! every other target need it, and because it is the reference the
//! SHA-NI kernel is tested against, block by block. Both kernels give
//! bit-identical digests; which one ran is not observable.
//!
//! [`Sha256::update`] hands each run of whole input blocks to the kernel
//! in one call, so a long message keeps its state in registers from the
//! first block to the last.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered towards the next 64-byte block.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finalize_with(compress)
    }

    /// [`Self::update`] on the given compression kernel.
    fn update_with(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                kernel(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// [`Self::finalize`] on the given compression kernel.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> [u8; DIGEST_LEN] {
        let bit_len = self.total.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length — assembled
        // in one buffer and absorbed in a single update call (a byte-wise
        // padding loop costs more than the compression itself on the
        // short inputs the hot paths hash).
        // Note: update() adjusts self.total, but bit_len was captured first.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            BLOCK_LEN - self.buf_len
        } else {
            2 * BLOCK_LEN - self.buf_len
        };
        pad[pad_len - 8..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        self.update_with(&pad[..pad_len], kernel);
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`
/// on the SHA extensions when this CPU has them, else portably.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    crate::counts::count(|c| c.sha256_blocks += (blocks.len() / BLOCK_LEN) as u64);
    #[cfg(target_arch = "x86_64")]
    if compress_sha_ni(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Runs the SHA-NI kernel and returns `true` if this CPU has the SHA
/// extensions; returns `false`, leaving `state` alone, if it has not.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !(std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: `sha_ni::compress` is safe apart from its
    // `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`; the running
    // CPU was just reported to have sha, ssse3 and sse4.1, and sse2 is
    // part of the x86-64 baseline.
    unsafe { sha_ni::compress(state, blocks) };
    true
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<BLOCK_LEN>();
    debug_assert!(rest.is_empty(), "not a whole number of blocks");
    for block in blocks {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel (Intel SHA extensions, x86-64).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Four rounds: message words `w` plus `K[4q..4q + 4]`, two rounds
    /// per `sha256rnds2` (the second pair from the high half of `wk`).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $q:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $q + 3] as i32,
                K[4 * $q + 2] as i32,
                K[4 * $q + 1] as i32,
                K[4 * $q] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }};
    }

    /// The next four schedule words from the last sixteen, `w0` oldest:
    /// `W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16]`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Big-endian message words `4q..4q + 4` of `block`, word `4q` in
    /// the low lane.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8; BLOCK_LEN], q: usize) -> __m128i {
        let w = |i: usize| u32::from_be_bytes(block[4 * (4 * q + i)..][..4].try_into().unwrap());
        _mm_set_epi32(w(3) as i32, w(2) as i32, w(1) as i32, w(0) as i32)
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    ///
    /// # Safety
    ///
    /// Calling it from code without these target features is `unsafe`:
    /// the running CPU must have `sha`, `ssse3` and `sse4.1`
    /// (`compress_sha_ni` checks).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let (blocks, rest) = blocks.as_chunks::<BLOCK_LEN>();
        debug_assert!(rest.is_empty(), "not a whole number of blocks");
        // sha256rnds2 keeps the working variables as ABEF and CDGH,
        // A and C in the high lanes.
        let s = state.map(|x| x as i32);
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = words(block, 0);
            let mut w1 = words(block, 1);
            let mut w2 = words(block, 2);
            let mut w3 = words(block, 3);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            w0 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 4);
            w1 = schedule(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 5);
            w2 = schedule(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 6);
            w3 = schedule(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 7);
            w0 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 8);
            w1 = schedule(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 9);
            w2 = schedule(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 10);
            w3 = schedule(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 11);
            w0 = schedule(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 12);
            w1 = schedule(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 13);
            w2 = schedule(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 14);
            w3 = schedule(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|x| x as u32);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several segments (avoids a join copy).
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest rendered as lowercase hex (for logs and tests).
pub fn sha256_hex(data: &[u8]) -> String {
    hex(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The SHA-NI kernel, for CPUs that have it.
    #[cfg(target_arch = "x86_64")]
    fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(compress_sha_ni(state, blocks), "no SHA extensions");
    }

    /// The SHA-NI kernel if this CPU can run it; says so when it cannot.
    fn sha_ni_kernel() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if compress_sha_ni(&mut H0.clone(), &[]) {
            return Some(sha_ni);
        }
        eprintln!("this CPU has no SHA extensions: the SHA-NI half is skipped");
        None
    }

    /// Every kernel this CPU can run, the portable one first.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        all.extend(sha_ni_kernel().map(|k| ("sha-ni", k)));
        all
    }

    fn digest_with(kernel: Kernel, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for p in parts {
            h.update_with(p, kernel);
        }
        h.finalize_with(kernel)
    }

    fn hex_with(kernel: Kernel, data: &[u8]) -> String {
        hex(&digest_with(kernel, &[data]))
    }

    #[test]
    fn a_digest_counts_each_block_once() {
        for len in [0usize, 1, 55, 56, 64, 119, 120, 1000, 16_384] {
            let data = vec![0x5a; len];
            let before = crate::counts::counts();
            let digest = sha256(&data);
            let blocks = (crate::counts::counts() - before).sha256_blocks;
            // The message, a 0x80 byte and the 8-byte length, padded.
            assert_eq!(blocks, (len as u64 + 9).div_ceil(64), "len={len}");
            let before = crate::counts::counts();
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), digest);
            assert_eq!(
                (crate::counts::counts() - before).sha256_blocks,
                blocks,
                "len={len} in 7-byte updates"
            );
        }
    }

    #[test]
    fn fips_vectors() {
        for (name, kernel) in kernels() {
            assert_eq!(
                hex_with(kernel, b""),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{name}"
            );
            assert_eq!(
                hex_with(kernel, b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{name}"
            );
            assert_eq!(
                hex_with(
                    kernel,
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                ),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{name}"
            );
            // FIPS 180-2's 896-bit message: 112 bytes, so the padding
            // and length exactly fill the second block.
            assert_eq!(
                hex_with(
                    kernel,
                    b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                      hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                ),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
                "{name}"
            );
        }
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for (name, kernel) in kernels() {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.update_with(&chunk, kernel);
            }
            assert_eq!(
                hex(&h.finalize_with(kernel)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = sha256(&data);
        for (name, kernel) in kernels() {
            for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 500, 999, 1000] {
                let (a, b) = data.split_at(split);
                assert_eq!(digest_with(kernel, &[a, b]), expect, "{name} split={split}");
            }
        }
    }

    #[test]
    fn concat_helper_matches_manual() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths 55, 56, 57, 63, 64 exercise the two-block padding cases.
        for (name, kernel) in kernels() {
            for len in [55usize, 56, 57, 63, 64, 119, 120] {
                let data = vec![0x5a; len];
                let bytes: Vec<&[u8]> = data.iter().map(std::slice::from_ref).collect();
                assert_eq!(
                    digest_with(kernel, &bytes),
                    digest_with(compress_portable, &[&data]),
                    "{name} len={len}"
                );
                assert_eq!(digest_with(kernel, &[&data]), sha256(&data), "{name}");
            }
        }
    }

    /// The SHA-NI kernel against the portable one on random states and
    /// blocks, one block at a time and in runs of 1–300 blocks.
    #[test]
    fn sha_ni_kernel_matches_portable() {
        let Some(sha_ni) = sha_ni_kernel() else {
            return;
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a_256);
        let mut block = [0u8; BLOCK_LEN];
        for i in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            rng.fill_bytes(&mut block);
            let (mut fast, mut slow) = (state, state);
            sha_ni(&mut fast, &block);
            compress_portable(&mut slow, &block);
            assert_eq!(fast, slow, "pair {i}: state {state:08x?}");
        }
        let mut run = vec![0u8; 300 * BLOCK_LEN];
        rng.fill_bytes(&mut run);
        for n in 1..=300 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let blocks = &run[(300 - n) * BLOCK_LEN..];
            let (mut fast, mut slow) = (state, state);
            sha_ni(&mut fast, blocks);
            compress_portable(&mut slow, blocks);
            assert_eq!(fast, slow, "run of {n} blocks");
        }
        // No blocks, no change.
        let mut state = H0;
        sha_ni(&mut state, &[]);
        assert_eq!(state, H0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `update` at any split points, on either kernel, equals the
        /// one-shot digest.
        #[test]
        fn update_at_random_splits_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            cuts in proptest::collection::vec(0usize..700, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                parts.push(&data[from..c]);
                from = c;
            }
            let expect = sha256(&data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_with(kernel, &parts), expect, "{}", name);
            }
        }
    }
}
