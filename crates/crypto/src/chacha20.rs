//! ChaCha20 stream cipher (RFC 7539 flavour: 32-byte key, 12-byte nonce,
//! 32-bit block counter), used for bulk content encryption and escrow
//! payloads.
//!
//! **Sixteen blocks wide.** [`apply_keystream`] runs every whole run of
//! sixteen blocks (1 KiB) through one `#[inline(always)]` loop in a
//! vertical layout: state word `i` of all sixteen blocks sits in one
//! `[u32; 16]` row, so each add, xor and rotate of a quarter round is one
//! lane-wise operation, and each block's keystream is read back out of
//! its column. The loop is compiled for AVX2 (one row in two
//! registers) and runs when `is_x86_feature_detected!` reports it
//! (`apply_wide`, the crate's second `unsafe` exemption); other CPUs,
//! the bytes after the last whole run and every input shorter than one
//! take the scalar loop, one block at a time. Both give the block
//! function's keystream byte for byte. On a 2-vCPU VM (Intel Xeon,
//! family 6, model 207), 16 KiB in place, five runs of 2,000 each:
//! scalar loop 29–35 µs, AVX2 10.6–10.8 µs. The same loop built for
//! AVX-512F (one row a register) read 8.4–10.1 µs, about 1 µs a play
//! less, too little to keep a second instance for; built for the
//! target's SSE2 alone it read 55–106 µs, slower than the scalar loop.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte keystream block for (key, nonce, counter).
pub fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    crate::counts::count(|c| c.chacha20_blocks += 1);
    keystream_block(key, nonce, counter)
}

/// The state a block starts from: the constant "expand 32-byte k",
/// the key, the counter and the nonce, as little-endian words.
fn initial_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u32; 16] {
    let word =
        |bytes: &[u8], i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    for i in 0..8 {
        state[4 + i] = word(key, i);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = word(nonce, i);
    }
    state
}

/// [`block`], uncounted: [`apply_keystream`] counts its blocks at once.
fn keystream_block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    let state = initial_state(key, nonce, counter);
    let mut working = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the keystream starting at `initial_counter`.
///
/// Encryption and decryption are the same operation. Every whole
/// 1 KiB of `data` takes the sixteen-block loop on a CPU with AVX2
/// (module doc); the bytes after them, and all of an input shorter than
/// 1 KiB, take the scalar loop.
///
/// # Panics
///
/// If `data` needs a block counter past `u32::MAX`: the counter would
/// wrap to 0 and reuse keystream blocks, which RFC 7539 forbids.
pub fn apply_keystream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    apply_with(key, nonce, initial_counter, data, Instance::widest());
}

/// [`apply_keystream`] on the given instance.
fn apply_with(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
    instance: Instance,
) {
    let blocks = data.len().div_ceil(64) as u64;
    assert!(
        u64::from(initial_counter) + blocks <= 1 << 32,
        "ChaCha20 block counter would wrap: {blocks} blocks from counter {initial_counter} reuse keystream"
    );
    crate::counts::count(|c| c.chacha20_blocks += blocks);
    let (wide, rest) = data.split_at_mut(data.len() / STEP * STEP);
    apply_wide(key, nonce, initial_counter, wide, instance);
    // The assertion above keeps the counter after the steps in range.
    let counter = initial_counter.wrapping_add((wide.len() / 64) as u32);
    apply_blocks(key, nonce, counter, rest);
}

/// The scalar loop: one [`keystream_block`] per 64 bytes of `data`.
fn apply_blocks(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], mut counter: u32, data: &mut [u8]) {
    for chunk in data.chunks_mut(64) {
        let ks = keystream_block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Blocks one wide step computes, one lane each.
const WIDE: usize = 16;

/// Bytes one wide step covers.
const STEP: usize = 64 * WIDE;

/// The instructions [`apply_wide`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Instance {
    /// The scalar loop, one block at a time ([`apply_blocks`]).
    Scalar,
    /// The wide body compiled for AVX2: one state word of all sixteen
    /// blocks in two 256-bit registers.
    Avx2,
}

impl Instance {
    /// The widest instance this CPU has (`is_x86_feature_detected!`,
    /// which std caches).
    fn widest() -> Instance {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Instance::Avx2;
        }
        Instance::Scalar
    }
}

/// XORs `data`, a whole number of [`STEP`]s, with the keystream from
/// `counter` on; the caller has checked that the counter does not wrap.
///
/// The wide body ([`apply_wide_body`]) is compiled for AVX2, and
/// `instance` names what runs: the cipher passes [`Instance::widest`],
/// the tests each instance in turn. The wide instance runs only once
/// the CPU is reported to have AVX2; otherwise the scalar loop runs.
/// Both give the keystream of the block function, byte for byte. The
/// portable build of the wide body is no instance: on SSE2 alone it
/// read 2–3× slower than the scalar loop (module doc).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn apply_wide(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
    instance: Instance,
) {
    if instance == Instance::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `apply_wide_avx2` is safe apart from its
        // `#[target_feature(enable = "avx2")]`, and the running CPU was
        // just reported to have it.
        unsafe { apply_wide_avx2(key, nonce, counter, data) }
    } else {
        apply_blocks(key, nonce, counter, data)
    }
}

/// Without x86-64 every block takes the scalar loop.
#[cfg(not(target_arch = "x86_64"))]
fn apply_wide(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
    _instance: Instance,
) {
    apply_blocks(key, nonce, counter, data)
}

/// One state word of all [`WIDE`] blocks.
type Row = [u32; WIDE];

/// The wide loop's body, inlined into [`apply_wide`]'s AVX2 instance.
/// Vertical layout: `x[i][l]` is word `i` of block `l`, so each step of
/// a quarter round is one lane-wise operation on a [`Row`], and block
/// `l`'s keystream is column `l` at the end.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn apply_wide_body(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    let mut init = [[0u32; WIDE]; 16];
    for (i, word) in initial_state(key, nonce, 0).into_iter().enumerate() {
        init[i] = [word; WIDE];
    }
    for (step, chunk) in data.chunks_exact_mut(STEP).enumerate() {
        let first = counter.wrapping_add((step * WIDE) as u32);
        init[12] = std::array::from_fn(|l| first.wrapping_add(l as u32));
        let mut x = init;
        for _ in 0..10 {
            wide_quarter_round(&mut x, 0, 4, 8, 12);
            wide_quarter_round(&mut x, 1, 5, 9, 13);
            wide_quarter_round(&mut x, 2, 6, 10, 14);
            wide_quarter_round(&mut x, 3, 7, 11, 15);
            wide_quarter_round(&mut x, 0, 5, 10, 15);
            wide_quarter_round(&mut x, 1, 6, 11, 12);
            wide_quarter_round(&mut x, 2, 7, 8, 13);
            wide_quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (row, first) in x.iter_mut().zip(&init) {
            for (w, f) in row.iter_mut().zip(first) {
                *w = w.wrapping_add(*f);
            }
        }
        for (l, block) in chunk.chunks_exact_mut(64).enumerate() {
            for (row, bytes) in x.iter().zip(block.chunks_exact_mut(4)) {
                for (b, k) in bytes.iter_mut().zip(row[l].to_le_bytes()) {
                    *b ^= k;
                }
            }
        }
    }
}

/// [`quarter_round`] on four [`Row`]s at once.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn wide_quarter_round(x: &mut [Row; 16], a: usize, b: usize, c: usize, d: usize) {
    let (mut va, mut vb, mut vc, mut vd) = (x[a], x[b], x[c], x[d]);
    for l in 0..WIDE {
        va[l] = va[l].wrapping_add(vb[l]);
        vd[l] = (vd[l] ^ va[l]).rotate_left(16);
        vc[l] = vc[l].wrapping_add(vd[l]);
        vb[l] = (vb[l] ^ vc[l]).rotate_left(12);
        va[l] = va[l].wrapping_add(vb[l]);
        vd[l] = (vd[l] ^ va[l]).rotate_left(8);
        vc[l] = vc[l].wrapping_add(vd[l]);
        vb[l] = (vb[l] ^ vc[l]).rotate_left(7);
    }
    (x[a], x[b], x[c], x[d]) = (va, vb, vc, vd);
}

/// [`apply_wide_body`] on 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn apply_wide_avx2(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    apply_wide_body(key, nonce, counter, data)
}

/// Encrypts (copying) with counter starting at 1, per RFC 7539 usage.
pub fn encrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    apply_keystream(key, nonce, 1, &mut out);
    out
}

/// Decrypts (copying); identical to [`encrypt`].
pub fn decrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], ciphertext: &[u8]) -> Vec<u8> {
    encrypt(key, nonce, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc7539_block_function() {
        // RFC 7539 §2.3.2
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = hex_to_bytes("000000090000004a00000000").try_into().unwrap();
        let ks = block(&key, &nonce, 1);
        let expect = hex_to_bytes(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(ks.to_vec(), expect);
    }

    #[test]
    fn rfc7539_encryption() {
        // RFC 7539 §2.4.2
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = hex_to_bytes("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, &nonce, plaintext);
        let expect = hex_to_bytes(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(ct, expect);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let ct = encrypt(&key, &nonce, &pt);
            assert_eq!(decrypt(&key, &nonce, &ct), pt, "len={len}");
            if len > 0 {
                assert_ne!(ct, pt, "keystream must change content, len={len}");
            }
        }
    }

    #[test]
    fn keystream_counts_each_block_once() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let before = crate::counts::counts();
            apply_keystream(&[2u8; 32], &[3u8; 12], 1, &mut vec![0u8; len]);
            let blocks = (crate::counts::counts() - before).chacha20_blocks;
            assert_eq!(blocks, len.div_ceil(64) as u64, "len={len}");
        }
        let before = crate::counts::counts();
        block(&[2u8; 32], &[3u8; 12], 7);
        assert_eq!((crate::counts::counts() - before).chacha20_blocks, 1);
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = [1u8; 32];
        let a = encrypt(&key, &[0u8; 12], b"same plaintext");
        let b = encrypt(&key, &[1u8; 12], b"same plaintext");
        assert_ne!(a, b);
    }

    #[test]
    fn counter_seeking_matches_full_stream() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        let mut full = vec![0u8; 256];
        apply_keystream(&key, &nonce, 1, &mut full);
        // Applying from counter 2 should equal the second 64-byte block.
        let mut tail = vec![0u8; 192];
        apply_keystream(&key, &nonce, 2, &mut tail);
        assert_eq!(&full[64..], &tail[..]);
    }

    #[test]
    fn last_counter_block_is_usable() {
        let mut data = [0u8; 64];
        apply_keystream(&[4u8; 32], &[6u8; 12], u32::MAX, &mut data);
        assert_eq!(data, block(&[4u8; 32], &[6u8; 12], u32::MAX));
        apply_keystream(&[4u8; 32], &[6u8; 12], u32::MAX, &mut []);
    }

    #[test]
    #[should_panic(expected = "block counter would wrap")]
    fn counter_wrap_is_refused() {
        apply_keystream(&[4u8; 32], &[6u8; 12], u32::MAX, &mut [0; 65]);
    }

    /// The instances this CPU runs, the scalar loop first.
    fn instances() -> Vec<Instance> {
        let all = [Instance::Scalar, Instance::Avx2];
        let widest = all.iter().position(|&i| i == Instance::widest()).unwrap();
        all[..=widest].to_vec()
    }

    /// The keystream of `blocks` blocks from `counter` on, by the block
    /// function.
    fn reference(key: &[u8; 32], nonce: &[u8; 12], counter: u32, blocks: usize) -> Vec<u8> {
        (0..blocks as u32)
            .flat_map(|i| keystream_block(key, nonce, counter + i))
            .collect()
    }

    /// Every instance this CPU has, called directly, against the block
    /// function: every length from 0 to two wide steps and a partial
    /// block, from counter 0, 1 and from the last start whose run ends
    /// on block `u32::MAX`.
    #[test]
    fn every_instance_gives_the_block_functions_keystream() {
        let instances = instances();
        eprintln!("ChaCha20 instances on this CPU: {instances:?}");
        let (key, nonce) = ([0x5au8; 32], [0xa5u8; 12]);
        let longest = 2 * STEP + 63;
        let most = longest.div_ceil(64);
        let from_zero = reference(&key, &nonce, 0, most + 1);
        let last = u32::MAX - most as u32 + 1;
        let to_max = reference(&key, &nonce, last, most);
        for len in 0..=longest {
            let blocks = len.div_ceil(64);
            let ending = u32::try_from((1u64 << 32) - blocks as u64).unwrap_or(u32::MAX);
            let starts = [
                (0, &from_zero[..len]),
                (1, &from_zero[64..64 + len]),
                (ending, &to_max[(most - blocks) * 64..][..len]),
            ];
            for &instance in &instances {
                for (counter, expected) in starts {
                    let mut data = vec![0u8; len];
                    apply_with(&key, &nonce, counter, &mut data, instance);
                    assert_eq!(data, expected, "{instance:?} len={len} counter={counter}");
                }
            }
        }
    }

    /// Each instance refuses a run past block `u32::MAX`, a wide one
    /// included.
    #[test]
    fn every_instance_refuses_a_wrapping_counter() {
        for instance in instances() {
            for (counter, len) in [(u32::MAX, 65), (u32::MAX - 15, STEP + 1)] {
                let refused = std::panic::catch_unwind(|| {
                    apply_with(&[4u8; 32], &[6u8; 12], counter, &mut vec![0; len], instance)
                });
                assert!(refused.is_err(), "{instance:?} counter={counter} len={len}");
            }
        }
    }
}
