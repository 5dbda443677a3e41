//! ChaCha20 stream cipher (RFC 7539 flavour: 32-byte key, 12-byte nonce,
//! 32-bit block counter), used for bulk content encryption and escrow
//! payloads.

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

/// [`block`], uncounted: [`apply_keystream`] counts its blocks at once.
fn keystream_block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 64] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }

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
/// Encryption and decryption are the same operation.
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
    let blocks = data.len().div_ceil(64) as u64;
    assert!(
        u64::from(initial_counter) + blocks <= 1 << 32,
        "ChaCha20 block counter would wrap: {blocks} blocks from counter {initial_counter} reuse keystream"
    );
    crate::counts::count(|c| c.chacha20_blocks += blocks);
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(64) {
        let ks = keystream_block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
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
}
