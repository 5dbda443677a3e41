//! Corpus: the constant-time rewrites of `taint_bad.rs` — branch-free
//! selection, non-short-circuit bit operators, and `lint: public`
//! annotations where the branch really is on public data. Must produce
//! zero taint findings.

pub fn branch_free_select(secret: u64) -> u32 {
    // lint: secret(secret)
    let is_zero = (secret.wrapping_sub(1) >> 63) as u32;
    is_zero
}

pub fn masked_scan(table: &[u8], secret: usize) -> u8 {
    // lint: secret(secret)
    let mut acc = 0u8;
    for (i, &v) in table.iter().enumerate() {
        let hit = (i == secret & 0x0f) as u8;
        acc |= v & hit.wrapping_neg();
    }
    acc
}

pub fn bitwise_combine(secret_bit: bool, public_ok: bool) -> bool {
    // lint: secret(secret_bit)
    (public_ok as u8 & secret_bit as u8) != 0
}

pub fn public_length_branch(key: &[u8]) -> usize { // lint: secret
    // lint: public(only the key length is branched on, never its bytes)
    if key.len() > 64 {
        return 64;
    }
    key.len()
}

/// `ct_lookup`: every entry is read, and the wanted one is kept under
/// a mask built without a comparison.
pub fn ct_lookup(table: &[u64], index: u64, out: &mut [u64]) {
    // lint: secret(index, diff, mask)
    out.fill(0);
    for (i, entry) in (0u64..).zip(table.chunks_exact(out.len())) {
        let diff = i ^ index;
        let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
        for (o, &e) in out.iter_mut().zip(entry) {
            *o |= e & mask;
        }
    }
}

/// Fixed windows over the exponent's bit length: each window's entry
/// comes from the scan and is multiplied in, zero digits included.
pub fn fixed_window_pow(mont: &Mont, table: &[u64], exp: &UBig) -> Vec<u64> {
    // lint: secret(exp, acc, entry)
    let s = mont.limb_len();
    let windows = exp.bit_len().div_ceil(4).max(1);
    let mut acc = vec![0u64; s];
    let mut entry = vec![0u64; s];
    ct_lookup(table, exp.bits_at((windows - 1) * 4, 4), &mut acc);
    for w in (0..windows - 1).rev() {
        square_w_times(mont, &mut acc, 4);
        ct_lookup(table, exp.bits_at(w * 4, 4), &mut entry);
        acc = mont.mont_mul(&acc, &entry);
    }
    acc
}
