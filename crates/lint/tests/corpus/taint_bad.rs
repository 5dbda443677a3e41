//! Corpus: secret-dependent control flow, indexing and short-circuit
//! evaluation the taint pass must flag. Not compiled — parsed by
//! `tests/corpus.rs`.

pub fn branch_on_secret(secret: u64) -> u32 { // lint: secret
    if secret == 0 {
        return 1;
    }
    0
}

pub fn index_by_secret(table: &[u8], secret: usize) -> u8 { // lint: secret(secret)
    table[secret & 0x0f]
}

pub fn short_circuit_on_secret(secret_bit: bool, public_ok: bool) -> bool {
    // lint: secret(secret_bit)
    let ok = public_ok && secret_bit;
    ok
}

pub fn taint_flows_through_let(key: &[u8]) -> bool { // lint: secret
    let first = key[0];
    let derived = first ^ 0x36;
    while derived != 0 {
        return true;
    }
    false
}

/// Sliding-window exponentiation in its leaky form: the top window's
/// entry is read at an exponent-derived index, a zero digit skips its
/// multiply, and the others read `table[d]` with `d` from the exponent.
pub fn windowed_pow(mont: &Mont, table: &[Vec<u64>], exp: &UBig, w: usize) -> Vec<u64> {
    // lint: secret(exp)
    let nwin = exp.bit_len().div_ceil(w);
    let mut acc = table[exp.bits_at((nwin - 1) * w, w) as usize].clone();
    for win in (0..nwin - 1).rev() {
        square_w_times(mont, &mut acc, w);
        let d = exp.bits_at(win * w, w) as usize;
        if d != 0 {
            acc = mont.mont_mul(&acc, &table[d]);
        }
    }
    acc
}
