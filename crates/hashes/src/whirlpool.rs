//! Whirlpool (ISO/IEC 10118-3), the 512-bit AES-like hash.
//!
//! The 8-bit S-box is derived from the spec's three 4-bit mini-boxes (E,
//! E⁻¹, R) instead of being transcribed, and the MDS layer multiplies by the
//! circulant matrix `cir(1,1,4,1,8,5,2,9)` over GF(2⁸)/0x11D. The published
//! empty-string vector pins the whole construction.

use crate::Hasher;
use std::sync::OnceLock;

/// The exponential mini-box E from the Whirlpool spec.
const E: [u8; 16] = [
    0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3, 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0,
];
/// The pseudo-random mini-box R.
const R: [u8; 16] = [
    0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF, 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0,
];

fn sbox() -> &'static [u8; 256] {
    static S: OnceLock<[u8; 256]> = OnceLock::new();
    S.get_or_init(|| {
        let mut e_inv = [0u8; 16];
        for (i, &v) in E.iter().enumerate() {
            e_inv[v as usize] = i as u8;
        }
        let mut s = [0u8; 256];
        for (x, out) in s.iter_mut().enumerate() {
            let u = (x >> 4) as u8;
            let l = (x & 0xf) as u8;
            let yu = E[u as usize];
            let yl = e_inv[l as usize];
            let r = R[(yu ^ yl) as usize];
            let zu = E[(yu ^ r) as usize];
            let zl = e_inv[(yl ^ r) as usize];
            *out = (zu << 4) | zl;
        }
        s
    })
}

/// Multiply in GF(2⁸) with the Whirlpool reduction polynomial x⁸+x⁴+x³+x²+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1d; // 0x11d without the dropped x^8 bit
        }
        b >>= 1;
    }
    acc
}

/// MDS row coefficients: cir(1, 1, 4, 1, 8, 5, 2, 9).
const C: [u8; 8] = [1, 1, 4, 1, 8, 5, 2, 9];

/// Eight 256-entry row tables folding γ and θ together: byte `j` (big-endian)
/// of `T[k][x]` is `gf_mul(S[x], C[(j − k) mod 8])`, the contribution of
/// S-box input `x` in column `k` to output column `j`.
fn tables() -> &'static [[u64; 256]; 8] {
    static T: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    T.get_or_init(|| {
        let s = sbox();
        let mut t = [[0u64; 256]; 8];
        for (k, table) in t.iter_mut().enumerate() {
            for (x, entry) in table.iter_mut().enumerate() {
                let mut row = [0u8; 8];
                for (j, out) in row.iter_mut().enumerate() {
                    *out = gf_mul(s[x], C[(j + 8 - k) % 8]);
                }
                *entry = u64::from_be_bytes(row);
            }
        }
        t
    })
}

/// The 8×8 state as eight big-endian row words.
type Rows = [u64; 8];

fn to_rows(bytes: &[u8; 64]) -> Rows {
    let mut rows = [0u64; 8];
    for (row, chunk) in rows.iter_mut().zip(bytes.chunks_exact(8)) {
        *row = u64::from_be_bytes(chunk.try_into().unwrap());
    }
    rows
}

/// One round ρ[key] through the row tables. Column `k` of row `i` after
/// π comes from row `(i − k) mod 8` of the input, so output row `i` is
/// `key[i] ^ XOR_k T[k][state[(i − k) mod 8][k]]`.
fn round(state: &Rows, key: &Rows) -> Rows {
    let t = tables();
    let mut out = [0u64; 8];
    for (i, row) in out.iter_mut().enumerate() {
        let mut acc = key[i];
        for (k, table) in t.iter().enumerate() {
            let x = (state[(i + 8 - k) % 8] >> (56 - 8 * k)) as u8;
            acc ^= table[x as usize];
        }
        *row = acc;
    }
    out
}

/// The block cipher W in Miyaguchi–Preneel mode.
fn compress(h: &mut [u8; 64], block: &[u8; 64]) {
    let s = sbox();
    let mut key = to_rows(h);
    let m = to_rows(block);
    // Whitening.
    let mut state: Rows = std::array::from_fn(|i| m[i] ^ key[i]);
    for r in 0..10 {
        // Round constant: first row from the S-box, other rows zero.
        let mut rc = [0u64; 8];
        rc[0] = u64::from_be_bytes(s[8 * r..8 * r + 8].try_into().unwrap());
        key = round(&key, &rc);
        state = round(&state, &key);
    }
    for (i, chunk) in h.chunks_exact_mut(8).enumerate() {
        let hi = u64::from_be_bytes((&*chunk).try_into().unwrap());
        chunk.copy_from_slice(&(hi ^ state[i] ^ m[i]).to_be_bytes());
    }
}

// --- bit-serial reference -----------------------------------------------------

type Matrix = [[u8; 8]; 8];

fn to_matrix(bytes: &[u8; 64]) -> Matrix {
    let mut m = [[0u8; 8]; 8];
    for i in 0..8 {
        m[i].copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    }
    m
}

fn from_matrix(m: &Matrix) -> [u8; 64] {
    let mut out = [0u8; 64];
    for i in 0..8 {
        out[i * 8..i * 8 + 8].copy_from_slice(&m[i]);
    }
    out
}

/// One round ρ[key] straight from the spec: γ (S-box), π (shift columns),
/// θ (mix rows, 64 bit-serial GF(2⁸) products per row), σ (add key).
fn round_reference(state: &Matrix, key: &Matrix) -> Matrix {
    let s = sbox();
    // γ then π: column j shifts downwards by j.
    let mut shifted = [[0u8; 8]; 8];
    for i in 0..8 {
        for j in 0..8 {
            shifted[(i + j) % 8][j] = s[state[i][j] as usize];
        }
    }
    // θ: b[i][j] = Σ_k shifted[i][k] · c[(j − k) mod 8], then σ.
    let mut out = [[0u8; 8]; 8];
    for i in 0..8 {
        for j in 0..8 {
            let mut acc = 0u8;
            for k in 0..8 {
                acc ^= gf_mul(shifted[i][k], C[(j + 8 - k) % 8]);
            }
            out[i][j] = acc ^ key[i][j];
        }
    }
    out
}

/// [`compress`] over byte matrices with [`round_reference`].
fn compress_reference(h: &mut [u8; 64], block: &[u8; 64]) {
    let s = sbox();
    let mut key = to_matrix(h);
    let mut state = to_matrix(block);
    for i in 0..8 {
        for j in 0..8 {
            state[i][j] ^= key[i][j];
        }
    }
    for r in 0..10 {
        let mut rc = [[0u8; 8]; 8];
        for j in 0..8 {
            rc[0][j] = s[8 * r + j];
        }
        key = round_reference(&key, &rc);
        state = round_reference(&state, &key);
    }
    let cipher = from_matrix(&state);
    for i in 0..64 {
        h[i] ^= cipher[i] ^ block[i];
    }
}

/// One-shot Whirlpool through the bit-serial reference round, with its own
/// padding: the differential reference that `tests/properties.rs` and
/// `benches/kernels.rs` pin the table-driven hasher against.
pub fn digest_reference(data: &[u8]) -> Vec<u8> {
    // Pad 0x80, zeros to 32 mod 64, then a 256-bit big-endian bit length.
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 32 {
        msg.push(0);
    }
    msg.extend_from_slice(&[0u8; 16]);
    msg.extend_from_slice(&(data.len() as u128).wrapping_mul(8).to_be_bytes());
    let mut h = [0u8; 64];
    for block in msg.chunks_exact(64) {
        compress_reference(&mut h, block.try_into().unwrap());
    }
    h.to_vec()
}

/// Streaming Whirlpool state.
pub struct Whirlpool {
    h: [u8; 64],
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes; the spec allows 2²⁵⁶ bits but no real
    /// input here approaches even 2⁶⁴.
    total_len: u128,
}

impl Default for Whirlpool {
    fn default() -> Self {
        Self::new()
    }
}

impl Whirlpool {
    pub fn new() -> Self {
        Whirlpool {
            h: [0; 64],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn update_bytes(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.h, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().unwrap();
            compress(&mut self.h, &block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize_bytes(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad 0x80, zeros to 32 mod 64, then a 256-bit big-endian length
        // (top 128 bits are always zero here).
        self.update_bytes(&[0x80]);
        while self.buf_len != 32 {
            self.update_bytes(&[0]);
        }
        self.update_bytes(&[0u8; 16]);
        self.update_bytes(&bit_len.to_be_bytes());
        self.h.to_vec()
    }
}

impl Hasher for Whirlpool {
    fn update(&mut self, data: &[u8]) {
        self.update_bytes(data);
    }
    fn finalize(self: Box<Self>) -> Vec<u8> {
        (*self).finalize_bytes()
    }
    fn output_len(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn wp_hex(data: &[u8]) -> String {
        let mut h = Whirlpool::new();
        h.update_bytes(data);
        hex::encode(&h.finalize_bytes())
    }

    #[test]
    fn sbox_matches_spec_corners() {
        let s = sbox();
        assert_eq!(s[0], 0x18, "S(0x00)");
        // The S-box is a permutation.
        let mut seen = [false; 256];
        for &v in s.iter() {
            assert!(!seen[v as usize], "S-box value repeated");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn iso_empty_string_vector() {
        assert_eq!(
            wp_hex(b""),
            "19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a7\
             3e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3"
        );
    }

    #[test]
    fn iso_abc_vector() {
        assert_eq!(
            wp_hex(b"abc"),
            "4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c\
             7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5"
        );
    }

    #[test]
    fn block_boundary_streaming() {
        let data = vec![0x11u8; 96];
        let oneshot = wp_hex(&data);
        let mut h = Whirlpool::new();
        h.update_bytes(&data[..64]);
        h.update_bytes(&data[64..]);
        assert_eq!(hex::encode(&h.finalize_bytes()), oneshot);
    }
}
