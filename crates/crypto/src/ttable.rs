//! T-table AES-128: the portable fast backend.
//!
//! The classic software-AES optimization (Rijndael reference code, OpenSSL's
//! `aes_core.c`): SubBytes, ShiftRows and MixColumns are fused into four
//! 256-entry u32 lookup tables, turning one round into 16 table loads and
//! 16 XORs. Only the encryption direction exists: counter mode never runs
//! the inverse cipher. The tables are generated at **compile time**
//! (`const fn`) from the same S-box as the reference implementation, so
//! construction costs only the key expansion.
//!
//! Byte order: the state is held as four big-endian column words
//! (`w[c] = state[4c..4c+4]`, row 0 in the most significant byte), matching
//! FIPS-197's column-major layout.

use crate::aes::{expand_key, SBOX};
use crate::dispatch::{ctr_seed, xor_pad};

/// Multiply by {02} in GF(2^8), `const` variant.
const fn ct_xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Encryption table 0: `TE0[x] = [2,1,1,3]·S[x]` packed big-endian; tables
/// 1–3 are byte rotations of table 0.
const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([ct_xtime(s), s, s, ct_xtime(s) ^ s]);
        i += 1;
    }
    t
}

const fn rotate_table(t: &[u32; 256], bytes: u32) -> [u32; 256] {
    let mut r = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        r[i] = t[i].rotate_right(8 * bytes);
        i += 1;
    }
    r
}

const TE0_TABLE: [u32; 256] = build_te0();
static TE0: [u32; 256] = TE0_TABLE;
static TE1: [u32; 256] = rotate_table(&TE0_TABLE, 1);
static TE2: [u32; 256] = rotate_table(&TE0_TABLE, 2);
static TE3: [u32; 256] = rotate_table(&TE0_TABLE, 3);

#[inline(always)]
fn b0(w: u32) -> usize {
    (w >> 24) as usize
}
#[inline(always)]
fn b1(w: u32) -> usize {
    ((w >> 16) & 0xFF) as usize
}
#[inline(always)]
fn b2(w: u32) -> usize {
    ((w >> 8) & 0xFF) as usize
}
#[inline(always)]
fn b3(w: u32) -> usize {
    (w & 0xFF) as usize
}

/// Round keys as big-endian column words.
fn words(rk: &[u8; 16]) -> [u32; 4] {
    [
        u32::from_be_bytes([rk[0], rk[1], rk[2], rk[3]]),
        u32::from_be_bytes([rk[4], rk[5], rk[6], rk[7]]),
        u32::from_be_bytes([rk[8], rk[9], rk[10], rk[11]]),
        u32::from_be_bytes([rk[12], rk[13], rk[14], rk[15]]),
    ]
}

/// T-table AES-128, encryption only.
#[derive(Clone)]
pub(crate) struct Aes128Soft {
    enc: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128Soft {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128Soft").field("rounds", &10u8).finish()
    }
}

impl Aes128Soft {
    pub(crate) fn new(key: &[u8; 16]) -> Self {
        Aes128Soft {
            enc: expand_key(key).map(|rk| words(&rk)),
        }
    }

    pub(crate) fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        let rk = &self.enc;
        let mut w0 = u32::from_be_bytes(plaintext[0..4].try_into().unwrap()) ^ rk[0][0];
        let mut w1 = u32::from_be_bytes(plaintext[4..8].try_into().unwrap()) ^ rk[0][1];
        let mut w2 = u32::from_be_bytes(plaintext[8..12].try_into().unwrap()) ^ rk[0][2];
        let mut w3 = u32::from_be_bytes(plaintext[12..16].try_into().unwrap()) ^ rk[0][3];
        for r in rk[1..10].iter() {
            let t0 = TE0[b0(w0)] ^ TE1[b1(w1)] ^ TE2[b2(w2)] ^ TE3[b3(w3)] ^ r[0];
            let t1 = TE0[b0(w1)] ^ TE1[b1(w2)] ^ TE2[b2(w3)] ^ TE3[b3(w0)] ^ r[1];
            let t2 = TE0[b0(w2)] ^ TE1[b1(w3)] ^ TE2[b2(w0)] ^ TE3[b3(w1)] ^ r[2];
            let t3 = TE0[b0(w3)] ^ TE1[b1(w0)] ^ TE2[b2(w1)] ^ TE3[b3(w2)] ^ r[3];
            (w0, w1, w2, w3) = (t0, t1, t2, t3);
        }
        // Final round: SubBytes + ShiftRows only.
        let last = &rk[10];
        let f = |a: u32, b: u32, c: u32, d: u32, k: u32| {
            u32::from_be_bytes([SBOX[b0(a)], SBOX[b1(b)], SBOX[b2(c)], SBOX[b3(d)]]) ^ k
        };
        let o0 = f(w0, w1, w2, w3, last[0]);
        let o1 = f(w1, w2, w3, w0, last[1]);
        let o2 = f(w2, w3, w0, w1, last[2]);
        let o3 = f(w3, w0, w1, w2, last[3]);
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&o0.to_be_bytes());
        out[4..8].copy_from_slice(&o1.to_be_bytes());
        out[8..12].copy_from_slice(&o2.to_be_bytes());
        out[12..16].copy_from_slice(&o3.to_be_bytes());
        out
    }

    /// `dst = src ^ pad` for the counter-mode pad (see
    /// [`Aes128::ctr_xor`](crate::Aes128)), a block at a time; with
    /// `FLIPS`, also the bits in which the new `dst` differs from the old
    /// (`count_ones`; 0 without).
    pub(crate) fn ctr<const FLIPS: bool>(
        &self,
        addr: u64,
        counter: u32,
        src: &[u8],
        dst: &mut [u8],
    ) -> u64 {
        src.chunks(16)
            .zip(dst.chunks_mut(16))
            .enumerate()
            .map(|(i, (s, d))| {
                let pad = self.encrypt_block(&ctr_seed(addr, counter, i as u32));
                xor_pad::<FLIPS>(s, &pad[..s.len()], d)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128Reference;
    use proptest::prelude::*;

    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, //
            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, //
            0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, //
            0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32,
        ];
        let aes = Aes128Soft::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    proptest! {
        // The tentpole differential test: T-table AES must agree with the
        // from-scratch oracle on every random (key, block) pair.
        #[test]
        fn matches_reference_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let fast = Aes128Soft::new(&key);
            let oracle = Aes128Reference::new(&key);
            prop_assert_eq!(fast.encrypt_block(&block), oracle.encrypt_block(&block));
        }
    }
}
