//! AES-128 (FIPS-197) from scratch: the S-box and key schedule every
//! backend shares, and a test-only reference cipher.
//!
//! Only the forward cipher exists: counter mode decrypts by XORing the
//! same pad `AES_K(addr ‖ ctr ‖ i)` it encrypted with, and direct
//! encryption of metadata is a modelled latency, not bytes.
//!
//! The reference cipher is a straightforward table-free software
//! implementation: S-box lookups, `xtime` for the
//! MixColumns field multiplications, and on-the-fly key expansion at
//! construction. It is not constant-time and is not intended for protecting
//! real data. The simulator runs on [`crate::Aes128`], which dispatches to
//! a T-table or AES-NI backend; the reference cipher is compiled only into
//! this crate's tests, as the *oracle* that every fast backend is
//! differentially tested against.
//!
//! Every backend computes *real ciphertext bytes*, which the bit-flip
//! experiments (Fig. 13) measure directly — FIPS-197 Appendix B:
//!
//! ```
//! use dewrite_crypto::Aes128;
//! let key = [
//!     0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, //
//!     0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
//! ];
//! let pt = [
//!     0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, //
//!     0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
//! ];
//! let ct = [
//!     0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, //
//!     0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32,
//! ];
//! let aes = Aes128::new(&key);
//! assert_eq!(aes.encrypt_block(&pt), ct);
//! ```

/// The AES S-box.
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
#[cfg(test)]
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// Expand `key` into the 11 AES-128 round keys (FIPS-197 §5.2), shared by
/// every backend so they all run the identical schedule.
pub(crate) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for t in temp.iter_mut() {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    round_keys
}

/// An expanded AES-128 key schedule (11 round keys), reference
/// implementation: the oracle every fast backend is tested against.
#[cfg(test)]
#[derive(Clone)]
pub(crate) struct Aes128Reference {
    round_keys: [[u8; 16]; 11],
}

#[cfg(test)]
impl std::fmt::Debug for Aes128Reference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128Reference")
            .field("rounds", &10u8)
            .finish()
    }
}

#[cfg(test)]
impl Aes128Reference {
    /// Expand `key` into the 11-round key schedule.
    pub(crate) fn new(key: &[u8; 16]) -> Self {
        Aes128Reference {
            round_keys: expand_key(key),
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    /// State layout: column-major, state[r + 4c] = byte (row r, column c).
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: rotate left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: rotate left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: rotate left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
            col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
            col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
            col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
        }
    }

    /// Encrypt one 16-byte block.
    pub(crate) fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        let mut state = *plaintext;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let aes = Aes128Reference::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = (0x00..0x10u8).collect::<Vec<_>>().try_into().unwrap();
        let pt: [u8; 16] = (0..16u8)
            .map(|i| i * 0x11)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, //
            0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a,
        ];
        let aes = Aes128Reference::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    #[test]
    fn debug_never_prints_keys() {
        let aes = Aes128Reference::new(&[0x42; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("42"), "{dbg}");
    }

    proptest! {
        #[test]
        fn diffusion_half_the_bits_flip(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>(), bit in 0usize..128) {
            let aes = Aes128Reference::new(&key);
            let c1 = aes.encrypt_block(&pt);
            let mut pt2 = pt;
            pt2[bit / 8] ^= 1 << (bit % 8);
            let c2 = aes.encrypt_block(&pt2);
            let flipped: u32 = c1.iter().zip(c2.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
            // Strong diffusion: expect ~64 of 128 bits; accept a wide window.
            prop_assert!((30..=98).contains(&flipped), "flipped {flipped}");
        }
    }
}
