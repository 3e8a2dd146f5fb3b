//! Hardware AES-128 via the x86 AES-NI instruction set.
//!
//! One `AESENC` per round instead of 16 table lookups. The key schedule is
//! expanded in software (shared with every other backend, so all engines
//! run the identical schedule) and the decryption keys are derived with
//! `AESIMC` (equivalent inverse cipher), mirroring the T-table backend.
//!
//! This module is the only `unsafe` code in the crate. Safety rests on one
//! invariant: [`Aes128Ni::new`] is only called after
//! `is_x86_feature_detected!("aes")` has confirmed the instructions exist
//! (the dispatcher in `dispatch.rs` enforces this).
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_loadu_si128, _mm_set_epi32, _mm_storeu_si128, _mm_xor_si128,
};

use crate::aes::expand_key;

/// AES-128 on the AES-NI units.
#[derive(Clone, Copy)]
pub(crate) struct Aes128Ni {
    enc: [__m128i; 11],
    dec: [__m128i; 11],
}

impl std::fmt::Debug for Aes128Ni {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128Ni").field("rounds", &10u8).finish()
    }
}

impl Aes128Ni {
    /// Build the hardware cipher.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the CPU supports the `aes`
    /// feature (e.g. via `is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn new(key: &[u8; 16]) -> Self {
        let rks = expand_key(key);
        let load = |rk: &[u8; 16]| unsafe { _mm_loadu_si128(rk.as_ptr().cast()) };
        let enc: [__m128i; 11] = std::array::from_fn(|i| load(&rks[i]));
        let mut dec = enc;
        dec[0] = enc[10];
        dec[10] = enc[0];
        for r in 1..10 {
            dec[r] = _mm_aesimc_si128(enc[10 - r]);
        }
        Aes128Ni { enc, dec }
    }

    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        unsafe {
            let mut b = _mm_loadu_si128(plaintext.as_ptr().cast());
            b = _mm_xor_si128(b, self.enc[0]);
            for rk in &self.enc[1..10] {
                b = _mm_aesenc_si128(b, *rk);
            }
            b = _mm_aesenclast_si128(b, self.enc[10]);
            let mut out = [0u8; 16];
            _mm_storeu_si128(out.as_mut_ptr().cast(), b);
            out
        }
    }

    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn decrypt_block(&self, ciphertext: &[u8; 16]) -> [u8; 16] {
        unsafe {
            let mut b = _mm_loadu_si128(ciphertext.as_ptr().cast());
            b = _mm_xor_si128(b, self.dec[0]);
            for rk in &self.dec[1..10] {
                b = _mm_aesdec_si128(b, *rk);
            }
            b = _mm_aesdeclast_si128(b, self.dec[10]);
            let mut out = [0u8; 16];
            _mm_storeu_si128(out.as_mut_ptr().cast(), b);
            out
        }
    }

    /// XOR the counter-mode pad `AES_K(addr ‖ counter ‖ i)` into `buf`,
    /// eight blocks at a time (see [`Aes128::ctr_xor`](crate::Aes128)).
    ///
    /// One `AESENC` has a latency of several cycles but the unit accepts a
    /// new one every cycle, so eight independent blocks walked through the
    /// rounds side by side keep it busy where a block-at-a-time loop
    /// waits out every round; the round keys are loaded once per call.
    #[target_feature(enable = "aes")]
    pub(crate) unsafe fn ctr_xor(&self, addr: u64, counter: u32, buf: &mut [u8]) {
        // Little-endian lanes: addr in bytes 0..8, counter in 8..12, the
        // block index (ORed in per block) in 12..16.
        let base = _mm_set_epi32(0, counter as i32, (addr >> 32) as i32, addr as i32);
        let pad8 = |first_block: u32| -> [__m128i; CTR_LANES] {
            let mut b: [__m128i; CTR_LANES] = std::array::from_fn(|i| {
                let idx = first_block.wrapping_add(i as u32);
                let seed = _mm_xor_si128(base, _mm_set_epi32(idx as i32, 0, 0, 0));
                _mm_xor_si128(seed, self.enc[0])
            });
            for rk in &self.enc[1..10] {
                for x in &mut b {
                    *x = _mm_aesenc_si128(*x, *rk);
                }
            }
            for x in &mut b {
                *x = _mm_aesenclast_si128(*x, self.enc[10]);
            }
            b
        };

        let mut first_block = 0u32;
        let mut chunks = buf.chunks_exact_mut(16 * CTR_LANES);
        for chunk in &mut chunks {
            let pad = pad8(first_block);
            for (block, k) in chunk.chunks_exact_mut(16).zip(pad) {
                // SAFETY: `block` is exactly 16 bytes; unaligned load/store.
                unsafe {
                    let p = block.as_mut_ptr().cast::<__m128i>();
                    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), k));
                }
            }
            first_block = first_block.wrapping_add(CTR_LANES as u32);
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // A short tail still costs one pipelined pass: cheaper than two
            // serial blocks, and it keeps a single code path.
            let mut pad = [0u8; 16 * CTR_LANES];
            for (block, k) in pad.chunks_exact_mut(16).zip(pad8(first_block)) {
                // SAFETY: `block` is exactly 16 bytes; unaligned store.
                unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), k) };
            }
            for (b, k) in tail.iter_mut().zip(pad) {
                *b ^= k;
            }
        }
    }
}

/// Blocks walked through the rounds side by side by [`Aes128Ni::ctr_xor`]:
/// enough to cover the `AESENC` latency, few enough to stay in the sixteen
/// xmm registers alongside the round key in flight.
const CTR_LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128Reference;
    use proptest::prelude::*;

    fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    #[test]
    fn fips197_appendix_b() {
        if !available() {
            eprintln!("AES-NI unavailable; skipping");
            return;
        }
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
        // SAFETY: feature checked above.
        unsafe {
            let aes = Aes128Ni::new(&key);
            assert_eq!(aes.encrypt_block(&pt), expected);
            assert_eq!(aes.decrypt_block(&expected), pt);
        }
    }

    proptest! {
        // Differential test: AES-NI must agree with the from-scratch
        // oracle on every random (key, block) pair, in both directions.
        #[test]
        fn matches_reference_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            if !available() {
                return;
            }
            let oracle = Aes128Reference::new(&key);
            // SAFETY: feature checked above.
            unsafe {
                let hw = Aes128Ni::new(&key);
                let ct = hw.encrypt_block(&block);
                prop_assert_eq!(ct, oracle.encrypt_block(&block));
                prop_assert_eq!(hw.decrypt_block(&block), oracle.decrypt_block(&block));
                prop_assert_eq!(hw.decrypt_block(&ct), block);
            }
        }
    }
}
