//! Hardware AES-128 via the x86 AES-NI instruction set.
//!
//! One `AESENC` per round instead of 16 table lookups. The key schedule is
//! expanded in software (shared with every other backend, so all engines
//! run the identical schedule). Only the encryption direction exists:
//! counter mode never runs the inverse cipher.
//!
//! The counter-mode kernel ([`Aes128Ni::ctr`]) writes `dst = src ^ pad` in
//! one pass and has two legs that make the same bytes. The 8-lane leg walks
//! eight blocks in eight xmm registers through the rounds side by side.
//! Where the CPU also has `vaes`, `avx512f` and `avx512vpopcntdq`, whole
//! 256-byte steps take the VAES-512 leg instead: one `VAESENC` on a zmm
//! register runs a round of four blocks, so four registers carry sixteen
//! blocks — a 256 B line — through the ten rounds in forty instructions
//! where the 8-lane leg issues a hundred and sixty; whatever is left over
//! goes to the 8-lane leg. Storing over an old line, each leg also counts
//! the bits the store flips as it goes: `VPOPCNTQ` on the wide leg, `POPCNT`
//! on the 8-lane leg. Which legs a cipher has is decided once, when it is
//! built.
//!
//! This module is the only `unsafe` code in the crate, and its interface
//! is safe. Safety rests on two invariants this file alone can break: an
//! [`Aes128Ni`] exists only if [`Aes128Ni::new`] found the `aes` and
//! `popcnt` features (its fields are private and `new` is the one
//! constructor), and its `wide` flag is set only there, from `new`'s own
//! detection of `vaes`, `avx512f` and `avx512vpopcntdq`.
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_add_epi64, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_popcnt_epi64,
    _mm512_reduce_add_epi64, _mm512_set_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    _mm512_xor_si512, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_loadu_si128,
    _mm_set_epi32, _mm_storeu_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

use crate::aes::expand_key;
use crate::dispatch::xor_pad;

/// AES-128 on the AES-NI units.
#[derive(Clone, Copy)]
pub(crate) struct Aes128Ni {
    enc: [__m128i; 11],
    /// The CPU has `vaes`, `avx512f` and `avx512vpopcntdq`: 256-byte steps
    /// of the counter-mode kernel take the VAES-512 leg.
    wide: bool,
}

impl std::fmt::Debug for Aes128Ni {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128Ni").field("rounds", &10u8).finish()
    }
}

impl Aes128Ni {
    /// Build the hardware cipher, or `None` when the CPU lacks AES-NI (or
    /// `POPCNT`, which every AES-NI CPU has).
    pub(crate) fn new(key: &[u8; 16]) -> Option<Self> {
        use std::arch::is_x86_feature_detected as has;
        if !(has!("aes") && has!("popcnt")) {
            return None;
        }
        let wide = has!("vaes") && has!("avx512f") && has!("avx512vpopcntdq");
        // SAFETY: each round key is exactly 16 bytes; unaligned load.
        let enc = expand_key(key).map(|rk| unsafe { _mm_loadu_si128(rk.as_ptr().cast()) });
        Some(Aes128Ni { enc, wide })
    }

    /// The same cipher confined to the 8-lane xmm leg, for testing that leg
    /// where the wide one is chosen; `None` where it is not (this cipher is
    /// the 8-lane leg already).
    #[cfg(test)]
    pub(crate) fn eight_lane(&self) -> Option<Self> {
        self.wide.then_some(Aes128Ni {
            wide: false,
            ..*self
        })
    }

    /// Encrypt one 16-byte block.
    #[inline]
    pub(crate) fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        // SAFETY: `self` exists, so `new` detected `aes`.
        unsafe { self.encrypt_block_ni(plaintext) }
    }

    /// # Safety
    ///
    /// The CPU must support `aes`.
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_block_ni(&self, plaintext: &[u8; 16]) -> [u8; 16] {
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

    /// `dst = src ^ pad` for the counter-mode pad `AES_K(addr ‖ counter ‖ i)`
    /// (see [`Aes128::ctr_xor`](crate::Aes128)), in one pass: whole 256-byte
    /// steps on the VAES-512 leg when the cipher has it, the rest eight
    /// blocks at a time. With `FLIPS`, also the number of bits in which the
    /// new `dst` differs from the old, counted as each block is stored
    /// (0 without).
    pub(crate) fn ctr<const FLIPS: bool>(
        &self,
        addr: u64,
        counter: u32,
        src: &[u8],
        dst: &mut [u8],
    ) -> u64 {
        let wide_len = if self.wide {
            src.len() - src.len() % WIDE_STEP
        } else {
            0
        };
        let (src_head, src_rest) = src.split_at(wide_len);
        let (dst_head, dst_rest) = dst.split_at_mut(wide_len);
        let mut flips = 0;
        if !src_head.is_empty() {
            // SAFETY: `self` exists, so `new` detected `aes` and `popcnt`;
            // it sets `wide` only after detecting `vaes`, `avx512f` and
            // `avx512vpopcntdq` too.
            flips += unsafe { self.ctr_wide::<FLIPS>(addr, counter, src_head, dst_head) };
        }
        if !src_rest.is_empty() {
            // SAFETY: `self` exists, so `new` detected `aes` and `popcnt`.
            flips += unsafe {
                self.ctr_x8::<FLIPS>(addr, counter, (wide_len / 16) as u32, src_rest, dst_rest)
            };
        }
        flips
    }

    /// The 8-lane leg: `dst = src ^ pad`, the first block being block
    /// `first_block` of the line; with `FLIPS`, `POPCNT` counts each
    /// block's flipped bits before it is stored.
    ///
    /// One `AESENC` has a latency of several cycles but the unit accepts a
    /// new one every cycle, so eight independent blocks walked through the
    /// rounds side by side keep it busy where a block-at-a-time loop
    /// waits out every round; the round keys are loaded once per call.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `popcnt`.
    #[target_feature(enable = "aes,popcnt")]
    unsafe fn ctr_x8<const FLIPS: bool>(
        &self,
        addr: u64,
        counter: u32,
        mut first_block: u32,
        src: &[u8],
        dst: &mut [u8],
    ) -> u64 {
        let base = ctr_base(addr, counter);
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

        let mut flips = 0u64;
        let mut src_chunks = src.chunks_exact(16 * CTR_LANES);
        let mut dst_chunks = dst.chunks_exact_mut(16 * CTR_LANES);
        for (s, d) in (&mut src_chunks).zip(&mut dst_chunks) {
            let pad = pad8(first_block);
            for ((s, d), k) in s.chunks_exact(16).zip(d.chunks_exact_mut(16)).zip(pad) {
                // SAFETY: `s` and `d` are exactly 16 bytes; unaligned
                // loads and store.
                unsafe {
                    let p = d.as_mut_ptr().cast::<__m128i>();
                    let new = _mm_xor_si128(_mm_loadu_si128(s.as_ptr().cast()), k);
                    if FLIPS {
                        let diff = _mm_xor_si128(_mm_loadu_si128(p), new);
                        let (lo, hi) = (
                            _mm_cvtsi128_si64(diff),
                            _mm_cvtsi128_si64(_mm_unpackhi_epi64(diff, diff)),
                        );
                        flips += u64::from(lo.count_ones() + hi.count_ones());
                    }
                    _mm_storeu_si128(p, new);
                }
            }
            first_block = first_block.wrapping_add(CTR_LANES as u32);
        }
        let (src_tail, dst_tail) = (src_chunks.remainder(), dst_chunks.into_remainder());
        if !src_tail.is_empty() {
            // A short tail still costs one pipelined pass: cheaper than two
            // serial blocks, and it keeps a single code path.
            let mut pad = [0u8; 16 * CTR_LANES];
            for (block, k) in pad.chunks_exact_mut(16).zip(pad8(first_block)) {
                // SAFETY: `block` is exactly 16 bytes; unaligned store.
                unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), k) };
            }
            flips += xor_pad::<FLIPS>(src_tail, &pad[..src_tail.len()], dst_tail);
        }
        flips
    }

    /// The VAES-512 leg: `dst = src ^ pad` over a whole number of
    /// [`WIDE_STEP`]-byte steps starting at block 0 of the line. Each step
    /// is four zmm registers of four counter blocks each, walked through
    /// the rounds side by side; a round key is broadcast to all four
    /// 128-bit lanes as its round comes up. With `FLIPS`, `VPOPCNTQ` counts
    /// each 64 bytes' flipped bits into a running sum before they are
    /// stored.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes`, `vaes`, `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "aes,vaes,avx512f,avx512vpopcntdq")]
    unsafe fn ctr_wide<const FLIPS: bool>(
        &self,
        addr: u64,
        counter: u32,
        src: &[u8],
        dst: &mut [u8],
    ) -> u64 {
        debug_assert_eq!(src.len() % WIDE_STEP, 0);
        let base = ctr_base(addr, counter);
        let rk = |round: usize| _mm512_broadcast_i32x4(self.enc[round]);
        // Block indices 0..4 in the four lanes' top words; each further
        // register is four blocks on (a wrapping add, like the 8-lane leg).
        let mut next = _mm512_xor_si512(
            _mm512_broadcast_i32x4(base),
            _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
        );
        let four_on = _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0);
        let mut flips = _mm512_setzero_si512();
        for (s, d) in src
            .chunks_exact(WIDE_STEP)
            .zip(dst.chunks_exact_mut(WIDE_STEP))
        {
            let whiten = rk(0);
            let mut b: [__m512i; WIDE_REGS] = std::array::from_fn(|_| {
                let seed = next;
                next = _mm512_add_epi32(next, four_on);
                _mm512_xor_si512(seed, whiten)
            });
            for round in 1..10 {
                let k = rk(round);
                for x in &mut b {
                    *x = _mm512_aesenc_epi128(*x, k);
                }
            }
            let last = rk(10);
            for ((s, d), x) in s.chunks_exact(64).zip(d.chunks_exact_mut(64)).zip(b) {
                let pad = _mm512_aesenclast_epi128(x, last);
                // SAFETY: `s` and `d` are exactly 64 bytes; unaligned
                // loads and store.
                unsafe {
                    let p = d.as_mut_ptr().cast::<__m512i>();
                    let new = _mm512_xor_si512(_mm512_loadu_si512(s.as_ptr().cast()), pad);
                    if FLIPS {
                        let diff = _mm512_xor_si512(_mm512_loadu_si512(p), new);
                        flips = _mm512_add_epi64(flips, _mm512_popcnt_epi64(diff));
                    }
                    _mm512_storeu_si512(p, new);
                }
            }
        }
        _mm512_reduce_add_epi64(flips) as u64
    }
}

/// The counter block with a zero block index. Little-endian lanes: addr in
/// bytes 0..8, counter in 8..12, the block index (ORed in per block) in
/// 12..16.
#[target_feature(enable = "sse2")]
fn ctr_base(addr: u64, counter: u32) -> __m128i {
    _mm_set_epi32(0, counter as i32, (addr >> 32) as i32, addr as i32)
}

/// Blocks walked through the rounds side by side by [`Aes128Ni::ctr`]:
/// enough to cover the `AESENC` latency, few enough to stay in the sixteen
/// xmm registers alongside the round key in flight.
const CTR_LANES: usize = 8;

/// zmm registers (of four blocks each) the VAES-512 leg walks through the
/// rounds side by side.
const WIDE_REGS: usize = 4;
/// Bytes of pad one step of the VAES-512 leg makes: a 256 B line.
const WIDE_STEP: usize = 64 * WIDE_REGS;

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
        let Some(aes) = Aes128Ni::new(&key) else {
            eprintln!("AES-NI unavailable; skipping");
            return;
        };
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    proptest! {
        // Differential test: AES-NI must agree with the from-scratch
        // oracle on every random (key, block) pair.
        #[test]
        fn matches_reference_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let Some(hw) = Aes128Ni::new(&key) else {
                return;
            };
            let oracle = Aes128Reference::new(&key);
            prop_assert_eq!(hw.encrypt_block(&block), oracle.encrypt_block(&block));
        }
    }
}
