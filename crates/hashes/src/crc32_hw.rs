//! Hardware CRC kernels: CRC-32C on the SSE4.2 `crc32` instruction and
//! CRC-32 (IEEE) by PCLMULQDQ folding.
//!
//! The `crc32` instruction implements exactly the reflected Castagnoli
//! polynomial used by [`Crc32c`](crate::Crc32c) — reflected input/output
//! with no init/final XOR, so wrapping it in the usual `!crc` pre/post
//! steps yields the standard iSCSI checksum.
//!
//! Plain CRC-32 (IEEE) has no instruction of its own, but a CRC is a
//! remainder modulo the polynomial over GF(2), and carry-less multiply
//! computes such remainders 128 bits at a time (Gopal et al., "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009): four
//! 128-bit accumulators are each *folded* 512 bits forward per step by
//! multiplying their halves with `x^(512±32) mod P`, the four are folded
//! into one, and a Barrett reduction brings the last 128 bits down to the
//! 32-bit remainder. The fold constants are derived at compile time from
//! the polynomial, like the slice-by-8 tables, and pinned by test to the
//! values zlib and the Linux kernel carry.
//!
//! This module is the only `unsafe` code in the crate. Safety rests on one
//! invariant: each kernel is only called after `is_x86_feature_detected!`
//! has confirmed its instructions exist (`Crc32c::new` and
//! `Crc32::checksum` in `crc32.rs` enforce this).
#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si32,
    _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128,
    _mm_xor_si128,
};

/// `reflect(x^n mod P) << 1` for the reflected polynomial `poly`: the form
/// in which PCLMULQDQ folding consumes a power of `x` (the shift makes up
/// for the bit a 64×64 carry-less product of reflected operands loses).
const fn fold_constant(poly: u32, n: u32) -> u64 {
    // Reflected domain: bit 31 holds the coefficient of x^0.
    let mut r = 0x8000_0000u32;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ poly } else { r >> 1 };
        i += 1;
    }
    (r as u64) << 1
}

/// The 33-bit reflected polynomial and the 33-bit reflected Barrett
/// constant `floor(x^64 / P)`.
const fn barrett_constants(poly: u32) -> (u64, u64) {
    let p = (1u128 << 32) | poly.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut bit = 64;
    while bit >= 32 {
        if rem >> bit & 1 != 0 {
            quotient |= 1 << (bit - 32);
            rem ^= p << (bit - 32);
        }
        bit -= 1;
    }
    (((poly as u64) << 1) | 1, quotient.reverse_bits() >> 31)
}

/// Everything the folding kernel multiplies by.
struct FoldConstants {
    /// `x^(512+32)`, `x^(512-32)`: fold an accumulator 512 bits forward.
    k1k2: (u64, u64),
    /// `x^(128+32)`, `x^(128-32)`: fold an accumulator 128 bits forward.
    k3k4: (u64, u64),
    /// `x^64`: the 96 → 64 bit step before Barrett.
    k5: u64,
    /// Polynomial and `mu`, both 33-bit reflected.
    poly_mu: (u64, u64),
}

const fn fold_constants(poly: u32) -> FoldConstants {
    FoldConstants {
        k1k2: (fold_constant(poly, 544), fold_constant(poly, 480)),
        k3k4: (fold_constant(poly, 160), fold_constant(poly, 96)),
        k5: fold_constant(poly, 64),
        poly_mu: barrett_constants(poly),
    }
}

const FOLD_IEEE: FoldConstants = fold_constants(crate::crc32::POLY_IEEE);

/// Shortest input the folding kernel accepts: one load of all four
/// accumulators.
pub(crate) const FOLD_MIN_BYTES: usize = 64;

/// Advance the raw (un-inverted) CRC-32/IEEE register `state` over the
/// longest 16-byte-multiple prefix of `data`, returning the new register
/// and the unconsumed tail (under 16 bytes) for the table path to finish.
///
/// # Panics
///
/// Panics if `data` is shorter than [`FOLD_MIN_BYTES`].
///
/// # Safety
///
/// The caller must have verified that the CPU supports the `pclmulqdq`
/// feature (e.g. via `is_x86_feature_detected!("pclmulqdq")`).
#[target_feature(enable = "pclmulqdq")]
pub(crate) unsafe fn crc32_ieee_fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
    // SAFETY (all loads below): `load` is only handed slices it has been
    // shown hold 16 bytes — `split_at` panics otherwise; unaligned load.
    let load = |b: &[u8]| unsafe { _mm_loadu_si128(b[..16].as_ptr().cast()) };
    // acc·(k.0, k.1) + next: multiply the accumulator's low and high
    // halves by the two powers of x and add the data it lands on.
    let fold = |acc: __m128i, k: __m128i, next: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };

    let (head, mut rest) = data.split_at(FOLD_MIN_BYTES);
    let mut x1 = _mm_xor_si128(load(head), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load(&head[16..]);
    let mut x3 = load(&head[32..]);
    let mut x4 = load(&head[48..]);

    let k1k2 = _mm_set_epi64x(FOLD_IEEE.k1k2.1 as i64, FOLD_IEEE.k1k2.0 as i64);
    while rest.len() >= 64 {
        let (block, after) = rest.split_at(64);
        x1 = fold(x1, k1k2, load(block));
        x2 = fold(x2, k1k2, load(&block[16..]));
        x3 = fold(x3, k1k2, load(&block[32..]));
        x4 = fold(x4, k1k2, load(&block[48..]));
        rest = after;
    }

    // Four accumulators into one, then any whole 16-byte blocks left.
    let k3k4 = _mm_set_epi64x(FOLD_IEEE.k3k4.1 as i64, FOLD_IEEE.k3k4.0 as i64);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while rest.len() >= 16 {
        let (block, after) = rest.split_at(16);
        x1 = fold(x1, k3k4, load(block));
        rest = after;
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
    let x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
    let x2 = _mm_srli_si128::<4>(x1);
    let x1 = _mm_and_si128(x1, low32);
    let x1 = _mm_clmulepi64_si128::<0x00>(x1, _mm_set_epi64x(0, FOLD_IEEE.k5 as i64));
    let x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction, 64 → 32 bits.
    let poly_mu = _mm_set_epi64x(FOLD_IEEE.poly_mu.1 as i64, FOLD_IEEE.poly_mu.0 as i64);
    let x2 = _mm_and_si128(x1, low32);
    let x2 = _mm_clmulepi64_si128::<0x10>(x2, poly_mu);
    let x2 = _mm_and_si128(x2, low32);
    let x2 = _mm_clmulepi64_si128::<0x00>(x2, poly_mu);
    let x1 = _mm_xor_si128(x1, x2);
    (_mm_cvtsi128_si32(_mm_srli_si128::<4>(x1)) as u32, rest)
}

/// Compute the CRC-32C checksum of `data` on the SSE4.2 unit: eight bytes
/// per `crc32q`, byte-at-a-time tail.
///
/// # Safety
///
/// The caller must have verified that the CPU supports the `sse4.2`
/// feature (e.g. via `is_x86_feature_detected!("sse4.2")`).
#[target_feature(enable = "sse4.2")]
pub(crate) unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
    let mut crc = u64::from(!0u32);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_constants_match_the_published_ieee_values() {
        // zlib `crc32_simd.c` / Linux `crc32-pclmul_asm.S`.
        assert_eq!(FOLD_IEEE.k1k2, (0x01_5444_2bd4, 0x01_c6e4_1596));
        assert_eq!(FOLD_IEEE.k3k4, (0x01_7519_97d0, 0x00_ccaa_009e));
        assert_eq!(FOLD_IEEE.k5, 0x01_63cd_6124);
        assert_eq!(FOLD_IEEE.poly_mu, (0x01_db71_0641, 0x01_f701_1641));
    }

    #[test]
    fn matches_check_vector_when_available() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            eprintln!("SSE4.2 unavailable; skipping");
            return;
        }
        // SAFETY: feature checked above.
        unsafe {
            assert_eq!(crc32c_sse42(b"123456789"), 0xE306_9283);
            assert_eq!(crc32c_sse42(&[0u8; 32]), 0x8A91_36AA);
            assert_eq!(crc32c_sse42(&[0xFFu8; 32]), 0x62A8_AB43);
            assert_eq!(crc32c_sse42(b""), 0);
        }
    }
}
