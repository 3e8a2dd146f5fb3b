//! The default AES-128 block engine: runtime backend dispatch.
//!
//! [`Aes128`] picks the fastest available backend at construction:
//!
//! 1. **AES-NI** (`_mm_aesenc_si128`) when the CPU advertises the `aes`
//!    feature and the portable override is off;
//! 2. **T-tables** ([`crate::ttable`]) otherwise — the portable fast path.
//!
//! Every backend expands the same key schedule and produces bit-identical
//! ciphertext (enforced by differential proptests against the test-only
//! from-scratch reference cipher in `aes.rs`), so backend choice
//! can never change simulation results — only host speed.
//!
//! The counter-mode pad (`Aes128::ctr_xor`) is made three ways. The
//! T-table backend loops over its block function. The AES-NI backend walks
//! eight blocks through the rounds side by side in xmm registers, and —
//! when the CPU also advertises `vaes` and `avx512f`, detected once as the
//! engine is built — makes every whole 256 bytes of pad sixteen blocks at a
//! time in four zmm registers instead (`aesni.rs`). That is a second leg of
//! the same backend, not a backend of its own: [`AesBackend::AesNi`] covers
//! both, and `DEWRITE_PORTABLE=1` turns both off.
//!
//! # Forcing the portable path
//!
//! Set `DEWRITE_PORTABLE=1` in the environment (read once, at first engine
//! construction) or call [`set_portable_only`] before constructing engines.
//! CI uses this to check that reports are bit-identical across backends.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::ttable::Aes128Soft;

/// Tri-state: 2 = unset (consult the environment), 1 = portable only,
/// 0 = hardware allowed.
static PORTABLE_ONLY: AtomicU8 = AtomicU8::new(2);

/// Should engine constructors refuse hardware backends?
///
/// Lazily seeded from the `DEWRITE_PORTABLE` environment variable (any
/// non-empty value other than `0` forces portable engines).
pub fn portable_only() -> bool {
    match PORTABLE_ONLY.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let forced =
                std::env::var_os("DEWRITE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0");
            PORTABLE_ONLY.store(u8::from(forced), Ordering::Relaxed);
            forced
        }
    }
}

/// Override backend selection for engines constructed *after* this call:
/// `true` forces the portable T-table path, `false` re-enables hardware
/// dispatch. Intended for tests and determinism checks.
pub fn set_portable_only(portable: bool) {
    PORTABLE_ONLY.store(u8::from(portable), Ordering::Relaxed);
}

/// Which backend an [`Aes128`] instance ended up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesBackend {
    /// Precomputed T-tables (portable fast path).
    TTable,
    /// x86 AES-NI instructions.
    AesNi,
}

impl std::fmt::Display for AesBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AesBackend::TTable => "t-table",
            AesBackend::AesNi => "aes-ni",
        })
    }
}

/// The counter-mode seed block `addr ‖ counter ‖ block_idx`, little-endian
/// fields (Fig. 1 of the paper).
pub(crate) fn ctr_seed(addr: u64, counter: u32, block_idx: u32) -> [u8; 16] {
    let mut seed = [0u8; 16];
    seed[0..8].copy_from_slice(&addr.to_le_bytes());
    seed[8..12].copy_from_slice(&counter.to_le_bytes());
    seed[12..16].copy_from_slice(&block_idx.to_le_bytes());
    seed
}

#[derive(Clone)]
enum Backend {
    Soft(Aes128Soft),
    #[cfg(target_arch = "x86_64")]
    Ni(crate::aesni::Aes128Ni),
}

/// The default AES-128 block engine (hardware when available, T-tables
/// otherwise). FIPS-197 Appendix C.1, on whichever backend the host picks:
///
/// ```
/// use dewrite_crypto::Aes128;
/// let key: [u8; 16] = std::array::from_fn(|i| i as u8);
/// let pt: [u8; 16] = std::array::from_fn(|i| i as u8 * 0x11);
/// let ct = [
///     0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, //
///     0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a,
/// ];
/// let aes = Aes128::new(&key);
/// assert_eq!(aes.encrypt_block(&pt), ct);
/// assert_eq!(aes.decrypt_block(&ct), pt);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("backend", &self.backend_kind())
            .finish()
    }
}

impl Aes128 {
    /// Build the fastest engine the host (and the portable override)
    /// allows.
    pub fn new(key: &[u8; 16]) -> Self {
        if !portable_only() {
            if let Some(hw) = Self::hardware(key) {
                return hw;
            }
        }
        Self::portable(key)
    }

    /// Build the portable T-table engine regardless of CPU features.
    pub fn portable(key: &[u8; 16]) -> Self {
        Aes128 {
            backend: Backend::Soft(Aes128Soft::new(key)),
        }
    }

    /// Build the hardware engine, or `None` when the CPU lacks AES-NI.
    /// Ignores the portable override (tests use it to run both backends
    /// side by side).
    pub fn hardware(key: &[u8; 16]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = crate::aesni::Aes128Ni::new(key) {
            return Some(Aes128 {
                backend: Backend::Ni(ni),
            });
        }
        let _ = key;
        None
    }

    /// A copy of this engine whose counter-mode pad is confined to the
    /// 8-lane AES-NI leg. `None` unless this engine's pad takes the
    /// VAES-512 leg — so `Some` also says the wide leg is live here. For
    /// testing the two hardware legs side by side.
    #[cfg(test)]
    fn eight_lane_pad(&self) -> Option<Self> {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.eight_lane().map(|ni| Aes128 {
                backend: Backend::Ni(ni),
            }),
            Backend::Soft(_) => None,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend_kind(&self) -> AesBackend {
        match &self.backend {
            Backend::Soft(_) => AesBackend::TTable,
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(_) => AesBackend::AesNi,
        }
    }

    /// Encrypt one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        match &self.backend {
            Backend::Soft(s) => s.encrypt_block(plaintext),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.encrypt_block(plaintext),
        }
    }

    /// Decrypt one 16-byte block.
    #[inline]
    pub fn decrypt_block(&self, ciphertext: &[u8; 16]) -> [u8; 16] {
        match &self.backend {
            Backend::Soft(s) => s.decrypt_block(ciphertext),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.decrypt_block(ciphertext),
        }
    }

    /// XOR the counter-mode one-time pad into `buf`: block `i` of the pad
    /// is `AES_K(addr ‖ counter ‖ i)` (little-endian fields, Fig. 1 of the
    /// paper), and a ragged final block uses the pad's leading bytes. The
    /// batched primitive each backend implements its own way — AES-NI walks
    /// eight blocks (sixteen, with VAES-512) through the rounds side by
    /// side, the T-table leg loops over its block function — so line
    /// encryption never dispatches per 16 bytes.
    pub(crate) fn ctr_xor(&self, addr: u64, counter: u32, buf: &mut [u8]) {
        match &self.backend {
            Backend::Soft(s) => {
                for (i, chunk) in buf.chunks_mut(16).enumerate() {
                    let pad = s.encrypt_block(&ctr_seed(addr, counter, i as u32));
                    for (b, k) in chunk.iter_mut().zip(pad) {
                        *b ^= k;
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.ctr_xor(addr, counter, buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aes128Reference;
    use proptest::prelude::*;

    // The only test that may touch the process-wide override: tests run
    // in parallel.
    #[test]
    fn portable_override_is_honored() {
        set_portable_only(true);
        let aes = Aes128::new(&[1u8; 16]);
        assert_eq!(aes.backend_kind(), AesBackend::TTable);
        set_portable_only(false);
        // What `DEWRITE_PORTABLE=1` builds makes its pad on the T-table
        // leg: no hardware leg to confine, and the per-block bytes.
        assert!(aes.eight_lane_pad().is_none());
        let mut pad = vec![0u8; 4096 + 17];
        aes.ctr_xor(0x1000, 7, &mut pad);
        let mut per_block = vec![0u8; 4096 + 17];
        ctr_xor_per_block(&aes, 0x1000, 7, &mut per_block);
        assert_eq!(pad, per_block);
        // With the override off, the backend is whatever the host offers;
        // both must round-trip.
        let aes = Aes128::new(&[1u8; 16]);
        let pt = [9u8; 16];
        assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
    }

    #[test]
    fn backends_agree_on_fips_vector() {
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
        assert_eq!(Aes128::portable(&key).encrypt_block(&pt), expected);
        if let Some(hw) = Aes128::hardware(&key) {
            assert_eq!(hw.encrypt_block(&pt), expected);
        }
    }

    /// The block-at-a-time counter-mode loop the batched primitive
    /// replaced, kept as its oracle.
    fn ctr_xor_per_block(aes: &Aes128, addr: u64, counter: u32, buf: &mut [u8]) {
        for (i, chunk) in buf.chunks_mut(16).enumerate() {
            let pad = aes.encrypt_block(&ctr_seed(addr, counter, i as u32));
            for (b, k) in chunk.iter_mut().zip(pad) {
                *b ^= k;
            }
        }
    }

    // Differential: the batched pad on every leg the host offers — the
    // T-table loop, the 8-lane AES-NI leg and, where `vaes` + `avx512f`
    // exist, the VAES-512 leg (then the 8-lane leg is forced separately, so
    // both hardware legs run) — vs the per-block loop, over lengths that
    // straddle the 16 B block and the 128 B and 256 B pipeline steps (the
    // longest runs on to block 257, so the counter block's index word
    // carries out of its low byte), wide addresses and the largest counter.
    #[test]
    fn ctr_batched_matches_per_block() {
        let key = *b"ctr-batch-oracle";
        let hardware = Aes128::hardware(&key);
        let eight_lane = hardware.as_ref().and_then(Aes128::eight_lane_pad);
        let legs = [
            ("t-table", Some(Aes128::portable(&key))),
            ("hardware", hardware),
            ("8-lane", eight_lane),
        ];
        for (leg, aes) in legs {
            let Some(aes) = aes else { continue };
            for len in [
                0,
                1,
                15,
                16,
                17,
                127,
                128,
                129,
                255,
                256,
                257,
                511,
                512,
                513,
                4096,
                4096 + 17,
            ] {
                for (addr, counter) in [
                    (0u64, 0u32),
                    (0x1000, 7),
                    (1 << 32, 1),
                    (u64::MAX, u32::MAX),
                    (0xDEAD_BEEF_0BAD_F00D, u32::MAX),
                ] {
                    let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
                    let mut batched = data.clone();
                    aes.ctr_xor(addr, counter, &mut batched);
                    let mut per_block = data.clone();
                    ctr_xor_per_block(&aes, addr, counter, &mut per_block);
                    assert_eq!(
                        batched, per_block,
                        "{leg} len {len} addr {addr:#x} counter {counter:#x}"
                    );
                    // XOR with the same pad is an involution.
                    aes.ctr_xor(addr, counter, &mut batched);
                    assert_eq!(batched, data, "{leg} len {len}");
                }
            }
        }
    }

    proptest! {
        // The dispatched engine (whatever backend it lands on) must match
        // the reference oracle bit-for-bit.
        #[test]
        fn dispatched_matches_oracle(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            let fast = Aes128::new(&key);
            let oracle = Aes128Reference::new(&key);
            prop_assert_eq!(fast.encrypt_block(&block), oracle.encrypt_block(&block));
            prop_assert_eq!(fast.decrypt_block(&block), oracle.decrypt_block(&block));
        }

        // Hardware and portable backends agree with each other directly.
        #[test]
        fn hardware_matches_portable(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            if let Some(hw) = Aes128::hardware(&key) {
                let soft = Aes128::portable(&key);
                prop_assert_eq!(hw.encrypt_block(&block), soft.encrypt_block(&block));
                prop_assert_eq!(hw.decrypt_block(&block), soft.decrypt_block(&block));
            }
        }
    }
}
