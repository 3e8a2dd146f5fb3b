//! The default AES-128 block engine: runtime backend dispatch.
//!
//! [`Aes128`] picks the fastest available backend at construction:
//!
//! 1. **AES-NI** (`_mm_aesenc_si128`) when the CPU advertises the `aes`
//!    feature (and `popcnt`, which every AES-NI CPU has) and the portable
//!    override is off;
//! 2. **T-tables** ([`crate::ttable`]) otherwise — the portable fast path.
//!
//! Every backend expands the same key schedule and produces bit-identical
//! ciphertext (enforced by differential proptests against the test-only
//! from-scratch reference cipher in `aes.rs`), so backend choice
//! can never change simulation results — only host speed.
//!
//! The counter-mode kernel (`Aes128::ctr_xor`, `dst = src ^ pad` in one
//! pass) is made three ways. The T-table backend loops over its block
//! function. The AES-NI backend walks eight blocks through the rounds side
//! by side in xmm registers, and — when the CPU also advertises `vaes`,
//! `avx512f` and `avx512vpopcntdq`, detected once as the engine is built —
//! makes every whole 256 bytes sixteen blocks at a time in four zmm
//! registers instead (`aesni.rs`). That is a second leg of the same
//! backend, not a backend of its own: [`AesBackend::AesNi`] covers both,
//! and `DEWRITE_PORTABLE=1` turns both off. Each leg's one loop also
//! serves the store kernel (`Aes128::ctr_xor_over`), which writes over an
//! old line and counts the bits it flips in the same pass: `count_ones`,
//! `POPCNT` and `VPOPCNTQ` respectively.
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

    /// `dst = src ^ pad`, written in one pass, where block `i` of the
    /// counter-mode one-time pad is `AES_K(addr ‖ counter ‖ i)`
    /// (little-endian fields, Fig. 1 of the paper) and a ragged final block
    /// uses the pad's leading bytes. The batched primitive each backend
    /// implements its own way — AES-NI walks eight blocks (sixteen, with
    /// VAES-512) through the rounds side by side, the T-table leg loops over
    /// its block function — so line encryption never dispatches per 16
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    pub(crate) fn ctr_xor(&self, addr: u64, counter: u32, src: &[u8], dst: &mut [u8]) {
        self.ctr::<false>(addr, counter, src, dst);
    }

    /// [`Self::ctr_xor`] over an old line: `line = src ^ pad`, returning how
    /// many bits of `line` the store flipped — `dewrite_nvm::bit_flips(old,
    /// new)`, counted in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `line` differ in length.
    pub(crate) fn ctr_xor_over(&self, addr: u64, counter: u32, src: &[u8], line: &mut [u8]) -> u64 {
        self.ctr::<true>(addr, counter, src, line)
    }

    /// The one counter-mode loop per leg; `FLIPS` says whether it counts.
    #[inline]
    fn ctr<const FLIPS: bool>(&self, addr: u64, counter: u32, src: &[u8], dst: &mut [u8]) -> u64 {
        assert_eq!(src.len(), dst.len(), "counter mode maps a line onto a line");
        match &self.backend {
            Backend::Soft(s) => s.ctr::<FLIPS>(addr, counter, src, dst),
            #[cfg(target_arch = "x86_64")]
            Backend::Ni(ni) => ni.ctr::<FLIPS>(addr, counter, src, dst),
        }
    }
}

/// `dst = src ^ pad` over three equal-length slices, a `u64` word at a
/// time; with `FLIPS`, also the bits in which the new `dst` differs from
/// the old (0 without). The T-table leg's loop body, and the AES-NI leg's
/// ragged tail.
pub(crate) fn xor_pad<const FLIPS: bool>(src: &[u8], pad: &[u8], dst: &mut [u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("chunks_exact yields 8"));
    let mut flips = 0;
    let (mut src_words, mut pad_words) = (src.chunks_exact(8), pad.chunks_exact(8));
    let mut dst_words = dst.chunks_exact_mut(8);
    for ((d, s), p) in (&mut dst_words).zip(&mut src_words).zip(&mut pad_words) {
        let new = word(s) ^ word(p);
        if FLIPS {
            flips += u64::from((word(d) ^ new).count_ones());
        }
        d.copy_from_slice(&new.to_le_bytes());
    }
    let tail = src_words.remainder().iter().zip(pad_words.remainder());
    for (d, (s, p)) in dst_words.into_remainder().iter_mut().zip(tail) {
        let new = s ^ p;
        if FLIPS {
            flips += u64::from((*d ^ new).count_ones());
        }
        *d = new;
    }
    flips
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
        aes.ctr_xor(0x1000, 7, &vec![0u8; 4096 + 17], &mut pad);
        let mut per_block = vec![0u8; 4096 + 17];
        ctr_xor_per_block(&aes, 0x1000, 7, &mut per_block);
        assert_eq!(pad, per_block);
        // With the override off, the backend is whatever the host offers;
        // it must make the portable engine's ciphertext.
        let aes = Aes128::new(&[1u8; 16]);
        let pt = [9u8; 16];
        assert_eq!(
            aes.encrypt_block(&pt),
            Aes128::portable(&[1u8; 16]).encrypt_block(&pt)
        );
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

    /// Every leg the host offers — the T-table loop, the 8-lane AES-NI leg
    /// and, where `vaes` + `avx512f` + `avx512vpopcntdq` exist, the VAES-512
    /// leg (then the 8-lane leg is forced separately, so both hardware legs
    /// run).
    fn legs(key: &[u8; 16]) -> [(&'static str, Option<Aes128>); 3] {
        let hardware = Aes128::hardware(key);
        let eight_lane = hardware.as_ref().and_then(Aes128::eight_lane_pad);
        [
            ("t-table", Some(Aes128::portable(key))),
            ("hardware", hardware),
            ("8-lane", eight_lane),
        ]
    }

    /// Lengths that straddle the 16 B block and the 128 B and 256 B
    /// pipeline steps (the longest runs on to block 257, so the counter
    /// block's index word carries out of its low byte).
    const LENS: [usize; 16] = [
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
    ];

    /// Wide addresses and the largest counter.
    const SEEDS: [(u64, u32); 5] = [
        (0, 0),
        (0x1000, 7),
        (1 << 32, 1),
        (u64::MAX, u32::MAX),
        (0xDEAD_BEEF_0BAD_F00D, u32::MAX),
    ];

    /// `len` bytes of xorshift output: old lines and garbage that share no
    /// structure with the plaintext.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    // Differential: the batched `dst = src ^ pad` on every leg vs the
    // per-block loop, into a destination that starts out as garbage, over
    // the length, address and counter grid.
    #[test]
    fn ctr_batched_matches_per_block() {
        for (leg, aes) in legs(b"ctr-batch-oracle") {
            let Some(aes) = aes else { continue };
            for len in LENS {
                for (addr, counter) in SEEDS {
                    let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
                    let mut batched = noise(addr ^ len as u64, len);
                    aes.ctr_xor(addr, counter, &data, &mut batched);
                    let mut per_block = data.clone();
                    ctr_xor_per_block(&aes, addr, counter, &mut per_block);
                    assert_eq!(
                        batched, per_block,
                        "{leg} len {len} addr {addr:#x} counter {counter:#x}"
                    );
                    // XOR with the same pad is an involution.
                    let mut back = noise(!addr, len);
                    aes.ctr_xor(addr, counter, &batched, &mut back);
                    assert_eq!(back, data, "{leg} len {len}");
                }
            }
        }
    }

    // Differential: the store kernel on every leg, over random old lines.
    // The line must end as the per-block ciphertext, and the count must be
    // a byte loop's popcount of old ^ new — not of new alone, which a zero
    // old line could not tell apart.
    #[test]
    fn ctr_over_matches_per_block_and_counts_flips() {
        for (leg, aes) in legs(b"ctr-over-oracle!") {
            let Some(aes) = aes else { continue };
            for len in LENS {
                for (addr, counter) in SEEDS {
                    let data = noise(addr.rotate_left(7) ^ counter as u64, len);
                    let old = noise(addr ^ len as u64 ^ 0x5EED, len);
                    let mut expected = data.clone();
                    ctr_xor_per_block(&aes, addr, counter, &mut expected);
                    let flips: u64 = old
                        .iter()
                        .zip(&expected)
                        .map(|(o, n)| u64::from((o ^ n).count_ones()))
                        .sum();
                    let mut line = old.clone();
                    let counted = aes.ctr_xor_over(addr, counter, &data, &mut line);
                    let at = format!("{leg} len {len} addr {addr:#x} counter {counter:#x}");
                    assert_eq!(line, expected, "{at}");
                    assert_eq!(counted, flips, "{at}");
                    // Rewriting the same ciphertext flips nothing.
                    assert_eq!(aes.ctr_xor_over(addr, counter, &data, &mut line), 0, "{at}");
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
        }

        // Hardware and portable backends agree with each other directly.
        #[test]
        fn hardware_matches_portable(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
            if let Some(hw) = Aes128::hardware(&key) {
                let soft = Aes128::portable(&key);
                prop_assert_eq!(hw.encrypt_block(&block), soft.encrypt_block(&block));
            }
        }
    }
}
