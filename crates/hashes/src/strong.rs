//! BLAKE3-style keyed compression kernel for verify-free deduplication.
//!
//! DeWrite's light CRC-32 fingerprint collides by design, so every digest
//! match costs a candidate verify-read plus a byte compare (§III-B). The
//! strong-keyed mode replaces that bet: a 256-bit keyed compression function
//! built from the ChaCha quarter-round (the same G function BLAKE3 uses),
//! truncated to a 64-bit tag. With a per-run secret key an adversary cannot
//! construct colliding lines offline, and at 64 tag bits random collisions
//! are negligible over any realistic run, so a tag match is *assumed* to be
//! a duplicate and the verify leg is skipped entirely.
//!
//! The kernel is dependency-free and processes a 256 B line as four 64 B
//! blocks, one per lane:
//!
//! * **Fast leg** — all four lanes are compressed simultaneously by the
//!   explicit 128-bit kernel in [`crate::strong_simd`]: the four lanes'
//!   states are transposed into one `__m128i` per state word so every
//!   quarter-round step is a single vector instruction, and the final root
//!   compression runs row-vectorized (the BLAKE2s layout: the four G
//!   columns of one state in one vector). The kernel tier is detected once
//!   at construction — AVX-512VL (single-instruction rotates, spill-free
//!   32-register file) when available, SSSE3 otherwise. Whole 256 B groups
//!   take the kernel; a ragged tail, and every input on a host with
//!   neither tier (or off x86-64), runs the portable leg's scalar code.
//! * **Portable leg** — the same schedule computed lane-at-a-time with
//!   scalar arithmetic; selected by `DEWRITE_PORTABLE=1` (see
//!   [`portable_only`]) or [`StrongKeyed::portable`].
//!
//! All legs are bit-identical; differential proptests below pin that, and
//! fixed test vectors pin the output format itself so a refactor cannot
//! silently change every stored digest.
//!
//! The tree shape is fixed — four lane chains, each lane CV folded in half
//! by XOR (the truncation-by-feed-forward the compression itself uses),
//! then one keyed root compression over the 16 folded words — not the
//! general BLAKE3 chunk tree: lines are fixed-size and small, so the
//! layout is hard-coded for the hot path. Inputs that are not exactly
//! 256 B are still defined (blocks round-robin across lanes, final block
//! zero-padded with its real length bound into the compression), which
//! keeps the [`LineHasher`] contract total.

use crate::portable::portable_only;
use crate::traits::{HashAlgorithm, LineHasher};

/// Key width in bytes (eight little-endian `u32` words).
pub const STRONG_KEY_BYTES: usize = 32;

/// Bytes per compression block.
const BLOCK_BYTES: usize = 64;
/// Parallel lanes in the fast leg (one 64 B block each for a 256 B line).
pub(crate) const LANES: usize = 4;
/// Compression rounds (BLAKE3 count).
const ROUNDS: usize = 7;

/// Initialization constants (the BLAKE3/SHA-256 IV), used as the fixed
/// second half of the compression state.
pub(crate) const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

/// Message word permutation applied between rounds (BLAKE3 schedule).
const PERM: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];

/// Per-round message schedule: `MSG_SCHEDULE[r][i]` is the original block
/// word that round `r` consumes in position `i` (the fixed point of
/// applying [`PERM`] `r` times). Precomputing it lets every leg index the
/// block directly instead of physically permuting 64 B between rounds.
pub(crate) const MSG_SCHEDULE: [[usize; 16]; ROUNDS] = {
    let mut s = [[0usize; 16]; ROUNDS];
    let mut i = 0;
    while i < 16 {
        s[0][i] = i;
        i += 1;
    }
    let mut r = 1;
    while r < ROUNDS {
        let mut i = 0;
        while i < 16 {
            s[r][i] = s[r - 1][PERM[i]];
            i += 1;
        }
        r += 1;
    }
    s
};

/// Domain flag: leaf block of the input stream.
pub(crate) const FLAG_CHUNK: u32 = 1 << 0;
/// Domain flag: parent compression over lane chaining values.
pub(crate) const FLAG_PARENT: u32 = 1 << 1;
/// Domain flag: final (root) compression.
pub(crate) const FLAG_ROOT: u32 = 1 << 2;

/// Default key used when no per-run key is supplied; documented so stored
/// digests are reproducible. Production runs derive a per-run key from the
/// memory encryption key instead (see [`StrongKeyed::derive`]).
pub const STRONG_DEFAULT_KEY: [u8; STRONG_KEY_BYTES] = *b"dewrite-strong-keyed-digest-v1!!";

/// Which implementation a [`StrongKeyed`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrongLeg {
    /// The explicit SIMD kernel (x86-64 with SSSE3 or AVX-512VL) for whole
    /// 256 B groups; the scalar code of [`Portable`](Self::Portable) for a
    /// ragged tail and on hosts without either tier.
    Fast,
    /// Scalar lane-at-a-time compression.
    Portable,
}

impl std::fmt::Display for StrongLeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrongLeg::Fast => "4-lane",
            StrongLeg::Portable => "portable",
        })
    }
}

/// Reusable working state for the keyed digest.
///
/// The kernel itself never heap-allocates, but the block buffer and lane
/// chaining values are 192 B of state that the hot path would otherwise
/// re-zero on every call; callers (one per engine shard) keep one scratch
/// and pass it to [`StrongKeyed::digest_with`], matching the
/// `encrypt_line_into` idiom used by the crypto path.
#[derive(Debug, Clone)]
pub struct StrongScratch {
    /// The message block being compressed, as little-endian words.
    block: [u32; 16],
    /// Per-lane chaining values.
    cvs: [[u32; 8]; LANES],
}

impl StrongScratch {
    /// Create a zeroed scratch state.
    pub const fn new() -> Self {
        StrongScratch {
            block: [0u32; 16],
            cvs: [[0u32; 8]; LANES],
        }
    }
}

impl Default for StrongScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The ChaCha-style quarter round over scalar state words.
#[inline(always)]
fn g(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, mx: u32, my: u32) {
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(mx);
    state[d] = (state[d] ^ state[a]).rotate_right(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(12);
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(my);
    state[d] = (state[d] ^ state[a]).rotate_right(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(7);
}

/// One scalar compression: 7 rounds of column + diagonal G over the 16-word
/// state, message permuted between rounds, output truncated by feed-forward
/// XOR of the two state halves.
fn compress(
    cv: &[u32; 8],
    block: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> [u32; 8] {
    let mut state = [
        cv[0],
        cv[1],
        cv[2],
        cv[3],
        cv[4],
        cv[5],
        cv[6],
        cv[7],
        IV[0],
        IV[1],
        IV[2],
        IV[3],
        counter as u32,
        (counter >> 32) as u32,
        block_len,
        flags,
    ];
    let m = block;
    for sched in &MSG_SCHEDULE {
        g(&mut state, 0, 4, 8, 12, m[sched[0]], m[sched[1]]);
        g(&mut state, 1, 5, 9, 13, m[sched[2]], m[sched[3]]);
        g(&mut state, 2, 6, 10, 14, m[sched[4]], m[sched[5]]);
        g(&mut state, 3, 7, 11, 15, m[sched[6]], m[sched[7]]);
        g(&mut state, 0, 5, 10, 15, m[sched[8]], m[sched[9]]);
        g(&mut state, 1, 6, 11, 12, m[sched[10]], m[sched[11]]);
        g(&mut state, 2, 7, 8, 13, m[sched[12]], m[sched[13]]);
        g(&mut state, 3, 4, 9, 14, m[sched[14]], m[sched[15]]);
    }
    let mut out = [0u32; 8];
    for i in 0..8 {
        out[i] = state[i] ^ state[i + 8];
    }
    out
}

/// Load block `index` of `data` into `words`, zero-padding past the end.
/// Returns the number of real bytes in the block.
#[inline]
fn load_block(data: &[u8], index: usize, words: &mut [u32; 16]) -> u32 {
    let start = index * BLOCK_BYTES;
    let avail = data.len().saturating_sub(start).min(BLOCK_BYTES);
    let block = &data[start..start + avail];
    let mut chunks = block.chunks_exact(4);
    let mut w = 0;
    for c in &mut chunks {
        words[w] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        w += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 4];
        last[..rem.len()].copy_from_slice(rem);
        words[w] = u32::from_le_bytes(last);
        w += 1;
    }
    while w < 16 {
        words[w] = 0;
        w += 1;
    }
    avail as u32
}

/// The strong keyed line digest.
///
/// ```
/// use dewrite_hashes::{StrongKeyed, StrongScratch};
///
/// let line = [0x5Au8; 256];
/// let mut scratch = StrongScratch::new();
/// let h = StrongKeyed::new();
/// let tag = h.digest_with(&line, &mut scratch);
/// assert_eq!(tag, StrongKeyed::portable().digest_with(&line, &mut scratch));
/// ```
#[derive(Debug, Clone)]
pub struct StrongKeyed {
    key: [u32; 8],
    leg: StrongLeg,
    /// Which explicit SIMD kernel the fast leg resolved to (detected once
    /// at construction; the `unsafe` intrinsic calls are sound iff the
    /// matching feature check passed then).
    simd: SimdTier,
}

/// Explicit-SIMD kernel tiers, best-first fallback at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdTier {
    /// No explicit kernel: scalar compression.
    None,
    /// 128-bit kernel with `pshufb`/shift-or rotations.
    Ssse3,
    /// Same kernel with single-instruction `vprold` rotations and the
    /// 32-register EVEX file (no spills across state + message vectors).
    Avx512,
}

/// The best explicit SIMD kernel this CPU can run.
fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return SimdTier::Avx512;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return SimdTier::Ssse3;
        }
    }
    SimdTier::None
}

impl StrongKeyed {
    /// Create a hasher with the documented default key on the fastest leg
    /// the environment allows.
    pub fn new() -> Self {
        Self::with_key(STRONG_DEFAULT_KEY)
    }

    /// Create a hasher with an explicit 32-byte key; the leg honours
    /// `DEWRITE_PORTABLE`.
    pub fn with_key(key: [u8; STRONG_KEY_BYTES]) -> Self {
        let leg = if portable_only() {
            StrongLeg::Portable
        } else {
            StrongLeg::Fast
        };
        Self::with_key_on(key, leg)
    }

    /// Create a hasher pinned to the scalar leg (default key).
    pub fn portable() -> Self {
        Self::with_key_on(STRONG_DEFAULT_KEY, StrongLeg::Portable)
    }

    /// Create a hasher with an explicit key pinned to a specific leg.
    pub fn with_key_on(key: [u8; STRONG_KEY_BYTES], leg: StrongLeg) -> Self {
        StrongKeyed {
            key: key_words(&key),
            leg,
            simd: if leg == StrongLeg::Fast {
                simd_tier()
            } else {
                SimdTier::None
            },
        }
    }

    /// Derive a per-run 32-byte key from arbitrary seed material (e.g. the
    /// 16-byte memory encryption key) and return a hasher keyed with it.
    /// The derivation is the kernel itself under the default key, so equal
    /// seeds always derive equal keys.
    pub fn derive(seed: &[u8]) -> Self {
        let mut scratch = StrongScratch::new();
        let wide = StrongKeyed::new().digest_wide_with(seed, &mut scratch);
        Self::with_key(wide)
    }

    /// The leg this instance dispatches to.
    pub fn leg(&self) -> StrongLeg {
        self.leg
    }

    /// Whether the fast leg resolved to a real SIMD tier on this host.
    /// `false` on the portable leg, on non-x86-64 targets, and on x86-64
    /// hosts without SSSE3 — where the fast leg falls back to the scalar
    /// code and wall-clock gates against cryptographic baselines would
    /// measure the fallback, not the kernel.
    pub fn simd_active(&self) -> bool {
        self.simd != SimdTier::None
    }

    /// Compute the 64-bit truncated tag of `data` using caller-provided
    /// scratch (no per-call state beyond registers).
    pub fn digest_with(&self, data: &[u8], scratch: &mut StrongScratch) -> u64 {
        let cv = self.root(data, scratch);
        u64::from(cv[0]) | (u64::from(cv[1]) << 32)
    }

    /// Compute the full 256-bit digest as little-endian bytes. The 64-bit
    /// tag is the first 8 bytes.
    pub fn digest_wide_with(&self, data: &[u8], scratch: &mut StrongScratch) -> [u8; 32] {
        let cv = self.root(data, scratch);
        let mut out = [0u8; 32];
        for (w, word) in cv.iter().enumerate() {
            out[w * 4..w * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Run the lane chains and the keyed root compression.
    fn root(&self, data: &[u8], scratch: &mut StrongScratch) -> [u32; 8] {
        // The hot case — exactly one full four-block group, i.e. the 256 B
        // cache line — takes a fused kernel that never leaves registers
        // between the lane pass and the root.
        #[cfg(target_arch = "x86_64")]
        if self.simd != SimdTier::None && data.len() == LANES * BLOCK_BYTES {
            let chunk: &[u8; LANES * BLOCK_BYTES] = data.try_into().expect("length checked");
            // SAFETY: the tier is only set after the matching
            // `is_x86_feature_detected!` checks succeeded at construction.
            #[allow(unsafe_code)]
            return unsafe {
                match self.simd {
                    SimdTier::Avx512 => crate::strong_simd::digest_group_avx512(&self.key, chunk),
                    _ => crate::strong_simd::digest_group_ssse3(&self.key, chunk),
                }
            };
        }
        let nblocks = data.len().div_ceil(BLOCK_BYTES).max(1);
        scratch.cvs = [self.key; LANES];
        // Whole four-block groups go straight from the input bytes through
        // the explicit SIMD kernel; the rest (a ragged final group, or all
        // of it on a host without one) is compressed a block at a time.
        let byte_steps = if self.simd != SimdTier::None {
            data.len() / (LANES * BLOCK_BYTES)
        } else {
            0
        };
        #[cfg(target_arch = "x86_64")]
        for step in 0..byte_steps {
            let chunk: &[u8; LANES * BLOCK_BYTES] = data[step * LANES * BLOCK_BYTES..]
                [..LANES * BLOCK_BYTES]
                .try_into()
                .expect("byte_steps guarantees a full group");
            // SAFETY: the tier is only set after the matching
            // `is_x86_feature_detected!` checks succeeded at construction.
            #[allow(unsafe_code)]
            unsafe {
                match self.simd {
                    SimdTier::Avx512 => crate::strong_simd::compress4_avx512(
                        &mut scratch.cvs,
                        chunk,
                        (step * LANES) as u64,
                        FLAG_CHUNK,
                    ),
                    _ => crate::strong_simd::compress4_ssse3(
                        &mut scratch.cvs,
                        chunk,
                        (step * LANES) as u64,
                        FLAG_CHUNK,
                    ),
                }
            }
        }
        for b in byte_steps * LANES..nblocks {
            let lane = b % LANES;
            let len = load_block(data, b, &mut scratch.block);
            scratch.cvs[lane] = compress(
                &scratch.cvs[lane],
                &scratch.block,
                b as u64,
                len,
                FLAG_CHUNK,
            );
        }
        // Root: each lane CV folds from eight words to four by XORing its
        // halves — the same truncation-by-feed-forward the compression
        // itself applies to its 16-word state — and the four folded CVs
        // form one 16-word block compressed under the key, with the total
        // input length bound in as the counter.
        let total = data.len() as u64;
        let mut m = [0u32; 16];
        for (l, cv) in scratch.cvs.iter().enumerate() {
            for i in 0..4 {
                m[l * 4 + i] = cv[i] ^ cv[i + 4];
            }
        }
        #[cfg(target_arch = "x86_64")]
        if self.simd != SimdTier::None {
            // SAFETY: the tier is only set after the matching
            // `is_x86_feature_detected!` checks succeeded at construction.
            #[allow(unsafe_code)]
            return unsafe {
                match self.simd {
                    SimdTier::Avx512 => crate::strong_simd::compress1_avx512(
                        &self.key,
                        &m,
                        total,
                        BLOCK_BYTES as u32,
                        FLAG_PARENT | FLAG_ROOT,
                    ),
                    _ => crate::strong_simd::compress1_ssse3(
                        &self.key,
                        &m,
                        total,
                        BLOCK_BYTES as u32,
                        FLAG_PARENT | FLAG_ROOT,
                    ),
                }
            };
        }
        compress(
            &self.key,
            &m,
            total,
            BLOCK_BYTES as u32,
            FLAG_PARENT | FLAG_ROOT,
        )
    }
}

impl Default for StrongKeyed {
    fn default() -> Self {
        Self::new()
    }
}

fn key_words(key: &[u8; STRONG_KEY_BYTES]) -> [u32; 8] {
    let mut words = [0u32; 8];
    for (w, chunk) in key.chunks_exact(4).enumerate() {
        words[w] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    words
}

impl LineHasher for StrongKeyed {
    fn algorithm(&self) -> HashAlgorithm {
        HashAlgorithm::StrongKeyed
    }

    fn digest(&self, data: &[u8]) -> u64 {
        let mut scratch = StrongScratch::new();
        self.digest_with(data, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(fill: u8) -> [u8; 256] {
        let mut l = [0u8; 256];
        for (i, b) in l.iter_mut().enumerate() {
            *b = fill.wrapping_add(i as u8);
        }
        l
    }

    #[test]
    fn fixed_vectors_pin_the_output() {
        // Golden values: any change to the schedule, constants, padding or
        // truncation shows up here before it silently invalidates every
        // stored digest.
        let mut s = StrongScratch::new();
        let h = StrongKeyed::portable();
        assert_eq!(h.digest_with(&[], &mut s), 0x0EBA_FBDF_85D5_4397);
        assert_eq!(h.digest_with(b"abc", &mut s), 0x07DC_89DB_360F_6943);
        assert_eq!(h.digest_with(&[0u8; 256], &mut s), 0xEACE_E389_A20B_AFAE);
        assert_eq!(h.digest_with(&line(0x5A), &mut s), 0x94B2_7825_3EE4_FDF9);
    }

    #[test]
    fn tag_is_leading_bytes_of_wide_digest() {
        let mut s = StrongScratch::new();
        let h = StrongKeyed::new();
        let data = line(0x11);
        let wide = h.digest_wide_with(&data, &mut s);
        let tag = u64::from_le_bytes(wide[..8].try_into().unwrap());
        assert_eq!(tag, h.digest_with(&data, &mut s));
        assert_eq!(tag, h.digest(&data));
    }

    #[test]
    fn keys_separate_digests() {
        let mut s = StrongScratch::new();
        let a = StrongKeyed::with_key([0x01; 32]);
        let b = StrongKeyed::with_key([0x02; 32]);
        let data = line(0);
        assert_ne!(a.digest_with(&data, &mut s), b.digest_with(&data, &mut s));
    }

    #[test]
    fn derive_is_deterministic_and_seed_sensitive() {
        let mut s = StrongScratch::new();
        let data = line(7);
        let a = StrongKeyed::derive(b"a 16-byte secret");
        let b = StrongKeyed::derive(b"a 16-byte secret");
        let c = StrongKeyed::derive(b"another secret!!");
        assert_eq!(a.digest_with(&data, &mut s), b.digest_with(&data, &mut s));
        assert_ne!(a.digest_with(&data, &mut s), c.digest_with(&data, &mut s));
    }

    #[test]
    fn length_is_bound_into_the_digest() {
        // A zero-padded short input must not collide with the explicit
        // zero-extended input.
        let mut s = StrongScratch::new();
        let h = StrongKeyed::new();
        assert_ne!(
            h.digest_with(&[0u8; 100], &mut s),
            h.digest_with(&[0u8; 256], &mut s)
        );
        assert_ne!(h.digest_with(&[], &mut s), h.digest_with(&[0u8; 1], &mut s));
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let mut s = StrongScratch::new();
        let h = StrongKeyed::new();
        let first = h.digest_with(&line(1), &mut s);
        let _ = h.digest_with(&line(2), &mut s);
        assert_eq!(h.digest_with(&line(1), &mut s), first);
        assert_eq!(h.digest_with(&line(1), &mut StrongScratch::new()), first);
    }

    #[test]
    fn legs_agree_on_the_hot_line_size() {
        let mut s = StrongScratch::new();
        let fast = StrongKeyed::with_key_on(STRONG_DEFAULT_KEY, StrongLeg::Fast);
        let portable = StrongKeyed::portable();
        for fill in [0u8, 1, 0x5A, 0xFF] {
            let data = line(fill);
            assert_eq!(
                fast.digest_with(&data, &mut s),
                portable.digest_with(&data, &mut s)
            );
        }
    }

    proptest! {
        // Differential: the fast leg must be bit-identical to the scalar
        // leg at every length (ragged tails, partial lane steps).
        #[test]
        fn strong_fast_matches_portable(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            key_bytes in proptest::collection::vec(any::<u8>(), 32..33),
        ) {
            let mut s = StrongScratch::new();
            let key: [u8; 32] = key_bytes.try_into().unwrap();
            let fast = StrongKeyed::with_key_on(key, StrongLeg::Fast);
            let portable = StrongKeyed::with_key_on(key, StrongLeg::Portable);
            prop_assert_eq!(
                fast.digest_wide_with(&data, &mut s),
                portable.digest_wide_with(&data, &mut s)
            );
        }

        #[test]
        fn strong_single_bit_flip_changes_tag(
            mut data in proptest::collection::vec(any::<u8>(), 1..256),
            idx in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut s = StrongScratch::new();
            let h = StrongKeyed::new();
            let before = h.digest_with(&data, &mut s);
            let i = idx % data.len();
            data[i] ^= 1 << bit;
            prop_assert_ne!(h.digest_with(&data, &mut s), before);
        }
    }
}
