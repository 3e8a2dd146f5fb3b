//! The dedup index's digest function: the one piece of the write path the
//! simulator scheme ([`DeWrite`](crate::DeWrite)) and the engine's shard
//! controller compute identically, kept in one place.

use dewrite_hashes::{HashAlgorithm, HashCost, LineHasher, StrongKeyed, StrongScratch};

use crate::DigestMode;

/// Computes the digest that keys the dedup index under a [`DigestMode`]:
/// the light hash folded to 32 bits and zero-extended
/// ([`DigestMode::Crc32Verify`], so probe sequences are identical to the
/// seed), or the 64-bit strong keyed tag ([`DigestMode::StrongKeyed`]).
pub struct IndexDigest {
    hasher: Box<dyn LineHasher>,
    /// Strong keyed digest (per-run key derived from the memory-encryption
    /// key) plus its owner's reusable scratch state, so the hot path never
    /// allocates; `Some` iff the mode is [`DigestMode::StrongKeyed`].
    strong: Option<(StrongKeyed, StrongScratch)>,
}

impl IndexDigest {
    /// The digest function for `mode`, with `algorithm` as the light hash
    /// and the strong key derived from the memory-encryption `key` (so
    /// every controller keyed alike agrees on it).
    pub fn new(algorithm: HashAlgorithm, mode: DigestMode, key: &[u8; 16]) -> Self {
        IndexDigest {
            hasher: algorithm.hasher(),
            strong: (mode == DigestMode::StrongKeyed)
                .then(|| (StrongKeyed::derive(key), StrongScratch::new())),
        }
    }

    /// Fold a 64-bit fingerprint into 32 bits: the hash-table key in CRC
    /// mode (zero-extended back to `u64`), and the 4-byte colocated
    /// inverted-row digest in both modes (§III-C fixes that slot at 32
    /// bits). For zero-extended CRC digests the fold is the identity.
    pub fn fold(d: u64) -> u32 {
        (d ^ (d >> 32)) as u32
    }

    /// The mode this digest was built for.
    pub fn mode(&self) -> DigestMode {
        if self.strong.is_some() {
            DigestMode::StrongKeyed
        } else {
            DigestMode::Crc32Verify
        }
    }

    /// The configured light-hash algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.hasher.algorithm()
    }

    /// The index digest of `data`.
    #[inline]
    pub fn digest(&mut self, data: &[u8]) -> u64 {
        match self.strong.as_mut() {
            Some((strong, scratch)) => strong.digest_with(data, scratch),
            None => u64::from(Self::fold(self.hasher.digest(data))),
        }
    }

    /// [`digest`](Self::digest) through `&self` (cold paths: a scrub uses a
    /// throwaway scratch).
    pub fn digest_readonly(&self, data: &[u8]) -> u64 {
        match self.strong.as_ref() {
            Some((strong, _)) => strong.digest_with(data, &mut StrongScratch::new()),
            None => u64::from(Self::fold(self.hasher.digest(data))),
        }
    }

    /// Modeled hardware cost of one digest under the mode.
    pub fn cost(&self) -> HashCost {
        if self.strong.is_some() {
            HashAlgorithm::StrongKeyed.cost()
        } else {
            self.hasher.cost()
        }
    }
}
