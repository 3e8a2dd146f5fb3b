//! The dedup index's digest function: the one piece of the write path the
//! simulator scheme ([`DeWrite`](crate::DeWrite)) and the engine's shard
//! controller compute identically, kept in one place.

use dewrite_hashes::{HashAlgorithm, HashCost, LineHasher};

/// Computes the digest that keys the dedup index: the light hash folded to
/// 32 bits and zero-extended, so probe sequences are identical to the seed.
pub struct IndexDigest {
    hasher: Box<dyn LineHasher>,
}

impl IndexDigest {
    /// The digest function with `algorithm` as the light hash.
    pub fn new(algorithm: HashAlgorithm) -> Self {
        IndexDigest {
            hasher: algorithm.hasher(),
        }
    }

    /// Fold a 64-bit fingerprint into 32 bits: the hash-table key
    /// (zero-extended back to `u64`) and the 4-byte colocated inverted-row
    /// digest (§III-C fixes that slot at 32 bits). For zero-extended CRC
    /// digests the fold is the identity.
    pub fn fold(d: u64) -> u32 {
        (d ^ (d >> 32)) as u32
    }

    /// The configured light-hash algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.hasher.algorithm()
    }

    /// The index digest of `data`.
    #[inline]
    pub fn digest(&self, data: &[u8]) -> u64 {
        u64::from(Self::fold(self.hasher.digest(data)))
    }

    /// Modeled hardware cost of one digest.
    pub fn cost(&self) -> HashCost {
        self.hasher.cost()
    }
}
