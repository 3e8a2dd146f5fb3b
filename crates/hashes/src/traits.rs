//! The [`LineHasher`] abstraction and per-algorithm hardware cost model.

use crate::{Crc32, Crc32c, Md5, Sha1};

/// Hardware cost of computing one cache-line fingerprint.
///
/// Latencies follow Table I(a) of the paper; the CRC-32C entry reuses the
/// CRC-32 figure (same circuit structure, different polynomial). Energy
/// figures are rough per-line estimates used by the energy accounting: the
/// paper states that CRC + byte-compare energy is negligible next to AES
/// (5.9 nJ per 128-bit block, i.e. ~94 nJ per 256 B line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashCost {
    /// Latency of fingerprinting one 256 B line, in nanoseconds.
    pub latency_ns: u64,
    /// Width of the digest in bits.
    pub digest_bits: u32,
    /// Energy of fingerprinting one 256 B line, in picojoules.
    pub energy_pj: u64,
}

/// The fingerprinting functions evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashAlgorithm {
    /// CRC-32 (IEEE 802.3, reflected) — DeWrite's light-weight hash.
    Crc32,
    /// CRC-32C (Castagnoli) — ablation alternative with the same cost.
    Crc32c,
    /// MD5 — traditional deduplication fingerprint (128-bit).
    Md5,
    /// SHA-1 — traditional deduplication fingerprint (160-bit).
    Sha1,
}

impl HashAlgorithm {
    /// The paper's Table I(a) algorithms, in display order.
    pub const ALL: [HashAlgorithm; 4] = [
        HashAlgorithm::Crc32,
        HashAlgorithm::Crc32c,
        HashAlgorithm::Md5,
        HashAlgorithm::Sha1,
    ];

    /// The hardware cost model for this algorithm (Table I(a)).
    pub fn cost(self) -> HashCost {
        match self {
            HashAlgorithm::Crc32 | HashAlgorithm::Crc32c => HashCost {
                latency_ns: 15,
                digest_bits: 32,
                energy_pj: 50,
            },
            HashAlgorithm::Md5 => HashCost {
                latency_ns: 312,
                digest_bits: 128,
                energy_pj: 4_000,
            },
            HashAlgorithm::Sha1 => HashCost {
                latency_ns: 321,
                digest_bits: 160,
                energy_pj: 5_000,
            },
        }
    }

    /// Construct a boxed hasher for this algorithm.
    ///
    /// ```
    /// use dewrite_hashes::HashAlgorithm;
    /// let h = HashAlgorithm::Crc32.hasher();
    /// assert_eq!(h.digest(b"hello"), h.digest(b"hello"));
    /// ```
    pub fn hasher(self) -> Box<dyn LineHasher> {
        match self {
            HashAlgorithm::Crc32 => Box::new(Crc32::new()),
            HashAlgorithm::Crc32c => Box::new(Crc32c::new()),
            HashAlgorithm::Md5 => Box::new(Md5::new()),
            HashAlgorithm::Sha1 => Box::new(Sha1::new()),
        }
    }
}

impl std::fmt::Display for HashAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HashAlgorithm::Crc32 => "CRC-32",
            HashAlgorithm::Crc32c => "CRC-32C",
            HashAlgorithm::Md5 => "MD5",
            HashAlgorithm::Sha1 => "SHA-1",
        };
        f.write_str(name)
    }
}

/// A fingerprinting function over cache-line contents.
///
/// Implementations compute real digests; for digests wider than 64 bits
/// ([`Md5`], [`Sha1`]) the value returned by [`digest`](Self::digest) is the
/// leading 64 bits of the full digest, which is what a hash-table index would
/// consume. Full digests remain available from the concrete types.
///
/// The trait is object-safe so heterogeneous experiment sweeps can hold
/// `Box<dyn LineHasher>`.
pub trait LineHasher: Send + Sync {
    /// Which algorithm this hasher implements.
    fn algorithm(&self) -> HashAlgorithm;

    /// Fingerprint `data`, returning (up to) the leading 64 bits of the
    /// digest.
    fn digest(&self, data: &[u8]) -> u64;

    /// The hardware cost of one invocation.
    fn cost(&self) -> HashCost {
        self.algorithm().cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(HashAlgorithm::Crc32.to_string(), "CRC-32");
        assert_eq!(HashAlgorithm::Sha1.to_string(), "SHA-1");
        assert_eq!(HashAlgorithm::Md5.to_string(), "MD5");
        assert_eq!(HashAlgorithm::Crc32c.to_string(), "CRC-32C");
    }

    #[test]
    fn boxed_hashers_disagree_on_same_input() {
        // Different algorithms should (virtually always) produce different
        // digests for the same input; use a fixed input to keep this
        // deterministic.
        let input = b"the quick brown fox jumps over the lazy dog";
        let digests: Vec<u64> = HashAlgorithm::ALL
            .iter()
            .map(|a| a.hasher().digest(input))
            .collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn LineHasher>();
    }
}
