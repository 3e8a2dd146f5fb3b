//! Hash functions and their hardware cost models for in-line deduplication.
//!
//! The DeWrite paper (MICRO'18) contrasts two classes of fingerprinting
//! functions for detecting duplicate cache lines:
//!
//! * **Light-weight hashes** — CRC-32, computable in hardware in ~15 ns.
//!   Collisions are expected, so a digest match must be confirmed by reading
//!   the candidate line and comparing bytes (cheap on NVM, where reads are
//!   3–8× faster than writes).
//! * **Cryptographic hashes** — SHA-1 (321 ns) and MD5 (312 ns), used by
//!   traditional storage deduplication. A match is *assumed* to mean
//!   duplicate data, but the latency is comparable to an entire NVM write
//!   (300 ns), which disqualifies them for in-line memory deduplication.
//!
//! This crate provides real implementations of all four functions (validated
//! against their published test vectors) plus the latency/energy model from
//! Table I of the paper, so the rest of the system measures *actual* digests
//! of *actual* bytes while accounting time analytically.
//!
//! # Example
//!
//! ```
//! use dewrite_hashes::{Crc32, LineHasher};
//!
//! let line = [0xA5u8; 256];
//! let hasher = Crc32::new();
//! let digest = hasher.digest(&line);
//! assert_eq!(digest, hasher.digest(&line)); // deterministic
//! assert_eq!(hasher.cost().latency_ns, 15);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
#[cfg(target_arch = "x86_64")]
mod crc32_hw;
mod md5;
mod portable;
mod sha1;
mod traits;

pub use crc32::{Crc32, Crc32c, CrcBackend};
pub use md5::{md5_digest, Md5};
pub use portable::{portable_only, set_portable_only};
pub use sha1::{sha1_digest, Sha1};
pub use traits::{HashAlgorithm, HashCost, LineHasher};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_cover_their_constructor() {
        for alg in HashAlgorithm::ALL {
            let h = alg.hasher();
            assert_eq!(h.algorithm(), alg);
        }
    }

    #[test]
    fn costs_match_paper_table_1a() {
        assert_eq!(HashAlgorithm::Sha1.cost().latency_ns, 321);
        assert_eq!(HashAlgorithm::Md5.cost().latency_ns, 312);
        assert_eq!(HashAlgorithm::Crc32.cost().latency_ns, 15);
        assert_eq!(HashAlgorithm::Sha1.cost().digest_bits, 160);
        assert_eq!(HashAlgorithm::Md5.cost().digest_bits, 128);
        assert_eq!(HashAlgorithm::Crc32.cost().digest_bits, 32);
    }
}
