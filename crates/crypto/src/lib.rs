//! Memory encryption for non-volatile main memory (NVMM).
//!
//! Implements the two CPU-side encryption models described in §II-B of the
//! DeWrite paper:
//!
//! * **Counter-mode encryption** ([`CounterModeEngine`]) — the data path.
//!   A one-time pad is derived from the secret key, the line address, and a
//!   per-line counter ([`LineCounter`]); pad generation overlaps the NVM read
//!   so only an XOR sits on the read critical path.
//! * **Direct encryption** ([`DirectEngine`]) — the metadata path. Blocks are
//!   passed through the cipher directly; decryption serializes with the
//!   memory access, which is acceptable because metadata-cache hit rates are
//!   high.
//!
//! The block cipher is AES-128 with three interchangeable backends behind
//! the [`Aes128`] dispatcher: precomputed T-tables (portable fast path),
//! AES-NI (runtime-detected on x86-64), and a from-scratch FIPS-197
//! implementation compiled only into this crate's tests, as the oracle every
//! fast backend is differentially tested against. All backends produce identical
//! ciphertext; backend choice only changes *host* speed, never simulated
//! results. Real ciphertext is produced so that diffusion effects — the
//! reason bit-level write-reduction schemes fail on encrypted NVM — are
//! *measured* rather than assumed by downstream experiments.
//!
//! Simulated hardware costs follow §IV-A and are independent of the host
//! backend: 96 ns AES latency per 256 B line ([`AES_LINE_LATENCY_NS`]) and
//! 5.9 nJ per 128-bit block ([`AES_BLOCK_ENERGY_PJ`]).
//!
//! # Example
//!
//! ```
//! use dewrite_crypto::{CounterModeEngine, LineCounter};
//!
//! let engine = CounterModeEngine::new(b"an example key!!");
//! let mut counter = LineCounter::new();
//! assert!(counter.increment()); // every write bumps the counter
//!
//! let plaintext = vec![42u8; 256];
//! let ciphertext = engine.encrypt_line(&plaintext, 0x8000, counter);
//! assert_eq!(engine.decrypt_line(&ciphertext, 0x8000, counter), plaintext);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
mod counter;
mod dispatch;
mod engine;
mod ttable;

#[cfg(test)]
pub(crate) use aes::Aes128Reference;
pub use counter::{LineCounter, COUNTER_BITS, COUNTER_MAX};
pub use dispatch::{portable_only, set_portable_only, Aes128, AesBackend};
pub use engine::{
    aes_line_energy_pj, CounterModeEngine, DirectEngine, AES_BLOCK_ENERGY_PJ, AES_LINE_LATENCY_NS,
    OTP_XOR_LATENCY_NS,
};
