//! **dewrite** — a reproduction of *"Improving the Performance and
//! Endurance of Encrypted Non-Volatile Main Memory through Deduplicating
//! Writes"* (Zuo et al., MICRO 2018).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`nvm`] — the PCM device model (banks, row buffers, asymmetric timing,
//!   wear and energy accounting);
//! * [`crypto`] — AES-128 with counter-mode and direct encryption engines;
//! * [`hashes`] — CRC-32/CRC-32C/SHA-1/MD5 with the paper's hardware cost
//!   model;
//! * [`trace`] — calibrated synthetic workloads for the 20 SPEC/PARSEC
//!   applications and the duplication oracle;
//! * [`mem`] — metadata cache, in-order core model, latency statistics;
//! * [`core`] — DeWrite itself, every baseline scheme, and the trace-driven
//!   simulator;
//! * [`persist`] — crash-consistent metadata persistence: write-ahead log,
//!   checkpoints, torn-write fault injection, and recovery replay.
//!
//! # Quick start
//!
//! ```
//! use dewrite::core::{DeWrite, DeWriteConfig, SecureMemory, SystemConfig};
//! use dewrite::nvm::LineAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = DeWrite::new(
//!     SystemConfig::for_lines(4096),
//!     DeWriteConfig::paper(),
//!     b"a 16-byte secret",
//! );
//! let line = vec![0xAB; 256];
//! let first = mem.write(LineAddr::new(0), &line, 0)?;
//! let dup = mem.write(LineAddr::new(1), &line, 1_000)?;
//! assert!(!first.eliminated && dup.eliminated);
//! assert_eq!(mem.read(LineAddr::new(1), 2_000)?.data, line);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment harness regenerating every figure and table of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dewrite_core as core;
pub use dewrite_crypto as crypto;
pub use dewrite_hashes as hashes;
pub use dewrite_mem as mem;
pub use dewrite_nvm as nvm;
pub use dewrite_persist as persist;
pub use dewrite_trace as trace;
