//! DeWrite: deduplicating writes for encrypted non-volatile main memory.
//!
//! This crate is the primary contribution of the reproduction — a faithful
//! implementation of the MICRO'18 DeWrite design plus every baseline it is
//! evaluated against:
//!
//! | Component | Paper section | Module |
//! |-----------|---------------|--------|
//! | 3-bit history predictor | §III-A | [`HistoryPredictor`] |
//! | Hash / address-mapping / inverted / FSM tables | §III-B2 | [`tables`], [`DedupIndex`] |
//! | DeWrite controller (parallelism, PNA, colocation) | §III | [`DeWrite`] |
//! | Traditional secure NVM (CME, no dedup) | §IV-A | [`CmeBaseline`] |
//! | Traditional crypto-fingerprint dedup | §III-B1 | [`TraditionalDedup`] |
//! | DCW / FNW / DEUCE / Silent Shredder | §IV-B | [`bitlevel`] |
//! | Trace-driven simulator + reports | §IV | [`Simulator`], [`RunReport`] |
//!
//! # Quick start
//!
//! ```
//! use dewrite_core::{DeWrite, DeWriteConfig, SecureMemory, SystemConfig};
//! use dewrite_nvm::LineAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = DeWrite::new(
//!     SystemConfig::for_lines(4096),
//!     DeWriteConfig::paper(),
//!     b"a 16-byte secret",
//! );
//! let page = vec![0xCD; 256];
//! mem.write(LineAddr::new(10), &page, 0)?;
//! let dup = mem.write(LineAddr::new(11), &page, 1_000)?; // same content
//! assert!(dup.eliminated); // the NVM write never happened
//! assert_eq!(mem.read(LineAddr::new(11), 2_000)?.data, page);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitlevel;
pub mod colocate;
mod compare;
mod config;
mod counters;
mod dedup;
mod digest;
pub mod journal;
pub mod json;
mod metrics;
mod predictor;
mod schemes;
#[cfg(test)]
mod seed;
mod sim;
mod snapshot;
pub mod tables;
pub mod trace;

pub use bitlevel::{
    dcw_flips, fnw_flips, CmeLine, DeuceLine, DEUCE_EPOCH, DEUCE_WORD_BYTES, FNW_GROUP_BITS,
};
pub use colocate::ColocationStats;
pub use compare::lines_equal;
pub use config::{
    durable_fingerprint, BitEncoding, DeWriteConfig, DigestMode, MetaCacheConfig,
    MetadataPersistence, SystemConfig, WriteMode,
};
pub use counters::CounterTable;
pub use dedup::{CommitKernel, DedupIndex, FreeSpace, WriteOutcome};
pub use dewrite_mem::Replacement;
pub use digest::IndexDigest;
pub use journal::MetaOp;
pub use json::Json;
pub use metrics::RunReport;
pub use predictor::HistoryPredictor;
pub use schemes::{
    BaseMetrics, CmeBaseline, DeWrite, DeWriteCacheStats, DeWriteMetrics, ReadResult, SecureMemory,
    SilentShredder, TraditionalDedup, WriteResult,
};
pub use sim::Simulator;
pub use snapshot::{Snapshot, MAX_SNAPSHOT_LINES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use trace::{Stage, StageBreakdown, WriteEvent, WritePath};
