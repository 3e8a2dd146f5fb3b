//! Memory-controller substrate: metadata cache, core model, latency stats.
//!
//! These are the controller-side building blocks every secure-NVMM scheme in
//! the reproduction shares:
//!
//! * [`MetadataCache`] — the on-chip, write-back, set-associative cache that
//!   existing secure NVMMs use for encryption counters and that DeWrite
//!   extends to hold dedup metadata; supports the sequential prefetch fills
//!   whose granularity Fig. 21 sweeps.
//! * [`CoreModel`] — a simple in-order core that stalls on persist-ordered
//!   writes and demand reads, turning memory latencies into the IPC numbers
//!   of Fig. 17.
//! * [`LatencyStats`] — streaming latency summaries used for the read/write
//!   speedup figures.
//! * [`hint`] — the safe cache-line prefetch hint the host-side hot paths
//!   issue ahead of known-needed lines (the crate's only `unsafe` block).
//!
//! # Example
//!
//! ```
//! use dewrite_mem::{CacheConfig, MetadataCache};
//!
//! // A 512 KB cache of 8-byte entries = 64 Ki entries.
//! let mut cache = MetadataCache::new(CacheConfig::with_capacity(64 * 1024));
//! if !cache.access(1234, false) {
//!     cache.insert(1234, false); // fill after miss
//! }
//! assert!(cache.access(1234, false));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod core_model;
mod hierarchy;
pub mod hint;
#[cfg(test)]
mod seed;
mod stats;

pub use cache::{CacheConfig, CacheStats, Evicted, MetadataCache, Replacement};
pub use core_model::{CoreConfig, CoreModel};
pub use hierarchy::{CacheHierarchy, HierarchyOutcome, LevelConfig, LevelStats};
pub use stats::{LatencyHistogram, LatencyStats};
