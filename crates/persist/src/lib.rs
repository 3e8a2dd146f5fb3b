//! Crash-consistent persistence for the dedup metadata of the engine's shards.
//!
//! The paper keeps the dedup tables and encryption counters in NVM, so they
//! survive power loss by construction; here they are host structures that
//! vanish with the process. This crate makes the engine's per-shard tables
//! (`ShardController::attach_persistence`) durable the way a real
//! controller with a volatile metadata cache would (SecPM-style, §V of the
//! paper):
//!
//! * a **write-ahead log** ([`wal`]) of checksummed, length-prefixed
//!   records, each carrying the [`MetaOp`](dewrite_core::MetaOp)s of one
//!   *epoch* of data writes (ordered append → fsync → apply);
//! * periodic **checkpoints** ([`Checkpoint`]) serialized from the core's
//!   [`Snapshot`](dewrite_core::Snapshot), after which older log segments
//!   are pruned;
//! * a **recovery path** ([`recover_state`]) that loads the newest valid
//!   checkpoint (falling back to the previous one if the newest is
//!   corrupt), replays the log suffix, detects and discards a torn tail,
//!   and hands back the [`Snapshot`](dewrite_core::Snapshot) of the last
//!   flushed epoch;
//! * a **fault-injection shim** ([`TornWriter`], [`apply_fault`]) that
//!   truncates or bit-flips at a chosen byte boundary, driving the
//!   kill-at-random-point torture tests.
//!
//! Persistence runs entirely in host time: enabling it never changes the
//! simulated `RunReport` (the epoch-flush *cost* model already lives in the
//! core's `MetadataPersistence` policy).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod durable;
mod recover;
mod store;
mod torn;
mod wal;

pub use checkpoint::{Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use durable::{DurableOptions, EpochLog};
pub use recover::{recover_state, RecoveryStats};
pub use store::{MetaStore, PersistStats};
pub use torn::{apply_fault, Fault, TornWriter};
pub use wal::{
    decode_wal, encode_record, encode_wal_header, DecodedWal, WalRecord, WalTail, MAX_RECORD_BYTES,
    WAL_HEADER_BYTES, WAL_MAGIC, WAL_VERSION,
};

/// Errors of the persistence and recovery layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The durable state was produced under a different controller
    /// configuration (fingerprint mismatch): refusing to reinterpret it.
    ConfigMismatch(String),
    /// The durable state is structurally broken beyond a discardable torn
    /// tail (no valid checkpoint, a gap in the log chain).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::ConfigMismatch(m) => write!(f, "configuration mismatch: {m}"),
            PersistError::Corrupt(m) => write!(f, "durable state corrupt: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}
