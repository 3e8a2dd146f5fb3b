//! Metadata-mutation journal: the vocabulary of durable state changes a
//! write applies, expressed at the same level as [`Snapshot`](crate::Snapshot).
//!
//! The dedup hash table's reference counts are deliberately *not* part of
//! this vocabulary: they are derived state, recomputed from the mappings by
//! [`Snapshot::rebuild`](crate::Snapshot::rebuild) exactly as a recovery
//! scan of the inverted table would. Logging only the primary state keeps
//! each write's log footprint at a handful of fixed-size ops and makes
//! replay trivially idempotent (every op is an absolute assignment, not a
//! delta).
//!
//! Predictor and cache state are excluded entirely: they are performance
//! hints that any controller rebuilds cold after a restart.
//!
//! Producers: [`DeWrite`](crate::DeWrite) (after
//! [`set_meta_journal`](crate::DeWrite::set_meta_journal)) and the engine's
//! `ShardController`. Consumer: the `dewrite-persist` crate's write-ahead
//! log, which encodes these ops into checksummed epoch records.

/// One durable metadata mutation, in snapshot-level terms.
///
/// Addresses are global line indices (the same namespace as
/// [`Snapshot`](crate::Snapshot) uses), so an op stream replays onto a
/// snapshot image without translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// Address-mapping update: `init` now resolves to `real` (identity
    /// mappings included — they also mark the address as written).
    MapSet {
        /// Initial (workload-visible) line address.
        init: u64,
        /// Physical line now holding `init`'s content.
        real: u64,
    },
    /// Inverted-table update: `real` is resident with content `digest`
    /// (insert-or-overwrite; an in-place overwrite replaces the digest).
    ResidentSet {
        /// Physical line address.
        real: u64,
        /// Content fingerprint: the folded 32-bit light hash zero-extended.
        digest: u64,
    },
    /// Inverted-table clear: `real` lost its last reference and was freed.
    ResidentDel {
        /// Physical line address.
        real: u64,
    },
    /// Encryption-counter update for a physical line. Counters are never
    /// deleted (pad uniqueness must survive slot reuse).
    CounterSet {
        /// Physical line address.
        line: u64,
        /// New counter value.
        value: u32,
    },
}
