//! `dewrite-engine`: a sharded, multi-threaded memory-controller service
//! over the DeWrite dedup pipeline.
//!
//! The paper models one memory controller; production-scale encrypted NVMM
//! needs several operating concurrently. This crate partitions the line
//! space across N controller shards by address interleaving. Each
//! [`ShardController`] exclusively owns its slice's dedup state — hash +
//! inverted-hash tables (implicitly sharded by digest, since a digest only
//! lands where its address routed), address map + colocated CME counters
//! (sharded by line address), a metadata cache, a 3-bit predictor, and a
//! single-owner free-space map (`&mut`, no atomic read-modify-write) — so
//! shards never share mutable state.
//!
//! One model, two drivers: whichever thread submits an operation runs its
//! shard. [`run`] drives one fixed trace: it partitions the trace by
//! owning shard up front, each of its threads owns the shards it feeds
//! outright (no queue, no lock) and applies its slice in trace order, and
//! the per-shard simulated reports fold into one deterministic aggregate
//! via `RunReport::merge_all`. [`EngineService`] is the long-running form
//! for served deployments, where the submitter is not known in advance, so
//! ownership is a per-shard lock: [`EngineService::apply`] and
//! [`EngineService::try_submit`] run the target shard on the submitting
//! thread under that shard's lock and refuse nothing (the caller bounds
//! what it has in flight), with per-lane completion queues, per-shard
//! sequence-number reordering (so any interleaving of network
//! connections replays each shard's exact trace subsequence), and a
//! graceful drain that flushes and checkpoints attached persistence.
//! Neither owns a thread beyond the ones its caller brings (`run`'s are
//! scoped to the call). The `loadgen` binary (in
//! `crates/net`) drives 1..=16 shards in process (closed loop) or over a
//! socket (closed or open loop) and emits `BENCH_engine.json`,
//! including the **digest-sharding cost**: a shard only dedups against
//! content written through it, so the sharded dedup rate trails the
//! global (1-shard) rate; the delta is reported per app.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod service;
mod shard;

pub use dewrite_core::DigestMode;
pub use dewrite_mem::{CacheStats, Replacement};
pub use engine::{run, Backoff, EngineConfig, EngineRun, ShardSummary};
pub use service::{
    Completion, CompletionBody, DataOp, EngineService, ServiceOp, ServiceRequest, CONTROL_SEQ,
};
pub use shard::{FsmPolicy, ShardController, ShardWrite, MAX_CANDIDATE_COMPARES};
