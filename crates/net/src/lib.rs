//! `dewrite-net`: a TCP frontend for the sharded dedup engine.
//!
//! The engine crate's [`EngineService`](dewrite_engine::EngineService)
//! accepts work from any number of concurrent submitters and keeps the
//! merged simulated report deterministic through per-shard sequence
//! numbers. This crate puts a wire on it:
//!
//! * [`proto`] — a dependency-free binary protocol: length-prefixed,
//!   CRC-guarded frames, versioned and hardened like the persist codecs.
//! * [`server`] — `dewrite-serve`'s core: a std-only, thread-per-core,
//!   nonblocking event loop (no async runtime — the build environment is
//!   offline) multiplexing thousands of connections into the engine's
//!   non-blocking submit path, with per-connection in-order responses,
//!   graceful drain (flush WAL epochs + checkpoint), and a hard-abort
//!   switch for crash testing.
//! * [`client`] — a blocking control connection plus a multi-connection
//!   data-phase driver used by `loadgen --net`, reporting host-side
//!   end-to-end latency quarantined in a [`client::NetSummary`].
//!
//! # The determinism boundary
//!
//! Every data request carries its **per-shard sequence number** in-band
//! ([`proto::Request::Write`]`::shard_seq`), so a socket-driven replay —
//! any connection count, any interleaving — produces a merged simulated
//! `RunReport` bit-identical to the in-process run. Host-side
//! measurements (socket latency, ops/s) never touch the simulated
//! report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{drive, request_shutdown, Control, DriveOptions, HelloInfo, NetSummary, Pacing};
pub use server::{NetServer, ServeOptions, ServeOutcome, ServerHandle};
