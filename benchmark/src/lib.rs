//! The repo benchmark: seven workloads from a direct controller call to
//! a loopback socket, nine end-to-end metrics, and (in the `bench-layers`
//! binary) a traced ladder whose per-layer rows sum to them.
//!
//! This library is what the gating `bench` binary is made of. It drives
//! the system only through its entry surfaces — `TraceGenerator`,
//! `ShardController`, `EngineService`, `NetServer` + `proto`,
//! `Simulator` — plus `persist`'s options and `recover_state` for the
//! durable workload, so a refactor below those surfaces cannot break the
//! gate. See `README.md` beside the manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod ctrl;
pub mod host;
pub mod inputs;
pub mod output;
pub mod reference;
pub mod rep;
pub mod run;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod svc;
pub mod wire;
