//! Workload generation and analysis for the DeWrite reproduction.
//!
//! The paper evaluates on 20 applications from SPEC CPU2006 and PARSEC 2.1.
//! Those suites (and gem5 to run them) are unavailable here, so this crate
//! substitutes **calibrated synthetic traces**: each application is a
//! statistical [`AppProfile`] whose parameters are digitised from the
//! paper's own figures — duplication ratio and zero-line share (Fig. 2),
//! duplication-state persistence (Fig. 4), plus read/write mix and write
//! density. A [`TraceGenerator`] turns a profile into a deterministic,
//! seeded stream of line-granular [`TraceRecord`]s; the [`DupOracle`]
//! measures ground-truth duplication of any trace. Every driver
//! regenerates its records from (app, seed), so the same pair replays
//! bit-identically across schemes without a trace file.
//!
//! # Example
//!
//! ```
//! use dewrite_trace::{app_by_name, DupOracle, TraceGenerator};
//!
//! let profile = app_by_name("lbm").expect("known app");
//! let mut gen = TraceGenerator::new(profile, 256, 1);
//! let mut oracle = DupOracle::new();
//! for rec in gen.warmup_records() {
//!     oracle.observe_warmup(&rec);
//! }
//! for rec in gen.by_ref().take(2_000) {
//!     oracle.observe(&rec);
//! }
//! // lbm is one of the paper's most duplicate-heavy applications (~95%).
//! assert!(oracle.stats().dup_ratio() > 0.85);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod apps;
mod generator;
mod partition;
mod profile;
mod record;
mod zipf;

pub use analysis::{analyze, DupOracle, DupStats};
pub use apps::{
    all_apps, app_by_name, dup_flood, scan_adversary, worst_case, PARSEC_APPS, SPEC_APPS,
};
pub use generator::TraceGenerator;
pub use partition::shard_of_line;
pub use profile::{AppProfile, Suite};
pub use record::{TraceOp, TraceRecord};
pub use zipf::Zipf;
