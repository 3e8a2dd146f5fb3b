//! What one repetition on a fresh engine produced, whichever surface it
//! went through.

use std::path::PathBuf;

use dewrite_core::RunReport;
use dewrite_engine::{CacheStats, ShardSummary};

use crate::inputs::Inputs;

/// A duration as saturating `u32` nanoseconds (samples top out at 4.29 s).
pub fn ns32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Host-side counters of the shard that served a repetition.
#[derive(Debug, Clone, Default)]
pub struct ShardSide {
    /// Metadata-cache counters.
    pub cache: CacheStats,
    /// Allocator claims.
    pub fsm_claims: u64,
    /// Allocator probe steps per claim.
    pub fsm_scan_steps_per_claim: f64,
    /// Mean residual queue depth at each worker pop (0 for direct calls).
    pub queue_depth_mean: f64,
}

impl ShardSide {
    /// The counters a service or wire run's shard summary carries.
    pub fn from_summary(s: &ShardSummary) -> ShardSide {
        ShardSide {
            cache: s.cache,
            fsm_claims: s.fsm.claims,
            fsm_scan_steps_per_claim: s.fsm.scan_steps_per_claim(),
            queue_depth_mean: s.queue_depth_mean,
        }
    }
}

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Timed operations issued.
    pub attempted: u64,
    /// Timed operations that errored, were rejected, or never completed.
    pub failed: u64,
    /// Wall time of the timed window, ns.
    pub wall_ns: u64,
    /// Process CPU time over the timed window, ns.
    pub cpu_ns: u64,
    /// Untimed bring-up before the window (engine start, handshake,
    /// request pre-build, warm-up replay), ns.
    pub bringup_ns: u64,
    /// Per-operation latency samples, ns, in completion order.
    pub lat_ns: Vec<u32>,
    /// Open loop only: how late each send ran against its due time, ns.
    pub lag_ns: Vec<u32>,
    /// The simulated report (engine surfaces: warm-up included).
    pub report: RunReport,
    /// Shard 0's report text exactly as the surface returned it.
    pub report_json: String,
    /// Host-side shard counters (engine surfaces).
    pub shard: ShardSide,
    /// `try_submit` calls handed back because the shard queue was full.
    pub submit_full: u64,
    /// `try_submit` calls made.
    pub submits: u64,
    /// Client `read`/`write` system calls over the timed window.
    pub syscalls: u64,
    /// Request + response bytes over the timed window.
    pub wire_bytes: u64,
    /// Durable runs: how long `recover_state` took, ns.
    pub recover_ns: u64,
    /// Output checks that failed; empty on a correct repetition.
    pub problems: Vec<String>,
}

impl Rep {
    /// Judge this pass: its own problems, and its report against the
    /// `reference` pass's text, go to `problems` under `what`. Returns
    /// how many of its operations count as failed — all of them when its
    /// outputs did not verify.
    pub fn judge(&self, what: &str, reference: Option<&str>, problems: &mut Vec<String>) -> u64 {
        let mut bad = !self.problems.is_empty();
        problems.extend(self.problems.iter().map(|p| format!("{what}: {p}")));
        if reference.is_some_and(|text| text != self.report_json) {
            problems.push(format!(
                "{what}: simulated report differs from the reference pass's"
            ));
            bad = true;
        }
        if bad {
            return self.attempted;
        }
        if self.failed > 0 {
            problems.push(format!(
                "{what}: {} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        self.failed
    }

    /// Check the simulated report against what the trace must produce.
    /// `with_warmup` says whether the report covers the warm-up writes.
    pub fn check_report(&mut self, inputs: &Inputs, with_warmup: bool) {
        let timed_writes = inputs.records.iter().filter(|r| r.op.is_write()).count() as u64;
        let reads = inputs.records.len() as u64 - timed_writes;
        let writes = timed_writes
            + if with_warmup {
                inputs.warmup.len() as u64
            } else {
                0
            };
        let b = &self.report.base;
        if b.writes != writes || b.reads != reads {
            self.problems.push(format!(
                "report counts {} writes + {} reads, the trace holds {writes} + {reads}",
                b.writes, b.reads
            ));
        }
        if b.writes_eliminated + b.coalesced_writes + self.report.nvm_data_writes != b.writes {
            self.problems.push(format!(
                "eliminated {} + coalesced {} + stored {} != {} writes",
                b.writes_eliminated, b.coalesced_writes, self.report.nvm_data_writes, b.writes
            ));
        }
    }
}

/// A scratch directory under the package's git-ignored `out/`, unique to
/// this process, removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `out/<tag>-<pid>/`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let dir = crate::host::package_dir()
            .join("out")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
