//! A workload's inputs, made from the seed and nothing else.

use std::time::Instant;

use dewrite_engine::EngineConfig;
use dewrite_trace::{app_by_name, TraceGenerator, TraceRecord};

use crate::spec::{Workload, CONTENT_POOL, LINE_SIZE, WORKING_SET_LINES};

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Profile name, stamped on reports.
    pub app: &'static str,
    /// Pool-seeding writes, replayed untimed before every repetition.
    pub warmup: Vec<TraceRecord>,
    /// The timed records.
    pub records: Vec<TraceRecord>,
    /// Line-address span the trace may touch.
    pub lines: u64,
    /// Writes among `warmup` + `records` (sizes the shard arena).
    pub writes: u64,
    /// Host nanoseconds generation took.
    pub gen_ns: u64,
}

impl Inputs {
    /// Generate `ops` records of `workload`'s trace from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the workload names an unknown profile (a bug in the
    /// workload table).
    pub fn generate(workload: &Workload, ops: usize, seed: u64) -> Inputs {
        let start = Instant::now();
        let mut profile = app_by_name(workload.app).expect("workload names a known profile");
        profile.working_set_lines = WORKING_SET_LINES;
        profile.content_pool_size = CONTENT_POOL;
        if workload.writes_only {
            profile.reads_per_write = 0.0;
        }
        let app = profile.name;
        let mut gen = TraceGenerator::new(profile, LINE_SIZE, seed);
        let lines = gen.required_lines();
        let warmup = gen.warmup_records();
        let records: Vec<TraceRecord> = gen.by_ref().take(ops).collect();
        let writes = (warmup.len() + records.iter().filter(|r| r.op.is_write()).count()) as u64;
        Inputs {
            app,
            warmup,
            records,
            lines,
            writes,
            gen_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// The same inputs cut down to their first `ops` records (window-1
    /// round-trip passes need only a prefix).
    pub fn prefix(&self, ops: usize) -> Inputs {
        let records: Vec<TraceRecord> = self.records.iter().take(ops).cloned().collect();
        let writes =
            (self.warmup.len() + records.iter().filter(|r| r.op.is_write()).count()) as u64;
        Inputs {
            records,
            writes,
            warmup: self.warmup.clone(),
            ..*self
        }
    }

    /// The one-shard engine configuration every engine surface is sized
    /// with — the direct controller included, so a trace's simulated
    /// report is the same text whichever surface it went through.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::for_workload(1, LINE_SIZE, self.lines, self.writes)
    }
}
