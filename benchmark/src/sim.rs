//! The simulator rung: `Simulator::run` over the `DeWrite` scheme — the
//! paper-reproduction path, and the second copy of the write pipeline.

use std::time::Instant;

use dewrite_core::{DeWrite, DeWriteCacheStats, DeWriteConfig, Simulator, SystemConfig};
use dewrite_trace::TraceRecord;

use crate::host::cpu_ns;
use crate::inputs::Inputs;
use crate::rep::{ns32, Rep};

/// The trace as `Simulator::run` consumes it, clocking the simulator from
/// outside: the time between two `next()` calls is what the record handed
/// out by the first one cost.
struct Clocked {
    records: std::vec::IntoIter<TraceRecord>,
    stride: usize,
    index: usize,
    /// Start of the sampled record in flight, and whether it is a write.
    open: Option<(Instant, bool)>,
    samples: Vec<(bool, u32)>,
    /// Wall and CPU clocks at the first `next()` (after the warm-up).
    first: Option<(Instant, u64)>,
    /// Wall and CPU time from there to the end of the trace.
    window: (u64, u64),
}

impl Iterator for Clocked {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let rec = self.records.next();
        let sampled = rec.is_some() && self.index.is_multiple_of(self.stride);
        if self.open.is_some() || sampled || rec.is_none() {
            let now = Instant::now();
            if let Some((since, is_write)) = self.open.take() {
                self.samples.push((is_write, ns32(now - since)));
            }
            if let (true, Some(r)) = (sampled, &rec) {
                self.open = Some((now, r.op.is_write()));
            }
            match self.first {
                None => self.first = Some((now, cpu_ns())),
                Some((t0, cpu0)) if rec.is_none() => {
                    self.window = ((now - t0).as_nanos() as u64, cpu_ns() - cpu0);
                }
                Some(_) => {}
            }
        }
        self.index += 1;
        rec
    }
}

/// What a simulator repetition adds to [`Rep`].
#[derive(Debug)]
pub struct SimRep {
    /// The common measurements.
    pub rep: Rep,
    /// Per-record host cost samples `(is_write, ns)`, every `stride`-th.
    pub samples: Vec<(bool, u32)>,
    /// The scheme's metadata-cache counters.
    pub caches: DeWriteCacheStats,
}

/// One repetition: a fresh `DeWrite` (paper configuration, default
/// `SystemConfig`), warm-up replayed untimed inside `Simulator::run`,
/// every `stride`-th record clocked on its own.
pub fn run(inputs: &Inputs, stride: usize) -> SimRep {
    let start = Instant::now();
    let config = SystemConfig::for_lines(inputs.lines + 64);
    let sim = Simulator::new(&config);
    let key = inputs.engine_config().key;
    let mut mem = DeWrite::new(config, DeWriteConfig::paper(), &key);
    let mut trace = Clocked {
        // The simulator takes records by value; clone before the clock.
        records: inputs.records.clone().into_iter(),
        stride,
        index: 0,
        open: None,
        samples: Vec::with_capacity(inputs.records.len() / stride + 1),
        first: None,
        window: (0, 0),
    };
    let mut rep = Rep {
        attempted: inputs.records.len() as u64,
        ..Rep::default()
    };
    let outcome = sim.run(&mut mem, inputs.app, &inputs.warmup, &mut trace);
    let measured = trace.window.0;
    (rep.wall_ns, rep.cpu_ns) = trace.window;
    // Bring-up is everything before the first record was asked for.
    rep.bringup_ns = (start.elapsed().as_nanos() as u64).saturating_sub(measured);
    rep.lat_ns = trace.samples.iter().map(|&(_, ns)| ns).collect();
    match outcome {
        Ok(mut report) => {
            report.dewrite = Some(mem.dewrite_metrics());
            rep.report_json = report.to_json().to_string();
            rep.report = report;
            rep.check_report(inputs, false);
        }
        Err(e) => {
            rep.failed = rep.attempted;
            rep.problems.push(format!("simulator: {e}"));
        }
    }
    if let Err(e) = mem.scrub() {
        rep.problems.push(format!("scrub: {e}"));
    }
    SimRep {
        rep,
        samples: trace.samples,
        caches: mem.cache_stats(),
    }
}
