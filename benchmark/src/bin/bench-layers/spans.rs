//! In-memory span recording for the traced ladder.
//!
//! Every span is `(name, parent, op, start, end)`. Each name keeps an
//! exact count and total plus a small histogram for its percentiles
//! (1 ns steps below 4 us, 1.6% steps above) — small enough to stay in
//! cache, so recording does not evict the data the measured call is about
//! to touch. The full tuple is kept for one operation in 256, which is
//! enough to see whole operations' trees. Everything is written out once,
//! when the ladder ends.

use std::time::Instant;

use dewrite_benchmark::output::{num, obj};
use dewrite_core::Json;

/// Operations whose spans are kept whole: one in this many.
const RAW_SAMPLE: u64 = 256;

/// A registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One whole span, kept for sampled operations.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: usize,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate, as written out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration, ns.
    pub total_ns: u64,
    /// Median duration, ns.
    pub p50_ns: u32,
    /// 99th-percentile duration, ns.
    pub p99_ns: u32,
}

impl Aggregate {
    /// Mean duration, ns (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Durations below this land in 1 ns buckets.
const LINEAR_NS: u32 = 4096;
/// Above it, each power of two splits into this many buckets.
const SUB_BUCKETS: u32 = 64;

/// One name's durations: exact count and total, bucketed distribution.
struct Distribution {
    count: u64,
    total_ns: u64,
    buckets: Vec<u32>,
}

impl Distribution {
    fn new() -> Distribution {
        let octaves = 32 - LINEAR_NS.trailing_zeros();
        Distribution {
            count: 0,
            total_ns: 0,
            buckets: vec![0; (LINEAR_NS + octaves * SUB_BUCKETS) as usize],
        }
    }

    fn bucket(ns: u32) -> usize {
        if ns < LINEAR_NS {
            return ns as usize;
        }
        let octave = 31 - ns.leading_zeros();
        let sub = (ns >> (octave - 6)) & (SUB_BUCKETS - 1);
        (LINEAR_NS + (octave - LINEAR_NS.trailing_zeros()) * SUB_BUCKETS + sub) as usize
    }

    /// The smallest duration that lands in bucket `i`.
    fn floor_of(i: usize) -> u32 {
        let i = i as u32;
        if i < LINEAR_NS {
            return i;
        }
        let octave = (i - LINEAR_NS) / SUB_BUCKETS + LINEAR_NS.trailing_zeros();
        let sub = (i - LINEAR_NS) % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (octave - 6)
    }

    #[inline]
    fn add(&mut self, ns: u32) {
        self.count += 1;
        self.total_ns += u64::from(ns);
        self.buckets[Self::bucket(ns)] += 1;
    }

    /// Nearest-rank percentile, to the bucket's resolution.
    fn percentile(&self, p: f64) -> u32 {
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return Self::floor_of(i);
            }
        }
        0
    }
}

/// The recorder: spans in memory, aggregates at the end.
pub struct Recorder {
    epoch: Instant,
    /// What one clock read costs, ns; taken off every span.
    clock_ns: u32,
    names: Vec<&'static str>,
    durations: Vec<Distribution>,
    raw: Vec<RawSpan>,
    paused: bool,
}

impl Recorder {
    /// A recorder with the clock's own cost calibrated.
    pub fn new() -> Recorder {
        // A span is bounded by two clock reads and so includes about one
        // read's cost; the median gap between back-to-back reads is it.
        let mut gaps: Vec<u32> = (0..20_000)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u32
            })
            .collect();
        gaps.sort_unstable();
        Recorder {
            epoch: Instant::now(),
            clock_ns: gaps[gaps.len() / 2],
            names: Vec::new(),
            durations: Vec::new(),
            raw: Vec::new(),
            paused: false,
        }
    }

    /// Stop (or resume) recording: warm-up replays go through the same
    /// code but leave no spans.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// The calibrated cost of one clock read, ns.
    pub fn clock_ns(&self) -> u32 {
        self.clock_ns
    }

    /// Register (or look up) a span name.
    pub fn id(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return SpanId(i);
        }
        self.names.push(name);
        self.durations.push(Distribution::new());
        SpanId(self.names.len() - 1)
    }

    /// Record one span of operation `op`.
    #[inline]
    pub fn span(
        &mut self,
        id: SpanId,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.paused {
            return;
        }
        let ns = (end - start).as_nanos() as u64;
        let net = ns.saturating_sub(u64::from(self.clock_ns));
        self.durations[id.0].add(u32::try_from(net).unwrap_or(u32::MAX));
        if op.is_multiple_of(RAW_SAMPLE) {
            self.raw.push(RawSpan {
                name: id.0,
                parent: parent.map(|p| p.0),
                op,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Record a duration measured elsewhere (the service and wire rungs
    /// hand over per-operation latencies, not clock edges).
    pub fn duration(&mut self, id: SpanId, ns: u32) {
        self.durations[id.0].add(ns);
    }

    /// The aggregate of `name` (all zero if it never ran).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        let Some(i) = self.names.iter().position(|n| *n == name) else {
            return Aggregate::default();
        };
        let d = &self.durations[i];
        if d.count == 0 {
            return Aggregate::default();
        }
        Aggregate {
            count: d.count,
            total_ns: d.total_ns,
            p50_ns: d.percentile(50.0),
            p99_ns: d.percentile(99.0),
        }
    }

    /// Everything recorded, as the document written when the ladder ends.
    pub fn to_json(&self) -> Json {
        let spans = self
            .names
            .iter()
            .map(|name| {
                let a = self.aggregate(name);
                (
                    name.to_string(),
                    obj(vec![
                        ("count", num(a.count as f64)),
                        ("total_ns", num(a.total_ns as f64)),
                        ("mean_ns", num(a.mean_ns())),
                        ("p50_ns", num(f64::from(a.p50_ns))),
                        ("p99_ns", num(f64::from(a.p99_ns))),
                    ]),
                )
            })
            .collect();
        let sample = self
            .raw
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(self.names[s.name].into()),
                    s.parent
                        .map_or(Json::Null, |p| Json::Str(self.names[p].into())),
                    num(s.op as f64),
                    num(s.start_ns as f64),
                    num(s.end_ns as f64),
                ])
            })
            .collect();
        obj(vec![
            ("clock_ns", num(f64::from(self.clock_ns))),
            ("raw_sample_one_in", num(RAW_SAMPLE as f64)),
            ("spans", Json::Obj(spans)),
            (
                "sample_columns",
                Json::Arr(
                    ["name", "parent", "op", "start_ns", "end_ns"]
                        .map(|c| Json::Str(c.into()))
                        .to_vec(),
                ),
            ),
            ("sample", Json::Arr(sample)),
        ])
    }
}

/// Chained timing inside one operation: each lap ends where the next
/// begins, so a write's spans cost one clock read apiece.
pub struct Laps {
    last: Instant,
    op: u64,
    parent: SpanId,
}

impl Laps {
    /// Start timing operation `op`, whose spans hang under `parent`.
    #[inline]
    pub fn start(op: u64, parent: SpanId) -> Laps {
        Laps {
            last: Instant::now(),
            op,
            parent,
        }
    }

    /// Close the current lap as a span named `id`.
    #[inline]
    pub fn lap(&mut self, rec: &mut Recorder, id: SpanId) {
        let now = Instant::now();
        rec.span(id, Some(self.parent), self.op, self.last, now);
        self.last = now;
    }

    /// Drop the current lap: work that belongs to no layer (it ends up in
    /// `engine.shard_other_ns` by construction).
    #[inline]
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_buckets_keep_percentiles_within_their_step() {
        for ns in [0u32, 1, 4095, 4096, 4159, 4160, 10_000, 1 << 20, u32::MAX] {
            let floor = Distribution::floor_of(Distribution::bucket(ns));
            assert!(floor <= ns, "{ns} -> bucket floor {floor}");
            assert!(
                f64::from(ns - floor) <= f64::from(ns) / 64.0,
                "{ns}: floor {floor} is more than one step away"
            );
        }
        let mut d = Distribution::new();
        (1..=1000u32).for_each(|ns| d.add(ns * 10));
        assert_eq!((d.count, d.total_ns), (1000, 5_005_000));
        assert_eq!(d.percentile(50.0), 4992, "5000 ns, to its 64 ns bucket");
        assert!((9728..=9900).contains(&d.percentile(99.0)));
    }
}
