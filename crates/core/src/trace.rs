//! Write-path observability: per-write events and per-stage latency
//! collection.
//!
//! Schemes that support tracing ([`DeWrite`](crate::DeWrite),
//! [`CmeBaseline`](crate::CmeBaseline)) carry an optional [`EventSink`].
//! When one is installed, every accepted write emits a [`WriteEvent`] — a
//! plain stack struct carrying the path taken (duplicate / stored), the
//! prediction and PNA decisions, and the nanoseconds each pipeline
//! [`Stage`] contributed. When no sink is installed the hot path pays one
//! branch and no allocation.
//!
//! The [`Simulator`](crate::Simulator) installs a [`StageCollector`] for
//! the measured window and folds the resulting [`StageBreakdown`] —
//! per-stage latency histograms with p50/p95/p99 — into the
//! [`RunReport`](crate::RunReport).

use dewrite_mem::LatencyHistogram;

/// One stage of the secure-memory write pipeline.
///
/// Stage times are wall-clock contributions as the controller experienced
/// them: overlapped work (speculative encryption racing detection) reports
/// its own duration, so stage sums can exceed the write's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Fingerprint computation (CRC-32 or ablation hash).
    Digest,
    /// Hash-store probe / in-NVM hash-table query.
    HashProbe,
    /// Candidate-line verify reads from the array.
    VerifyRead,
    /// Byte comparison of candidates against the incoming line.
    Compare,
    /// Counter fetch + AES pad generation / line encryption.
    Encrypt,
    /// The NVM array data write (issue → durable).
    ArrayWrite,
    /// Post-commit metadata-table updates.
    Metadata,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Digest,
        Stage::HashProbe,
        Stage::VerifyRead,
        Stage::Compare,
        Stage::Encrypt,
        Stage::ArrayWrite,
        Stage::Metadata,
    ];

    /// Stable snake_case identifier (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Digest => "digest",
            Stage::HashProbe => "hash_probe",
            Stage::VerifyRead => "verify_read",
            Stage::Compare => "compare",
            Stage::Encrypt => "encrypt",
            Stage::ArrayWrite => "array_write",
            Stage::Metadata => "metadata",
        }
    }

    /// Parse a [`name`](Self::name) back to the stage.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Which way a write left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePath {
    /// Confirmed duplicate; the array write was eliminated.
    Duplicate,
    /// Stored to the array (non-duplicate or dedup declined).
    Stored,
}

/// One write's trace record. Built on the stack by the scheme; stages that
/// did not occur on this write stay unset (distinct from a 0 ns stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// The path taken.
    pub path: WritePath,
    /// Whether the predictor forecast a duplicate.
    pub predicted_dup: bool,
    /// Whether PNA declined the in-NVM hash-table query.
    pub pna_skip: bool,
    /// Full write latency (issue → durable / detection-complete).
    pub total_ns: u64,
    stage_ns: [u64; Stage::COUNT],
    set: u8,
}

impl WriteEvent {
    /// A fresh event for a write taking `path`, with no stages set.
    pub fn new(path: WritePath) -> Self {
        WriteEvent {
            path,
            predicted_dup: false,
            pna_skip: false,
            total_ns: 0,
            stage_ns: [0; Stage::COUNT],
            set: 0,
        }
    }

    /// Record that `stage` took `ns` on this write.
    pub fn set_stage(&mut self, stage: Stage, ns: u64) {
        self.stage_ns[stage as usize] = ns;
        self.set |= 1 << stage as usize;
    }

    /// The duration of `stage`, if it occurred on this write.
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        if self.set & (1 << stage as usize) != 0 {
            Some(self.stage_ns[stage as usize])
        } else {
            None
        }
    }
}

/// Receiver for [`WriteEvent`]s, installed on a scheme via
/// [`SecureMemory::set_event_sink`](crate::SecureMemory::set_event_sink).
///
/// `Send` is a supertrait so schemes carrying a boxed sink stay `Send` and
/// can be moved onto engine shard threads.
pub trait EventSink: Send {
    /// Observe one write.
    fn record(&mut self, event: &WriteEvent);

    /// Downcast support, so callers that installed a concrete sink can get
    /// it back out of the `Box<dyn EventSink>`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Aggregated per-stage latency distributions over a window of writes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    stages: [LatencyHistogram; Stage::COUNT],
    /// Writes that left as confirmed duplicates.
    pub duplicate_writes: u64,
    /// Writes that reached the array.
    pub stored_writes: u64,
    /// Writes the predictor forecast as duplicates.
    pub predicted_dup: u64,
    /// Writes where PNA declined the in-NVM hash query.
    pub pna_skips: u64,
}

impl StageBreakdown {
    /// The latency histogram of one stage (over the writes where the stage
    /// occurred).
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Total writes observed.
    pub fn writes(&self) -> u64 {
        self.duplicate_writes + self.stored_writes
    }

    /// Fold `n` copies of one event in: equal to `n` calls of
    /// [`observe`](Self::observe), in one step.
    pub fn observe_n(&mut self, event: &WriteEvent, n: u64) {
        match event.path {
            WritePath::Duplicate => self.duplicate_writes += n,
            WritePath::Stored => self.stored_writes += n,
        }
        self.predicted_dup += u64::from(event.predicted_dup) * n;
        self.pna_skips += u64::from(event.pna_skip) * n;
        for stage in Stage::ALL {
            if let Some(ns) = event.stage_ns(stage) {
                self.stages[stage as usize].record_n(ns, n);
            }
        }
    }

    /// Fold one event in.
    pub fn observe(&mut self, event: &WriteEvent) {
        match event.path {
            WritePath::Duplicate => self.duplicate_writes += 1,
            WritePath::Stored => self.stored_writes += 1,
        }
        self.predicted_dup += u64::from(event.predicted_dup);
        self.pna_skips += u64::from(event.pna_skip);
        for stage in Stage::ALL {
            if let Some(ns) = event.stage_ns(stage) {
                self.stages[stage as usize].record(ns);
            }
        }
    }

    /// Render the breakdown as collapsed-stack ("folded") text, the input
    /// format of `inferno` / `flamegraph.pl`: one line per
    /// `root;stage count`, where the sample count is the stage's **total
    /// nanoseconds**, so frame widths are proportional to time spent.
    /// Stages that never occurred are omitted; stages appear in pipeline
    /// order. Deterministic for deterministic runs (simulated ns), so the
    /// output is golden-file testable.
    pub fn folded(&self, root: &str) -> String {
        let mut out = String::new();
        for stage in Stage::ALL {
            let hist = self.stage(stage);
            if hist.count() == 0 {
                continue;
            }
            out.push_str(root);
            out.push(';');
            out.push_str(stage.name());
            out.push(' ');
            out.push_str(&hist.stats().total_ns().to_string());
            out.push('\n');
        }
        out
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for stage in Stage::ALL {
            self.stages[stage as usize].merge(other.stage(stage));
        }
        self.duplicate_writes += other.duplicate_writes;
        self.stored_writes += other.stored_writes;
        self.predicted_dup += other.predicted_dup;
        self.pna_skips += other.pna_skips;
    }
}

/// The standard [`EventSink`]: aggregates events into a [`StageBreakdown`].
#[derive(Debug, Default)]
pub struct StageCollector {
    /// The aggregate so far.
    pub breakdown: StageBreakdown,
}

impl EventSink for StageCollector {
    fn record(&mut self, event: &WriteEvent) {
        self.breakdown.observe(event);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unset_stages_stay_unset() {
        let mut e = WriteEvent::new(WritePath::Duplicate);
        e.set_stage(Stage::Digest, 15);
        e.set_stage(Stage::Compare, 0); // a real 0 ns observation
        assert_eq!(e.stage_ns(Stage::Digest), Some(15));
        assert_eq!(e.stage_ns(Stage::Compare), Some(0));
        assert_eq!(e.stage_ns(Stage::ArrayWrite), None);
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn collector_aggregates_paths_and_stages() {
        let mut c = StageCollector::default();
        let mut dup = WriteEvent::new(WritePath::Duplicate);
        dup.predicted_dup = true;
        dup.set_stage(Stage::Digest, 15);
        dup.set_stage(Stage::VerifyRead, 75);
        let mut stored = WriteEvent::new(WritePath::Stored);
        stored.pna_skip = true;
        stored.set_stage(Stage::Digest, 15);
        stored.set_stage(Stage::ArrayWrite, 300);
        c.record(&dup);
        c.record(&stored);
        c.record(&stored);

        let b = &c.breakdown;
        assert_eq!(b.writes(), 3);
        assert_eq!(b.duplicate_writes, 1);
        assert_eq!(b.stored_writes, 2);
        assert_eq!(b.predicted_dup, 1);
        assert_eq!(b.pna_skips, 2);
        assert_eq!(b.stage(Stage::Digest).count(), 3);
        assert_eq!(b.stage(Stage::VerifyRead).count(), 1);
        assert_eq!(b.stage(Stage::ArrayWrite).count(), 2);
        assert_eq!(b.stage(Stage::Encrypt).count(), 0);
    }

    /// A random event: either path, both flags, any subset of stages.
    fn arbitrary_event(
        (dup, predicted_dup, pna_skip, set, ns): (bool, bool, bool, u8, [u16; Stage::COUNT]),
    ) -> WriteEvent {
        let mut e = WriteEvent::new(if dup {
            WritePath::Duplicate
        } else {
            WritePath::Stored
        });
        e.predicted_dup = predicted_dup;
        e.pna_skip = pna_skip;
        for stage in Stage::ALL {
            if set & (1 << stage as usize) != 0 {
                e.set_stage(stage, u64::from(ns[stage as usize]));
            }
        }
        e
    }

    proptest! {
        #[test]
        fn observe_n_equals_repeated_observe(
            batches in proptest::collection::vec(
                ((any::<bool>(), any::<bool>(), any::<bool>(), any::<u8>(), any::<[u16; Stage::COUNT]>()), 0u64..20),
                0..12,
            ),
        ) {
            let mut batched = StageBreakdown::default();
            let mut single = StageBreakdown::default();
            for (parts, n) in batches {
                let e = arbitrary_event(parts);
                batched.observe_n(&e, n);
                for _ in 0..n {
                    single.observe(&e);
                }
                prop_assert_eq!(&batched, &single);
            }
        }
    }

    #[test]
    fn observe_n_of_zero_changes_nothing() {
        let mut e = WriteEvent::new(WritePath::Stored);
        e.predicted_dup = true;
        e.pna_skip = true;
        for stage in Stage::ALL {
            e.set_stage(stage, 300);
        }
        let mut b = StageBreakdown::default();
        b.observe_n(&e, 0);
        assert_eq!(b, StageBreakdown::default());
    }

    #[test]
    fn breakdown_merge_matches_sequential() {
        let mut e = WriteEvent::new(WritePath::Stored);
        e.set_stage(Stage::Encrypt, 97);
        let mut a = StageBreakdown::default();
        let mut b = StageBreakdown::default();
        let mut c = StageBreakdown::default();
        a.observe(&e);
        b.observe(&e);
        c.observe(&e);
        c.observe(&e);
        a.merge(&b);
        assert_eq!(a, c);
    }
}
