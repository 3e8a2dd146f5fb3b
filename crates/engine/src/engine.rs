//! The in-process trace driver, plus the engine's configuration and
//! per-shard results (shared with [`EngineService`](crate::EngineService)).
//!
//! # Who runs a shard
//!
//! A fixed trace is partitioned before its first operation runs, so the
//! thread that feeds a shard can simply own it. [`run`] splits the trace by
//! owning producer (shard `s` belongs to producer `s mod producers`), and
//! each of the [`EngineConfig::effective_producers`] scoped threads builds
//! the [`ShardController`]s it feeds and applies its slice to them in trace
//! order — no request queue, no worker thread, nothing shared between
//! threads while the trace runs. Handing a sub-microsecond operation to
//! another thread costs more than the operation (DESIGN.md §8).
//!
//! # Determinism
//!
//! A shard has exactly one owner and the owner walks its slice of the
//! trace in order, so every shard applies its subsequence of the trace in
//! order by construction, whatever the producer count or scheduling; each
//! shard's simulated [`RunReport`] is therefore a pure function of `(trace,
//! seed, shard count)`, and its WAL appends land in that same order.
//! Folding the per-shard reports **in shard order**
//! ([`RunReport::merge_all`]) yields a bit-identical merged report across
//! repeated multi-threaded runs. Host-side measurements (wall clock, host
//! latency percentiles) are inherently non-deterministic and are kept in
//! [`ShardSummary`] / [`EngineRun`] fields separate from the merged
//! simulated report.

use std::time::{Duration, Instant};

use dewrite_core::tables::MAX_REFERENCE;
use dewrite_core::{DigestMode, RunReport};
use dewrite_mem::{CacheStats, LatencyHistogram, Replacement};
use dewrite_trace::{shard_of_line, TraceOp, TraceRecord};

use dewrite_nvm::FsmStats;

use crate::shard::{FsmPolicy, ShardController};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of controller shards.
    pub shards: usize,
    /// Line size in bytes.
    pub line_size: usize,
    /// Global workload-visible line space.
    pub lines: u64,
    /// Arena slots per shard (owned lines + saturated-residue slack).
    pub slots_per_shard: u64,
    /// A quarter of the per-shard reorder window of
    /// [`EngineService`](crate::EngineService), which is a distance: a
    /// request less than `4 × queue_depth` sequence numbers ahead of its
    /// shard's next waits in a ring of that many slots, one farther ahead
    /// is rejected. Unused by [`run`], which has no queue.
    pub queue_depth: usize,
    /// Memory-encryption key.
    pub key: [u8; 16],
    /// Run a full cross-table [`ShardController::scrub`] on every shard
    /// after the drain.
    pub scrub: bool,
    /// Threads [`run`] applies the trace on, each owning the shards it
    /// feeds; 0 picks one per shard up to the host's hardware threads.
    /// Clamped to `1..=shards` (a shard has exactly one owner).
    pub producers: usize,
    /// Root directory for crash-consistent metadata persistence; each
    /// shard logs to `shard-<id>/` under it (epoch-batched WAL +
    /// checkpoints, flushed and checkpointed at drain). `None` (the
    /// default) disables persistence. Host-side only — the merged
    /// simulated report is bit-identical either way.
    pub persist_dir: Option<std::path::PathBuf>,
    /// Data writes per WAL epoch record when persistence is on.
    pub persist_epoch: u32,
    /// `fsync` the WAL on every epoch flush. Off by default: the engine is
    /// a measurement harness, and syncing per epoch would serialize the
    /// drain on the host disk.
    pub persist_sync: bool,
    /// Per-shard free-space claim order
    /// ([`ShardController::set_fsm_policy`]): home preference
    /// ([`FsmPolicy::Tree`], the default) or wear rotation
    /// ([`FsmPolicy::TreeWear`], which moves placement and therefore flip
    /// bits and energy, never dedup decisions or latencies).
    pub fsm: FsmPolicy,
    /// Per-shard metadata-cache eviction policy
    /// ([`ShardController::set_cache_policy`]). The merged simulated
    /// report is bit-identical across shard/producer counts for any
    /// fixed policy, but policies differ from each other: they change
    /// which digest lookups hit and therefore simulated latency.
    pub cache_policy: Replacement,
    /// The digest mode; [`DigestMode::Crc32Verify`] is the only one.
    /// Kept because the `benchmark/` package reads it.
    pub digest_mode: DigestMode,
}

impl EngineConfig {
    /// A config sized for a workload of `lines` addressable
    /// lines and about `expected_writes` writes: each shard gets its share
    /// of the line space plus slack for copies stranded by reference
    /// saturation.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `lines` is zero.
    pub fn for_workload(shards: usize, line_size: usize, lines: u64, expected_writes: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(lines > 0, "need a non-empty line space");
        let owned = u128::from(lines / shards as u64) + 1;
        // Saturated entries strand one extra copy per MAX_REFERENCE dups;
        // double the even-split estimate to absorb content skew. In 128
        // bits, so that no `expected_writes` overflows.
        let slack =
            2 * u128::from(expected_writes) / (u128::from(MAX_REFERENCE) * shards as u128) + 64;
        EngineConfig {
            shards,
            line_size,
            lines,
            slots_per_shard: u64::try_from(owned + slack).unwrap_or(u64::MAX),
            queue_depth: 1024,
            key: *b"dewrite-repro-16",
            scrub: false,
            producers: 0,
            persist_dir: None,
            persist_epoch: 64,
            persist_sync: false,
            fsm: FsmPolicy::default(),
            cache_policy: Replacement::default(),
            digest_mode: DigestMode::default(),
        }
    }

    /// The number of threads a [`run`] will actually use.
    pub fn effective_producers(&self) -> usize {
        let requested = if self.producers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.producers
        };
        requested.clamp(1, self.shards)
    }

    /// The epoch policy every shard's metadata WAL runs under when
    /// [`persist_dir`](Self::persist_dir) is set: `persist_epoch` writes
    /// per record, a checkpoint no sooner than every 8 epochs (and only
    /// once the WAL segment has outgrown the image), `persist_sync`.
    pub fn durable_options(&self) -> dewrite_persist::DurableOptions {
        dewrite_persist::DurableOptions {
            epoch_writes: self.persist_epoch,
            checkpoint_epochs: 8,
            sync: self.persist_sync,
        }
    }

    /// Build shard `id` as this config describes it: FSM policy and cache
    /// policy applied, persistence attached under
    /// `persist_dir/shard-<id>/`. The one place a config axis reaches a
    /// [`ShardController`], for [`run`] and
    /// [`EngineService`](crate::EngineService) alike.
    ///
    /// # Panics
    ///
    /// Panics if `id >= shards` or the shard's persistent store cannot be
    /// created.
    pub fn shard(&self, id: usize) -> ShardController {
        let mut ctrl = ShardController::new(
            id,
            self.shards,
            self.slots_per_shard,
            self.line_size,
            &self.key,
        );
        ctrl.set_fsm_policy(self.fsm);
        ctrl.set_cache_policy(self.cache_policy);
        if let Some(root) = &self.persist_dir {
            ctrl.attach_persistence(&root.join(format!("shard-{id:02}")), self.durable_options())
                .expect("attach shard metadata persistence");
        }
        ctrl
    }
}

/// Host latency is a sampled histogram: a shard times every
/// `HOST_SAMPLE_STRIDE`-th data operation of its own sequence and reads no
/// clock for the rest (a clock read costs about as much as a served read's
/// pad).
const HOST_SAMPLE_STRIDE: u64 = 8;

/// Whether the shard's `seq`-th data operation (from 0) is one whose host
/// latency is recorded. A function of the shard's op sequence alone, so
/// which operations are timed never depends on scheduling.
pub(crate) fn host_sampled(seq: u64) -> bool {
    seq.is_multiple_of(HOST_SAMPLE_STRIDE)
}

/// Everything one shard produced.
#[derive(Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Operations this shard processed.
    pub ops: u64,
    /// This shard's local dedup rate (eliminated / writes).
    pub dedup_rate: f64,
    /// The shard's simulated report (deterministic).
    pub report: RunReport,
    /// Host-side issue → completion latency (non-deterministic), sampled:
    /// one in eight of the shard's data operations, chosen by the shard's
    /// own op sequence (operations 0, 8, 16, …).
    pub host_latency: LatencyHistogram,
    /// Always 0: no path has a request queue any more (the thread that
    /// submits an operation runs its shard). Kept only because the repo
    /// benchmark still reads the field.
    pub queue_depth_mean: f64,
    /// Allocator counters — claims, rotation refills, steals, scan steps.
    pub fsm: FsmStats,
    /// Metadata-cache counters (deterministic: the cache sees the shard's
    /// digest stream in trace order). The small/main/ghost/scan fields
    /// stay zero except under [`Replacement::S3Fifo`].
    pub cache: CacheStats,
    /// Post-run scrub outcome, when requested: resident lines checked.
    pub scrub: Option<Result<u64, String>>,
}

impl ShardSummary {
    /// What `ctrl` has produced so far, with the host-side measurements
    /// its driver took. The caller reaches its durability point first.
    pub(crate) fn of(
        ctrl: &mut ShardController,
        app: &str,
        host_latency: LatencyHistogram,
        scrub: Option<Result<u64, String>>,
    ) -> Self {
        ShardSummary {
            shard: ctrl.id(),
            ops: ctrl.ops(),
            dedup_rate: ctrl.dedup_rate(),
            report: ctrl.report(app),
            host_latency,
            queue_depth_mean: 0.0,
            fsm: ctrl.fsm_stats(),
            cache: ctrl.cache_stats(),
            scrub,
        }
    }
}

/// The result of one engine run.
#[derive(Debug)]
pub struct EngineRun {
    /// Per-shard reports folded in shard order (deterministic).
    pub merged: RunReport,
    /// Per-shard detail, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Wall-clock duration of the run, ns (non-deterministic).
    pub wall_ns: u64,
    /// Total operations processed.
    pub ops: u64,
}

impl EngineRun {
    /// Fold per-shard summaries, given in shard order, into a run.
    pub(crate) fn fold(shards: Vec<ShardSummary>, wall_ns: u64) -> Self {
        let merged =
            RunReport::merge_all(shards.iter().map(|s| &s.report)).expect("at least one shard");
        let ops = shards.iter().map(|s| s.ops).sum();
        EngineRun {
            merged,
            shards,
            wall_ns,
            ops,
        }
    }

    /// Host throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// The merged dedup rate (eliminated / writes) across all shards.
    pub fn dedup_rate(&self) -> f64 {
        self.merged.write_reduction()
    }

    /// Host latency across all shards (issue → completion), sampled as
    /// [`ShardSummary::host_latency`] is.
    pub fn host_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for s in &self.shards {
            all.merge(&s.host_latency);
        }
        all
    }
}

/// Spin-then-sleep back-off for a thread polling something that has
/// nothing for it: a lane sweeping its sockets, a client waiting on a
/// completion, a lane waiting to reclaim the engine. Such a thread is
/// waiting on whichever peer is the actual bottleneck, and parking gets
/// it off the core so that peer can have it.
///
/// The first idle [`wait`](Backoff::wait) after a [`reset`](Backoff::reset)
/// (or [`new`](Backoff::new)) starts a spin budget of 20 µs of wall time;
/// every `wait` inside it is one [`spin_loop`](std::hint::spin_loop)
/// hint. From then on each `wait` sleeps, 1, 2, 4 … µs, doubling up to a
/// cap of 256 µs. The budget is time, not a count of rounds, because a
/// round's cost differs about a thousandfold between callers (a
/// completion probe against a sweep over sockets): 64 rounds kept a lane
/// spinning ≈ 250 µs, so at 10k requests/s it never slept. 20 µs is well
/// under the cost of one sleep (below), so a quick turnaround is caught
/// spinning. There is no yield stage: with a core free, `yield_now`
/// returns at once and is one more spin.
///
/// A sleep lasts at least the thread's timer slack, not its nominal
/// pause: Linux gives ordinary threads 50 µs, and `thread::sleep` of
/// 1 µs measured 54–58 µs at the median on a 2-vCPU host (DESIGN.md §8).
#[derive(Debug, Default)]
pub struct Backoff {
    /// When the current idle stretch began: the first `wait` after a
    /// reset; `None` while there is progress.
    idle_since: Option<Instant>,
    /// Sleeps taken in this idle stretch.
    sleeps: u32,
}

impl Backoff {
    const SPIN_BUDGET: Duration = Duration::from_micros(20);
    const MAX_SLEEP_EXP: u32 = 8; // 2^8 µs = 256 µs

    /// A fresh back-off in the spinning stage.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Progress was made: the next idle `wait` starts a fresh spin budget.
    pub fn reset(&mut self) {
        *self = Backoff::default();
    }

    /// No progress: spin while the budget lasts, then sleep with an
    /// exponentially growing pause.
    pub fn wait(&mut self) {
        match self.pause(Instant::now()) {
            None => std::hint::spin_loop(),
            Some(nap) => std::thread::sleep(nap),
        }
    }

    /// The decision for one idle `wait` at `now`: `None` to spin, or how
    /// long to sleep.
    fn pause(&mut self, now: Instant) -> Option<Duration> {
        let since = *self.idle_since.get_or_insert(now);
        if now.saturating_duration_since(since) < Self::SPIN_BUDGET {
            return None;
        }
        let exp = self.sleeps.min(Self::MAX_SLEEP_EXP);
        self.sleeps = self.sleeps.saturating_add(1);
        Some(Duration::from_micros(1 << exp))
    }
}

/// One producer's whole job: build the shards it owns (`first`, `first +
/// stride`, …), apply `feed` — its slice of the trace — to them in order,
/// then checkpoint and summarise each shard.
fn drive(
    config: &EngineConfig,
    app: &str,
    first: usize,
    stride: usize,
    feed: Vec<TraceRecord>,
    start: Instant,
) -> Vec<ShardSummary> {
    struct Owned {
        ctrl: ShardController,
        host: LatencyHistogram,
        seq: u64,
    }
    let elapsed_ns = || start.elapsed().as_nanos() as u64;
    let mut owned: Vec<Owned> = (first..config.shards)
        .step_by(stride)
        .map(|id| Owned {
            ctrl: config.shard(id),
            host: LatencyHistogram::new(),
            seq: 0,
        })
        .collect();
    for rec in feed {
        let shard = &mut owned[shard_of_line(rec.op.addr(), config.shards) / stride];
        let sampled = host_sampled(shard.seq);
        shard.seq += 1;
        // A sampled operation is timed from just before it runs; an
        // unsampled one reads no clock at all.
        let issued_ns = if sampled { elapsed_ns() } else { 0 };
        let gap = rec.gap_instructions;
        match rec.op {
            TraceOp::Write { addr, data } => {
                shard.ctrl.write(addr, &data, gap);
            }
            TraceOp::Read { addr } => {
                shard.ctrl.read(addr, gap);
            }
        }
        if sampled {
            shard.host.record(elapsed_ns().saturating_sub(issued_ns));
        }
    }
    owned
        .into_iter()
        .map(|Owned { mut ctrl, host, .. }| {
            // End-of-drain durability point: flush the open WAL epoch and
            // checkpoint, so scrub sees no unflushed epochs and the store
            // recovers to the final state.
            ctrl.persist_checkpoint()
                .expect("shard metadata checkpoint at drain");
            let scrub = config.scrub.then(|| ctrl.scrub());
            ShardSummary::of(&mut ctrl, app, host, scrub)
        })
        .collect()
}

/// Run `records` through `config.shards` controller shards and fold the
/// results.
///
/// # Panics
///
/// Panics if a shard panics (e.g. arena exhaustion) or the config is
/// invalid.
pub fn run(config: &EngineConfig, app: &str, records: Vec<TraceRecord>) -> EngineRun {
    let shards = config.shards;
    assert!(shards > 0, "need at least one shard");
    let producers = config.effective_producers();
    let start = Instant::now();
    let total_ops = records.len() as u64;

    // Partition the trace by owning producer (shard mod producers),
    // preserving trace order within each slice.
    let mut feeds: Vec<Vec<TraceRecord>> = (0..producers).map(|_| Vec::new()).collect();
    for rec in records {
        let shard = shard_of_line(rec.op.addr(), shards);
        feeds[shard % producers].push(rec);
    }

    let mut summaries: Vec<ShardSummary> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(first, feed)| {
                scope.spawn(move || drive(config, app, first, producers, feed, start))
            })
            .collect();
        for h in handles {
            summaries.extend(h.join().expect("producer panicked"));
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Fold in fixed shard order: bit-identical regardless of scheduling.
    summaries.sort_by_key(|s| s.shard);
    let run = EngineRun::fold(summaries, wall_ns);
    assert_eq!(run.ops, total_ops, "no request may be lost");
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_trace::{app_by_name, TraceGenerator};

    /// A small mcf-derived trace (warmup + `ops` records) and the line
    /// space it needs.
    fn trace(ops: usize, ws_lines: u64, seed: u64) -> (Vec<TraceRecord>, u64) {
        let mut profile = app_by_name("mcf").expect("known app");
        profile.working_set_lines = ws_lines;
        profile.content_pool_size = 64;
        let mut gen = TraceGenerator::new(profile, 256, seed);
        let lines = gen.required_lines();
        let mut records = gen.warmup_records();
        records.extend(gen.by_ref().take(ops));
        (records, lines)
    }

    fn config_for(shards: usize, lines: u64, total_ops: usize) -> EngineConfig {
        EngineConfig::for_workload(shards, 256, lines, total_ops as u64)
    }

    const US: Duration = Duration::from_micros(1);
    const NS: Duration = Duration::from_nanos(1);

    /// A synthetic clock far from the real one, so a budget started by
    /// anything but the first idle `pause` shows.
    fn epoch() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn backoff_spins_until_the_budget_then_sleeps() {
        let mut b = Backoff::new();
        let t0 = epoch();
        assert_eq!(b.pause(t0), None);
        assert_eq!(b.pause(t0 + 7 * US), None);
        assert_eq!(b.pause(t0 + Backoff::SPIN_BUDGET - NS), None);
        assert_eq!(b.pause(t0 + Backoff::SPIN_BUDGET), Some(US));
        assert_eq!(b.pause(t0 + Backoff::SPIN_BUDGET + NS), Some(2 * US));
    }

    #[test]
    fn backoff_sleeps_double_to_a_cap() {
        let mut b = Backoff::new();
        let t0 = epoch();
        assert_eq!(b.pause(t0), None);
        let late = t0 + Backoff::SPIN_BUDGET;
        let naps: Vec<u64> = (0..12)
            .map(|_| b.pause(late).expect("past the budget").as_micros() as u64)
            .collect();
        assert_eq!(naps, [1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256, 256]);
    }

    #[test]
    fn backoff_reset_restarts_the_spin() {
        let mut b = Backoff::new();
        let t0 = epoch();
        assert_eq!(b.pause(t0), None);
        for _ in 0..4 {
            assert!(b.pause(t0 + 100 * US).is_some());
        }
        b.reset();
        let t1 = t0 + 200 * US;
        assert_eq!(b.pause(t1), None);
        assert_eq!(b.pause(t1 + Backoff::SPIN_BUDGET - NS), None);
        assert_eq!(b.pause(t1 + Backoff::SPIN_BUDGET), Some(US));
    }

    #[test]
    fn backoff_budget_starts_at_the_first_idle_wait() {
        // Reset long before the thread next goes idle: the budget counts
        // from that first idle `pause`, not from the reset or `new`.
        let mut b = Backoff::new();
        b.reset();
        let t0 = epoch();
        assert_eq!(b.pause(t0), None);
        assert_eq!(b.pause(t0 + Backoff::SPIN_BUDGET - NS), None);
        assert_eq!(b.pause(t0 + Backoff::SPIN_BUDGET), Some(US));
    }

    #[test]
    fn all_ops_are_processed_across_shards() {
        let (records, lines) = trace(2_000, 512, 7);
        let total = records.len();
        let mut config = config_for(4, lines, total);
        config.scrub = true;
        let run = run(&config, "mcf", records);
        assert_eq!(run.ops, total as u64);
        assert_eq!(run.shards.len(), 4);
        assert_eq!(run.merged.base.writes + run.merged.base.reads, total as u64);
        for s in &run.shards {
            match &s.scrub {
                Some(Ok(_)) => {}
                other => panic!("shard {} scrub: {other:?}", s.shard),
            }
        }
        let b = &run.merged.base;
        assert_eq!(b.coalesced_writes, 0, "no controller coalesces");
        assert_eq!(
            b.writes_eliminated + run.merged.nvm_data_writes,
            b.writes,
            "every write dedups or stores"
        );
    }

    #[test]
    fn merged_report_is_deterministic_across_runs() {
        let (records, lines) = trace(1_500, 256, 11);
        let config = config_for(3, lines, records.len());
        let a = run(&config, "mcf", records.clone());
        let b = run(&config, "mcf", records);
        assert_eq!(a.merged, b.merged, "same seed + shards => identical merge");
        assert_eq!(
            a.merged.to_json().to_string(),
            b.merged.to_json().to_string()
        );
    }

    #[test]
    fn single_shard_matches_sequential_controller() {
        let (records, lines) = trace(1_000, 128, 3);
        let config = config_for(1, lines, records.len());
        let threaded = run(&config, "mcf", records.clone());

        let mut ctrl = ShardController::new(0, 1, config.slots_per_shard, 256, &config.key);
        for rec in &records {
            match &rec.op {
                TraceOp::Write { addr, data } => {
                    ctrl.write(*addr, data, rec.gap_instructions);
                }
                TraceOp::Read { addr } => {
                    ctrl.read(*addr, rec.gap_instructions);
                }
            }
        }
        assert_eq!(threaded.merged, ctrl.report("mcf"));
    }

    #[test]
    fn producer_count_does_not_change_the_merge() {
        let (records, lines) = trace(1_500, 256, 13);
        let mut config = config_for(4, lines, records.len());
        config.producers = 1;
        let baseline = run(&config, "mcf", records.clone());
        for producers in [2, 4, 0] {
            config.producers = producers;
            let other = run(&config, "mcf", records.clone());
            assert_eq!(
                baseline.merged, other.merged,
                "producers {producers} changed the simulated report"
            );
        }
    }

    #[test]
    fn effective_producers_clamps_sanely() {
        let mut c = config_for(4, 64, 100);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            c.effective_producers(),
            hw.min(4),
            "auto: one per shard, up to the hardware threads"
        );
        c.producers = 9;
        assert_eq!(c.effective_producers(), 4, "never more than shards");
        c.producers = 3;
        assert_eq!(c.effective_producers(), 3);
        c.shards = 1;
        assert_eq!(c.effective_producers(), 1);
    }

    #[test]
    fn host_latency_samples_one_in_eight_of_each_shards_ops() {
        let (records, lines) = trace(1_003, 128, 29);
        let mut config = config_for(3, lines, records.len());
        config.producers = 2;
        let run = run(&config, "mcf", records);
        for s in &run.shards {
            assert_eq!(
                s.host_latency.count(),
                s.ops.div_ceil(8),
                "shard {} times ops 0, 8, 16, … of its own sequence",
                s.shard
            );
        }
    }

    #[test]
    fn persistence_keeps_the_merge_bit_identical_and_recovers() {
        let (records, lines) = trace(1_500, 256, 21);
        let config = config_for(2, lines, records.len());
        let baseline = run(&config, "mcf", records.clone());

        let dir =
            std::env::temp_dir().join(format!("dewrite-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = config;
        config.persist_dir = Some(dir.clone());
        config.persist_epoch = 32;
        config.scrub = true;
        let persisted = run(&config, "mcf", records);

        assert_eq!(
            baseline.merged.to_json().to_string(),
            persisted.merged.to_json().to_string(),
            "persistence must not change the merged simulated report"
        );
        let max_lines = lines + config.slots_per_shard * 2 + 16;
        for s in &persisted.shards {
            assert!(matches!(s.scrub, Some(Ok(_))), "shard {} scrub", s.shard);
            let fp = ShardController::persist_fingerprint(
                s.shard,
                2,
                config.slots_per_shard,
                config.line_size,
                config.digest_mode,
            );
            let shard_dir = dir.join(format!("shard-{:02}", s.shard));
            let (snap, stats) = dewrite_persist::recover_state(&shard_dir, fp, max_lines)
                .expect("shard store recovers");
            assert!(!stats.torn_tail, "drain checkpoint leaves a clean tail");
            // Every trace write was applied and covered by the final
            // checkpoint.
            assert_eq!(stats.writes_covered, s.report.base.writes);
            let scrubbed = match s.scrub {
                Some(Ok(n)) => n,
                _ => unreachable!(),
            };
            assert_eq!(
                snap.residents.len() as u64,
                scrubbed,
                "recovered resident set matches the scrubbed line count"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tree_fsm_scrubs_clean_and_counts_one_claim_per_store_across_shard_counts() {
        let (records, lines) = trace(2_000, 256, 19);
        for shards in [1usize, 2, 4] {
            let mut config = config_for(shards, lines, records.len());
            config.scrub = true;
            let tree = run(&config, "mcf", records.clone());
            for s in &tree.shards {
                assert!(matches!(s.scrub, Some(Ok(_))), "shard {} scrub", s.shard);
                assert_eq!(
                    s.fsm.claims, s.report.nvm_data_writes,
                    "{shards} shards: every stored write is exactly one claim"
                );
            }
        }
    }

    #[test]
    fn merge_is_bit_identical_per_cache_policy_across_producers() {
        // Determinism is per-policy: for a fixed eviction policy and shard
        // count the merged simulated report must not depend on how many
        // producers run the shards. Policies are allowed to (and do) differ
        // from each other because they change which metadata lookups hit,
        // and shard count still moves dedup via digest sharding.
        let (records, lines) = trace(2_000, 256, 31);
        for policy in Replacement::ALL {
            for shards in [1usize, 4] {
                let mut reference: Option<String> = None;
                for producers in [1, 2, shards, 0] {
                    let mut config = config_for(shards, lines, records.len());
                    config.producers = producers;
                    config.cache_policy = policy;
                    config.scrub = true;
                    let run = run(&config, "mcf", records.clone());
                    for s in &run.shards {
                        assert!(matches!(s.scrub, Some(Ok(_))), "shard {} scrub", s.shard);
                    }
                    let json = run.merged.to_json().to_string();
                    match &reference {
                        None => reference = Some(json),
                        Some(r) => assert_eq!(
                            r, &json,
                            "{policy}/{shards} shards: producers {producers} changed the \
                             merged report"
                        ),
                    }
                    for s in &run.shards {
                        if policy == Replacement::S3Fifo {
                            assert_eq!(
                                s.cache.hits,
                                s.cache.small_hits + s.cache.main_hits,
                                "S3-FIFO queue-hit split must cover all hits"
                            );
                        } else {
                            assert_eq!(s.cache.small_hits, 0, "{policy}");
                            assert_eq!(s.cache.main_hits, 0, "{policy}");
                            assert_eq!(s.cache.ghost_hits, 0, "{policy}");
                            assert_eq!(s.cache.scan_evictions, 0, "{policy}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tree_wear_fsm_scrubs_clean_and_matches_dedup_counters() {
        // Wear-rotated placement changes which slot a store lands in — so
        // flip bits and write energy may differ — but dedup decisions and
        // simulated latencies are placement-independent.
        let (records, lines) = trace(2_000, 128, 23);
        let mut config = config_for(2, lines, records.len());
        config.scrub = true;
        config.fsm = FsmPolicy::Tree;
        let tree = run(&config, "mcf", records.clone());
        config.fsm = FsmPolicy::TreeWear;
        let wear = run(&config, "mcf", records);
        for s in &wear.shards {
            assert!(matches!(s.scrub, Some(Ok(_))), "shard {} scrub", s.shard);
        }
        assert_eq!(wear.merged.base, tree.merged.base);
        assert_eq!(wear.merged.dewrite, tree.merged.dewrite);
        assert_eq!(wear.merged.cycles, tree.merged.cycles);
        assert_eq!(wear.merged.nvm_data_writes, tree.merged.nvm_data_writes);
        let refills: u64 = wear.shards.iter().map(|s| s.fsm.refills).sum();
        assert!(refills >= 2, "each shard's rotation refills at least once");
    }
}
