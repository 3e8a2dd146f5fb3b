//! The trace-driven system simulator.
//!
//! Replays a workload trace against a [`SecureMemory`] scheme with an
//! in-order core model:
//!
//! * the core retires each record's instruction gap at the base CPI;
//! * **reads stall the core** for their full critical-path latency (demand
//!   misses);
//! * **writes stall the core** for the controller critical path
//!   (detection/encryption); the NVM array write drains asynchronously
//!   through the write queue, except that
//!   - the write queue has finite depth — when it is full the core stalls
//!     until the oldest write completes (back-pressure), and
//!   - every `persist_every`-th write is a persist barrier: the core stalls
//!     until all outstanding writes are durable (epoch persistence, the
//!     §III ordering requirement).
//!
//! Reported **write latency** is issue → durable (detection only, for
//! eliminated duplicates), the quantity behind Fig. 14; bank queueing from
//! surviving writes is what slows both metrics in the baseline.
//!
//! Each record runs on the least-advanced of the `cores` hardware contexts
//! (the first such on a tie). Only the context that ran a record has moved
//! since the last pick, so the pick is a winner tree over the contexts'
//! elapsed times (`ContextPick`): refreshing that context's leaf and its
//! path to the root costs ⌈log₂ cores⌉ compares. It picks exactly what
//! `min_by(total_cmp)` over `elapsed_ns()` would, so the order in which
//! records reach the controller — and every simulated number — does not
//! depend on how the pick is made.

use std::collections::VecDeque;

use dewrite_mem::{CoreModel, LatencyHistogram, LatencyStats};
use dewrite_nvm::NvmError;
use dewrite_trace::{TraceOp, TraceRecord};

use crate::config::SystemConfig;
use crate::metrics::RunReport;
use crate::schemes::SecureMemory;

/// Trace-replay engine, configured from a [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct Simulator {
    core: dewrite_mem::CoreConfig,
    cores: usize,
    write_queue_depth: usize,
    persist_every: Option<u32>,
    read_stall_fraction: f64,
}

impl Simulator {
    /// Build a simulator with the system's core/persistence parameters.
    pub fn new(config: &SystemConfig) -> Self {
        Simulator {
            core: config.core,
            cores: config.cores.max(1),
            write_queue_depth: config.write_queue_depth,
            persist_every: config.persist_every,
            read_stall_fraction: config.read_stall_fraction.clamp(0.0, 1.0),
        }
    }

    /// Replay `warmup` (uncounted) then `trace` against `mem`, returning the
    /// measured-window report.
    ///
    /// # Errors
    ///
    /// Propagates the first scheme error (out-of-range address, wrong line
    /// size) — traces generated for the same configuration never trigger
    /// these.
    pub fn run<M, I>(
        &self,
        mem: &mut M,
        app: &str,
        warmup: &[TraceRecord],
        trace: I,
    ) -> Result<RunReport, NvmError>
    where
        M: SecureMemory + ?Sized,
        I: IntoIterator<Item = TraceRecord>,
    {
        // Warmup: populate memory contents without measuring.
        let mut t = 0u64;
        for rec in warmup {
            if let TraceOp::Write { addr, data } = &rec.op {
                let w = mem.write(*addr, data, t)?;
                t = t.max(w.nvm_finish_ns.unwrap_or(t)) + 1;
            }
        }

        // Observe the measured window only: the per-stage breakdown starts
        // after warmup.
        mem.start_stage_breakdown();

        // Snapshot counters so the report covers the measured window only.
        let base_before = mem.base_metrics();
        let energy_before = *mem.device().energy();
        let wear_flips_before = mem.device().wear().total_bits_flipped();
        let data_writes_before = mem.device().writes() - base_before.meta_nvm_writes;
        let line_bits = mem.device().config().line_bits();

        // One logical core per hardware context. The next record always
        // executes on the least-advanced context, so contexts stay in rough
        // lockstep and their memory requests interleave at the controller —
        // this is where bank contention (and DeWrite's queueing relief)
        // comes from.
        let mut cores: Vec<CoreModel> =
            (0..self.cores).map(|_| CoreModel::new(self.core)).collect();
        let start_ns = t;
        let mut write_latency = LatencyHistogram::new();
        let mut write_latency_eliminated = LatencyStats::new();
        let mut write_latency_stored = LatencyStats::new();
        let mut write_critical = LatencyStats::new();
        let mut read_latency = LatencyHistogram::new();
        let mut outstanding: VecDeque<u64> = VecDeque::new();
        let mut writes_since_persist = vec![0u32; self.cores];
        let mut read_stall_credit = 0.0f64;
        let mut pick = ContextPick::new(self.cores);

        for rec in trace {
            let ctx = pick.next();
            let core = &mut cores[ctx];
            core.execute(rec.gap_instructions);
            let now = start_ns + core.elapsed_ns() as u64;

            // Retire completed writes.
            while outstanding.front().is_some_and(|&f| f <= now) {
                outstanding.pop_front();
            }

            match rec.op {
                TraceOp::Read { addr } => {
                    let r = mem.read(addr, now)?;
                    read_latency.record(r.latency_ns);
                    // Only a fraction of reads are demand misses on the
                    // critical path; the rest are overlapped (OoO window /
                    // prefetch) and merely occupy the memory system.
                    read_stall_credit += self.read_stall_fraction;
                    if read_stall_credit >= 1.0 {
                        read_stall_credit -= 1.0;
                        core.stall_ns(r.latency_ns);
                    }
                }
                TraceOp::Write { addr, data } => {
                    let w = mem.write(addr, &data, now)?;
                    write_latency.record(w.total_ns);
                    if w.eliminated {
                        write_latency_eliminated.record(w.total_ns);
                    } else {
                        write_latency_stored.record(w.total_ns);
                    }
                    write_critical.record(w.critical_ns);
                    core.stall_ns(w.critical_ns);

                    if let Some(finish) = w.nvm_finish_ns {
                        outstanding.push_back(finish);
                        // Back-pressure: a full write queue stalls the
                        // issuing core until the oldest write drains.
                        while outstanding.len() > self.write_queue_depth {
                            let oldest = outstanding.pop_front().expect("nonempty");
                            let now = start_ns + core.elapsed_ns() as u64;
                            if oldest > now {
                                core.stall_ns(oldest - now);
                            }
                        }
                    }

                    // Epoch persistence: this context periodically waits for
                    // all outstanding writes to become durable.
                    writes_since_persist[ctx] += 1;
                    if let Some(n) = self.persist_every {
                        if writes_since_persist[ctx] >= n {
                            writes_since_persist[ctx] = 0;
                            if let Some(&last) = outstanding.back() {
                                let core = &mut cores[ctx];
                                let now = start_ns + core.elapsed_ns() as u64;
                                if last > now {
                                    core.stall_ns(last - now);
                                }
                            }
                        }
                    }
                }
            }
            pick.update(ctx, cores[ctx].elapsed_ns());
        }

        // Final drain so durability is charged (on the most-advanced core).
        if let Some(&last) = outstanding.back() {
            let core = cores
                .iter_mut()
                .max_by(|a, b| a.elapsed_ns().total_cmp(&b.elapsed_ns()))
                .expect("at least one core");
            let now = start_ns + core.elapsed_ns() as u64;
            if last > now {
                core.stall_ns(last - now);
            }
        }
        let instructions: u64 = cores.iter().map(CoreModel::instructions).sum();
        let wall_cycles = cores.iter().map(CoreModel::cycles).fold(0.0f64, f64::max);

        let stage_breakdown = mem.take_stage_breakdown().unwrap_or_default();

        let base_after = mem.base_metrics();
        let energy_after = *mem.device().energy();
        let base = delta_base(base_before, base_after);
        let nvm_data_writes =
            (mem.device().writes() - base_after.meta_nvm_writes) - data_writes_before;
        let flips = mem.device().wear().total_bits_flipped() - wear_flips_before;
        let total_write_bits = mem
            .device()
            .writes()
            .saturating_sub(data_writes_before + base_before.meta_nvm_writes)
            * line_bits;

        Ok(RunReport {
            scheme: mem.name(),
            app: app.to_string(),
            instructions,
            cycles: wall_cycles,
            ipc: if wall_cycles == 0.0 {
                0.0
            } else {
                instructions as f64 / wall_cycles
            },
            write_latency,
            write_latency_eliminated,
            write_latency_stored,
            read_latency,
            write_critical,
            base,
            energy: delta_energy(energy_before, energy_after),
            nvm_data_writes,
            bit_flip_ratio: if total_write_bits == 0 {
                0.0
            } else {
                flips as f64 / total_write_bits as f64
            },
            dewrite: None,
            stage_breakdown,
        })
    }
}

/// The hardware context to run the next record on: the least-advanced
/// one, the lowest index on a tie — what `min_by` with `f64::total_cmp`
/// over the contexts' `elapsed_ns()` picks — as a winner (tournament) tree.
///
/// Leaves hold the contexts' elapsed times as sort keys, padded to a power
/// of two with `i64::MAX`; each inner node holds the winner of its two
/// children, the right one only if strictly smaller. Every leaf under a
/// left child has a lower index than every leaf under its sibling, so a
/// tie goes to the lower index, and a pad — right of every real leaf and
/// never smaller than anything — can never win.
#[derive(Debug)]
struct ContextPick {
    /// `(sort key, context)` of each node's winner: `nodes[1]` is the
    /// root, `nodes[width..width + contexts]` the contexts' leaves.
    nodes: Vec<(i64, usize)>,
    width: usize,
}

impl ContextPick {
    /// `contexts` contexts (at least one), all at time zero.
    fn new(contexts: usize) -> Self {
        let width = contexts.next_power_of_two();
        let mut nodes = vec![(i64::MAX, usize::MAX); 2 * width];
        for (ctx, leaf) in nodes[width..width + contexts].iter_mut().enumerate() {
            *leaf = (sort_key(0.0), ctx);
        }
        for k in (1..width).rev() {
            nodes[k] = winner(nodes[2 * k], nodes[2 * k + 1]);
        }
        ContextPick { nodes, width }
    }

    /// The context to run next.
    #[inline]
    fn next(&self) -> usize {
        self.nodes[1].1
    }

    /// Context `ctx` is now at `elapsed_ns`: replay its path to the root.
    #[inline]
    fn update(&mut self, ctx: usize, elapsed_ns: f64) {
        let mut k = self.width + ctx;
        self.nodes[k] = (sort_key(elapsed_ns), ctx);
        while k > 1 {
            k /= 2;
            self.nodes[k] = winner(self.nodes[2 * k], self.nodes[2 * k + 1]);
        }
    }
}

/// The winner of two sibling nodes: the right one only if strictly smaller.
#[inline]
fn winner(left: (i64, usize), right: (i64, usize)) -> (i64, usize) {
    if right.0 < left.0 {
        right
    } else {
        left
    }
}

/// `x`'s position in `f64::total_cmp`'s order, as an integer (the standard
/// library's own mapping: negative values have their magnitude bits
/// flipped), so the tree compares integers.
#[inline]
fn sort_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

fn delta_base(
    before: crate::schemes::BaseMetrics,
    after: crate::schemes::BaseMetrics,
) -> crate::schemes::BaseMetrics {
    crate::schemes::BaseMetrics {
        writes: after.writes - before.writes,
        writes_eliminated: after.writes_eliminated - before.writes_eliminated,
        coalesced_writes: after.coalesced_writes - before.coalesced_writes,
        reads: after.reads - before.reads,
        aes_line_ops: after.aes_line_ops - before.aes_line_ops,
        hash_ops: after.hash_ops - before.hash_ops,
        verify_reads: after.verify_reads - before.verify_reads,
        meta_nvm_reads: after.meta_nvm_reads - before.meta_nvm_reads,
        meta_nvm_writes: after.meta_nvm_writes - before.meta_nvm_writes,
    }
}

fn delta_energy(
    before: dewrite_nvm::EnergyBreakdown,
    after: dewrite_nvm::EnergyBreakdown,
) -> dewrite_nvm::EnergyBreakdown {
    dewrite_nvm::EnergyBreakdown {
        nvm_read_pj: after.nvm_read_pj - before.nvm_read_pj,
        nvm_write_pj: after.nvm_write_pj - before.nvm_write_pj,
        aes_pj: after.aes_pj - before.aes_pj,
        dedup_pj: after.dedup_pj - before.dedup_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeWriteConfig, SystemConfig};
    use crate::schemes::{CmeBaseline, DeWrite};
    use dewrite_mem::CoreConfig;
    use dewrite_trace::{app_by_name, TraceGenerator};
    use proptest::prelude::*;

    const KEY: &[u8; 16] = b"simulator key 16";

    fn small_config(lines: u64) -> SystemConfig {
        SystemConfig::for_lines(lines)
    }

    fn run_app(app: &str, writes: usize) -> (RunReport, RunReport) {
        let mut profile = app_by_name(app).unwrap();
        profile.working_set_lines = 1 << 12;
        profile.content_pool_size = 256;
        let config = small_config(profile.working_set_lines + 512);
        let sim = Simulator::new(&config);

        let gen1 = TraceGenerator::new(profile.clone(), 256, 7);
        let warmup = gen1.warmup_records();
        // Remap warmup addresses into range (generator reserves them above
        // the working set, which fits: ws + pool + 1 < lines).
        let trace: Vec<_> = gen1.take(writes).collect();

        let mut dewrite = DeWrite::new(config.clone(), DeWriteConfig::paper(), KEY);
        let r1 = sim
            .run(&mut dewrite, app, &warmup, trace.iter().cloned())
            .unwrap();

        let mut baseline = CmeBaseline::new(config, KEY);
        let r2 = sim
            .run(&mut baseline, app, &warmup, trace.iter().cloned())
            .unwrap();
        (r1, r2)
    }

    #[test]
    fn dewrite_beats_baseline_on_duplicate_heavy_app() {
        let (dw, base) = run_app("lbm", 4_000); // ~95% duplicates
        assert!(
            dw.write_reduction() > 0.8,
            "reduction {}",
            dw.write_reduction()
        );
        assert_eq!(base.write_reduction(), 0.0);
        assert!(
            dw.write_speedup_vs(&base) > 1.5,
            "speedup {}",
            dw.write_speedup_vs(&base)
        );
        assert!(dw.relative_ipc_vs(&base) > 1.0);
        assert!(
            dw.relative_energy_vs(&base) < 1.0,
            "energy {}",
            dw.relative_energy_vs(&base)
        );
    }

    #[test]
    fn low_duplication_app_shows_modest_gains() {
        let (dw, base) = run_app("vips", 3_000); // ~19% duplicates
        assert!(
            dw.write_reduction() < 0.35,
            "reduction {}",
            dw.write_reduction()
        );
        // Still correct and not pathologically slower.
        let speedup = dw.write_speedup_vs(&base);
        assert!(speedup > 0.7, "speedup {speedup}");
    }

    #[test]
    fn report_counts_measured_window_only() {
        let (dw, _) = run_app("mcf", 1_000);
        // Trace writes only (warmup excluded): the generator interleaves
        // reads at ~3/write, so writes ≈ 1000 of the mixed records... the
        // simulator consumed exactly the records we passed.
        assert!(dw.base.writes > 0);
        assert!(dw.instructions > 0);
        assert!(dw.ipc > 0.0);
        assert!(dw.write_latency.count() == dw.base.writes);
        assert!(dw.read_latency.count() == dw.base.reads);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let (r1, _) = run_app("gcc", 1_500);
        let (r2, _) = run_app("gcc", 1_500);
        assert_eq!(r1.base, r2.base);
        assert_eq!(r1.write_latency, r2.write_latency);
        assert_eq!(r1.read_latency, r2.read_latency);
        assert_eq!(r1.ipc.to_bits(), r2.ipc.to_bits());
        assert_eq!(r1.energy, r2.energy);
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let config = small_config(256);
        let mut mem = CmeBaseline::new(config.clone(), KEY);
        let r = Simulator::new(&config)
            .run(&mut mem, "empty", &[], std::iter::empty())
            .unwrap();
        assert_eq!(r.base.writes, 0);
        assert_eq!(r.base.reads, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc, 0.0);
    }

    #[test]
    fn more_contexts_increase_contention() {
        let mut profile = app_by_name("bzip2").unwrap();
        profile.working_set_lines = 1 << 10;
        profile.content_pool_size = 64;
        let trace: Vec<_> = TraceGenerator::new(profile.clone(), 256, 4)
            .take(3_000)
            .collect();
        let warmup = TraceGenerator::new(profile, 256, 4).warmup_records();
        let run = |cores: usize| {
            let mut config = small_config((1 << 10) + 128);
            config.cores = cores;
            let mut mem = CmeBaseline::new(config.clone(), KEY);
            Simulator::new(&config)
                .run(&mut mem, "bzip2", &warmup, trace.iter().cloned())
                .unwrap()
        };
        let one = run(1);
        let many = run(16);
        // More concurrent request streams = more bank queueing per request.
        assert!(
            many.write_latency.mean_ns() > one.write_latency.mean_ns(),
            "16-ctx {} vs 1-ctx {}",
            many.write_latency.mean_ns(),
            one.write_latency.mean_ns()
        );
    }

    #[test]
    fn read_stall_fraction_throttles_arrival() {
        let mut profile = app_by_name("mcf").unwrap();
        profile.working_set_lines = 1 << 10;
        profile.content_pool_size = 64;
        let trace: Vec<_> = TraceGenerator::new(profile.clone(), 256, 9)
            .take(4_000)
            .collect();
        let warmup = TraceGenerator::new(profile, 256, 9).warmup_records();
        let run = |fraction: f64| {
            let mut config = small_config((1 << 10) + 128);
            config.read_stall_fraction = fraction;
            let mut mem = CmeBaseline::new(config.clone(), KEY);
            Simulator::new(&config)
                .run(&mut mem, "mcf", &warmup, trace.iter().cloned())
                .unwrap()
        };
        let all_stall = run(1.0);
        let half_stall = run(0.25);
        // Fewer stalling reads -> higher arrival rate -> more queueing.
        assert!(
            half_stall.write_latency.mean_ns() > all_stall.write_latency.mean_ns(),
            "0.25 {} vs 1.0 {}",
            half_stall.write_latency.mean_ns(),
            all_stall.write_latency.mean_ns()
        );
        // And higher throughput (IPC) despite it.
        assert!(half_stall.ipc > all_stall.ipc);
    }

    #[test]
    fn eliminated_and_stored_latencies_partition_the_writes() {
        let (dw, _) = run_app("mcf", 2_000);
        assert_eq!(
            dw.write_latency.count(),
            dw.write_latency_eliminated.count() + dw.write_latency_stored.count()
        );
        assert!(dw.write_latency_eliminated.mean_ns() < dw.write_latency_stored.mean_ns());
    }

    #[test]
    fn report_includes_stage_breakdown_and_histograms() {
        use crate::trace::Stage;
        let (dw, base) = run_app("mcf", 2_000);
        assert_eq!(dw.stage_breakdown.writes(), dw.base.writes);
        assert!(dw.write_latency.p99_ns() >= dw.write_latency.p50_ns());
        assert!(dw.stage_breakdown.stage(Stage::Digest).count() > 0);
        assert!(dw.stage_breakdown.stage(Stage::Metadata).count() > 0);
        // The baseline traces too, with its own (smaller) stage set.
        assert_eq!(base.stage_breakdown.writes(), base.base.writes);
        assert!(base.stage_breakdown.stage(Stage::Encrypt).count() > 0);
        assert_eq!(base.stage_breakdown.stage(Stage::Digest).count(), 0);
    }

    #[test]
    fn persist_barriers_slow_the_core() {
        let mut profile = app_by_name("bzip2").unwrap();
        profile.working_set_lines = 1 << 10;
        profile.content_pool_size = 64;
        let mut strict = small_config(profile.working_set_lines + 128);
        strict.persist_every = Some(1);
        let mut relaxed = strict.clone();
        relaxed.persist_every = None;

        let trace: Vec<_> = TraceGenerator::new(profile.clone(), 256, 3)
            .take(2_000)
            .collect();
        let warmup = TraceGenerator::new(profile, 256, 3).warmup_records();

        let mut m1 = CmeBaseline::new(strict.clone(), KEY);
        let r1 = Simulator::new(&strict)
            .run(&mut m1, "bzip2", &warmup, trace.iter().cloned())
            .unwrap();
        let mut m2 = CmeBaseline::new(relaxed.clone(), KEY);
        let r2 = Simulator::new(&relaxed)
            .run(&mut m2, "bzip2", &warmup, trace.iter().cloned())
            .unwrap();
        assert!(r1.ipc < r2.ipc, "strict {} vs relaxed {}", r1.ipc, r2.ipc);
    }

    // The winner tree against the scan it replaced, at power-of-two and
    // padded context counts. Each step advances one context — the one just
    // picked, as the simulator does, or any other — by zero to three cycles
    // or ns, so equal elapsed times (exact ties) are common and many
    // contexts stay tied at zero.
    proptest! {
        #[test]
        fn context_pick_matches_min_by_oracle(
            steps in proptest::collection::vec(
                (any::<bool>(), 0usize..64, any::<bool>(), 0u32..4),
                0..400,
            )
        ) {
            for contexts in [1usize, 2, 3, 5, 16, 17, 64] {
                let mut cores = vec![CoreModel::new(CoreConfig::paper()); contexts];
                let mut pick = ContextPick::new(contexts);
                for &(picked, other, stall, amount) in &steps {
                    let oracle = cores
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.elapsed_ns().total_cmp(&b.elapsed_ns()))
                        .map(|(i, _)| i)
                        .expect("at least one context");
                    prop_assert_eq!(pick.next(), oracle, "{} contexts", contexts);
                    let ctx = if picked { oracle } else { other % contexts };
                    if stall {
                        cores[ctx].stall_ns(u64::from(amount));
                    } else {
                        cores[ctx].execute(amount);
                    }
                    pick.update(ctx, cores[ctx].elapsed_ns());
                }
            }
        }
    }
}
