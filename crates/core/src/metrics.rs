//! Per-run experiment reports.

use dewrite_mem::{LatencyHistogram, LatencyStats};
use dewrite_nvm::EnergyBreakdown;

use crate::schemes::{BaseMetrics, DeWriteMetrics};
use crate::trace::StageBreakdown;

/// Everything one (scheme × workload) simulation produces, in the units the
/// paper's figures use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Scheme name.
    pub scheme: String,
    /// Workload/application name.
    pub app: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: f64,
    /// Instructions per cycle (Fig. 17's metric).
    pub ipc: f64,
    /// Full write latencies, issue → durable (Fig. 14): the summary and
    /// the distribution (p50/p95/p99, not just the mean).
    pub write_latency: LatencyHistogram,
    /// Write latencies of eliminated (duplicate) writes only.
    pub write_latency_eliminated: LatencyStats,
    /// Write latencies of writes that reached the NVM array.
    pub write_latency_stored: LatencyStats,
    /// Read latencies (Fig. 16), summary and distribution.
    pub read_latency: LatencyHistogram,
    /// Controller critical-path write latencies (Fig. 15's metric).
    pub write_critical: LatencyStats,
    /// Scheme counters (writes, eliminations, metadata traffic …).
    pub base: BaseMetrics,
    /// Energy consumed during the measured window.
    pub energy: EnergyBreakdown,
    /// NVM data-line writes that reached the array.
    pub nvm_data_writes: u64,
    /// Average fraction of line bits programmed per array write.
    pub bit_flip_ratio: f64,
    /// DeWrite-specific metrics, when the scheme is DeWrite.
    pub dewrite: Option<DeWriteMetrics>,
    /// Per-stage write-pipeline latency breakdown (empty when the scheme
    /// does not support event tracing).
    pub stage_breakdown: StageBreakdown,
}

impl RunReport {
    /// Fraction of writes whose NVM write was eliminated (Fig. 12).
    pub fn write_reduction(&self) -> f64 {
        if self.base.writes == 0 {
            0.0
        } else {
            self.base.writes_eliminated as f64 / self.base.writes as f64
        }
    }

    /// Write speedup of this run versus `baseline` (mean write latency
    /// ratio, Fig. 14).
    pub fn write_speedup_vs(&self, baseline: &RunReport) -> f64 {
        ratio(
            baseline.write_latency.mean_ns(),
            self.write_latency.mean_ns(),
        )
    }

    /// Read speedup versus `baseline` (Fig. 16).
    pub fn read_speedup_vs(&self, baseline: &RunReport) -> f64 {
        ratio(baseline.read_latency.mean_ns(), self.read_latency.mean_ns())
    }

    /// Relative IPC versus `baseline` (Fig. 17).
    pub fn relative_ipc_vs(&self, baseline: &RunReport) -> f64 {
        ratio(self.ipc, baseline.ipc)
    }

    /// Relative total energy versus `baseline` (Fig. 19).
    pub fn relative_energy_vs(&self, baseline: &RunReport) -> f64 {
        ratio(
            self.energy.total_pj() as f64,
            baseline.energy.total_pj() as f64,
        )
    }

    /// Fold another report into this one, treating the two as **parallel
    /// partitions of the same run** (engine shards): counters, latency
    /// summaries, histograms, stages and energy add; `cycles` takes the
    /// maximum (shards run concurrently, so elapsed time is the slowest
    /// partition) and `ipc` is recomputed; `bit_flip_ratio` is weighted by
    /// array writes; `dewrite` metrics add with accuracy weighted by
    /// writes. `scheme`/`app` keep `self`'s labels.
    ///
    /// Every combining operation is exact integer/`u64` arithmetic except
    /// the two weighted `f64` means, so folding shard reports **in a fixed
    /// order** yields bit-identical results regardless of how the shards
    /// were scheduled — the property the engine's determinism tests pin.
    pub fn merge(&mut self, other: &RunReport) {
        let self_writes = self.base.writes;
        let other_writes = other.base.writes;

        self.instructions += other.instructions;
        self.cycles = if self.cycles >= other.cycles {
            self.cycles
        } else {
            other.cycles
        };
        self.ipc = ratio(self.instructions as f64, self.cycles);

        self.write_latency.merge(&other.write_latency);
        self.write_latency_eliminated
            .merge(&other.write_latency_eliminated);
        self.write_latency_stored.merge(&other.write_latency_stored);
        self.read_latency.merge(&other.read_latency);
        self.write_critical.merge(&other.write_critical);
        self.stage_breakdown.merge(&other.stage_breakdown);

        self.base.writes += other.base.writes;
        self.base.writes_eliminated += other.base.writes_eliminated;
        self.base.coalesced_writes += other.base.coalesced_writes;
        self.base.reads += other.base.reads;
        self.base.aes_line_ops += other.base.aes_line_ops;
        self.base.hash_ops += other.base.hash_ops;
        self.base.verify_reads += other.base.verify_reads;
        self.base.meta_nvm_reads += other.base.meta_nvm_reads;
        self.base.meta_nvm_writes += other.base.meta_nvm_writes;

        self.energy.nvm_read_pj += other.energy.nvm_read_pj;
        self.energy.nvm_write_pj += other.energy.nvm_write_pj;
        self.energy.aes_pj += other.energy.aes_pj;
        self.energy.dedup_pj += other.energy.dedup_pj;

        let (a, b) = (self.nvm_data_writes, other.nvm_data_writes);
        if a + b > 0 {
            self.bit_flip_ratio =
                (self.bit_flip_ratio * a as f64 + other.bit_flip_ratio * b as f64) / (a + b) as f64;
        }
        self.nvm_data_writes += other.nvm_data_writes;

        self.dewrite = match (self.dewrite.take(), &other.dewrite) {
            (Some(mut m), Some(o)) => {
                m.dup_eliminated += o.dup_eliminated;
                m.pna_skips += o.pna_skips;
                m.pna_missed_dups += o.pna_missed_dups;
                m.saturated_skips += o.saturated_skips;
                m.false_matches += o.false_matches;
                m.assumed_dups += o.assumed_dups;
                m.parallel_writes += o.parallel_writes;
                m.direct_writes += o.direct_writes;
                m.wasted_encryptions += o.wasted_encryptions;
                m.saved_encryptions += o.saved_encryptions;
                if self_writes + other_writes > 0 {
                    m.predictor_accuracy = (m.predictor_accuracy * self_writes as f64
                        + o.predictor_accuracy * other_writes as f64)
                        / (self_writes + other_writes) as f64;
                }
                Some(m)
            }
            (slf, None) => slf,
            (None, Some(o)) => Some(*o),
        };
    }

    /// Fold per-shard reports into one aggregate, in input (shard) order.
    /// Returns `None` for an empty slice.
    pub fn merge_all<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> Option<RunReport> {
        let mut it = reports.into_iter();
        let mut merged = it.next()?.clone();
        for r in it {
            merged.merge(r);
        }
        Some(merged)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(write_mean: u64, read_mean: u64, ipc: f64) -> RunReport {
        let mut r = RunReport {
            ipc,
            ..RunReport::default()
        };
        r.write_latency.record(write_mean);
        r.read_latency.record(read_mean);
        r.base.writes = 100;
        r.base.writes_eliminated = 54;
        r
    }

    #[test]
    fn write_reduction_is_eliminated_over_total() {
        let r = report(100, 100, 1.0);
        assert!((r.write_reduction() - 0.54).abs() < 1e-12);
        assert_eq!(RunReport::default().write_reduction(), 0.0);
    }

    #[test]
    fn speedups_are_baseline_over_self() {
        let dewrite = report(100, 50, 1.8);
        let baseline = report(400, 150, 1.0);
        assert!((dewrite.write_speedup_vs(&baseline) - 4.0).abs() < 1e-12);
        assert!((dewrite.read_speedup_vs(&baseline) - 3.0).abs() < 1e-12);
        assert!((dewrite.relative_ipc_vs(&baseline) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_partitions() {
        let mut a = report(100, 50, 1.0);
        a.instructions = 1_000;
        a.cycles = 500.0;
        a.nvm_data_writes = 40;
        a.bit_flip_ratio = 0.5;
        let mut b = report(300, 150, 1.0);
        b.instructions = 3_000;
        b.cycles = 1_500.0;
        b.nvm_data_writes = 60;
        b.bit_flip_ratio = 0.25;

        a.merge(&b);
        assert_eq!(a.base.writes, 200);
        assert_eq!(a.base.writes_eliminated, 108);
        assert_eq!(a.instructions, 4_000);
        assert_eq!(a.cycles, 1_500.0, "parallel partitions: slowest wins");
        assert!((a.ipc - 4_000.0 / 1_500.0).abs() < 1e-12);
        assert_eq!(a.write_latency.count(), 2);
        assert_eq!(a.write_latency.mean_ns(), 200.0);
        assert_eq!(a.nvm_data_writes, 100);
        assert!((a.bit_flip_ratio - 0.35).abs() < 1e-12, "write-weighted");
    }

    #[test]
    fn merge_all_in_order_equals_pairwise() {
        let shards: Vec<RunReport> = (1..=3u64).map(|i| report(i * 100, i * 10, 1.0)).collect();
        let merged = RunReport::merge_all(&shards).expect("non-empty");
        let mut manual = shards[0].clone();
        manual.merge(&shards[1]);
        manual.merge(&shards[2]);
        assert_eq!(merged, manual);
        assert_eq!(RunReport::merge_all([].iter()), None);
    }

    #[test]
    fn zero_denominators_yield_zero() {
        let a = report(0, 0, 0.0);
        let b = RunReport::default();
        assert_eq!(a.relative_ipc_vs(&b), 0.0);
        assert_eq!(a.relative_energy_vs(&b), 0.0);
    }
}
