//! What the benchmark runs and what it reports: the workload table and
//! the metric names. `BENCHMARK.json` at the repo root carries the same
//! names plus the regression bounds; a unit test keeps the two in step.

/// Line size every workload uses, bytes.
pub const LINE_SIZE: usize = 256;
/// Distinct lines every trace touches (4x the 16 Ki-entry metadata
/// cache a 64 Ki-slot shard gets).
pub const WORKING_SET_LINES: u64 = 1 << 16;
/// Recurring duplicate contents per trace.
pub const CONTENT_POOL: usize = 2048;
/// Trace seed when `--seed` is not given (the repo's experiment seed).
pub const DEFAULT_SEED: u64 = 0xDE17_17E5;
/// Fixed offered rate of the open-loop workload, ops/s. Far below what
/// the served path sustains, on purpose: at one request per 100 us the
/// event-loop lane stays hot and the shard worker parks between requests,
/// so the median is the lane → worker → lane wake-up chain. Closer to
/// capacity the 2-core reference host's scheduling noise swamps it.
pub const OPEN_LOOP_OPS_PER_S: f64 = 10_000.0;
/// Per-call latency on the direct-call workloads is sampled every this
/// many calls. Prime, so a periodic cost (a checkpoint every 512 writes)
/// is neither always nor never sampled.
pub const CALL_SAMPLE_STRIDE: usize = 7;

/// The surface a workload enters the system through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Direct `ShardController::write`/`read` calls on one thread.
    Ctrl,
    /// As [`Entry::Ctrl`], with the epoch WAL + checkpoints attached.
    CtrlDurable,
    /// `EngineService::try_submit` → `try_complete`, closed loop.
    Service,
    /// Loopback TCP against an in-process `NetServer`, closed loop.
    WireClosed,
    /// Same server, open loop at [`OPEN_LOOP_OPS_PER_S`].
    WireOpen,
    /// `Simulator::run` over the `DeWrite` scheme.
    Sim,
}

impl Entry {
    /// Whether the timed window's length is set by the work done (scale
    /// its host-time readings by the reference kernel) or by a schedule.
    /// An open loop's clock is the schedule: its rate is offered, its
    /// latency is wake-ups, its CPU time is a lane spinning through wall
    /// time — none of it follows the host's memory speed.
    pub fn work_bound(self) -> bool {
        self != Entry::WireOpen
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Trace profile (`dewrite_trace::app_by_name`).
    pub app: &'static str,
    /// Drop the profile's reads.
    pub writes_only: bool,
    /// Trace records per repetition: the stated input size.
    pub ops: usize,
    /// Entry surface.
    pub entry: Entry,
}

/// The seven workloads. Sizes put one repetition near one second on the
/// reference host so a 12 s run holds 6+ repetitions on a fresh engine.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "ctrl_unique",
        app: "worst-case",
        writes_only: true,
        ops: 600_000,
        entry: Entry::Ctrl,
    },
    Workload {
        name: "ctrl_dupheavy",
        app: "lbm",
        writes_only: true,
        ops: 1_000_000,
        entry: Entry::Ctrl,
    },
    Workload {
        name: "ctrl_durable",
        app: "gcc",
        writes_only: true,
        ops: 100_000,
        entry: Entry::CtrlDurable,
    },
    Workload {
        name: "svc_mixed",
        app: "mcf",
        writes_only: false,
        ops: 800_000,
        entry: Entry::Service,
    },
    Workload {
        name: "wire_closed",
        app: "mcf",
        writes_only: false,
        ops: 250_000,
        entry: Entry::WireClosed,
    },
    Workload {
        name: "wire_open",
        app: "mcf",
        writes_only: false,
        ops: 10_000,
        entry: Entry::WireOpen,
    },
    Workload {
        name: "sim_paper",
        app: "mcf",
        writes_only: false,
        ops: 200_000,
        entry: Entry::Sim,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, every one reported by every
/// workload. The 99th latency percentile is not among them: on the
/// 2-core reference host it moves by 20–70% between runs of one commit
/// (whole-millisecond scheduling stalls), which no bound the benchmark
/// may set can hold, so it is printed beside the table and gated nowhere;
/// the per-rung p99 rows of the traced ladder carry it instead.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("ok_share", "ratio"),
    ("sim_write_mean_ns", "sim-ns"),
    ("sim_energy_nj_per_op", "sim-nJ"),
    ("nvm_writes_per_write", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that are simulated results: a pure function of the
/// seed, so two runs of one seed must agree exactly.
pub const EXACT: [&str; 3] = [
    "sim_write_mean_ns",
    "sim_energy_nj_per_op",
    "nvm_writes_per_write",
];

/// Per-layer metrics `(name, unit)`, from the traced ladder. Every
/// workload reports every row; a layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("trace.gen_ns_per_record", "ns"),
    ("hashes.digest_calls", "count"),
    ("hashes.digest_ns", "ns"),
    ("crypto.encrypt_calls", "count"),
    ("crypto.encrypt_ns", "ns"),
    ("crypto.decrypt_calls", "count"),
    ("crypto.decrypt_ns", "ns"),
    ("mem.cache_accesses", "count"),
    ("mem.cache_hit_ratio", "ratio"),
    ("mem.cache_dirty_evictions", "count"),
    ("mem.cache_ns", "ns"),
    ("core.index_probe_ns", "ns"),
    ("core.candidates_per_probe", "ratio"),
    ("core.index_update_ns", "ns"),
    ("core.compare_ns", "ns"),
    ("core.verify_reads_per_write", "ratio"),
    ("core.false_match_ratio", "ratio"),
    ("core.saturated_skips_per_write", "ratio"),
    ("core.pna_skip_ratio", "ratio"),
    ("core.predictor_accuracy", "ratio"),
    ("core.sim_write_call_ns", "ns"),
    ("core.sim_read_call_ns", "ns"),
    ("core.sim_events_per_s", "1/s"),
    ("nvm.fsm_claims", "count"),
    ("nvm.fsm_claim_ns", "ns"),
    ("nvm.fsm_scan_steps_per_claim", "ratio"),
    ("nvm.bit_flips_ns", "ns"),
    ("nvm.flip_bits_per_write", "ratio"),
    ("persist.record_write_ns", "ns"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_ns", "ns"),
    ("persist.checkpoint_share", "ratio"),
    ("persist.wal_bytes_per_write", "B"),
    ("persist.ckpt_bytes_per_write", "B"),
    ("persist.recover_ms", "ms"),
    ("engine.shard_write_ns", "ns"),
    ("engine.shard_read_ns", "ns"),
    ("engine.shard_write_p99_ns", "ns"),
    ("engine.shard_other_ns", "ns"),
    ("engine.shard_other_share", "ratio"),
    ("engine.svc_hop_ns", "ns"),
    ("engine.svc_rtt_ns", "ns"),
    ("engine.queue_depth_mean", "count"),
    ("engine.submit_full_ratio", "ratio"),
    ("engine.svc_lat_p99_us", "us"),
    ("net.encode_request_ns", "ns"),
    ("net.decode_request_ns", "ns"),
    ("net.encode_response_ns", "ns"),
    ("net.decode_response_ns", "ns"),
    ("net.next_frame_ns", "ns"),
    ("net.bytes_per_op", "B"),
    ("net.client_syscalls_per_op", "ratio"),
    ("net.wire_hop_ns", "ns"),
    ("net.closed_lat_p99_us", "us"),
    ("net.rtt_ns", "ns"),
    ("net.gen_lag_p99_us", "us"),
    ("net.open_lat_p99_us", "us"),
    ("bench.trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_core::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    /// `(name, unit)` pairs of one of `BENCHMARK.json`'s metric lists.
    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_match_benchmark_json() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");

        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let spec_names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, spec_names, "workload lists differ");
        assert_eq!(owned(&END_TO_END), listed(&spec, "end_to_end"));
        assert_eq!(owned(&PER_LAYER), listed(&spec, "per_layer"));

        let metric_names = END_TO_END.iter().chain(&PER_LAYER).map(|&(n, _)| n);
        let mut seen = std::collections::BTreeSet::new();
        for name in names.into_iter().chain(metric_names) {
            assert!(
                well_formed(name),
                "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for exact in EXACT {
            assert!(END_TO_END.iter().any(|&(n, _)| n == exact));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::cli::DEFAULT_SECONDS),
            "--seconds defaults to the contract's run_seconds"
        );
    }
}
