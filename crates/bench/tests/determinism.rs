//! The hot-path engine overhaul is host-speed only: forced-portable and
//! hardware-dispatched engines must produce bit-identical `RunReport`s.
//!
//! Backends are chosen when an engine is constructed, so toggling
//! `set_portable_only` between simulation runs exercises both paths in one
//! process (the same switch CI flips via `DEWRITE_PORTABLE=1`).

use dewrite_bench::runner::{run_scheme, Scale, SchemeKind, Workload};
use dewrite_trace::app_by_name;

const SEED: u64 = 0xDE11_A11C;

/// Serialize the full report for one (scheme, app) run.
fn report_json(kind: SchemeKind, portable: bool) -> String {
    dewrite_crypto::set_portable_only(portable);
    dewrite_hashes::set_portable_only(portable);
    let profile = app_by_name("dedup").expect("known app");
    let workload = Workload::generate(&profile, Scale::quick(), SEED);
    let report = run_scheme(kind, &workload);
    // Leave the process-wide switch as we found it.
    dewrite_crypto::set_portable_only(false);
    dewrite_hashes::set_portable_only(false);
    report.to_json().to_string()
}

#[test]
fn dewrite_report_identical_portable_vs_fast() {
    let portable = report_json(SchemeKind::DeWrite, true);
    let fast = report_json(SchemeKind::DeWrite, false);
    assert_eq!(
        portable, fast,
        "RunReport differs between portable and hardware engines"
    );
}

#[test]
fn baseline_report_identical_portable_vs_fast() {
    let portable = report_json(SchemeKind::Baseline, true);
    let fast = report_json(SchemeKind::Baseline, false);
    assert_eq!(portable, fast);
}

#[test]
fn repeated_fast_runs_are_identical() {
    // Dispatch itself must be deterministic run-to-run, not just
    // portable-vs-fast.
    let a = report_json(SchemeKind::DeWrite, false);
    let b = report_json(SchemeKind::DeWrite, false);
    assert_eq!(a, b);
}

// --- sharded engine: thread-count-independent determinism -----------------

use dewrite_engine::{run as engine_run, EngineConfig, EngineRun};
use dewrite_trace::{TraceGenerator, TraceRecord};

/// A threaded engine run over a fixed mcf-shaped trace.
fn engine_trace(ops: usize, seed: u64) -> (Vec<TraceRecord>, u64, u64) {
    let mut profile = app_by_name("mcf").expect("known app");
    profile.working_set_lines = 4096;
    profile.content_pool_size = 128;
    let mut gen = TraceGenerator::new(profile, 256, seed);
    let lines = gen.required_lines();
    let mut records = gen.warmup_records();
    records.extend(gen.by_ref().take(ops));
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;
    (records, lines, writes)
}

fn engine_go(records: &[TraceRecord], lines: u64, writes: u64, shards: usize) -> EngineRun {
    let mut config = EngineConfig::for_workload(shards, 256, lines, writes);
    config.scrub = true;
    engine_run(&config, "mcf", records.to_vec())
}

// --- golden reports: flat-table refactors must not move simulated ns -------

/// Compare `actual` against the committed golden file, byte for byte.
///
/// The goldens were captured from the seed (pre-flat-table) structures, so
/// any simulated-time drift introduced by a host-side data-structure change
/// fails here. Regenerate deliberately with
/// `DEWRITE_REGEN_GOLDEN=1 cargo test -p dewrite-bench --test determinism`.
fn golden_check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("DEWRITE_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path}: {e}; regenerate with DEWRITE_REGEN_GOLDEN=1")
    });
    assert_eq!(
        expected.trim_end(),
        actual,
        "{name} drifted from the pre-refactor golden report; if the change \
         is intentional, regenerate with DEWRITE_REGEN_GOLDEN=1 cargo test \
         -p dewrite-bench --test determinism"
    );
}

#[test]
fn sim_reports_match_pre_refactor_goldens() {
    golden_check(
        "report_sim_dewrite.json",
        &report_json(SchemeKind::DeWrite, false),
    );
    golden_check(
        "report_sim_baseline.json",
        &report_json(SchemeKind::Baseline, false),
    );
}

#[test]
fn engine_merged_reports_match_pre_refactor_goldens() {
    let (records, lines, writes) = engine_trace(6000, SEED);
    for shards in [1usize, 2, 4] {
        let run = engine_go(&records, lines, writes, shards);
        for s in &run.shards {
            assert!(matches!(s.scrub, Some(Ok(_))), "shard {} scrub", s.shard);
        }
        golden_check(
            &format!("report_engine_{shards}shard.json"),
            &run.merged.to_json().to_string(),
        );
    }
}

#[test]
fn engine_merged_report_is_bit_identical_across_threaded_runs() {
    // Same seed + same shard count => the merged simulated RunReport must
    // be bit-identical run to run, even though real threads race on wall
    // time and interleaving.
    let (records, lines, writes) = engine_trace(6000, SEED);
    let a = engine_go(&records, lines, writes, 4);
    let b = engine_go(&records, lines, writes, 4);
    assert_eq!(a.merged, b.merged, "merged RunReport drifted across runs");
    assert_eq!(
        a.merged.to_json().to_string(),
        b.merged.to_json().to_string(),
        "serialized merged RunReport drifted across runs"
    );
}

#[test]
fn engine_merged_report_is_producer_invariant() {
    // The simulated merge is a pure function of (trace, shard count):
    // the producer count only changes which thread
    // owns a shard, never what the controllers see.
    let (records, lines, writes) = engine_trace(6000, SEED ^ 0x0BA7);
    for shards in [1usize, 2, 4] {
        let mut config = EngineConfig::for_workload(shards, 256, lines, writes);
        config.scrub = true;
        config.producers = 1;
        let baseline = engine_run(&config, "mcf", records.to_vec());
        let baseline_json = baseline.merged.to_json().to_string();
        for producers in [2, shards, 0] {
            config.producers = producers;
            let other = engine_run(&config, "mcf", records.to_vec());
            assert_eq!(
                baseline_json,
                other.merged.to_json().to_string(),
                "shards {shards}: producers {producers} changed the merged report"
            );
        }
    }
}

#[test]
fn engine_rewrite_storm_accounts_every_write_and_scrubs_clean() {
    use dewrite_nvm::LineAddr;
    use dewrite_trace::TraceOp;

    // A hand-built rewrite storm: every line in a tiny window is written
    // repeatedly, so each write releases the reference its predecessor
    // at that address took.
    let mut records = Vec::new();
    for round in 0..200u64 {
        for addr in 0..16u64 {
            let data: Vec<u8> = (0..256).map(|i| (round ^ addr ^ i as u64) as u8).collect();
            records.push(TraceRecord {
                gap_instructions: 3,
                op: TraceOp::Write {
                    addr: LineAddr::new(addr),
                    data,
                },
            });
        }
    }
    let writes = records.len() as u64;
    let mut config = EngineConfig::for_workload(2, 256, 16, writes);
    config.scrub = true;
    let result = engine_run(&config, "storm", records);
    for shard in &result.shards {
        match &shard.scrub {
            Some(Ok(_)) => {}
            other => panic!("shard {} scrub: {other:?}", shard.shard),
        }
    }
    let b = &result.merged.base;
    assert_eq!(b.writes, writes);
    assert_eq!(b.coalesced_writes, 0, "no controller coalesces");
    assert_eq!(
        b.writes_eliminated + result.merged.nvm_data_writes,
        b.writes,
        "refcount audit: every write dedups or stores exactly once"
    );
    assert_eq!(result.merged.write_latency.count(), b.writes);
}

#[test]
fn engine_scrub_finds_no_orphans_under_cross_thread_stress() {
    // Hammer 8 shards with a dup-heavy trace, then audit every shard's
    // tables: no orphaned counters, no dangling inverted rows, no leaked
    // free-space bits.
    let (records, lines, writes) = engine_trace(20_000, SEED ^ 0xBEEF);
    let result = engine_go(&records, lines, writes, 8);
    assert_eq!(result.ops, records.len() as u64, "ops were lost");
    for shard in &result.shards {
        match &shard.scrub {
            Some(Ok(_)) => {}
            Some(Err(e)) => panic!("shard {} failed scrub: {e}", shard.shard),
            None => panic!("shard {} was not scrubbed", shard.shard),
        }
    }
}
