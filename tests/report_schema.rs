//! Acceptance test for the JSON report schema: a real simulation's
//! [`RunReport`] JSON must survive `to_string` → `parse` unchanged, and the
//! emitted object must expose the stable schema downstream tooling depends
//! on — including per-stage latency percentiles for every write-pipeline
//! stage.

use dewrite::core::{
    CmeBaseline, DeWrite, DeWriteConfig, Json, RunReport, Simulator, SystemConfig,
};
use dewrite::trace::{app_by_name, TraceGenerator};

const KEY: &[u8; 16] = b"schema test key!";
const STAGES: [&str; 7] = [
    "digest",
    "hash_probe",
    "verify_read",
    "compare",
    "encrypt",
    "array_write",
    "metadata",
];

fn run_small_sim(scheme: &str) -> RunReport {
    let mut profile = app_by_name("mcf").expect("known app");
    profile.working_set_lines = 1 << 10;
    profile.content_pool_size = 128;

    let mut gen = TraceGenerator::new(profile.clone(), 256, 7);
    let warmup = gen.warmup_records();
    let mut trace = Vec::new();
    let mut writes = 0;
    while writes < 2_000 {
        let rec = gen.next().expect("infinite generator");
        writes += usize::from(rec.op.is_write());
        trace.push(rec);
    }

    let config = SystemConfig::for_lines((1 << 10) + 128 + 64);
    let sim = Simulator::new(&config);
    match scheme {
        "dewrite" => {
            let mut mem = DeWrite::new(config, DeWriteConfig::paper(), KEY);
            let r = sim.run(&mut mem, profile.name, &warmup, trace);
            r.map(|mut r| {
                r.dewrite = Some(mem.dewrite_metrics());
                r
            })
        }
        "baseline" => {
            let mut mem = CmeBaseline::new(config, KEY);
            sim.run(&mut mem, profile.name, &warmup, trace)
        }
        other => panic!("unknown scheme {other}"),
    }
    .expect("simulation succeeds")
}

#[test]
fn run_report_round_trips_through_json_text() {
    for scheme in ["dewrite", "baseline"] {
        let doc = run_small_sim(scheme).to_json();
        let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
        assert_eq!(parsed, doc, "{scheme} report must round-trip exactly");
    }
}

#[test]
fn schema_exposes_per_stage_percentiles() {
    let report = run_small_sim("dewrite");
    let j = report.to_json();

    assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(1));
    for key in [
        "scheme",
        "app",
        "instructions",
        "ipc",
        "write_latency",
        "read_latency",
        "write_latency_hist",
        "read_latency_hist",
        "stages",
        "write_paths",
        "base",
        "energy",
        "dewrite",
    ] {
        assert!(j.get(key).is_some(), "schema must contain {key:?}");
    }

    let stages = j.get("stages").expect("stages object");
    for name in STAGES {
        let stage = stages.get(name).unwrap_or_else(|| panic!("stage {name}"));
        for pct in ["p50_ns", "p95_ns", "p99_ns"] {
            let v = stage.get(pct).and_then(Json::as_u64);
            assert!(v.is_some(), "stage {name} must report {pct}");
        }
        let (p50, p99) = (
            stage.get("p50_ns").and_then(Json::as_u64).unwrap(),
            stage.get("p99_ns").and_then(Json::as_u64).unwrap(),
        );
        assert!(p50 <= p99, "stage {name}: p50 {p50} > p99 {p99}");
    }

    // Every write runs the digest stage in DeWrite, so the count must match
    // the measured-window write count and the histograms must agree.
    let digest_count = stages
        .get("digest")
        .and_then(|s| s.get("count"))
        .and_then(Json::as_u64)
        .expect("digest count");
    let writes = j
        .get("base")
        .and_then(|b| b.get("writes"))
        .and_then(Json::as_u64)
        .expect("base.writes");
    assert_eq!(digest_count, writes);
    assert_eq!(
        j.get("write_latency_hist")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(writes)
    );
}
