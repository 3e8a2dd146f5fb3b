//! `bench_compare` must surface apps present in only one `runs.json` —
//! in either direction — and fail unless `--allow-missing` is passed.

use std::path::PathBuf;
use std::process::{Command, Output};

use dewrite_core::{DeWriteMetrics, Json, RunReport};

/// A minimal but comparable report row: nonzero write latency so the
/// speedup map picks it up, and a DeWrite marker when requested.
fn report(app: &str, scheme: &str, dewrite: bool, mean_ns: u64) -> RunReport {
    let mut r = RunReport {
        app: app.into(),
        scheme: scheme.into(),
        ..RunReport::default()
    };
    r.write_latency.record(mean_ns);
    if dewrite {
        r.dewrite = Some(DeWriteMetrics::default());
    }
    r
}

/// One app = a (dewrite, baseline) pair, as `repro --json` emits.
fn app_pair(app: &str) -> Vec<RunReport> {
    vec![
        report(app, "dewrite", true, 150),
        report(app, "baseline", false, 450),
    ]
}

fn write_runs(name: &str, reports: &[RunReport]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dewrite_compare_missing_{}_{name}.json",
        std::process::id()
    ));
    let json = Json::Arr(reports.iter().map(|r| r.to_json()).collect());
    std::fs::write(&path, format!("{json}\n")).expect("write runs.json");
    path
}

fn run_compare(old: &PathBuf, new: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg(old)
        .arg(new)
        .args(extra)
        .output()
        .expect("spawn bench_compare")
}

#[test]
fn app_only_in_new_fails_without_allow_missing() {
    let old = write_runs("new_old", &app_pair("mcf"));
    let new = write_runs("new_new", &[app_pair("mcf"), app_pair("lbm")].concat());

    let out = run_compare(&old, &new, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "NEW-only app must fail the comparison; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("lbm") && stderr.contains("present only in"),
        "NEW-only app must be reported, got:\n{stderr}"
    );

    let out = run_compare(&old, &new, &["--allow-missing"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "--allow-missing must tolerate it; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("WARNING") && stderr.contains("lbm"),
        "still warned under --allow-missing, got:\n{stderr}"
    );
}

#[test]
fn app_only_in_old_fails_without_allow_missing() {
    let old = write_runs("old_old", &[app_pair("mcf"), app_pair("vips")].concat());
    let new = write_runs("old_new", &app_pair("mcf"));

    let out = run_compare(&old, &new, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "OLD-only app must fail the comparison; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("vips") && stderr.contains("missing from"),
        "OLD-only app must be reported, got:\n{stderr}"
    );

    let out = run_compare(&old, &new, &["--allow-missing"]);
    assert!(
        out.status.success(),
        "--allow-missing must tolerate a retired app; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn identical_matrices_pass() {
    let reports = [app_pair("mcf"), app_pair("lbm")].concat();
    let old = write_runs("same_old", &reports);
    let new = write_runs("same_new", &reports);
    let out = run_compare(&old, &new, &[]);
    assert!(
        out.status.success(),
        "identical matrices must pass; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
