//! Diff two `runs.json` exports across commits and flag regressions.
//!
//! The repro harness writes `runs.json` (a flat array of per-app
//! `RunReport`s, dewrite/baseline pairs) with `repro --json`. This tool
//! compares an older export against a newer one and exits non-zero when
//! any app regresses beyond the tolerance in:
//!
//! * **write speedup** — baseline mean write latency / dewrite mean write
//!   latency, the paper's headline metric;
//! * **p99 write latency** of any (app, scheme) row;
//! * **per-stage mean timings** of any (app, scheme) row.
//!
//! Usage:
//!   bench_compare OLD/runs.json NEW/runs.json [--tolerance PCT] [--allow-missing]
//!   bench_compare OLD/ext_repl.json NEW/ext_repl.json [--tolerance PCT] [--allow-missing]
//!
//! When both inputs are repro `Table` JSON exports (a top-level object
//! with `headers`/`rows`, e.g. `ext_repl.json` or `ext_digest.json`) the
//! tool switches to **table mode** and diffs per-(app, policy) rows:
//! `dedup rate` must not shrink and `p99 write (ns)` must not grow
//! beyond the tolerance. When the export carries a `digest mode` column
//! (the `ext-digest` sweep), that column joins the row key, so
//! crc32-verify and strong-keyed rows for the same app are compared
//! independently. Old exports written before the policy axis existed
//! lack the metric columns, and exports written before the digest-mode
//! axis lack the `digest mode` column; either way the affected new rows
//! are reported as missing a baseline, which `--allow-missing`
//! downgrades to warnings.
//!
//! Tolerance defaults to 2% — simulated ns are deterministic, so any
//! drift beyond float-formatting noise is a real behavior change. Mixing
//! export kinds is an error.
//!
//! Host wall-clock exports (`loadgen`, `hotpath`) are refused with exit
//! code 2: host speed is compared across commits by `bench compare` in
//! `benchmark/`, whose runs alternate on one machine.
//!
//! An app or (app, scheme) row present in only one of the two files is
//! reported in both directions (dropped from NEW, or new in NEW with no
//! OLD baseline) and fails the comparison, since a silently shrinking or
//! incomparable matrix can mask regressions. Pass `--allow-missing` to
//! downgrade those to warnings (e.g. when a PR intentionally adds or
//! retires a workload).

use std::collections::BTreeMap;
use std::process::ExitCode;

use dewrite_core::{Json, RunReport, Stage};

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_reports(path: &str, json: &Json) -> Result<Vec<RunReport>, String> {
    let arr = json
        .as_arr()
        .ok_or_else(|| format!("{path}: not a runs.json array nor a table export"))?;
    arr.iter()
        .map(|j| RunReport::from_json(j).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// The tool that wrote a host wall-clock export (`loadgen` or
/// `hotpath`), which this tool refuses; `None` for a `repro` export.
fn host_export_kind(json: &Json) -> Option<&'static str> {
    if json.get("tool").and_then(Json::as_str) == Some("loadgen") {
        Some("loadgen")
    } else if json.get("bench").and_then(Json::as_str) == Some("hotpath") {
        Some("hotpath")
    } else {
        None
    }
}

/// Is this a repro `Table` JSON export (`{"title","headers","rows"}`,
/// e.g. `ext_repl.json` from `repro --json ext-repl`)?
fn is_table_export(json: &Json) -> bool {
    json.get("headers").is_some() && json.get("rows").is_some()
}

/// One policy-table comparison row: dedup rate and simulated tail latency.
struct PolicyRow {
    dedup_rate: f64,
    p99_ns: f64,
}

/// Flatten an `ext_repl`/`ext_digest`-style table into its comparison
/// rows, keyed by the first column (`app/policy` or `app/mode`) plus the
/// `digest mode` column when the export carries one. Exports written
/// before the policy axis existed lack the `dedup rate` /
/// `p99 write (ns)` columns, and exports written before the digest-mode
/// axis lack the `digest mode` column; either way the old rows cannot
/// match the new keys, so every new row surfaces as missing a baseline,
/// which `--allow-missing` downgrades to warnings.
fn policy_rows(path: &str, json: &Json) -> Result<BTreeMap<(String, String), PolicyRow>, String> {
    let headers = json
        .get("headers")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: table export has no `headers` array"))?;
    let col = |name: &str| headers.iter().position(|h| h.as_str() == Some(name));
    let (Some(key_col), Some(dedup_col), Some(p99_col)) =
        (col("app"), col("dedup rate"), col("p99 write (ns)"))
    else {
        return Ok(BTreeMap::new());
    };
    let mode_col = col("digest mode");
    let rows = json
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: table export has no `rows` array"))?;
    let mut out = BTreeMap::new();
    for row in rows {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("{path}: table row is not an array"))?;
        let cell = |i: usize| {
            cells
                .get(i)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: table row missing column {i}"))
        };
        let key = cell(key_col)?.to_string();
        let mode = match mode_col {
            Some(i) => cell(i)?.to_string(),
            None => String::new(),
        };
        let dedup_rate = cell(dedup_col)?
            .trim_end_matches('%')
            .parse::<f64>()
            .map_err(|e| format!("{path}: {key}: bad dedup rate: {e}"))?;
        let p99_ns = cell(p99_col)?
            .parse::<f64>()
            .map_err(|e| format!("{path}: {key}: bad p99: {e}"))?;
        out.insert((key, mode), PolicyRow { dedup_rate, p99_ns });
    }
    Ok(out)
}

/// Key rows by (app, scheme); keep insertion-stable order via BTreeMap.
fn index(reports: &[RunReport]) -> BTreeMap<(String, String), &RunReport> {
    reports
        .iter()
        .map(|r| ((r.app.clone(), r.scheme.clone()), r))
        .collect()
}

/// Per-app write speedup: baseline mean write latency over dewrite's.
/// The dewrite row is the one carrying DeWrite-specific metrics.
fn speedups(reports: &[RunReport]) -> BTreeMap<String, f64> {
    let mut by_app: BTreeMap<String, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for r in reports {
        let mean = r.write_latency.mean_ns();
        if mean <= 0.0 {
            continue;
        }
        let entry = by_app.entry(r.app.clone()).or_default();
        if r.dewrite.is_some() {
            entry.0 = Some(mean);
        } else {
            entry.1 = Some(mean);
        }
    }
    by_app
        .into_iter()
        .filter_map(|(app, (dw, base))| match (dw, base) {
            (Some(dw), Some(base)) => Some((app, base / dw)),
            _ => None,
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    // Simulated ns are deterministic: 2% only absorbs float formatting.
    let mut tolerance = 2.0;
    let mut allow_missing = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance needs a numeric percentage");
                    return ExitCode::from(2);
                }
            }
        } else if a == "--allow-missing" {
            allow_missing = true;
        } else {
            paths.push(a.clone());
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: bench_compare OLD.json NEW.json [--tolerance PCT] [--allow-missing]");
        return ExitCode::from(2);
    };
    let (old_json, new_json) = match (load_json(old_path), load_json(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (path, json) in [(old_path, &old_json), (new_path, &new_json)] {
        if let Some(kind) = host_export_kind(json) {
            eprintln!(
                "error: {path} is a {kind} export; bench_compare compares repro \
                 exports only — compare host speed with `bench compare` in benchmark/"
            );
            return ExitCode::from(2);
        }
    }
    let table_mode = is_table_export(&old_json) || is_table_export(&new_json);
    if table_mode && !(is_table_export(&old_json) && is_table_export(&new_json)) {
        eprintln!("error: {old_path} and {new_path} are different export kinds");
        return ExitCode::from(2);
    }
    let tol = tolerance / 100.0;

    let mut regressions: Vec<String> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    let mut compared = 0usize;

    if table_mode {
        // Per-(app, policy) or per-(app, digest-mode) diffing for
        // `repro --json ext-repl` / `ext-digest` exports: dedup rate must
        // not shrink, simulated p99 must not grow. Both are
        // deterministic, so the default 2% tolerance applies.
        let (old_rows, new_rows) = match (
            policy_rows(old_path, &old_json),
            policy_rows(new_path, &new_json),
        ) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        // The `app` cell already embeds the digest mode when the export
        // carries that column; only spell the mode out when it doesn't.
        let label = |key: &(String, String)| -> String {
            let (app, mode) = key;
            if mode.is_empty() || app.ends_with(mode.as_str()) {
                app.clone()
            } else {
                format!("{app} [{mode}]")
            }
        };
        if old_rows.is_empty() && !new_rows.is_empty() {
            missing.push(format!(
                "{old_path}: export predates the per-policy columns — \
                 no baselines to compare"
            ));
        }
        for key in new_rows.keys() {
            if !old_rows.is_empty() && !old_rows.contains_key(key) {
                missing.push(format!(
                    "{}: present only in {new_path} — no {old_path} baseline to compare",
                    label(key)
                ));
            }
        }
        for (key, o) in &old_rows {
            let Some(n) = new_rows.get(key) else {
                missing.push(format!("{}: row missing from {new_path}", label(key)));
                continue;
            };
            compared += 1;
            println!(
                "{:<24} dedup {:>5.1}% -> {:>5.1}%   p99 {:>8.0} -> {:>8.0} ns",
                label(key),
                o.dedup_rate,
                n.dedup_rate,
                o.p99_ns,
                n.p99_ns
            );
            if n.dedup_rate < o.dedup_rate * (1.0 - tol) {
                regressions.push(format!(
                    "{}: dedup rate regressed {:.1}% -> {:.1}%",
                    label(key),
                    o.dedup_rate,
                    n.dedup_rate
                ));
            }
            if o.p99_ns > 0.0 && n.p99_ns > o.p99_ns * (1.0 + tol) {
                regressions.push(format!(
                    "{}: p99 write latency regressed {:.0} ns -> {:.0} ns",
                    label(key),
                    o.p99_ns,
                    n.p99_ns
                ));
            }
        }
    } else {
        let (old, new) = match (
            load_reports(old_path, &old_json),
            load_reports(new_path, &new_json),
        ) {
            (Ok(o), Ok(n)) => (o, n),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };

        // Headline: per-app write speedup must not shrink.
        let old_speedups = speedups(&old);
        let new_speedups = speedups(&new);
        for (app, old_s) in &old_speedups {
            let Some(new_s) = new_speedups.get(app) else {
                missing.push(format!("{app}: speedup row missing from {new_path}"));
                continue;
            };
            compared += 1;
            println!("{app:<16} write speedup {old_s:.3}x -> {new_s:.3}x");
            if *new_s < old_s * (1.0 - tol) {
                regressions.push(format!(
                    "{app}: write speedup regressed {old_s:.3}x -> {new_s:.3}x"
                ));
            }
        }
        for app in new_speedups.keys() {
            if !old_speedups.contains_key(app) {
                missing.push(format!(
                    "{app}: present only in {new_path} — no {old_path} baseline to compare"
                ));
            }
        }

        // Per-row: p99 write latency and per-stage means must not grow.
        let old_rows = index(&old);
        let new_rows = index(&new);
        for key @ (app, scheme) in new_rows.keys() {
            if !old_rows.contains_key(key) {
                missing.push(format!(
                    "{app}/{scheme}: present only in {new_path} — \
                     no {old_path} baseline to compare"
                ));
            }
        }
        for ((app, scheme), o) in &old_rows {
            let Some(n) = new_rows.get(&(app.clone(), scheme.clone())) else {
                missing.push(format!("{app}/{scheme}: row missing from {new_path}"));
                continue;
            };
            compared += 1;
            let (op99, np99) = (o.write_latency_hist.p99_ns(), n.write_latency_hist.p99_ns());
            if op99 > 0 && (np99 as f64) > (op99 as f64) * (1.0 + tol) {
                regressions.push(format!(
                    "{app}/{scheme}: p99 write latency regressed {op99} ns -> {np99} ns"
                ));
            }
            for stage in Stage::ALL {
                let (os, ns) = (
                    o.stage_breakdown.stage(stage),
                    n.stage_breakdown.stage(stage),
                );
                if os.count() == 0 {
                    continue;
                }
                let (om, nm) = (os.mean_ns(), ns.mean_ns());
                if om > 0.0 && nm > om * (1.0 + tol) {
                    regressions.push(format!(
                        "{app}/{scheme}: stage {} mean regressed {om:.1} ns -> {nm:.1} ns",
                        stage.name()
                    ));
                }
            }
        }
    }

    println!("compared {compared} rows at ±{tolerance}% tolerance");
    if !missing.is_empty() {
        let label = if allow_missing { "WARNING" } else { "MISSING" };
        eprintln!("\n{} incomparable entr(ies):", missing.len());
        for m in &missing {
            eprintln!("  {label} {m}");
        }
        if allow_missing {
            eprintln!("  (tolerated by --allow-missing)");
        }
    }
    let missing_fails = !missing.is_empty() && !allow_missing;
    if regressions.is_empty() && !missing_fails {
        println!("no regressions");
        ExitCode::SUCCESS
    } else {
        if !regressions.is_empty() {
            eprintln!("\n{} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
        }
        if missing_fails {
            eprintln!("comparison matrices differ; pass --allow-missing if intentional");
        }
        ExitCode::FAILURE
    }
}
