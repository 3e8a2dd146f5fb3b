//! `bench`: the gating benchmark command.
//!
//! ```text
//! bench run      [--workload NAME] [--seed N] [--seconds S] [--reps N] [--quick]
//!                [--trace 0|1] [--detail FILE] [--out FILE]
//! bench compare  A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `run --workload W --trace 0` measures W's end-to-end metrics in this
//! process and prints the result object as its last line; `--trace 1`
//! hands over to the `bench-layers` binary for the per-layer metrics.
//! Without `--workload`, every workload runs in a child process of its
//! own, then the traced ladder, and the whole set is written to `--out`
//! for `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dewrite_benchmark::cli::{Args, FLAGS};
use dewrite_benchmark::compare;
use dewrite_benchmark::host;
use dewrite_benchmark::output::{obj, write_json};
use dewrite_benchmark::run::end_to_end;
use dewrite_benchmark::spec::{Workload, WORKLOADS};
use dewrite_core::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench run {FLAGS}\n       bench compare A.json B.json [--spec BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Build `bench-layers` beside this executable (same target directory,
/// same profile) and return its path.
fn layers_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `<target>/<profile>/bench`: building into `<target>` puts the
    // sibling next to this binary wherever cargo was told to build.
    let target_dir = me
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a target directory", me.display()))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "--offline", "--quiet", "--bin", "bench-layers"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    build.arg("--target-dir").arg(target_dir);
    build
        .arg("--manifest-path")
        .arg(host::package_dir().join("Cargo.toml"));
    let status = build.status().map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("building bench-layers failed ({status})"));
    }
    Ok(me.with_file_name("bench-layers"))
}

/// Run a child to completion with inherited output; `Ok` iff it exited 0.
fn run_child(mut child: Command) -> Result<(), String> {
    let status = child.status().map_err(|e| format!("{child:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{child:?} exited with {status}"))
    }
}

/// The end-to-end pass of one workload, in this process.
fn run_end_to_end(args: &Args, workload: &'static Workload) -> Result<(), String> {
    let outcome = end_to_end(&args.options(workload));
    outcome.print_table();
    if let Some(path) = &args.detail {
        write_json(path, &outcome.detail())?;
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        Ok(())
    } else {
        Err(format!("{}: outputs did not verify", workload.name))
    }
}

/// The traced ladder of one workload, in the `bench-layers` binary.
fn run_layers(
    args: &Args,
    layers: &Path,
    workload: &Workload,
    detail: Option<&Path>,
) -> Result<(), String> {
    let mut child = Command::new(layers);
    child.args(args.child_flags(workload));
    if let Some(path) = detail {
        child.arg("--detail").arg(path);
    }
    run_child(child)
}

/// Every workload in a child process of its own, then the ladder, then
/// the combined document.
fn run_all(args: &Args, fingerprint: Json) -> Result<(), String> {
    let out_dir = host::package_dir().join("out");
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let layers = if args.trace == Some(false) {
        None
    } else {
        Some(layers_binary()?)
    };
    let mut failures = Vec::new();
    let mut end_to_end_docs = Vec::new();
    let mut layer_docs = Vec::new();
    if args.trace != Some(true) {
        for w in &WORKLOADS {
            println!("== {} (end to end) ==", w.name);
            let detail = out_dir.join(format!("e2e-{}.json", w.name));
            let mut child = Command::new(&me);
            child.arg("run").args(args.child_flags(w));
            child.args(["--trace", "0", "--detail"]).arg(&detail);
            if let Err(e) = run_child(child) {
                failures.push(e);
            }
            match read_json(&detail) {
                Ok(doc) => end_to_end_docs.push((w.name.to_string(), doc)),
                Err(e) => failures.push(e),
            }
        }
    }
    if let Some(layers) = &layers {
        for w in &WORKLOADS {
            println!("== {} (traced ladder) ==", w.name);
            let detail = out_dir.join(format!("layers-{}.json", w.name));
            if let Err(e) = run_layers(args, layers, w, Some(&detail)) {
                failures.push(e);
            }
            match read_json(&detail) {
                Ok(doc) => layer_docs.push((w.name.to_string(), doc)),
                Err(e) => failures.push(e),
            }
        }
    }
    let doc = obj(vec![
        ("host", fingerprint),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::Obj(end_to_end_docs)),
        ("layers", Json::Obj(layer_docs)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| out_dir.join("run.json"));
    write_json(&out, &doc)?;
    println!("wrote {}", out.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    host::refuse_portable_leg()?;
    let args = Args::parse(args)?;
    let fingerprint = host::fingerprint();
    println!("host: {fingerprint}");
    let Some(workload) = args.workload else {
        return run_all(&args, fingerprint);
    };
    if args.trace != Some(true) {
        run_end_to_end(&args, workload)?;
    }
    if args.trace != Some(false) {
        // With both passes asked for, the detail file is the end-to-end one.
        let detail = args.detail.as_deref().filter(|_| args.trace == Some(true));
        run_layers(&args, &layers_binary()?, workload, detail)?;
    }
    Ok(())
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = host::repo_root().join("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [base, new] = files.as_slice() else {
        return Err("compare needs exactly two run documents".into());
    };
    let rows = compare::compare(&read_json(base)?, &read_json(new)?, &read_json(&spec)?)?;
    compare::print(&rows);
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]).map(|()| true),
        Some("compare") => compare_cmd(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
