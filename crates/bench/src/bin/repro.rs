//! `repro` — regenerate every table and figure of the DeWrite paper.
//!
//! Usage:
//! ```text
//! repro [--quick|--full] [--out DIR] <experiment ...>
//! repro all
//! repro --list
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dewrite_bench::experiments::{cache, endurance, extensions, latency, motivation, system, Ctx};
use dewrite_bench::Scale;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("tab1", "Table I: hash costs and detection latency"),
    ("tab2", "Table II: system configuration"),
    ("fig2", "Fig. 2: duplicate lines per application"),
    ("fig4", "Fig. 4: duplication-state predictability"),
    ("fig6", "Fig. 6: CRC-32 collision rate"),
    ("fig7", "Fig. 7: reference-count distribution"),
    ("fig12", "Fig. 12: write reduction"),
    ("fig13", "Fig. 13: bit flips per write"),
    ("fig14", "Fig. 14: write speedup"),
    ("fig15", "Fig. 15: write latency by mode"),
    ("fig16", "Fig. 16: read speedup"),
    ("fig17", "Fig. 17: IPC improvement"),
    ("fig18", "Fig. 18: worst-case performance"),
    ("fig19", "Fig. 19: energy vs baseline"),
    ("fig20", "Fig. 20: energy by mode"),
    ("fig21", "Fig. 21: metadata cache sweeps"),
    ("ext-history", "Extension: history width sweep"),
    ("ext-hash", "Extension: fingerprint ablation"),
    ("ext-repl", "Extension: cache replacement ablation"),
    ("ext-stt", "Extension: NVM technology sensitivity"),
    ("ext-gran", "Extension: dedup granularity"),
    ("ext-persist", "Extension: metadata persistence policies"),
    ("ext-wear", "Extension: Start-Gap wear leveling"),
    (
        "ext-combined",
        "Extension: line-level x cell-level composition",
    ),
    ("ext-colo", "Extension: co-located programs, global dedup"),
    (
        "ext-layout",
        "Extension: colocated metadata layout validation",
    ),
    ("ext-banks", "Extension: bank-parallelism sensitivity"),
    ("ext-domains", "Extension: per-tenant dedup domains"),
];

fn usage() {
    eprintln!("usage: repro [--quick|--full] [--out DIR] [--json] <experiment ...|all>");
    eprintln!("  --json   also export each table as JSON (and runs.json for shared runs)");
    eprintln!("experiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<12} {desc}");
    }
}

fn run_one(ctx: &mut Ctx, name: &str) -> bool {
    match name {
        "tab1" => latency::tab1(ctx),
        "tab2" => system::tab2(ctx),
        "fig2" => motivation::fig2(ctx),
        "fig4" => motivation::fig4(ctx),
        "fig6" => motivation::fig6(ctx),
        "fig7" => motivation::fig7(ctx),
        "fig12" => endurance::fig12(ctx),
        "fig13" => endurance::fig13(ctx),
        "fig14" => latency::fig14(ctx),
        "fig15" => latency::fig15(ctx),
        "fig16" => latency::fig16(ctx),
        "fig17" => system::fig17(ctx),
        "fig18" => latency::fig18(ctx),
        "fig19" => system::fig19(ctx),
        "fig20" => system::fig20(ctx),
        "fig21" => cache::fig21(ctx),
        "ext-history" => extensions::ext_history(ctx),
        "ext-hash" => extensions::ext_hash(ctx),
        "ext-repl" => extensions::ext_repl(ctx),
        "ext-stt" => extensions::ext_stt(ctx),
        "ext-gran" => extensions::ext_gran(ctx),
        "ext-persist" => extensions::ext_persist(ctx),
        "ext-wear" => extensions::ext_wear(ctx),
        "ext-combined" => extensions::ext_combined(ctx),
        "ext-colo" => extensions::ext_colo(ctx),
        "ext-layout" => extensions::ext_layout(ctx),
        "ext-banks" => extensions::ext_banks(ctx),
        "ext-domains" => extensions::ext_domains(ctx),
        _ => return false,
    }
    true
}

fn main() -> ExitCode {
    let mut scale = Scale::default_scale();
    let mut out_dir = PathBuf::from("results");
    let mut json = false;
    let mut selected: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--full" => scale = Scale::full(),
            "--json" => json = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" | "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => selected.push(other.to_string()),
        }
    }

    if selected.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if selected.iter().any(|s| s == "all") {
        selected = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
    }

    for name in &selected {
        if !EXPERIMENTS.iter().any(|(n, _)| n == name) {
            eprintln!("unknown experiment: {name}");
            usage();
            return ExitCode::FAILURE;
        }
    }

    println!(
        "DeWrite reproduction: {} experiment(s), {} writes/app, results -> {}",
        selected.len(),
        scale.writes,
        out_dir.display()
    );
    let started = std::time::Instant::now();
    let mut ctx = Ctx::new(scale, out_dir);
    ctx.json = json;
    for name in &selected {
        let t0 = std::time::Instant::now();
        println!("\n### {name} ###");
        assert!(run_one(&mut ctx, name), "validated above");
        println!("[{name} took {:.1?}]", t0.elapsed());
    }
    println!("\nAll done in {:.1?}.", started.elapsed());
    ExitCode::SUCCESS
}
