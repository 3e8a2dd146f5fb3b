//! `sim` — run any scheme on any workload with configuration overrides and
//! print the full report.
//!
//! ```text
//! sim --app mcf --scheme dewrite --writes 20000
//! sim --app lbm --scheme baseline --banks 8 --cores 4
//! sim --app vips --scheme dewrite --mode direct --no-pna --encoding fnw
//! sim --app worst-case --scheme shredder --stt
//! ```

use std::process::ExitCode;

use dewrite_bench::runner::{Scale, KEY};
use dewrite_core::{
    BitEncoding, CmeBaseline, DeWrite, DeWriteConfig, Json, MetadataPersistence, Replacement,
    RunReport, SilentShredder, Simulator, SystemConfig, TraditionalDedup, WriteMode,
};
use dewrite_hashes::HashAlgorithm;
use dewrite_nvm::Timing;
use dewrite_trace::{app_by_name, worst_case, TraceGenerator};

struct Options {
    app: String,
    scheme: String,
    writes: usize,
    seed: u64,
    mode: WriteMode,
    pna: bool,
    banks: Option<usize>,
    cores: Option<usize>,
    encoding: BitEncoding,
    persistence: MetadataPersistence,
    stt: bool,
    cache_policy: Replacement,
    json: bool,
    folded: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            app: "mcf".into(),
            scheme: "dewrite".into(),
            writes: 20_000,
            seed: 1,
            mode: WriteMode::Predictive,
            pna: true,
            banks: None,
            cores: None,
            encoding: BitEncoding::Dcw,
            persistence: MetadataPersistence::BatteryBacked,
            stt: false,
            cache_policy: Replacement::Lru,
            json: false,
            folded: false,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: sim [options]");
    eprintln!("  --app NAME          workload (see trace-tool apps; or worst-case) [mcf]");
    eprintln!("  --scheme NAME       dewrite | baseline | shredder | traditional-sha1 | traditional-md5 [dewrite]");
    eprintln!("  --writes N          trace length in writes [20000]");
    eprintln!("  --seed N            trace RNG seed [1]");
    eprintln!("  --mode M            dewrite write mode: direct | parallel | predictive");
    eprintln!("  --no-pna            disable prediction-based NVM access");
    eprintln!("  --banks N           NVM banks");
    eprintln!("  --cores N           request contexts");
    eprintln!("  --encoding E        raw | dcw | fnw");
    eprintln!("  --persistence P     battery | write-through | epoch:N");
    eprintln!("  --stt               use STT-RAM timing instead of PCM");
    eprintln!("  --cache-policy P    metadata-cache eviction: lru | s3-fifo [lru]");
    eprintln!("  --json              print the full report as JSON instead of text");
    eprintln!(
        "  --folded            print the stage breakdown as collapsed stacks (flamegraph.pl input)"
    );
    ExitCode::FAILURE
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--app" => o.app = value()?,
            "--scheme" => o.scheme = value()?,
            "--writes" => o.writes = value()?.parse().map_err(|e| format!("--writes: {e}"))?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mode" => {
                o.mode = match value()?.as_str() {
                    "direct" => WriteMode::Direct,
                    "parallel" => WriteMode::Parallel,
                    "predictive" => WriteMode::Predictive,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--no-pna" => o.pna = false,
            "--banks" => o.banks = Some(value()?.parse().map_err(|e| format!("--banks: {e}"))?),
            "--cores" => o.cores = Some(value()?.parse().map_err(|e| format!("--cores: {e}"))?),
            "--encoding" => {
                o.encoding = match value()?.as_str() {
                    "raw" => BitEncoding::Raw,
                    "dcw" => BitEncoding::Dcw,
                    "fnw" => BitEncoding::Fnw,
                    other => return Err(format!("unknown encoding {other}")),
                }
            }
            "--persistence" => {
                let v = value()?;
                o.persistence = if v == "battery" {
                    MetadataPersistence::BatteryBacked
                } else if v == "write-through" {
                    MetadataPersistence::WriteThrough
                } else if let Some(n) = v.strip_prefix("epoch:") {
                    MetadataPersistence::EpochFlush {
                        interval: n.parse().map_err(|e| format!("--persistence: {e}"))?,
                    }
                } else {
                    return Err(format!("unknown persistence {v}"));
                }
            }
            "--stt" => o.stt = true,
            "--cache-policy" => {
                o.cache_policy = value()?
                    .parse()
                    .map_err(|e| format!("--cache-policy: {e}"))?
            }
            "--json" => o.json = true,
            "--folded" => o.folded = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn print_report(r: &RunReport) {
    println!("scheme              : {}", r.scheme);
    println!("workload            : {}", r.app);
    println!("instructions        : {}", r.instructions);
    println!("IPC                 : {:.3}", r.ipc);
    println!(
        "writes              : {} issued, {} eliminated ({:.1}%), {} reached the array",
        r.base.writes,
        r.base.writes_eliminated,
        r.write_reduction() * 100.0,
        r.nvm_data_writes
    );
    println!(
        "write latency       : mean {:.0} ns (eliminated {:.0}, stored {:.0}; critical {:.0})",
        r.write_latency.mean_ns(),
        r.write_latency_eliminated.mean_ns(),
        r.write_latency_stored.mean_ns(),
        r.write_critical.mean_ns()
    );
    println!(
        "read latency        : mean {:.0} ns over {} reads",
        r.read_latency.mean_ns(),
        r.base.reads
    );
    println!(
        "metadata traffic    : {} NVM reads, {} NVM writes",
        r.base.meta_nvm_reads, r.base.meta_nvm_writes
    );
    println!("bit-flip ratio      : {:.1}%", r.bit_flip_ratio * 100.0);
    println!("energy              : {}", r.energy);
    if let Some(dm) = &r.dewrite {
        println!(
            "predictor accuracy  : {:.1}%",
            dm.predictor_accuracy * 100.0
        );
        println!(
            "paths               : {} parallel / {} direct; {} wasted / {} saved encryptions",
            dm.parallel_writes, dm.direct_writes, dm.wasted_encryptions, dm.saved_encryptions
        );
        println!(
            "PNA                 : {} skips, {} missed duplicates; {} CRC collisions",
            dm.pna_skips, dm.pna_missed_dups, dm.false_matches
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            return usage();
        }
    };

    let profile = if opts.app == "worst-case" {
        Some(worst_case())
    } else {
        app_by_name(&opts.app)
    };
    let Some(profile) = profile else {
        eprintln!("unknown application {:?}", opts.app);
        return usage();
    };
    let scale = Scale {
        writes: opts.writes,
        ..Scale::default_scale()
    };
    let profile = scale.shape(profile);

    let mut gen = TraceGenerator::new(profile.clone(), 256, opts.seed);
    let warmup = gen.warmup_records();
    let mut trace = Vec::new();
    let mut writes = 0;
    while writes < opts.writes {
        let rec = gen.next().expect("infinite generator");
        writes += usize::from(rec.op.is_write());
        trace.push(rec);
    }

    let mut config =
        SystemConfig::for_lines(profile.working_set_lines + profile.content_pool_size as u64 + 64);
    if let Some(b) = opts.banks {
        config.nvm.banks = b;
    }
    if let Some(c) = opts.cores {
        config.cores = c;
    }
    if opts.stt {
        config.nvm.timing = Timing::STT_RAM;
    }
    config.bit_encoding = opts.encoding;
    let sim = Simulator::new(&config);

    let mut dewrite_cache: Option<Json> = None;
    let report = match opts.scheme.as_str() {
        "baseline" => {
            let mut mem = CmeBaseline::new(config, KEY);
            sim.run(&mut mem, profile.name, &warmup, trace)
        }
        "shredder" => {
            let mut mem = SilentShredder::new(config, KEY);
            sim.run(&mut mem, profile.name, &warmup, trace)
        }
        "traditional-sha1" => {
            let mut mem = TraditionalDedup::new(config, HashAlgorithm::Sha1, KEY);
            sim.run(&mut mem, profile.name, &warmup, trace)
        }
        "traditional-md5" => {
            let mut mem = TraditionalDedup::new(config, HashAlgorithm::Md5, KEY);
            sim.run(&mut mem, profile.name, &warmup, trace)
        }
        "dewrite" => {
            let mut dw = DeWriteConfig::paper();
            dw.mode = opts.mode;
            dw.pna = opts.pna;
            dw.persistence = opts.persistence;
            dw.meta_cache.replacement = opts.cache_policy;
            let mut mem = DeWrite::new(config, dw, KEY);
            let r = sim.run(&mut mem, profile.name, &warmup, trace);
            dewrite_cache = Some(mem.cache_stats().to_json());
            r.map(|mut r| {
                r.dewrite = Some(mem.dewrite_metrics());
                r
            })
        }
        other => {
            eprintln!("unknown scheme {other:?}");
            return usage();
        }
    };

    match report {
        Ok(r) => {
            if opts.folded {
                print!("{}", r.stage_breakdown.folded(&r.scheme));
            } else if opts.json {
                let mut j = r.to_json();
                if let Json::Obj(fields) = &mut j {
                    fields.push(("dewrite_cache".into(), dewrite_cache.unwrap_or(Json::Null)));
                }
                println!("{j}");
            } else {
                print_report(&r);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            ExitCode::FAILURE
        }
    }
}
