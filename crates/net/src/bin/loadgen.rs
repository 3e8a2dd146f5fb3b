//! `loadgen` — drive the sharded engine, in process (closed loop) or over
//! a socket (closed or open loop), and emit `BENCH_engine.json`.
//!
//! ```text
//! loadgen --app mcf --shards 4 --ops 200k --check
//! loadgen --apps mcf,lbm,gems --sweep 1,2,4,8 --out BENCH_engine.json
//! loadgen --app mcf --net 127.0.0.1:7411 --connections 64,256 --check
//! loadgen --app vips --net 127.0.0.1:7411 --mode open --rate 50k
//! ```
//!
//! For every app the tool always runs `--shards 1` first: that run's dedup
//! rate is the **global** rate (one table sees all content), so each
//! multi-shard run can report its digest-sharding cost
//! (`dedup_delta_vs_global`). With `--check` it also scrubs every shard's
//! tables after the drain. `--check` asserts correctness only; host speed
//! is the repo benchmark's to judge.
//!
//! With `--net ADDR` the tool becomes a socket client against a running
//! `dewrite-serve`: for each `--connections` entry it replays the trace
//! over that many connections, measures end-to-end host ops/s and latency
//! percentiles, fetches the server's per-shard reports, and asserts they
//! are **bit-identical** to a local in-process run of the same trace —
//! then `Reset`s the server for the next entry. Results land in a `net`
//! section of the JSON (host-side numbers quarantined from the simulated
//! report).

use std::process::ExitCode;
use std::time::Duration;

use dewrite_core::Json;
use dewrite_engine::{run, DigestMode, EngineConfig, EngineRun, FsmPolicy, Replacement};
use dewrite_net::proto::{Hello, NET_VERSION};
use dewrite_net::{client, drive, Control, DriveOptions, HelloInfo, Pacing};
use dewrite_trace::{app_by_name, DupOracle, TraceGenerator, TraceRecord};

const DEFAULT_KEY: [u8; 16] = *b"dewrite-repro-16";

struct Options {
    apps: Vec<String>,
    ops: usize,
    sweep: Vec<usize>,
    mode: String,
    rate: f64,
    seed: u64,
    ws_lines: u64,
    pool: usize,
    out: String,
    check: bool,
    producers: usize,
    persist_dir: Option<String>,
    fsm: FsmPolicy,
    cache_policy: Replacement,
    net: Option<String>,
    connections: Vec<usize>,
    net_window: usize,
    client_threads: usize,
    net_shutdown: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            apps: vec!["mcf".into()],
            ops: 200_000,
            sweep: vec![4],
            mode: "closed".into(),
            rate: 1_000_000.0,
            seed: 0xDE_17_17_E5,
            ws_lines: 1 << 14,
            pool: 1024,
            out: "BENCH_engine.json".into(),
            check: false,
            producers: 0,
            persist_dir: None,
            fsm: FsmPolicy::default(),
            cache_policy: Replacement::default(),
            net: None,
            connections: vec![64],
            net_window: 32,
            client_threads: 0,
            net_shutdown: false,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: loadgen [options]");
    eprintln!("  --app NAME        one workload (see trace apps) [mcf]");
    eprintln!("  --apps A,B,C      several workloads");
    eprintln!("  --ops N           operations per run; k/m suffixes ok [200k]");
    eprintln!("  --seed N          trace RNG seed");
    eprintln!("  --lines N         working-set lines; k/m ok [16k]");
    eprintln!("  --pool N          recurring-content pool size [1024]");
    eprintln!("  --out PATH        JSON output path [BENCH_engine.json]");
    eprintln!("  --cache-policy P  metadata-cache eviction: lru | s3-fifo [lru];");
    eprintln!("                    in net mode the policy rides in the Hello handshake");
    eprintln!("  --check           scrub every shard after the drain (net mode: also");
    eprintln!("                    assert report bit-identity + zero errors)");
    eprintln!("  --net ADDR        socket-client mode against a running dewrite-serve;");
    eprintln!("                    replays the trace over TCP, asserts the server's");
    eprintln!("                    reports are bit-identical to an in-process run");
    eprintln!("in-process only (refused with --net):");
    eprintln!("  --shards N        shard count [4]");
    eprintln!("  --sweep N,M,...   run several shard counts");
    eprintln!("  --producers N     threads running the shards; 0 = one per shard, up to");
    eprintln!("                    the hardware threads [0]");
    eprintln!("  --persist-dir P   per-shard metadata WAL + checkpoints under P/<app>-s<N>/");
    eprintln!("  --fsm P           free-space claim order: tree | tree-wear [tree]");
    eprintln!("net only (refused without --net):");
    eprintln!("  --mode M          closed | open [closed]");
    eprintln!("  --rate R          open-loop issue rate, ops/s; k/m ok [1m]");
    eprintln!("  --connections L   connection counts to sweep in net mode, comma list [64]");
    eprintln!("  --window N        per-connection in-flight window in net mode [32]");
    eprintln!("  --client-threads N  client sweep threads; 0 = one per core [0]");
    eprintln!("  --net-shutdown    ask the server to drain and exit when done");
    ExitCode::from(2)
}

/// Parse `flag`'s value `200`, `200k`, `2m` into a count.
fn parse_count(flag: &str, v: &str) -> Result<u64, String> {
    let (digits, mult) = match v.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&v[..v.len() - 1], 1_000),
        Some(b'm') | Some(b'M') => (&v[..v.len() - 1], 1_000_000),
        _ => (v, 1),
    };
    let n = digits
        .parse::<u64>()
        .map_err(|e| format!("{flag}: {v}: {e}"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("{flag}: {v}: number too large to fit in target type"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut net_only: Vec<&'static str> = Vec::new();
    let mut in_process_only: Vec<&'static str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--app" => o.apps = vec![value()?],
            "--apps" => o.apps = value()?.split(',').map(str::to_string).collect(),
            "--ops" => o.ops = parse_count("--ops", &value()?)? as usize,
            "--shards" => {
                in_process_only.push("--shards");
                o.sweep = vec![value()?.parse().map_err(|e| format!("--shards: {e}"))?]
            }
            "--sweep" => {
                in_process_only.push("--sweep");
                o.sweep = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--sweep: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--mode" => {
                o.mode = value()?;
                if o.mode == "open" {
                    net_only.push("--mode open");
                }
            }
            "--rate" => {
                net_only.push("--rate");
                o.rate = parse_count("--rate", &value()?)? as f64
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--lines" => o.ws_lines = parse_count("--lines", &value()?)?,
            "--pool" => o.pool = value()?.parse().map_err(|e| format!("--pool: {e}"))?,
            "--producers" => {
                in_process_only.push("--producers");
                o.producers = value()?.parse().map_err(|e| format!("--producers: {e}"))?
            }
            "--out" => o.out = value()?,
            "--persist-dir" => {
                in_process_only.push("--persist-dir");
                o.persist_dir = Some(value()?)
            }
            "--fsm" => {
                in_process_only.push("--fsm");
                o.fsm = match value()?.as_str() {
                    "tree" => FsmPolicy::Tree,
                    "tree-wear" => FsmPolicy::TreeWear,
                    other => return Err(format!("--fsm: unknown policy {other:?}")),
                }
            }
            "--cache-policy" => {
                o.cache_policy = value()?
                    .parse::<Replacement>()
                    .map_err(|e| format!("--cache-policy: {e}"))?
            }
            "--net" => o.net = Some(value()?),
            "--connections" => {
                net_only.push("--connections");
                o.connections = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--connections: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--window" => {
                net_only.push("--window");
                o.net_window = value()?.parse().map_err(|e| format!("--window: {e}"))?
            }
            "--client-threads" => {
                net_only.push("--client-threads");
                o.client_threads = value()?
                    .parse()
                    .map_err(|e| format!("--client-threads: {e}"))?
            }
            "--net-shutdown" => {
                net_only.push("--net-shutdown");
                o.net_shutdown = true
            }
            "--check" => o.check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.sweep.is_empty() || o.sweep.iter().any(|&s| s == 0 || s > 16) {
        return Err("shard counts must be in 1..=16".into());
    }
    if o.mode != "closed" && o.mode != "open" {
        return Err(format!("unknown mode {:?}", o.mode));
    }
    if o.apps.is_empty() {
        return Err("need at least one app".into());
    }
    match (&o.net, net_only.first(), in_process_only.first()) {
        (None, Some(flag), _) => return Err(format!("{flag} only makes sense with --net")),
        (Some(_), _, Some(flag)) => {
            return Err(format!("{flag} only applies to in-process runs, not --net"))
        }
        _ => {}
    }
    if o.connections.is_empty() || o.connections.iter().any(|&c| c == 0 || c > 4096) {
        return Err("--connections entries must be in 1..=4096".into());
    }
    if o.net_window == 0 {
        return Err("--window must be at least 1".into());
    }
    Ok(o)
}

struct AppTrace {
    records: Vec<TraceRecord>,
    lines: u64,
    writes: u64,
    oracle_dup_ratio: f64,
}

/// Generate one app's trace (warmup + `ops` records) and its ground-truth
/// duplication ratio.
fn generate(app: &str, o: &Options) -> Option<AppTrace> {
    let mut profile = app_by_name(app)?;
    profile.working_set_lines = o.ws_lines;
    profile.content_pool_size = o.pool;
    let mut gen = TraceGenerator::new(profile, 256, o.seed);
    let lines = gen.required_lines();
    let mut oracle = DupOracle::new();
    let mut records = gen.warmup_records();
    for rec in &records {
        oracle.observe_warmup(rec);
    }
    for rec in gen.by_ref().take(o.ops) {
        oracle.observe(&rec);
        records.push(rec);
    }
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;
    Some(AppTrace {
        records,
        lines,
        writes,
        oracle_dup_ratio: oracle.stats().dup_ratio(),
    })
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn flt(f: f64) -> Json {
    Json::Num(f)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn run_json(engine_run: &EngineRun, global_rate: f64, producers: usize) -> Json {
    let host = engine_run.host_latency();
    let m = &engine_run.merged;
    let per_shard: Vec<Json> = engine_run
        .shards
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("shard", num(s.shard as u64)),
                ("ops", num(s.ops)),
                ("dedup_rate", flt(s.dedup_rate)),
                ("fsm_claims", num(s.fsm.claims)),
                ("fsm_refills", num(s.fsm.refills)),
                ("fsm_steals", num(s.fsm.steals)),
                (
                    "fsm_scan_steps_per_claim",
                    flt(s.fsm.scan_steps_per_claim()),
                ),
                ("cache_hits", num(s.cache.hits)),
                ("cache_misses", num(s.cache.misses)),
                ("cache_hit_rate", flt(s.cache.hit_rate())),
                ("cache_small_hits", num(s.cache.small_hits)),
                ("cache_main_hits", num(s.cache.main_hits)),
                ("cache_ghost_hits", num(s.cache.ghost_hits)),
                ("cache_scan_evictions", num(s.cache.scan_evictions)),
            ];
            if let Some(Ok(checked)) = &s.scrub {
                fields.push(("scrub_lines", num(*checked)));
            }
            obj(fields)
        })
        .collect();
    obj(vec![
        ("shards", num(engine_run.shards.len() as u64)),
        ("producers", num(producers as u64)),
        ("ops", num(engine_run.ops)),
        ("wall_ms", flt(engine_run.wall_ns as f64 / 1e6)),
        ("ops_per_sec", flt(engine_run.ops_per_sec())),
        // Sampled: each shard times one in eight of its operations
        // (`ShardSummary::host_latency`); `host_samples` says how many.
        ("host_p50_ns", num(host.p50_ns())),
        ("host_p95_ns", num(host.p95_ns())),
        ("host_p99_ns", num(host.p99_ns())),
        ("host_samples", num(host.count())),
        ("dedup_rate", flt(engine_run.dedup_rate())),
        (
            "dedup_delta_vs_global",
            flt(engine_run.dedup_rate() - global_rate),
        ),
        (
            "sim",
            obj(vec![
                ("writes", num(m.base.writes)),
                ("writes_eliminated", num(m.base.writes_eliminated)),
                ("coalesced_writes", num(m.base.coalesced_writes)),
                ("reads", num(m.base.reads)),
                ("nvm_data_writes", num(m.nvm_data_writes)),
                ("aes_line_ops", num(m.base.aes_line_ops)),
                ("verify_reads", num(m.base.verify_reads)),
                ("write_mean_ns", flt(m.write_latency.mean_ns())),
                ("write_p99_ns", num(m.write_latency.p99_ns())),
                (
                    "predictor_accuracy",
                    flt(m.dewrite.map_or(0.0, |d| d.predictor_accuracy)),
                ),
            ]),
        ),
        ("per_shard", Json::Arr(per_shard)),
    ])
}

/// Connect + handshake with retries: in CI the server may still be
/// binding when the client starts.
fn connect_retry(addr: &str, hello: &Hello) -> std::io::Result<(Control, HelloInfo)> {
    let mut last: Option<std::io::Error> = None;
    for _ in 0..50 {
        match Control::connect(addr, hello) {
            Ok(ok) => return Ok(ok),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("connect retries exhausted")))
}

/// Socket-client mode: replay each app's trace against a running
/// `dewrite-serve` at each connection count, asserting the server's
/// per-shard reports are bit-identical to a local in-process run.
fn net_main(o: &Options, addr: &str) -> ExitCode {
    let pacing = if o.mode == "open" {
        Pacing::Open {
            ops_per_sec: o.rate,
        }
    } else {
        Pacing::Closed
    };
    let mut failures: Vec<String> = Vec::new();
    let mut app_objs: Vec<Json> = Vec::new();

    for app in &o.apps {
        let Some(trace) = generate(app, o) else {
            eprintln!("unknown application {app:?}");
            return usage();
        };
        println!(
            "{app}: {} ops ({} writes, oracle dup ratio {:.3}) over the wire at {addr}",
            trace.records.len(),
            trace.writes,
            trace.oracle_dup_ratio
        );
        let hello = Hello {
            version: NET_VERSION,
            line_size: 256,
            lines: trace.lines,
            expected_writes: trace.writes,
            cache_policy: o.cache_policy.to_wire(),
            digest_mode: DigestMode::Crc32Verify.to_wire(),
            app: app.clone(),
        };
        let mut expected_report: Option<String> = None;
        let mut runs: Vec<Json> = Vec::new();
        for &connections in &o.connections {
            let entry = (|| -> std::io::Result<Json> {
                let (mut control, info) = connect_retry(addr, &hello)?;
                if expected_report.is_none() {
                    // The local shadow run: same geometry the server
                    // derived, same trace — its per-shard reports are the
                    // bit-identity oracle.
                    let mut config =
                        EngineConfig::for_workload(info.shards, 256, trace.lines, trace.writes);
                    config.cache_policy = o.cache_policy;
                    if config.slots_per_shard != info.slots_per_shard {
                        return Err(std::io::Error::other(format!(
                            "server sized {} slots/shard where the local config \
                             derives {} — version drift?",
                            info.slots_per_shard, config.slots_per_shard
                        )));
                    }
                    let baseline = run(&config, app, trace.records.clone());
                    expected_report = Some(format!(
                        "[{}]",
                        baseline
                            .shards
                            .iter()
                            .map(|s| s.report.to_json().to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    ));
                }
                let summary = drive(
                    &DriveOptions {
                        addr: addr.to_string(),
                        connections,
                        window: o.net_window,
                        threads: o.client_threads,
                        pacing,
                    },
                    &hello,
                    &trace.records,
                )?;
                control.flush()?;
                let scrub_lines = if o.check {
                    Some(control.scrub()?)
                } else {
                    None
                };
                let server_report = control.report()?;
                let report_match = Some(&server_report) == expected_report.as_ref();
                control.reset()?;
                println!(
                    "  conns={connections:<4} {:>10.0} ops/s  p50 {} ns  p99 {} ns  \
                     errors {}  report_match {report_match}",
                    summary.ops_per_sec(),
                    summary.host_latency.p50_ns(),
                    summary.host_latency.p99_ns(),
                    summary.errors
                );
                if o.check {
                    if !report_match {
                        failures.push(format!(
                            "{app}: {connections}-connection replay diverged from the \
                             in-process per-shard reports"
                        ));
                    }
                    if summary.errors > 0 {
                        failures.push(format!(
                            "{app}: {connections}-connection replay saw {} error responses",
                            summary.errors
                        ));
                    }
                }
                let mut fields = vec![
                    ("connections", num(connections as u64)),
                    ("ops", num(summary.ops)),
                    ("wall_ms", flt(summary.wall_ns as f64 / 1e6)),
                    ("ops_per_sec", flt(summary.ops_per_sec())),
                    ("window", num(summary.window as u64)),
                    ("host_p50_ns", num(summary.host_latency.p50_ns())),
                    ("host_p95_ns", num(summary.host_latency.p95_ns())),
                    ("host_p99_ns", num(summary.host_latency.p99_ns())),
                    ("errors", num(summary.errors)),
                    ("report_match", Json::Bool(report_match)),
                ];
                if let Some(lines) = scrub_lines {
                    fields.push(("scrub_lines", num(lines)));
                }
                Ok(obj(fields))
            })();
            match entry {
                Ok(j) => runs.push(j),
                Err(e) => {
                    failures.push(format!("{app}: {connections}-connection entry failed: {e}"))
                }
            }
        }
        app_objs.push(obj(vec![
            ("app", Json::Str(app.clone())),
            ("trace_ops", num(trace.records.len() as u64)),
            ("trace_writes", num(trace.writes)),
            ("oracle_dup_ratio", flt(trace.oracle_dup_ratio)),
            ("runs", Json::Arr(runs)),
        ]));
    }

    if o.net_shutdown {
        if let Err(e) = client::request_shutdown(addr) {
            failures.push(format!("shutdown request failed: {e}"));
        }
    }

    let doc = obj(vec![
        ("schema_version", num(1)),
        ("tool", Json::Str("loadgen".into())),
        (
            "config",
            obj(vec![
                ("ops", num(o.ops as u64)),
                ("working_set_lines", num(o.ws_lines)),
                ("content_pool", num(o.pool as u64)),
                ("cache_policy", Json::Str(o.cache_policy.to_string())),
                ("mode", Json::Str(o.mode.clone())),
                ("rate_ops_per_sec", flt(o.rate)),
                ("seed", num(o.seed)),
                ("check", Json::Bool(o.check)),
            ]),
        ),
        // In-process runs live under `apps`; a net-mode export keeps the
        // key (empty) so consumers can treat both shapes uniformly.
        ("apps", Json::Arr(Vec::new())),
        (
            "net",
            obj(vec![
                ("addr", Json::Str(addr.to_string())),
                ("window", num(o.net_window as u64)),
                ("client_threads", num(o.client_threads as u64)),
                (
                    "connections",
                    Json::Arr(o.connections.iter().map(|&c| num(c as u64)).collect()),
                ),
                ("apps", Json::Arr(app_objs)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&o.out, format!("{doc}\n")) {
        eprintln!("error: writing {}: {e}", o.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", o.out);

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} check failure(s):", failures.len());
        for f in &failures {
            eprintln!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            return usage();
        }
    };

    if let Some(addr) = o.net.clone() {
        return net_main(&o, &addr);
    }

    // Always measure shards=1 first: the global-dedup baseline.
    let mut sweep = o.sweep.clone();
    if !sweep.contains(&1) {
        sweep.insert(0, 1);
    }
    sweep.sort_unstable();
    sweep.dedup();

    let mut app_objs: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for app in &o.apps {
        let Some(trace) = generate(app, &o) else {
            eprintln!("unknown application {app:?}");
            return usage();
        };
        println!(
            "{app}: {} ops ({} writes), oracle dup ratio {:.3}",
            trace.records.len(),
            trace.writes,
            trace.oracle_dup_ratio
        );

        let mut global_rate = 0.0;
        let mut runs: Vec<Json> = Vec::new();
        for &shards in &sweep {
            let mut config = EngineConfig::for_workload(shards, 256, trace.lines, trace.writes);
            config.key = DEFAULT_KEY;
            config.scrub = o.check;
            config.producers = o.producers;
            config.fsm = o.fsm;
            config.cache_policy = o.cache_policy;
            if let Some(root) = &o.persist_dir {
                // One store per (app, shard count) run so sweeps don't
                // overwrite each other's recovery state.
                config.persist_dir =
                    Some(std::path::Path::new(root).join(format!("{app}-s{shards}")));
            }
            let producers = config.effective_producers();
            let result = run(&config, app, trace.records.clone());
            if shards == 1 {
                global_rate = result.dedup_rate();
            }
            println!(
                "  shards={shards:<2} {:>10.0} ops/s  dedup {:.3} (delta {:+.4})  \
                 sampled p99 {} ns",
                result.ops_per_sec(),
                result.dedup_rate(),
                result.dedup_rate() - global_rate,
                result.host_latency().p99_ns(),
            );
            for s in &result.shards {
                if let Some(Err(e)) = &s.scrub {
                    failures.push(format!("{app}: shard {} scrub failed: {e}", s.shard));
                }
            }
            runs.push(run_json(&result, global_rate, producers));
        }
        app_objs.push(obj(vec![
            ("app", Json::Str(app.clone())),
            ("trace_ops", num(trace.records.len() as u64)),
            ("trace_writes", num(trace.writes)),
            ("oracle_dup_ratio", flt(trace.oracle_dup_ratio)),
            ("global_dedup_rate", flt(global_rate)),
            ("runs", Json::Arr(runs)),
        ]));
    }

    let doc = obj(vec![
        ("schema_version", num(1)),
        ("tool", Json::Str("loadgen".into())),
        (
            "config",
            obj(vec![
                ("ops", num(o.ops as u64)),
                ("working_set_lines", num(o.ws_lines)),
                ("content_pool", num(o.pool as u64)),
                ("producers", num(o.producers as u64)),
                (
                    "fsm",
                    Json::Str(
                        match o.fsm {
                            FsmPolicy::Tree => "tree",
                            FsmPolicy::TreeWear => "tree-wear",
                        }
                        .into(),
                    ),
                ),
                ("cache_policy", Json::Str(o.cache_policy.to_string())),
                (
                    "persist_dir",
                    match &o.persist_dir {
                        Some(p) => Json::Str(p.clone()),
                        None => Json::Null,
                    },
                ),
                ("seed", num(o.seed)),
                (
                    "sweep",
                    Json::Arr(sweep.iter().map(|&s| num(s as u64)).collect()),
                ),
                ("check", Json::Bool(o.check)),
            ]),
        ),
        ("apps", Json::Arr(app_objs)),
    ]);
    if let Err(e) = std::fs::write(&o.out, format!("{doc}\n")) {
        eprintln!("error: writing {}: {e}", o.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", o.out);

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} check failure(s):", failures.len());
        for f in &failures {
            eprintln!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
