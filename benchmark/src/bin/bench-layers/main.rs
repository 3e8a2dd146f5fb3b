//! `bench-layers`: the traced ladder behind the per-layer metrics.
//!
//! ```text
//! bench-layers --workload NAME [--seed N] [--quick] [--detail FILE]
//! ```
//!
//! One workload's own inputs go once through each rung, every rung on a
//! fresh engine:
//!
//! * rung 0 — the write/read paths replayed as separate calls into each
//!   layer's public functions ([`replay`]), every call a span;
//! * rung 1 — each `ShardController::write`/`read` a span, plus the same
//!   pass untimed (the difference is the tracing overhead);
//! * rung 2 — `EngineService` at the workload's window and at window 1;
//! * rung 3 — the loopback wire at the workload's window and at window
//!   1, the codec functions timed on the workload's real frames, and on
//!   `wire_open` the open-loop pass.
//!
//! The budget printed at the end closes by construction: rung-0 layers +
//! `engine.shard_other_ns` = `engine.shard_write_ns`; direct per-op +
//! `engine.svc_hop_ns` = service per-op; + `net.wire_hop_ns` = wire
//! per-op. Spans stay in memory and are written to `out/` at exit.
//!
//! Unlike `bench`, this binary names the per-layer APIs (`hashes`,
//! `crypto`, `mem`, `core::tables`, `nvm`, `persist`), so a refactor
//! below the entry surfaces may break it without touching the gate.

mod replay;
mod spans;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dewrite_benchmark::cli::{Args, FLAGS};
use dewrite_benchmark::inputs::Inputs;
use dewrite_benchmark::output::{write_json, Metric, Outcome};
use dewrite_benchmark::rep::{Rep, Scratch};
use dewrite_benchmark::run::{SERVICE_WINDOW, WIRE_CONNECTIONS, WIRE_WINDOW};
use dewrite_benchmark::spec::{
    Entry, Workload, CALL_SAMPLE_STRIDE, LINE_SIZE, OPEN_LOOP_OPS_PER_S, PER_LAYER,
};
use dewrite_benchmark::stats::percentile;
use dewrite_benchmark::{ctrl, host, sim, svc, wire};
use dewrite_core::RunReport;
use dewrite_mem::CacheStats;
use dewrite_net::proto::{self, FrameEvent, Request, Response, FRAME_HEADER_BYTES};
use dewrite_trace::TraceOp;

use replay::Replay;
use spans::Recorder;

/// Records of the window-1 round-trip passes (a prefix of the trace).
const RTT_OPS: usize = 10_000;

/// The per-layer metric values, by name; unset rows read 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `p` of unsorted latency samples, ns (0 with no samples).
fn lat_percentile(samples: &[u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    f64::from(percentile(&sorted, p))
}

/// The count rows a simulated report carries, whichever surface made it.
fn report_rows(report: &RunReport, m: &mut Layers) {
    let b = &report.base;
    let writes = b.writes as f64;
    m.set("hashes.digest_calls", b.hash_ops as f64);
    m.set("crypto.encrypt_calls", b.aes_line_ops as f64);
    m.set(
        "core.verify_reads_per_write",
        ratio(b.verify_reads as f64, writes),
    );
    if let Some(d) = &report.dewrite {
        m.set(
            "core.false_match_ratio",
            ratio(d.false_matches as f64, b.verify_reads as f64),
        );
        m.set(
            "core.saturated_skips_per_write",
            ratio(d.saturated_skips as f64, writes),
        );
        m.set("core.pna_skip_ratio", ratio(d.pna_skips as f64, writes));
        m.set("core.predictor_accuracy", d.predictor_accuracy);
    }
    let stored_bits = report.nvm_data_writes as f64 * (LINE_SIZE * 8) as f64;
    m.set(
        "nvm.flip_bits_per_write",
        ratio(report.bit_flip_ratio * stored_bits, writes),
    );
}

fn cache_rows(caches: &[CacheStats], m: &mut Layers) {
    let hits: u64 = caches.iter().map(|c| c.hits).sum();
    let misses: u64 = caches.iter().map(|c| c.misses).sum();
    m.set("mem.cache_accesses", (hits + misses) as f64);
    m.set(
        "mem.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set(
        "mem.cache_dirty_evictions",
        caches.iter().map(|c| c.dirty_evictions).sum::<u64>() as f64,
    );
}

/// What the ladder found wrong, and the operations it pushed through.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count one pass; its report must be the reference's text.
    fn pass(&mut self, what: &str, rep: &Rep, reference: Option<&str>) {
        self.attempted += rep.attempted;
        self.failed += rep.judge(what, reference, &mut self.problems);
    }
}

/// Rung 1 with every call a span. Returns the pass and each timed
/// write's `eliminated` decision, in trace order.
fn traced_ctrl(
    inputs: &Inputs,
    persist: Option<&std::path::Path>,
    rec: &mut Recorder,
) -> (Rep, Vec<bool>) {
    let write_id = rec.id("engine.shard_write");
    let read_id = rec.id("engine.shard_read");
    let mut shard = ctrl::bring_up(inputs, persist);
    let mut rep = Rep {
        attempted: inputs.records.len() as u64,
        ..Rep::default()
    };
    let mut decisions = Vec::with_capacity(inputs.records.len());
    let t0 = Instant::now();
    for (op, record) in inputs.records.iter().enumerate() {
        let start = Instant::now();
        match &record.op {
            TraceOp::Write { addr, data } => {
                let w = shard.write(*addr, data, record.gap_instructions);
                rec.span(write_id, None, op as u64, start, Instant::now());
                decisions.push(w.eliminated);
            }
            TraceOp::Read { addr } => {
                shard.read(*addr, record.gap_instructions);
                rec.span(read_id, None, op as u64, start, Instant::now());
            }
        }
    }
    rep.wall_ns = t0.elapsed().as_nanos() as u64;
    ctrl::finish(shard, inputs, persist, &mut rep);
    (rep, decisions)
}

/// Rung 0: the replay, checked write by write against rung 1.
fn replayed(
    inputs: &Inputs,
    persist: Option<&std::path::Path>,
    decisions: &[bool],
    rec: &mut Recorder,
    tally: &mut Tally,
) -> replay::Counts {
    let mut replay = Replay::new(&inputs.engine_config(), persist, rec);
    rec.pause(true);
    for record in &inputs.warmup {
        if let TraceOp::Write { addr, data } = &record.op {
            replay.write(rec, 0, *addr, data);
        }
    }
    rec.pause(false);
    let mut decision = decisions.iter();
    let mut disagreements = 0u64;
    for (op, record) in inputs.records.iter().enumerate() {
        match &record.op {
            TraceOp::Write { addr, data } => {
                let eliminated = replay.write(rec, op as u64, *addr, data);
                if decision.next() != Some(&eliminated) {
                    disagreements += 1;
                }
            }
            TraceOp::Read { addr } => replay.read(rec, op as u64, *addr),
        }
    }
    replay.finish();
    if disagreements > 0 {
        tally.problems.push(format!(
            "replay: {disagreements} writes decided differently from the real shard"
        ));
    }
    replay.counts
}

/// The codec functions on the workload's own frames: whole-loop timing,
/// mean ns per call.
fn codec_rows(inputs: &Inputs, decisions: &[bool], m: &mut Layers) {
    let n = inputs.records.len().max(1) as f64;
    let mut decision = decisions.iter();
    let requests: Vec<Request> = inputs
        .records
        .iter()
        .enumerate()
        .map(|(i, record)| wire::request_of(record, i as u64))
        .collect();
    // The answers the server would give, sized as it sizes them.
    let responses: Vec<Response> = inputs
        .records
        .iter()
        .map(|record| match record.op.is_write() {
            true => Response::WriteOk {
                eliminated: decision.next().copied().unwrap_or(false),
                sim_ns: 400,
            },
            false => Response::ReadOk { sim_ns: 77 },
        })
        .collect();
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64 / n
    };

    // Encode-and-drop inside the clock, so the allocator reuses one
    // buffer and the row is the codec, not first-touch page faults.
    let ns = timed(&mut || {
        for request in &requests {
            black_box(proto::encode_request(black_box(request)));
        }
    });
    m.set("net.encode_request_ns", ns);
    let request_frames: Vec<Vec<u8>> = requests.iter().map(proto::encode_request).collect();
    let ns = timed(&mut || {
        for frame in &request_frames {
            black_box(proto::next_frame(black_box(frame)).is_ok());
        }
    });
    m.set("net.next_frame_ns", ns);
    let ns = timed(&mut || {
        for frame in &request_frames {
            black_box(proto::decode_request(&frame[FRAME_HEADER_BYTES..]).is_ok());
        }
    });
    m.set("net.decode_request_ns", ns);

    let ns = timed(&mut || {
        for response in &responses {
            black_box(proto::encode_response(black_box(response)));
        }
    });
    m.set("net.encode_response_ns", ns);
    let response_frames: Vec<Vec<u8>> = responses.iter().map(proto::encode_response).collect();
    let ns = timed(&mut || {
        for frame in &response_frames {
            if let Ok(FrameEvent::Frame { payload, .. }) = proto::next_frame(frame) {
                black_box(proto::decode_response(payload).is_ok());
            }
        }
    });
    // As the client decodes: `next_frame` included.
    m.set("net.decode_response_ns", ns);
}

/// Every pass of the ladder over one engine workload.
struct Passes {
    /// Rung 1 without spans: the direct per-op reference.
    plain: Rep,
    /// Rung 1 with every call a span.
    traced: Rep,
    /// Each timed write's `eliminated` decision at rung 1.
    decisions: Vec<bool>,
    /// Rung 0's counts.
    counts: replay::Counts,
    /// Rung 2 at the workload's window, and at window 1.
    served: Rep,
    served_rtt: Rep,
    /// Rung 3 at the workload's window, at 1 x 1, and (on `wire_open`)
    /// open loop.
    wired: Rep,
    wired_rtt: Rep,
    open: Option<Rep>,
}

/// Run the ladder: every rung on a fresh engine, every report checked
/// against the plain controller pass's.
fn climb(workload: &Workload, inputs: &Inputs, rec: &mut Recorder, tally: &mut Tally) -> Passes {
    let durable = workload.entry == Entry::CtrlDurable;
    let scratch = Scratch::new(&format!("layers-{}", workload.name))
        .expect("create the scratch directory under out/");
    let dir = |sub: &str| -> Option<PathBuf> { durable.then(|| scratch.path().join(sub)) };

    let plain = ctrl::run(inputs, dir("ctrl").as_deref());
    tally.pass("controller", &plain, None);
    let reference = plain.report_json.as_str();
    let (traced, decisions) = traced_ctrl(inputs, dir("ctrl-traced").as_deref(), rec);
    tally.pass("controller (traced)", &traced, Some(reference));

    let counts = replayed(inputs, dir("replay").as_deref(), &decisions, rec, tally);
    // Counts include the warm-up on both sides; spans do not.
    let real = &plain.report;
    let checks = [
        ("writes", counts.writes, real.base.writes),
        (
            "eliminated writes",
            counts.eliminated,
            real.base.writes_eliminated,
        ),
        ("stored writes", counts.stored, real.nvm_data_writes),
        ("verify reads", counts.verify_reads, real.base.verify_reads),
    ];
    for (what, replayed, reported) in checks {
        if replayed != reported {
            tally.problems.push(format!(
                "replay: {replayed} {what}, the real shard reports {reported}"
            ));
        }
    }

    let served = svc::run(inputs, SERVICE_WINDOW, dir("svc").as_deref());
    tally.pass("service", &served, Some(reference));
    let rtt_inputs = inputs.prefix(RTT_OPS);
    let served_rtt = svc::run(&rtt_inputs, 1, None);
    tally.pass("service (window 1)", &served_rtt, None);

    let closed = wire::Load::Closed {
        window: WIRE_WINDOW,
    };
    let wired = wire::run(inputs, WIRE_CONNECTIONS, closed, dir("wire").as_deref());
    tally.pass("wire", &wired, Some(reference));
    let wired_rtt = wire::run(&rtt_inputs, 1, wire::Load::Closed { window: 1 }, None);
    tally.pass("wire (window 1)", &wired_rtt, None);
    let open = (workload.entry == Entry::WireOpen).then(|| {
        let load = wire::Load::Open {
            ops_per_s: OPEN_LOOP_OPS_PER_S,
        };
        let open = wire::run(inputs, WIRE_CONNECTIONS, load, None);
        tally.pass("wire (open loop)", &open, Some(reference));
        open
    });

    Passes {
        plain,
        traced,
        decisions,
        counts,
        served,
        served_rtt,
        wired,
        wired_rtt,
        open,
    }
}

/// The ladder over an engine workload: run it, derive the rows, print
/// the budget.
fn engine_ladder(
    workload: &Workload,
    inputs: &Inputs,
    rec: &mut Recorder,
    m: &mut Layers,
    tally: &mut Tally,
) {
    let p = climb(workload, inputs, rec, tally);
    let ops = inputs.records.len().max(1) as f64;
    let timed_writes = inputs.records.iter().filter(|r| r.op.is_write()).count();
    let writes = timed_writes.max(1) as f64;
    codec_rows(inputs, &p.decisions, m);

    // Counts, from the real shard's report and counters and the replay.
    report_rows(&p.plain.report, m);
    cache_rows(&[p.plain.shard.cache], m);
    m.set("nvm.fsm_claims", p.plain.shard.fsm_claims as f64);
    m.set(
        "nvm.fsm_scan_steps_per_claim",
        p.plain.shard.fsm_scan_steps_per_claim,
    );
    m.set("crypto.decrypt_calls", p.counts.decrypts as f64);
    let all_writes = p.counts.writes as f64;
    m.set(
        "core.candidates_per_probe",
        ratio(p.counts.candidates as f64, p.counts.probes as f64),
    );
    m.set("persist.checkpoints", p.counts.checkpoints as f64);
    m.set(
        "persist.wal_bytes_per_write",
        ratio(p.counts.wal_bytes as f64, all_writes),
    );
    m.set(
        "persist.ckpt_bytes_per_write",
        ratio(p.counts.ckpt_bytes as f64, all_writes),
    );
    m.set("persist.recover_ms", p.plain.recover_ns as f64 / 1e6);

    // Mean ns per call, from the spans (the cache's three calls and the
    // index's updates are scattered through a write: per write instead).
    let total = |name: &str| rec.aggregate(name).total_ns as f64;
    let mean = |name: &str| rec.aggregate(name).mean_ns();
    m.set("hashes.digest_ns", mean("hashes.digest"));
    m.set("crypto.encrypt_ns", mean("crypto.encrypt"));
    let decrypts =
        rec.aggregate("crypto.decrypt").count + rec.aggregate("crypto.decrypt_read").count;
    m.set(
        "crypto.decrypt_ns",
        ratio(
            total("crypto.decrypt") + total("crypto.decrypt_read"),
            decrypts as f64,
        ),
    );
    m.set("core.index_probe_ns", mean("core.index_probe"));
    m.set("core.index_update_ns", total("core.index_update") / writes);
    m.set("core.compare_ns", mean("core.compare"));
    m.set("mem.cache_ns", total("mem.cache") / writes);
    m.set("nvm.fsm_claim_ns", mean("nvm.fsm_claim"));
    m.set("nvm.bit_flips_ns", mean("nvm.bit_flips"));
    m.set("persist.record_write_ns", mean("persist.record_write"));
    m.set("persist.checkpoint_ns", mean("persist.checkpoint"));
    let shard_write = rec.aggregate("engine.shard_write");
    m.set("engine.shard_write_ns", shard_write.mean_ns());
    m.set("engine.shard_write_p99_ns", f64::from(shard_write.p99_ns));
    m.set("engine.shard_read_ns", mean("engine.shard_read"));
    m.set(
        "persist.checkpoint_share",
        ratio(total("persist.checkpoint"), shard_write.total_ns as f64),
    );

    // The budget. Write-path layer time per write; what the replay does
    // not name is the remainder, a reported row.
    println!(
        "\nbudget for {} (ns per write; share of engine.shard_write_ns)",
        workload.name
    );
    let share = |ns: f64| 100.0 * ratio(ns, shard_write.mean_ns());
    let mut layers_ns = 0.0;
    for name in WRITE_PATH {
        let per_write = total(name) / writes;
        layers_ns += per_write;
        println!("  {name:<24} {per_write:>10.1} {:>6.1}%", share(per_write));
    }
    let other = shard_write.mean_ns() - layers_ns;
    m.set("engine.shard_other_ns", other);
    m.set(
        "engine.shard_other_share",
        ratio(other, shard_write.mean_ns()),
    );
    println!(
        "  {:<24} {other:>10.1} {:>6.1}%\n  = {:<22} {:>10.1}",
        "engine.shard_other",
        share(other),
        "engine.shard_write_ns",
        shard_write.mean_ns()
    );

    let direct = p.plain.wall_ns as f64 / ops;
    let service = p.served.wall_ns as f64 / ops;
    let on_wire = p.wired.wall_ns as f64 / ops;
    m.set("engine.svc_hop_ns", service - direct);
    m.set("net.wire_hop_ns", on_wire - service);
    println!(
        "per op (reads and writes):\n  {:<24} {direct:>10.1}\n  + {:<22} {:>10.1}  = service {service:.1}\n  \
         + {:<22} {:>10.1}  = wire {on_wire:.1}",
        "direct controller",
        "engine.svc_hop_ns",
        service - direct,
        "net.wire_hop_ns",
        on_wire - service
    );
    m.set(
        "bench.trace_overhead_share",
        ratio(
            p.traced.wall_ns as f64 - p.plain.wall_ns as f64,
            p.plain.wall_ns as f64,
        ),
    );

    m.set(
        "engine.svc_rtt_ns",
        lat_percentile(&p.served_rtt.lat_ns, 50.0),
    );
    m.set("engine.queue_depth_mean", p.served.shard.queue_depth_mean);
    m.set(
        "engine.submit_full_ratio",
        ratio(p.served.submit_full as f64, p.served.submits as f64),
    );
    m.set(
        "engine.svc_lat_p99_us",
        lat_percentile(&p.served.lat_ns, 99.0) / 1e3,
    );
    m.set("net.bytes_per_op", p.wired.wire_bytes as f64 / ops);
    m.set("net.client_syscalls_per_op", p.wired.syscalls as f64 / ops);
    m.set(
        "net.closed_lat_p99_us",
        lat_percentile(&p.wired.lat_ns, 99.0) / 1e3,
    );
    m.set("net.rtt_ns", lat_percentile(&p.wired_rtt.lat_ns, 50.0));
    if let Some(open) = &p.open {
        m.set(
            "net.gen_lag_p99_us",
            lat_percentile(&open.lag_ns, 99.0) / 1e3,
        );
        m.set(
            "net.open_lat_p99_us",
            lat_percentile(&open.lat_ns, 99.0) / 1e3,
        );
    }

    // The upper rungs' per-operation latencies join the span dump.
    for (name, rep) in [("engine.svc_op", &p.served), ("net.wire_op", &p.wired)] {
        let id = rec.id(name);
        rep.lat_ns.iter().for_each(|&ns| rec.duration(id, ns));
    }
}

/// The rung-0 spans on the write path, in pipeline order (reads'
/// decrypts are `crypto.decrypt_read`, outside the write budget).
const WRITE_PATH: [&str; 11] = [
    "hashes.digest",
    "mem.cache",
    "core.index_probe",
    "crypto.decrypt",
    "core.compare",
    "core.index_update",
    "nvm.fsm_claim",
    "crypto.encrypt",
    "nvm.bit_flips",
    "persist.record_write",
    "persist.checkpoint",
];

/// The ladder over the simulator workload: `Simulator::run` clocked
/// record by record from outside.
fn sim_ladder(inputs: &Inputs, rec: &mut Recorder, m: &mut Layers, tally: &mut Tally) {
    let plain = sim::run(inputs, CALL_SAMPLE_STRIDE);
    tally.pass("simulator", &plain.rep, None);
    let traced = sim::run(inputs, 1);
    tally.pass(
        "simulator (traced)",
        &traced.rep,
        Some(&plain.rep.report_json),
    );

    let write_id = rec.id("core.sim_write_call");
    let read_id = rec.id("core.sim_read_call");
    let clock = rec.clock_ns();
    for &(is_write, ns) in &traced.samples {
        rec.duration(
            if is_write { write_id } else { read_id },
            ns.saturating_sub(clock),
        );
    }
    m.set(
        "core.sim_write_call_ns",
        rec.aggregate("core.sim_write_call").mean_ns(),
    );
    m.set(
        "core.sim_read_call_ns",
        rec.aggregate("core.sim_read_call").mean_ns(),
    );
    let ops = inputs.records.len() as f64;
    m.set(
        "core.sim_events_per_s",
        ratio(ops, plain.rep.wall_ns as f64 / 1e9),
    );
    m.set(
        "bench.trace_overhead_share",
        ratio(
            traced.rep.wall_ns as f64 - plain.rep.wall_ns as f64,
            plain.rep.wall_ns as f64,
        ),
    );
    report_rows(&plain.rep.report, m);
    let c = plain.caches;
    cache_rows(&[c.addr_map, c.inverted, c.hash, c.fsm], m);
    m.set(
        "crypto.decrypt_calls",
        (plain.rep.report.base.reads + plain.rep.report.base.verify_reads) as f64,
    );
    println!(
        "\nbudget for sim_paper (host ns per simulated record)\n  {:<24} {:>10.1}\n  {:<24} {:>10.1}",
        "core.sim_write_call_ns",
        m.get("core.sim_write_call_ns"),
        "core.sim_read_call_ns",
        m.get("core.sim_read_call_ns")
    );
}

fn run(argv: &[String]) -> Result<bool, String> {
    host::refuse_portable_leg()?;
    let args = Args::parse(argv)?;
    let workload = args.workload.ok_or("bench-layers needs --workload NAME")?;
    let opts = args.options(workload);
    let inputs = Inputs::generate(workload, opts.ops(), opts.seed);
    let mut rec = Recorder::new();
    let mut m = Layers::default();
    let mut tally = Tally::default();
    m.set(
        "trace.gen_ns_per_record",
        inputs.gen_ns as f64 / (inputs.warmup.len() + inputs.records.len()).max(1) as f64,
    );
    if workload.entry == Entry::Sim {
        sim_ladder(&inputs, &mut rec, &mut m, &mut tally);
    } else {
        engine_ladder(workload, &inputs, &mut rec, &mut m, &mut tally);
    }
    println!(
        "bench.trace_overhead_share {:.3} (clock read: {} ns, taken off every span)",
        m.get("bench.trace_overhead_share"),
        rec.clock_ns()
    );

    let spans_path = host::package_dir()
        .join("out")
        .join(format!("spans-{}.json", workload.name));
    write_json(&spans_path, &rec.to_json())?;
    println!("spans written to {}", spans_path.display());

    let outcome = Outcome {
        workload: workload.name,
        seed: opts.seed,
        reps: 1,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::single(name, unit, m.get(name)))
            .collect(),
        info: Vec::new(),
    };
    outcome.print_table();
    if let Some(path) = &args.detail {
        write_json(path, &outcome.detail())?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-layers: {e}\nusage: bench-layers {FLAGS}");
            ExitCode::FAILURE
        }
    }
}
