//! The service rung: `EngineService::try_submit` → `try_complete`, one
//! generator thread, one lane, closed loop.

use std::path::Path;
use std::time::Instant;

use dewrite_engine::{
    Backoff, CompletionBody, EngineService, ServiceOp, ServiceRequest, CONTROL_SEQ,
};
use dewrite_trace::{TraceOp, TraceRecord};

use crate::host::cpu_ns;
use crate::inputs::Inputs;
use crate::rep::{ns32, Rep, ShardSide};

/// Completion-lane capacity, as `dewrite-serve` sizes it.
const LANE_CAPACITY: usize = 4096;

/// Build the service requests for `records`, whose first record is the
/// shard's `first_seq`-th operation. `conn_seq` carries the index into
/// `records` so completions find their issue stamp.
fn requests(records: &[TraceRecord], first_seq: u64) -> Vec<ServiceRequest> {
    records
        .iter()
        .enumerate()
        .map(|(i, rec)| ServiceRequest {
            shard: 0,
            seq: first_seq + i as u64,
            lane: 0,
            conn: 0,
            conn_seq: i as u64,
            issued_ns: 0,
            op: match &rec.op {
                TraceOp::Write { addr, data } => ServiceOp::Write {
                    addr: *addr,
                    data: data.clone(),
                    gap: rec.gap_instructions,
                },
                TraceOp::Read { addr } => ServiceOp::Read {
                    addr: *addr,
                    gap: rec.gap_instructions,
                },
            },
        })
        .collect()
}

/// What one closed-loop pass saw.
#[derive(Debug, Default)]
struct Pass {
    rejected: u64,
    submits: u64,
    submit_full: u64,
}

/// Keep `window` requests in flight until every one completed. Issue →
/// completion latency goes to `lat` (clock read once per submit burst
/// and once per completion burst, as an event loop would).
fn closed_loop(
    svc: &EngineService,
    reqs: Vec<ServiceRequest>,
    window: usize,
    lat: &mut Vec<u32>,
) -> Pass {
    let total = reqs.len();
    let mut stamps = vec![Instant::now(); total];
    let mut it = reqs.into_iter();
    let mut held: Option<ServiceRequest> = None;
    let mut pass = Pass::default();
    let (mut inflight, mut done) = (0usize, 0usize);
    // Park like every other client of the service does (spin, yield,
    // then short sleeps): on a host with as many busy threads as cores a
    // generator that only spins starves the worker it is waiting for.
    let mut parker = Backoff::new();
    while done < total {
        let mut progressed = false;
        if inflight < window {
            let now = Instant::now();
            while inflight < window {
                let Some(req) = held.take().or_else(|| it.next()) else {
                    break;
                };
                let idx = req.conn_seq as usize;
                pass.submits += 1;
                match svc.try_submit(req) {
                    Ok(()) => {
                        stamps[idx] = now;
                        inflight += 1;
                        progressed = true;
                    }
                    Err(back) => {
                        held = Some(back);
                        pass.submit_full += 1;
                        break;
                    }
                }
            }
        }
        if let Some(first) = svc.try_complete(0) {
            let now = Instant::now();
            let mut next = Some(first);
            while let Some(c) = next {
                if !matches!(
                    c.body,
                    CompletionBody::Write { .. } | CompletionBody::Read { .. }
                ) {
                    pass.rejected += 1;
                }
                lat.push(ns32(now.duration_since(stamps[c.conn_seq as usize])));
                inflight -= 1;
                done += 1;
                next = svc.try_complete(0);
            }
            progressed = true;
        }
        if progressed {
            parker.reset();
        } else {
            parker.wait();
        }
    }
    pass
}

/// Broadcast one control operation to the single shard and wait for it.
fn control(svc: &EngineService, op: ServiceOp) -> CompletionBody {
    let mut req = ServiceRequest {
        shard: 0,
        seq: CONTROL_SEQ,
        lane: 0,
        conn: 0,
        conn_seq: 0,
        issued_ns: 0,
        op,
    };
    while let Err(back) = svc.try_submit(req) {
        req = back;
        std::thread::yield_now();
    }
    loop {
        if let Some(c) = svc.try_complete(0) {
            return c.body;
        }
        std::thread::yield_now();
    }
}

/// One repetition through a fresh one-shard service with `window`
/// requests in flight; persistence (the engine's own epoch policy)
/// under `persist` if given.
pub fn run(inputs: &Inputs, window: usize, persist: Option<&Path>) -> Rep {
    let start = Instant::now();
    let mut config = inputs.engine_config();
    config.persist_dir = persist.map(Path::to_path_buf);
    let svc = EngineService::start(&config, inputs.app, 1, LANE_CAPACITY);
    let mut rep = Rep {
        attempted: inputs.records.len() as u64,
        lat_ns: Vec::with_capacity(inputs.records.len()),
        ..Rep::default()
    };
    let warm = closed_loop(&svc, requests(&inputs.warmup, 0), window, &mut Vec::new());
    if warm.rejected > 0 {
        rep.problems
            .push(format!("{} warm-up writes rejected", warm.rejected));
    }
    let reqs = requests(&inputs.records, inputs.warmup.len() as u64);
    rep.bringup_ns = start.elapsed().as_nanos() as u64;

    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let pass = closed_loop(&svc, reqs, window, &mut rep.lat_ns);
    rep.wall_ns = t0.elapsed().as_nanos() as u64;
    rep.cpu_ns = cpu_ns() - cpu0;
    rep.failed = pass.rejected;
    rep.submits = pass.submits;
    rep.submit_full = pass.submit_full;

    match control(&svc, ServiceOp::Scrub) {
        CompletionBody::Scrub(Ok(_)) => {}
        other => rep.problems.push(format!("scrub: {other:?}")),
    }
    match control(&svc, ServiceOp::Report) {
        CompletionBody::Report(json) => rep.report_json = json,
        other => rep.problems.push(format!("report: {other:?}")),
    }
    let engine_run = svc.shutdown();
    rep.shard = ShardSide::from_summary(&engine_run.shards[0]);
    rep.report = engine_run.merged;
    rep.check_report(inputs, true);
    rep
}
