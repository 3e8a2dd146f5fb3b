//! A long-running submission service over the shard controllers: the
//! engine surface the network frontend plugs into.
//!
//! [`run`](crate::run) drives one fixed trace through the shards and
//! returns; a served system instead needs an engine that outlives any one
//! client, accepts work from *many* concurrent submitters, and sheds load
//! instead of blocking the caller. [`EngineService`] provides exactly
//! that:
//!
//! * [`EngineService::try_submit`] is **non-blocking**: a full shard queue
//!   hands the request straight back ([`Err`]) so an event loop can park
//!   the connection instead of itself — the back-pressure signal the
//!   in-process producer path never needed.
//! * Completions come back on per-*lane* bounded queues (one lane per
//!   event-loop thread), carrying the submitter's `(conn, conn_seq)`
//!   correlation tags so responses can be re-ordered per connection.
//! * Control operations (scrub / flush-checkpoint / report) ride the same
//!   queues with [`CONTROL_SEQ`], one per shard, and are aggregated by the
//!   caller.
//!
//! # Determinism under concurrent submitters
//!
//! The in-process engine keeps the merged simulated [`RunReport`]
//! bit-identical by feeding each shard its subsequence of the trace in
//! order. A network frontend multiplexing thousands of sockets cannot
//! guarantee arrival order, so the service moves the invariant into the
//! protocol: every data request carries a **per-shard sequence number**
//! (`seq` = the record's index within its shard's subsequence of the
//! trace), and each shard worker holds a bounded reorder buffer, applying
//! requests strictly in `seq` order. Any interleaving of connections,
//! lanes, and scheduling therefore replays each shard's exact trace
//! subsequence — the merged report is a pure function of the trace again,
//! no matter how the records travelled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_queue::ArrayQueue;
use dewrite_core::RunReport;
use dewrite_mem::LatencyHistogram;
use dewrite_nvm::LineAddr;

use crate::engine::{Backoff, EngineConfig, EngineRun, ShardSummary};
use crate::shard::ShardController;

/// The `seq` value marking a control operation: applied at its queue
/// position on arrival instead of passing through the reorder buffer.
pub const CONTROL_SEQ: u64 = u64::MAX;

/// One operation submitted to the service.
#[derive(Debug, Clone)]
pub enum ServiceOp {
    /// Store `data` at `addr` (dedup path).
    Write {
        /// Target line.
        addr: LineAddr,
        /// Line content; must be exactly the configured line size.
        data: Vec<u8>,
        /// Instruction gap since the previous record (simulated time).
        gap: u32,
    },
    /// Read the line at `addr`.
    Read {
        /// Target line.
        addr: LineAddr,
        /// Instruction gap since the previous record (simulated time).
        gap: u32,
    },
    /// Cross-table consistency scrub (control; flushes the WAL first).
    Scrub,
    /// Flush the open WAL epoch and checkpoint (control).
    Flush,
    /// This shard's simulated [`RunReport`] as JSON (control).
    Report,
}

/// A routed request: the operation plus its delivery coordinates.
#[derive(Debug)]
pub struct ServiceRequest {
    /// Owning shard (`addr mod shards` for data operations).
    pub shard: usize,
    /// Position within the shard's subsequence of the trace, or
    /// [`CONTROL_SEQ`] for control operations.
    pub seq: u64,
    /// Completion lane the response should come back on.
    pub lane: usize,
    /// Submitter's connection tag, echoed in the completion.
    pub conn: u64,
    /// Submitter's per-connection sequence tag, echoed in the completion.
    pub conn_seq: u64,
    /// Nanoseconds since service start when the request was accepted
    /// (host-latency accounting; quarantined from the simulated report).
    pub issued_ns: u64,
    /// The operation.
    pub op: ServiceOp,
}

/// What a completed operation produced.
#[derive(Debug)]
pub enum CompletionBody {
    /// A write completed.
    Write {
        /// Whether the NVM array write was eliminated (confirmed dup).
        eliminated: bool,
        /// Simulated write latency, ns.
        sim_ns: u64,
    },
    /// A read completed.
    Read {
        /// Simulated read latency, ns.
        sim_ns: u64,
    },
    /// Scrub outcome: resident lines checked.
    Scrub(Result<u64, String>),
    /// Flush + checkpoint outcome.
    Flush(Result<(), String>),
    /// This shard's report as a JSON string.
    Report(String),
    /// The request was not applied (reorder-window overflow, a sequence
    /// gap at shutdown, or a malformed submission).
    Rejected(String),
}

/// One completion, tagged for response routing.
#[derive(Debug)]
pub struct Completion {
    /// Shard that produced it (aggregation key for control broadcasts).
    pub shard: usize,
    /// Echo of [`ServiceRequest::conn`].
    pub conn: u64,
    /// Echo of [`ServiceRequest::conn_seq`].
    pub conn_seq: u64,
    /// The result.
    pub body: CompletionBody,
}

/// How many out-of-order requests a shard worker will hold before
/// rejecting new ones, as a multiple of the queue depth.
const REORDER_WINDOW_FACTOR: usize = 4;

/// The long-running sharded engine service. See the module docs.
#[derive(Debug)]
pub struct EngineService {
    queues: Vec<Arc<ArrayQueue<ServiceRequest>>>,
    lanes: Vec<Arc<ArrayQueue<Completion>>>,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    workers: Vec<JoinHandle<ShardSummary>>,
    start: Instant,
    shards: usize,
}

impl EngineService {
    /// Start one worker thread per shard, plus `lanes` bounded completion
    /// queues of `lane_capacity` entries each.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config: zero shards/lanes/capacities, or a
    /// non-zero coalescing window (the service path needs an immediate
    /// completion per operation).
    pub fn start(config: &EngineConfig, app: &str, lanes: usize, lane_capacity: usize) -> Self {
        let shards = config.shards;
        assert!(shards > 0, "need at least one shard");
        assert!(lanes > 0, "need at least one completion lane");
        assert!(config.queue_depth > 0, "queues must hold a request");
        assert!(config.batch > 0, "workers must drain a request");
        assert!(lane_capacity > 0, "completion lanes must hold an entry");
        assert_eq!(
            config.coalesce, 0,
            "the service path requires per-operation completions; \
             coalescing parks writes without one"
        );

        let queues: Vec<Arc<ArrayQueue<ServiceRequest>>> = (0..shards)
            .map(|_| Arc::new(ArrayQueue::new(config.queue_depth)))
            .collect();
        let lane_queues: Vec<Arc<ArrayQueue<Completion>>> = (0..lanes)
            .map(|_| Arc::new(ArrayQueue::new(lane_capacity)))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let hard = Arc::new(AtomicBool::new(false));
        let start = Instant::now();

        let workers = (0..shards)
            .map(|id| {
                let queue = Arc::clone(&queues[id]);
                let lanes: Vec<Arc<ArrayQueue<Completion>>> =
                    lane_queues.iter().map(Arc::clone).collect();
                let stop = Arc::clone(&stop);
                let hard = Arc::clone(&hard);
                let mut ctrl = ShardController::new(
                    id,
                    shards,
                    config.slots_per_shard,
                    config.line_size,
                    &config.key,
                );
                ctrl.set_fsm_policy(config.fsm);
                ctrl.set_cache_policy(config.cache_policy);
                ctrl.set_digest_mode(config.digest_mode);
                if let Some(root) = &config.persist_dir {
                    ctrl.attach_persistence(
                        &root.join(format!("shard-{id:02}")),
                        config.durable_options(),
                    )
                    .expect("attach shard metadata persistence");
                }
                let app = app.to_string();
                let batch = config.batch;
                let reorder_cap = config.queue_depth * REORDER_WINDOW_FACTOR;
                std::thread::spawn(move || {
                    worker(
                        id,
                        ctrl,
                        &app,
                        &queue,
                        &lanes,
                        &stop,
                        &hard,
                        batch,
                        reorder_cap,
                        start,
                    )
                })
            })
            .collect();

        EngineService {
            queues,
            lanes: lane_queues,
            stop,
            hard,
            workers,
            start,
            shards,
        }
    }

    /// Number of shards (and of control completions per broadcast).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of completion lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since the service started (issue-stamp clock).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Submit without blocking. A full shard queue returns the request
    /// back as `Err` — the caller's back-pressure signal: hold the
    /// request, stop reading that submitter, retry on the next sweep.
    ///
    /// # Errors
    ///
    /// Returns `Err(request)` when shard `request.shard`'s queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `request.shard` or `request.lane` is out of range.
    pub fn try_submit(&self, request: ServiceRequest) -> Result<(), ServiceRequest> {
        assert!(request.shard < self.shards, "shard out of range");
        assert!(request.lane < self.lanes.len(), "lane out of range");
        self.queues[request.shard].push(request)
    }

    /// Pop one completion from `lane`, if any is ready.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn try_complete(&self, lane: usize) -> Option<Completion> {
        self.lanes[lane].pop()
    }

    #[cfg(test)]
    fn lane_arc(&self, lane: usize) -> Arc<ArrayQueue<Completion>> {
        Arc::clone(&self.lanes[lane])
    }

    /// Graceful shutdown: drain every shard queue, flush parked writes,
    /// flush the open WAL epoch, checkpoint, and sync the stores (when
    /// persistence is attached), then fold the per-shard reports in shard
    /// order — the same deterministic merge as [`run`](crate::run).
    ///
    /// The caller must have collected all outstanding completions first;
    /// any left in the lanes are dropped with the service.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn shutdown(self) -> EngineRun {
        self.stop.store(true, Ordering::Release);
        let mut summaries: Vec<ShardSummary> = self
            .workers
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        summaries.sort_by_key(|s| s.shard);
        let merged =
            RunReport::merge_all(summaries.iter().map(|s| &s.report)).expect("at least one shard");
        let ops = summaries.iter().map(|s| s.ops).sum();
        EngineRun {
            merged,
            shards: summaries,
            wall_ns,
            ops,
        }
    }

    /// Hard abort: workers stop at the next batch boundary **without**
    /// flushing parked writes, the open WAL epoch, or a checkpoint — the
    /// crash-recovery path's "kill" switch. On-disk state is whatever the
    /// epoch log had already flushed.
    pub fn abort(self) {
        self.hard.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// Push `completion` onto its lane, parking while the lane is full.
/// Returns `false` when a hard abort interrupted the wait.
fn emit(
    lanes: &[Arc<ArrayQueue<Completion>>],
    hard: &AtomicBool,
    mut completion: Completion,
    lane: usize,
) -> bool {
    let mut parker = Backoff::new();
    loop {
        if hard.load(Ordering::Acquire) {
            return false;
        }
        match lanes[lane].push(completion) {
            Ok(()) => return true,
            Err(back) => {
                completion = back;
                parker.wait();
            }
        }
    }
}

/// Apply one in-order data operation.
fn apply_data(ctrl: &mut ShardController, op: ServiceOp) -> CompletionBody {
    match op {
        ServiceOp::Write { addr, data, gap } => {
            let w = ctrl
                .submit_write(addr, &data, gap)
                .expect("service runs without coalescing");
            CompletionBody::Write {
                eliminated: w.eliminated,
                sim_ns: w.sim_ns,
            }
        }
        ServiceOp::Read { addr, gap } => CompletionBody::Read {
            sim_ns: ctrl.read(addr, gap),
        },
        ServiceOp::Scrub | ServiceOp::Flush | ServiceOp::Report => {
            CompletionBody::Rejected("control operation carried a data sequence number".into())
        }
    }
}

/// Apply one control operation at its queue position.
fn apply_control(ctrl: &mut ShardController, app: &str, op: &ServiceOp) -> CompletionBody {
    match op {
        ServiceOp::Scrub => {
            ctrl.flush_writes();
            match ctrl.flush_wal() {
                Err(e) => CompletionBody::Scrub(Err(format!("wal flush before scrub: {e}"))),
                Ok(()) => CompletionBody::Scrub(ctrl.scrub()),
            }
        }
        ServiceOp::Flush => {
            ctrl.flush_writes();
            CompletionBody::Flush(ctrl.persist_checkpoint().map_err(|e| e.to_string()))
        }
        ServiceOp::Report => {
            ctrl.flush_writes();
            CompletionBody::Report(ctrl.report(app).to_json().to_string())
        }
        ServiceOp::Write { .. } | ServiceOp::Read { .. } => {
            CompletionBody::Rejected("data operation carried the control sequence number".into())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    id: usize,
    mut ctrl: ShardController,
    app: &str,
    queue: &ArrayQueue<ServiceRequest>,
    lanes: &[Arc<ArrayQueue<Completion>>],
    stop: &AtomicBool,
    hard: &AtomicBool,
    batch: usize,
    reorder_cap: usize,
    start: Instant,
) -> ShardSummary {
    let mut host = LatencyHistogram::new();
    let mut reorder: BTreeMap<u64, ServiceRequest> = BTreeMap::new();
    let mut next_seq = 0u64;
    let mut peak = 0usize;
    let mut depth_sum = 0u64;
    let mut samples = 0u64;
    let mut parker = Backoff::new();
    let mut buf: Vec<ServiceRequest> = Vec::with_capacity(batch);
    let mut aborted = false;

    'outer: loop {
        if hard.load(Ordering::Acquire) {
            aborted = true;
            break;
        }
        let n = queue.pop_batch(&mut buf, batch);
        if n == 0 {
            if stop.load(Ordering::Acquire) && queue.is_empty() {
                break;
            }
            parker.wait();
            continue;
        }
        parker.reset();
        let residual = queue.len();
        peak = peak.max((residual + n).min(queue.capacity()));
        depth_sum += residual as u64;
        samples += 1;
        for req in buf.drain(..) {
            let (lane, conn, conn_seq) = (req.lane, req.conn, req.conn_seq);
            let body = if req.seq == CONTROL_SEQ {
                apply_control(&mut ctrl, app, &req.op)
            } else if req.seq < next_seq {
                CompletionBody::Rejected(format!(
                    "duplicate sequence {} (shard already at {next_seq})",
                    req.seq
                ))
            } else if req.seq > next_seq && reorder.len() >= reorder_cap {
                CompletionBody::Rejected(format!(
                    "reorder window overflow holding {} requests waiting for sequence {next_seq}",
                    reorder.len()
                ))
            } else {
                // In order or buffered: apply every request that is now
                // ready, strictly in per-shard sequence order.
                if let Some(old) = reorder.insert(req.seq, req) {
                    let done = Completion {
                        shard: id,
                        conn: old.conn,
                        conn_seq: old.conn_seq,
                        body: CompletionBody::Rejected(format!(
                            "sequence {} resubmitted before it applied",
                            old.seq
                        )),
                    };
                    if !emit(lanes, hard, done, old.lane) {
                        aborted = true;
                        break 'outer;
                    }
                }
                while let Some(ready) = reorder.remove(&next_seq) {
                    next_seq += 1;
                    let (lane, conn, conn_seq) = (ready.lane, ready.conn, ready.conn_seq);
                    let issued = ready.issued_ns;
                    let body = apply_data(&mut ctrl, ready.op);
                    let now = start.elapsed().as_nanos() as u64;
                    host.record(now.saturating_sub(issued));
                    let done = Completion {
                        shard: id,
                        conn,
                        conn_seq,
                        body,
                    };
                    if !emit(lanes, hard, done, lane) {
                        aborted = true;
                        break 'outer;
                    }
                }
                continue;
            };
            let done = Completion {
                shard: id,
                conn,
                conn_seq,
                body,
            };
            if !emit(lanes, hard, done, lane) {
                aborted = true;
                break 'outer;
            }
        }
    }

    if !aborted {
        // A populated reorder buffer at graceful shutdown is a submitter
        // that left a sequence gap; its requests can never legally apply.
        for (_, req) in std::mem::take(&mut reorder) {
            let done = Completion {
                shard: id,
                conn: req.conn,
                conn_seq: req.conn_seq,
                body: CompletionBody::Rejected(format!(
                    "sequence gap at shutdown: shard waited for {next_seq}, held {}",
                    req.seq
                )),
            };
            if !emit(lanes, hard, done, req.lane) {
                break;
            }
        }
        ctrl.flush_writes();
        // End-of-service durability point: flush the open WAL epoch,
        // checkpoint, and force the store to stable storage even when the
        // run logged with `sync: false`.
        ctrl.persist_shutdown()
            .expect("shard metadata checkpoint at shutdown");
    }

    ShardSummary {
        shard: id,
        fsm: ctrl.fsm_stats(),
        cache: ctrl.cache_stats(),
        ops: ctrl.ops(),
        dedup_rate: ctrl.dedup_rate(),
        report: ctrl.report(app),
        host_latency: host,
        queue_depth_peak: peak,
        queue_depth_mean: if samples == 0 {
            0.0
        } else {
            depth_sum as f64 / samples as f64
        },
        producer_stall_ns: 0,
        scrub: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use dewrite_trace::{app_by_name, shard_of_line, TraceGenerator, TraceOp, TraceRecord};

    fn trace(ops: usize, ws_lines: u64, seed: u64) -> (Vec<TraceRecord>, u64) {
        let mut profile = app_by_name("mcf").expect("known app");
        profile.working_set_lines = ws_lines;
        profile.content_pool_size = 64;
        let mut gen = TraceGenerator::new(profile, 256, seed);
        let lines = gen.required_lines();
        let mut records = gen.warmup_records();
        records.extend(gen.by_ref().take(ops));
        (records, lines)
    }

    /// Feed `records` through the service as one submitter, in an order
    /// perturbed by `rotate` (simulating cross-connection interleaving),
    /// stamping correct per-shard sequence numbers.
    fn drive(config: &EngineConfig, records: &[TraceRecord], rotate: usize) -> EngineRun {
        let svc = EngineService::start(config, "mcf", 1, 1024);
        let shards = svc.shards();
        let mut seqs = vec![0u64; shards];
        let mut reqs: Vec<ServiceRequest> = records
            .iter()
            .map(|rec| {
                let shard = shard_of_line(rec.op.addr(), shards);
                let seq = seqs[shard];
                seqs[shard] += 1;
                let op = match &rec.op {
                    TraceOp::Write { addr, data } => ServiceOp::Write {
                        addr: *addr,
                        data: data.clone(),
                        gap: rec.gap_instructions,
                    },
                    TraceOp::Read { addr } => ServiceOp::Read {
                        addr: *addr,
                        gap: rec.gap_instructions,
                    },
                };
                ServiceRequest {
                    shard,
                    seq,
                    lane: 0,
                    conn: 1,
                    conn_seq: 0,
                    issued_ns: 0,
                    op,
                }
            })
            .collect();
        // Perturb global submission order in bounded windows; per-shard
        // seq numbers let the workers reassemble the exact subsequence.
        // (Windows must stay well under the reorder capacity.)
        if rotate > 1 {
            for window in reqs.chunks_mut(rotate) {
                window.rotate_left(1);
            }
        }
        let total = reqs.len() as u64;
        let mut pending = 0u64;
        let mut completed = 0u64;
        let mut it = reqs.into_iter();
        let mut held: Option<ServiceRequest> = None;
        while completed < total {
            if held.is_none() {
                held = it.next();
            }
            if let Some(req) = held.take() {
                if let Err(back) = svc.try_submit(req) {
                    held = Some(back);
                } else {
                    pending += 1;
                }
            }
            while let Some(c) = svc.try_complete(0) {
                match c.body {
                    CompletionBody::Write { .. } | CompletionBody::Read { .. } => {}
                    other => panic!("unexpected completion {other:?}"),
                }
                completed += 1;
                pending -= 1;
            }
        }
        assert_eq!(pending, 0);
        svc.shutdown()
    }

    #[test]
    fn service_merge_matches_in_process_run() {
        let (records, lines) = trace(2_000, 512, 7);
        let config = EngineConfig::for_workload(4, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());
        for rotate in [1, 7] {
            let served = drive(&config, &records, rotate);
            assert_eq!(served.ops, baseline.ops);
            assert_eq!(
                baseline.merged.to_json().to_string(),
                served.merged.to_json().to_string(),
                "rotate {rotate}: out-of-order submission changed the merged report"
            );
        }
    }

    #[test]
    fn control_ops_broadcast_and_aggregate() {
        let (records, lines) = trace(800, 256, 9);
        let config = EngineConfig::for_workload(2, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());

        let svc = EngineService::start(&config, "mcf", 1, 1024);
        let shards = svc.shards();
        let mut seqs = vec![0u64; shards];
        let mut outstanding = 0u64;
        for rec in &records {
            let shard = shard_of_line(rec.op.addr(), shards);
            let op = match &rec.op {
                TraceOp::Write { addr, data } => ServiceOp::Write {
                    addr: *addr,
                    data: data.clone(),
                    gap: rec.gap_instructions,
                },
                TraceOp::Read { addr } => ServiceOp::Read {
                    addr: *addr,
                    gap: rec.gap_instructions,
                },
            };
            let mut req = ServiceRequest {
                shard,
                seq: seqs[shard],
                lane: 0,
                conn: 0,
                conn_seq: 0,
                issued_ns: svc.elapsed_ns(),
                op,
            };
            seqs[shard] += 1;
            loop {
                match svc.try_submit(req) {
                    Ok(()) => break,
                    Err(back) => req = back,
                }
                while svc.try_complete(0).is_some() {
                    outstanding -= 1;
                }
            }
            outstanding += 1;
        }
        while outstanding > 0 {
            if svc.try_complete(0).is_some() {
                outstanding -= 1;
            }
        }

        // Broadcast scrub + report, one control request per shard.
        for op in [ServiceOp::Scrub, ServiceOp::Report] {
            for shard in 0..shards {
                let mut req = ServiceRequest {
                    shard,
                    seq: CONTROL_SEQ,
                    lane: 0,
                    conn: 0,
                    conn_seq: 1,
                    issued_ns: svc.elapsed_ns(),
                    op: op.clone(),
                };
                while let Err(back) = svc.try_submit(req) {
                    req = back;
                }
            }
            let mut reports: Vec<Option<String>> = vec![None; shards];
            let mut seen = 0;
            while seen < shards {
                let Some(c) = svc.try_complete(0) else {
                    continue;
                };
                seen += 1;
                match c.body {
                    CompletionBody::Scrub(Ok(n)) => assert!(n > 0, "shard {} scrub", c.shard),
                    CompletionBody::Report(json) => reports[c.shard] = Some(json),
                    other => panic!("unexpected control completion {other:?}"),
                }
            }
            if matches!(op, ServiceOp::Report) {
                let served: Vec<String> = reports.into_iter().map(Option::unwrap).collect();
                let local: Vec<String> = baseline
                    .shards
                    .iter()
                    .map(|s| s.report.to_json().to_string())
                    .collect();
                assert_eq!(served, local, "per-shard reports must match in-process");
            }
        }
        let run = svc.shutdown();
        assert_eq!(
            run.merged.to_json().to_string(),
            baseline.merged.to_json().to_string()
        );
    }

    #[test]
    fn sequence_gap_is_rejected_at_shutdown_and_overflow_sheds() {
        let (records, lines) = trace(200, 128, 3);
        let mut config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        config.queue_depth = 8;
        let svc = EngineService::start(&config, "mcf", 1, 1024);
        // Sequence 5 with 0..5 never submitted: parked, then rejected at
        // graceful shutdown.
        let rec = records
            .iter()
            .find(|r| r.op.is_write())
            .expect("trace has writes");
        let TraceOp::Write { data, .. } = &rec.op else {
            unreachable!()
        };
        let req = ServiceRequest {
            shard: 0,
            seq: 5,
            lane: 0,
            conn: 9,
            conn_seq: 42,
            issued_ns: 0,
            op: ServiceOp::Write {
                addr: rec.op.addr(),
                data: data.clone(),
                gap: 0,
            },
        };
        svc.try_submit(req).expect("queue has room");
        // Give the worker time to park it. The rejection is emitted during
        // shutdown's drain, so poll the lane from a side thread.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let lane = svc.lane_arc(0);
        let poller = std::thread::spawn(move || {
            for _ in 0..5_000 {
                if let Some(c) = lane.pop() {
                    return Some(c);
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            None
        });
        let run = svc.shutdown();
        assert_eq!(run.ops, 0, "the gapped request must never apply");
        let c = poller
            .join()
            .expect("poller panicked")
            .expect("gap rejection arrives during the shutdown drain");
        assert_eq!((c.conn, c.conn_seq), (9, 42));
        assert!(
            matches!(c.body, CompletionBody::Rejected(ref m) if m.contains("sequence gap")),
            "got {:?}",
            c.body
        );
    }
}
