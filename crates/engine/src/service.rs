//! A long-running submission service over the shard controllers: the
//! engine surface the network frontend plugs into.
//!
//! [`run`](crate::run) drives one fixed trace through the shards and
//! returns; a served system instead needs an engine that outlives any one
//! client, accepts work from *many* concurrent submitters, and sheds load
//! instead of blocking the caller. [`EngineService`] provides exactly
//! that:
//!
//! * [`EngineService::try_submit`] is **non-blocking** and **executes the
//!   request on the submitting thread**: it locks the target shard,
//!   applies the request (plus every buffered successor it unblocks) and
//!   queues the completions before it returns. A full completion lane
//!   hands the request straight back ([`Err`]) so an event loop can park
//!   the connection instead of itself.
//! * Completions come back on per-*lane* bounded queues (one lane per
//!   event-loop thread), carrying the submitter's `(conn, conn_seq)`
//!   correlation tags so responses can be re-ordered per connection.
//! * Control operations (scrub / flush-checkpoint / report) take the same
//!   path with [`CONTROL_SEQ`], one per shard, and are aggregated by the
//!   caller.
//!
//! # Threading model
//!
//! The service owns no threads. Each shard's serving state — its
//! [`ShardController`], the `seq` reorder buffer and the host-latency
//! histogram — sits behind one [`Mutex`]; whoever submits to a shard runs
//! it. Handing a sub-microsecond operation to a dedicated worker cost more
//! than the operation (a queue hop each way, and a sleeping worker is a
//! scheduler wake-up away), so two submitters meeting on one shard simply
//! serialise for one operation. The lock also orders the shard's WAL
//! appends. Nothing waits while a shard lock is held: a completion whose
//! lane turns out to be full parks in the shard's overflow list, and the
//! shard refuses new work until that list has drained.
//!
//! # Determinism under concurrent submitters
//!
//! The in-process engine keeps the merged simulated
//! [`RunReport`](dewrite_core::RunReport) bit-identical by having each
//! shard's one owner apply its subsequence of the trace in order. A
//! network frontend multiplexing thousands of sockets cannot guarantee
//! arrival order, so the service moves the invariant into the
//! protocol: every data request carries a **per-shard sequence number**
//! (`seq` = the record's index within its shard's subsequence of the
//! trace), and each shard holds a bounded reorder buffer, applying
//! requests strictly in `seq` order. Any interleaving of connections,
//! lanes, and lock acquisitions therefore replays each shard's exact trace
//! subsequence — the merged report is a pure function of the trace again,
//! no matter how the records travelled.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crossbeam_queue::ArrayQueue;
use dewrite_mem::LatencyHistogram;
use dewrite_nvm::LineAddr;

use crate::engine::{host_sampled, EngineConfig, EngineRun, ShardSummary};
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
    /// This shard's simulated [`RunReport`](dewrite_core::RunReport) as JSON
    /// (control).
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
    /// Nanoseconds since service start ([`EngineService::elapsed_ns`])
    /// when the request reached the submitter — host-latency accounting,
    /// quarantined from the simulated report, and read only for the data
    /// operations the shard samples (one in eight of its sequence).
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

/// How many out-of-order requests a shard will hold before rejecting new
/// ones, as a multiple of [`EngineConfig::queue_depth`].
const REORDER_WINDOW_FACTOR: usize = 4;

/// One shard's serving state: everything its lock guards.
struct Shard {
    id: usize,
    ctrl: ShardController,
    /// Requests that arrived ahead of `next_seq`, keyed by `seq`.
    reorder: BTreeMap<u64, ServiceRequest>,
    next_seq: u64,
    host: LatencyHistogram,
    /// Completions (with their lane) that found the lane full, oldest
    /// first. Non-empty means the shard takes no new work.
    overflow: VecDeque<(usize, Completion)>,
}

/// The long-running sharded engine service. See the module docs.
pub struct EngineService {
    shards: Vec<Mutex<Shard>>,
    lanes: Vec<Arc<ArrayQueue<Completion>>>,
    /// Completions parked in overflow lists, over all shards: lets
    /// [`try_complete`](Self::try_complete) skip the shard locks.
    overflowed: AtomicUsize,
    app: String,
    reorder_cap: usize,
    start: Instant,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("shards", &self.shards.len())
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl EngineService {
    /// Build one controller per shard, plus `lanes` bounded completion
    /// queues of `lane_capacity` entries each. No thread is started:
    /// submitters run the shards.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config: zero shards/lanes/capacities.
    pub fn start(config: &EngineConfig, app: &str, lanes: usize, lane_capacity: usize) -> Self {
        let shards = config.shards;
        assert!(shards > 0, "need at least one shard");
        assert!(lanes > 0, "need at least one completion lane");
        assert!(config.queue_depth > 0, "reorder window must hold a request");
        assert!(lane_capacity > 0, "completion lanes must hold an entry");

        let shards = (0..shards)
            .map(|id| {
                Mutex::new(Shard {
                    id,
                    ctrl: config.shard(id),
                    reorder: BTreeMap::new(),
                    next_seq: 0,
                    host: LatencyHistogram::new(),
                    overflow: VecDeque::new(),
                })
            })
            .collect();
        EngineService {
            shards,
            lanes: (0..lanes)
                .map(|_| Arc::new(ArrayQueue::new(lane_capacity)))
                .collect(),
            overflowed: AtomicUsize::new(0),
            app: app.to_string(),
            reorder_cap: config.queue_depth * REORDER_WINDOW_FACTOR,
            start: Instant::now(),
        }
    }

    /// Number of shards (and of control completions per broadcast).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of completion lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since the service started (issue-stamp clock).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Submit without blocking, executing on the calling thread: the
    /// request (and every buffered successor it unblocks) has been applied
    /// and its completion queued by the time this returns `Ok`. `Err`
    /// hands the request back — the caller's back-pressure signal: hold
    /// the request, stop reading that submitter, drain the lane, retry.
    ///
    /// # Errors
    ///
    /// Returns `Err(request)` when completion lane `request.lane` has no
    /// room, or shard `request.shard` still holds completions that found
    /// their lane full.
    ///
    /// # Panics
    ///
    /// Panics if `request.shard` or `request.lane` is out of range, or a
    /// submitter panicked inside this shard earlier.
    pub fn try_submit(&self, request: ServiceRequest) -> Result<(), ServiceRequest> {
        assert!(request.shard < self.shards.len(), "shard out of range");
        assert!(request.lane < self.lanes.len(), "lane out of range");
        let mut shard = self.lock(request.shard);
        if !self.flush_overflow(&mut shard) || self.lanes[request.lane].is_full() {
            return Err(request);
        }
        self.handle(&mut shard, request);
        Ok(())
    }

    /// Pop one completion from `lane`, if any is ready.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn try_complete(&self, lane: usize) -> Option<Completion> {
        let ready = self.lanes[lane].pop();
        if ready.is_some() || self.overflowed.load(Ordering::Acquire) == 0 {
            return ready;
        }
        // The lane has room again: parked completions can move without
        // waiting for the next submit to their shard.
        for shard in 0..self.shards.len() {
            self.flush_overflow(&mut self.lock(shard));
        }
        self.lanes[lane].pop()
    }

    #[cfg(test)]
    fn lane_arc(&self, lane: usize) -> Arc<ArrayQueue<Completion>> {
        Arc::clone(&self.lanes[lane])
    }

    /// Graceful shutdown, on the calling thread: reject what a sequence
    /// gap left in the reorder buffers, flush the open WAL epoch,
    /// checkpoint, and sync the stores (when persistence
    /// is attached), then fold the per-shard reports in shard order — the
    /// same deterministic merge as [`run`](crate::run).
    ///
    /// The caller must have collected all outstanding completions first;
    /// any left in the lanes are dropped with the service.
    ///
    /// # Panics
    ///
    /// Panics if a submitter panicked inside a shard, or the final
    /// checkpoint fails.
    pub fn shutdown(self) -> EngineRun {
        let summaries: Vec<ShardSummary> = self
            .shards
            .into_iter()
            .map(|shard| {
                let mut shard = shard.into_inner().expect(POISONED);
                // A populated reorder buffer at graceful shutdown is a
                // submitter that left a sequence gap; its requests can
                // never legally apply.
                for (_, req) in std::mem::take(&mut shard.reorder) {
                    let done = Completion {
                        shard: shard.id,
                        conn: req.conn,
                        conn_seq: req.conn_seq,
                        body: CompletionBody::Rejected(format!(
                            "sequence gap at shutdown: shard waited for {}, held {}",
                            shard.next_seq, req.seq
                        )),
                    };
                    // A full lane drops it, as the service is about to.
                    let _ = self.lanes[req.lane].push(done);
                }
                // End-of-service durability point: flush the open WAL
                // epoch, checkpoint, and force the store to stable storage
                // even when the run logged with `sync: false`.
                shard
                    .ctrl
                    .persist_shutdown()
                    .expect("shard metadata checkpoint at shutdown");
                ShardSummary::of(&mut shard.ctrl, &self.app, shard.host, None)
            })
            .collect();
        EngineRun::fold(summaries, self.start.elapsed().as_nanos() as u64)
    }

    /// Hard abort: drop every shard **without** flushing the open WAL
    /// epoch or taking a checkpoint — the crash-recovery path's
    /// "kill" switch. On-disk state is whatever the epoch log had already
    /// flushed.
    pub fn abort(self) {
        drop(self);
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect(POISONED)
    }

    /// Move parked completions to their lanes, oldest first. Returns
    /// whether the overflow list is now empty.
    fn flush_overflow(&self, shard: &mut Shard) -> bool {
        while let Some((lane, done)) = shard.overflow.pop_front() {
            if let Err(back) = self.lanes[lane].push(done) {
                shard.overflow.push_front((lane, back));
                return false;
            }
            self.overflowed.fetch_sub(1, Ordering::Release);
        }
        true
    }

    /// Queue a completion on `lane`; a full lane parks it in the shard's
    /// overflow list instead of waiting (the shard lock is held).
    fn emit(&self, shard: &mut Shard, lane: usize, conn: u64, conn_seq: u64, body: CompletionBody) {
        let mut done = Completion {
            shard: shard.id,
            conn,
            conn_seq,
            body,
        };
        if shard.overflow.is_empty() {
            match self.lanes[lane].push(done) {
                Ok(()) => return,
                Err(back) => done = back,
            }
        }
        shard.overflow.push_back((lane, done));
        self.overflowed.fetch_add(1, Ordering::Release);
    }

    /// Answer `req` with a rejection.
    fn reject(&self, shard: &mut Shard, req: &ServiceRequest, why: String) {
        let body = CompletionBody::Rejected(why);
        self.emit(shard, req.lane, req.conn, req.conn_seq, body);
    }

    /// Apply `req` at its place in the shard's sequence: a control
    /// operation at once, a data operation when its `seq` comes up.
    fn handle(&self, shard: &mut Shard, req: ServiceRequest) {
        let next_seq = shard.next_seq;
        if req.seq == CONTROL_SEQ {
            let body = apply_control(&mut shard.ctrl, &self.app, &req.op);
            self.emit(shard, req.lane, req.conn, req.conn_seq, body);
        } else if req.seq < next_seq {
            let why = format!(
                "duplicate sequence {} (shard already at {next_seq})",
                req.seq
            );
            self.reject(shard, &req, why);
        } else if req.seq > next_seq && shard.reorder.len() >= self.reorder_cap {
            let why = format!(
                "reorder window overflow holding {} requests waiting for sequence {next_seq}",
                shard.reorder.len()
            );
            self.reject(shard, &req, why);
        } else if req.seq > next_seq {
            if let Some(old) = shard.reorder.insert(req.seq, req) {
                let why = format!("sequence {} resubmitted before it applied", old.seq);
                self.reject(shard, &old, why);
            }
        } else {
            // In order: apply it and every buffered request it unblocks,
            // strictly in per-shard sequence order.
            let mut ready = Some(req);
            while let Some(req) = ready {
                let body = apply_data(&mut shard.ctrl, req.op);
                if host_sampled(shard.next_seq) {
                    shard
                        .host
                        .record(self.elapsed_ns().saturating_sub(req.issued_ns));
                }
                shard.next_seq += 1;
                self.emit(shard, req.lane, req.conn, req.conn_seq, body);
                ready = shard.reorder.remove(&shard.next_seq);
            }
        }
    }
}

/// Why a shard lock can be poisoned.
const POISONED: &str = "a submitter panicked inside this shard";

/// Apply one in-order data operation.
fn apply_data(ctrl: &mut ShardController, op: ServiceOp) -> CompletionBody {
    match op {
        ServiceOp::Write { addr, data, gap } => {
            let w = ctrl.write(addr, &data, gap);
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
        ServiceOp::Scrub => match ctrl.flush_wal() {
            Err(e) => CompletionBody::Scrub(Err(format!("wal flush before scrub: {e}"))),
            Ok(()) => CompletionBody::Scrub(ctrl.scrub()),
        },
        ServiceOp::Flush => {
            CompletionBody::Flush(ctrl.persist_checkpoint().map_err(|e| e.to_string()))
        }
        ServiceOp::Report => CompletionBody::Report(ctrl.report(app).to_json().to_string()),
        ServiceOp::Write { .. } | ServiceOp::Read { .. } => {
            CompletionBody::Rejected("data operation carried the control sequence number".into())
        }
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

    /// `records` as service requests on lane 0, stamped with correct
    /// per-shard sequence numbers; `conn_seq` is the index in `records`.
    /// Submission order is perturbed in windows of `rotate` (simulating
    /// cross-connection interleaving); the per-shard `seq` lets the shards
    /// reassemble the exact subsequence. (Windows must stay well under the
    /// reorder capacity.)
    fn requests(records: &[TraceRecord], shards: usize, rotate: usize) -> Vec<ServiceRequest> {
        let mut seqs = vec![0u64; shards];
        let mut reqs: Vec<ServiceRequest> = records
            .iter()
            .enumerate()
            .map(|(i, rec)| {
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
                    conn_seq: i as u64,
                    issued_ns: 0,
                    op,
                }
            })
            .collect();
        if rotate > 1 {
            for window in reqs.chunks_mut(rotate) {
                window.rotate_left(1);
            }
        }
        reqs
    }

    /// A healthy replay completes every request as the data operation it was.
    fn assert_data(c: &Completion) {
        assert!(
            matches!(
                c.body,
                CompletionBody::Write { .. } | CompletionBody::Read { .. }
            ),
            "unexpected completion {:?}",
            c.body
        );
    }

    /// Feed `records` through the service as one submitter, in an order
    /// perturbed by `rotate`.
    fn drive(config: &EngineConfig, records: &[TraceRecord], rotate: usize) -> EngineRun {
        let svc = EngineService::start(config, "mcf", 1, 1024);
        let reqs = requests(records, svc.shards(), rotate);
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
            let b = &served.merged.base;
            assert_eq!(b.coalesced_writes, 0, "no controller coalesces");
            assert_eq!(
                b.writes_eliminated + served.merged.nvm_data_writes,
                b.writes,
                "rotate {rotate}: every write dedups or stores"
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

    /// Submit one control operation to shard 0 and wait for its completion.
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
        }
        svc.try_complete(0).expect("a submit completes inline").body
    }

    #[test]
    fn host_latency_samples_every_eighth_data_op_of_the_shard_sequence() {
        let (records, lines) = trace(0, 128, 5);
        for n in [1usize, 8, 9, 61] {
            let records = &records[..n];
            let samples = n.div_ceil(8) as u64;
            let config = EngineConfig::for_workload(1, 256, lines, n as u64);
            // In arrival order and window-rotated: the sample follows the
            // shard's sequence, not the order requests turned up in.
            for rotate in [1, 7] {
                let svc = EngineService::start(&config, "mcf", 1, 1024);
                // Control operations are never timed and take no place in
                // the sequence, wherever they fall.
                assert!(matches!(
                    control(&svc, ServiceOp::Report),
                    CompletionBody::Report(_)
                ));
                for mut req in requests(records, 1, rotate) {
                    // Stamp the operations the stride rule names at the
                    // clock's origin and every other one in the far future:
                    // timing one of those would record a zero.
                    req.issued_ns = if req.seq.is_multiple_of(8) {
                        0
                    } else {
                        u64::MAX
                    };
                    svc.try_submit(req).expect("lane has room");
                    while let Some(c) = svc.try_complete(0) {
                        assert_data(&c);
                    }
                }
                assert!(matches!(
                    control(&svc, ServiceOp::Scrub),
                    CompletionBody::Scrub(Ok(_))
                ));
                let host = &svc.shutdown().shards[0].host_latency;
                assert_eq!(host.count(), samples, "{n} ops, rotate {rotate}");
                assert!(
                    host.stats().min_ns() > 0,
                    "{n} ops, rotate {rotate}: an operation off the stride was timed"
                );
            }
            let batch = run(&config, "mcf", records.to_vec());
            assert_eq!(
                batch.shards[0].host_latency.count(),
                samples,
                "run(), {n} ops"
            );
        }
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
        svc.try_submit(req).expect("lane has room");
        // The rejection is emitted during shutdown's drain, so poll the
        // lane from a side thread.
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

    #[test]
    fn full_lane_sheds_without_losing_or_duplicating_a_completion() {
        let (mut records, lines) = trace(0, 128, 5);
        records.truncate(64);
        assert_eq!(records.len(), 64, "warm-up alone covers the 64 submits");
        let config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());

        // Windows of 8 submitted as 1..=7 then 0: seven requests buffer
        // without a completion, the eighth releases all eight into a lane
        // that holds four — the rest must park in the shard, not wait.
        let svc = EngineService::start(&config, "mcf", 1, 4);
        let mut seen = vec![0u32; records.len()];
        let mut held = Vec::new();
        for req in requests(&records, 1, 8) {
            if let Err(back) = svc.try_submit(req) {
                held.push(back);
            }
        }
        assert!(
            !held.is_empty(),
            "a 4-entry lane cannot take 64 completions"
        );
        assert!(
            svc.overflowed.load(Ordering::Acquire) > 0,
            "the fan-out past the lane's capacity parks in the shard"
        );
        while !held.is_empty() {
            while let Some(c) = svc.try_complete(0) {
                assert_data(&c);
                seen[c.conn_seq as usize] += 1;
            }
            let mut again = Vec::new();
            for req in held {
                if let Err(back) = svc.try_submit(req) {
                    again.push(back);
                }
            }
            held = again;
        }
        while let Some(c) = svc.try_complete(0) {
            seen[c.conn_seq as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "every request completes exactly once: {seen:?}"
        );
        let served = svc.shutdown();
        assert_eq!(
            baseline.merged.to_json().to_string(),
            served.merged.to_json().to_string()
        );
    }

    #[test]
    fn contended_submitters_replay_the_trace_bit_identically() {
        use crate::{DigestMode, Replacement};
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;

        const SUBMITTERS: usize = 4;
        let (records, lines) = trace(2_000, 256, 31);
        let total = records.len() as u64;
        for mode in DigestMode::ALL {
            for policy in Replacement::ALL {
                let mut config = EngineConfig::for_workload(2, 256, lines, total);
                config.digest_mode = mode;
                config.cache_policy = policy;
                let baseline = run(&config, "mcf", records.clone());

                let svc = EngineService::start(&config, "mcf", 2, 1024);
                // Deal the window-rotated stream round-robin: every
                // submitter holds a slice of both shards' sequences, so
                // each keeps unblocking requests the others buffered.
                let mut slices: Vec<Vec<ServiceRequest>> =
                    (0..SUBMITTERS).map(|_| Vec::new()).collect();
                for (i, mut req) in requests(&records, 2, 7).into_iter().enumerate() {
                    req.lane = (i % SUBMITTERS) / 2;
                    slices[i % SUBMITTERS].push(req);
                }
                let completed = AtomicU64::new(0);
                let go = Barrier::new(SUBMITTERS);
                std::thread::scope(|scope| {
                    for (t, slice) in slices.into_iter().enumerate() {
                        let (svc, completed, go) = (&svc, &completed, &go);
                        scope.spawn(move || {
                            let lane = t / 2;
                            let drain = || {
                                while let Some(c) = svc.try_complete(lane) {
                                    assert_data(&c);
                                    completed.fetch_add(1, Ordering::Relaxed);
                                }
                            };
                            go.wait();
                            for mut req in slice {
                                while let Err(back) = svc.try_submit(req) {
                                    req = back;
                                    drain();
                                }
                                drain();
                            }
                            while completed.load(Ordering::Relaxed) < total {
                                drain();
                                std::thread::yield_now();
                            }
                        });
                    }
                });
                let served = svc.shutdown();
                assert_eq!(served.ops, baseline.ops);
                assert_eq!(
                    baseline.merged.to_json().to_string(),
                    served.merged.to_json().to_string(),
                    "{mode}/{policy}: lock contention changed the merged report"
                );
            }
        }
    }
}
