//! A long-running submission service over the shard controllers: the
//! engine surface the network frontend plugs into.
//!
//! [`run`](crate::run) drives one fixed trace through the shards and
//! returns; a served system instead needs an engine that outlives any one
//! client and accepts work from *many* concurrent submitters without
//! blocking them. [`EngineService`] provides exactly that:
//!
//! * [`EngineService::apply`] **executes the operation on the submitting
//!   thread**: it locks the target shard, applies the operation (plus
//!   every held successor it unblocks) and queues the completions before
//!   it returns. It borrows the line ([`DataOp`]), so a submitter that
//!   decoded it from a receive buffer copies nothing; only an operation
//!   that arrives ahead of its turn is copied, into the shard's reorder
//!   ring.
//! * [`EngineService::try_submit`] takes an owned [`ServiceRequest`] — a
//!   control operation, or a data operation that owns its line — down the
//!   same path.
//! * Completions come back on per-*lane* queues (one lane per event-loop
//!   thread), carrying the submitter's `(conn, conn_seq)` correlation tags
//!   so responses can be re-ordered per connection.
//! * Control operations (scrub / flush-checkpoint / report) take the same
//!   path with [`CONTROL_SEQ`], one per shard, and are aggregated by the
//!   caller.
//!
//! The service refuses no operation for want of room. Its caller bounds
//! what it has in flight (the network frontend's per-connection window),
//! and every queued completion answers one of those operations, so the
//! caller's bound is each lane's bound too.
//!
//! # Threading model
//!
//! The service owns no threads. Each shard's serving state — its
//! [`ShardController`], the `seq` reorder ring and the host-latency
//! histogram — sits behind one [`Mutex`]; whoever submits to a shard runs
//! it. Handing a sub-microsecond operation to a dedicated worker cost more
//! than the operation (a queue hop each way, and a sleeping worker is a
//! scheduler wake-up away), so two submitters meeting on one shard simply
//! serialise for one operation. The lock also orders the shard's WAL
//! appends. Each lane's queue has a lock of its own, held for one push or
//! one pop; a shard pushes while holding its lock, and a pop takes no
//! shard lock, so the one lock order is shard → lane.
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
//! trace), and each shard applies requests strictly in `seq` order. A
//! request that arrives early waits in a ring of `4 × queue_depth` slots
//! preallocated at start, at slot `seq % len`, if it is less than the
//! ring's length ahead of the shard's next `seq`; one farther ahead, or
//! one already applied, is rejected. Any interleaving of connections,
//! lanes, and lock acquisitions therefore replays each shard's exact trace
//! subsequence — the merged report is a pure function of the trace again,
//! no matter how the records travelled.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use dewrite_mem::LatencyHistogram;
use dewrite_nvm::LineAddr;

use crate::engine::{host_sampled, EngineConfig, EngineRun, ShardSummary};
use crate::shard::ShardController;

/// The `seq` value marking a control operation: applied at its queue
/// position on arrival instead of passing through the reorder ring.
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

impl ServiceRequest {
    /// The data operation this request carries, borrowing its line; `None`
    /// for a control operation, or for a data operation stamped
    /// [`CONTROL_SEQ`] (which the control path rejects).
    fn data_op(&self) -> Option<DataOp<'_>> {
        let (addr, gap, data) = match &self.op {
            ServiceOp::Write { addr, data, gap } => (*addr, *gap, Some(data.as_slice())),
            ServiceOp::Read { addr, gap } => (*addr, *gap, None),
            ServiceOp::Scrub | ServiceOp::Flush | ServiceOp::Report => return None,
        };
        (self.seq != CONTROL_SEQ).then_some(DataOp {
            shard: self.shard,
            seq: self.seq,
            lane: self.lane,
            conn: self.conn,
            conn_seq: self.conn_seq,
            issued_ns: self.issued_ns,
            addr,
            gap,
            data,
        })
    }
}

/// A data operation that borrows its line: what a submitter already
/// holding the bytes (a lane's receive buffer) hands
/// [`EngineService::apply`] without copying them. The fields mean what
/// [`ServiceRequest`]'s do.
#[derive(Debug, Clone, Copy)]
pub struct DataOp<'a> {
    /// Owning shard (`addr mod shards`).
    pub shard: usize,
    /// Position within the shard's subsequence of the trace.
    pub seq: u64,
    /// Completion lane the response should come back on.
    pub lane: usize,
    /// Submitter's connection tag, echoed in the completion.
    pub conn: u64,
    /// Submitter's per-connection sequence tag, echoed in the completion.
    pub conn_seq: u64,
    /// Issue stamp ([`ServiceRequest::issued_ns`]).
    pub issued_ns: u64,
    /// Target line.
    pub addr: LineAddr,
    /// Instruction gap since the previous record (simulated time).
    pub gap: u32,
    /// The content to store, exactly the configured line size; `None`
    /// reads the line instead.
    pub data: Option<&'a [u8]>,
}

impl DataOp<'_> {
    /// The same operation with `data` as its line.
    fn with_line<'b>(&self, data: Option<&'b [u8]>) -> DataOp<'b> {
        DataOp {
            shard: self.shard,
            seq: self.seq,
            lane: self.lane,
            conn: self.conn,
            conn_seq: self.conn_seq,
            issued_ns: self.issued_ns,
            addr: self.addr,
            gap: self.gap,
            data,
        }
    }
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
    /// The request was not applied (reorder-window overflow, a duplicate
    /// or resubmitted sequence, or a malformed submission).
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

/// How far ahead of its shard's next `seq` a data request may arrive and
/// wait (`seq − next_seq` below this), as a multiple of
/// [`EngineConfig::queue_depth`]; one farther ahead is rejected.
const REORDER_WINDOW_FACTOR: usize = 4;

/// A data request waiting for its turn: the operation without its line,
/// which waits at the same slot of [`Shard::lines`].
#[derive(Debug, Clone, Copy)]
struct Held {
    op: DataOp<'static>,
    write: bool,
}

/// One shard's serving state: everything its lock guards.
struct Shard {
    id: usize,
    ctrl: ShardController,
    next_seq: u64,
    /// The reorder ring: each request that arrived ahead of `next_seq`, by
    /// less than the ring's length, at slot `seq % len` — the only `seq`
    /// of that window to map there.
    reorder: Vec<Option<Held>>,
    /// The held writes' lines, one line-size stride per slot. Zeroed at
    /// start, so a page is first touched when a slot first holds a line.
    lines: Vec<u8>,
    /// Occupied `reorder` slots. While 0, an in-order request never
    /// touches the ring.
    held: usize,
    host: LatencyHistogram,
}

/// The long-running sharded engine service. See the module docs.
pub struct EngineService {
    shards: Vec<Mutex<Shard>>,
    /// One completion queue per lane, oldest first.
    lanes: Vec<Mutex<VecDeque<Completion>>>,
    app: String,
    /// Bytes per line: the stride of each shard's held lines.
    line_size: usize,
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
    /// Build one controller and one reorder ring per shard, plus `lanes`
    /// completion queues, each allocated with room for `lane_capacity`
    /// entries before it first grows. No thread is started: submitters run
    /// the shards.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config: zero shards, lanes or queue depth.
    pub fn start(config: &EngineConfig, app: &str, lanes: usize, lane_capacity: usize) -> Self {
        let shards = config.shards;
        assert!(shards > 0, "need at least one shard");
        assert!(lanes > 0, "need at least one completion lane");
        assert!(config.queue_depth > 0, "reorder window must hold a request");

        let window = config.queue_depth * REORDER_WINDOW_FACTOR;
        let shards = (0..shards)
            .map(|id| {
                Mutex::new(Shard {
                    id,
                    ctrl: config.shard(id),
                    next_seq: 0,
                    reorder: vec![None; window],
                    lines: vec![0; window * config.line_size],
                    held: 0,
                    host: LatencyHistogram::new(),
                })
            })
            .collect();
        EngineService {
            shards,
            lanes: (0..lanes)
                .map(|_| Mutex::new(VecDeque::with_capacity(lane_capacity)))
                .collect(),
            app: app.to_string(),
            line_size: config.line_size,
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

    /// Submit a data operation, executing it on the calling thread without
    /// taking its line. By the time this returns, an operation that is
    /// next in its shard's sequence has been applied, with every held
    /// successor it unblocks, and the completions are queued; one that
    /// arrived early has had its line copied into the shard's reorder ring
    /// to wait for its turn; one that can never apply has been answered
    /// with [`CompletionBody::Rejected`].
    ///
    /// # Panics
    ///
    /// Panics if `op.shard` or `op.lane` is out of range, a write's line is
    /// not the configured line size, or a submitter panicked inside this
    /// shard earlier.
    pub fn apply(&self, op: &DataOp<'_>) {
        let mut shard = self.admit(op.shard, op.lane);
        self.handle_data(&mut shard, op);
    }

    /// Submit an owned request, executing it on the calling thread: a data
    /// operation goes through [`apply`](Self::apply), borrowing its own
    /// line; a control operation applies at once.
    ///
    /// # Errors
    ///
    /// Never: the service takes every request (see the module docs on
    /// what bounds the lanes). Callers may still match on the `Result`.
    ///
    /// # Panics
    ///
    /// As [`apply`](Self::apply).
    pub fn try_submit(&self, request: ServiceRequest) -> Result<(), ServiceRequest> {
        match request.data_op() {
            Some(op) => self.apply(&op),
            None => {
                let mut shard = self.admit(request.shard, request.lane);
                self.handle_control(&mut shard, &request);
            }
        }
        Ok(())
    }

    /// Lock shard `shard` for an operation answered on lane `lane`.
    fn admit(&self, shard: usize, lane: usize) -> MutexGuard<'_, Shard> {
        assert!(shard < self.shards.len(), "shard out of range");
        assert!(lane < self.lanes.len(), "lane out of range");
        self.lock(shard)
    }

    /// Pop one completion from `lane`, if any is ready.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn try_complete(&self, lane: usize) -> Option<Completion> {
        self.lanes[lane].lock().expect(LANE_POISONED).pop_front()
    }

    /// Graceful shutdown, on the calling thread: flush the open WAL epoch,
    /// checkpoint, and sync the stores (when persistence is attached), then
    /// fold the per-shard reports in shard order — the same deterministic
    /// merge as [`run`](crate::run).
    ///
    /// The caller must have collected all outstanding completions first;
    /// any left in the lanes are dropped with the service, and so is a
    /// request that a sequence gap left waiting in a reorder ring (it
    /// never applied).
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

    /// Queue a completion on `lane`.
    fn emit(&self, shard: &Shard, lane: usize, conn: u64, conn_seq: u64, body: CompletionBody) {
        let done = Completion {
            shard: shard.id,
            conn,
            conn_seq,
            body,
        };
        self.lanes[lane]
            .lock()
            .expect(LANE_POISONED)
            .push_back(done);
    }

    /// Answer `op` with a rejection.
    fn reject(&self, shard: &Shard, op: &DataOp<'_>, why: String) {
        let body = CompletionBody::Rejected(why);
        self.emit(shard, op.lane, op.conn, op.conn_seq, body);
    }

    /// Apply a control operation at once, at its arrival position.
    fn handle_control(&self, shard: &mut Shard, req: &ServiceRequest) {
        let body = if req.seq == CONTROL_SEQ {
            apply_control(&mut shard.ctrl, &self.app, &req.op)
        } else {
            CompletionBody::Rejected("control operation carried a data sequence number".into())
        };
        self.emit(shard, req.lane, req.conn, req.conn_seq, body);
    }

    /// Apply `op` when its `seq` comes up: now if it is the shard's next,
    /// from the reorder ring if it is less than the ring's length ahead.
    /// One already applied, or farther ahead, is rejected.
    fn handle_data(&self, shard: &mut Shard, op: &DataOp<'_>) {
        let next_seq = shard.next_seq;
        let window = shard.reorder.len() as u64;
        if op.seq == next_seq {
            self.execute(shard, op);
            if shard.held > 0 {
                self.release(shard);
            }
        } else if op.seq < next_seq {
            let why = format!(
                "duplicate sequence {} (shard already at {next_seq})",
                op.seq
            );
            self.reject(shard, op, why);
        } else if op.seq - next_seq >= window {
            let why = format!(
                "reorder window overflow: sequence {} is {} past {next_seq}; the window is {window}",
                op.seq,
                op.seq - next_seq
            );
            self.reject(shard, op, why);
        } else {
            self.hold(shard, op);
        }
    }

    /// Hold `op`, ahead of the shard's sequence but inside the window,
    /// until its turn. A copy of the same `seq` held already is replaced,
    /// and answered with a rejection.
    fn hold(&self, shard: &mut Shard, op: &DataOp<'_>) {
        let slot = (op.seq % shard.reorder.len() as u64) as usize;
        if let Some(data) = op.data {
            shard.lines[slot * self.line_size..][..self.line_size].copy_from_slice(data);
        }
        let held = Held {
            op: op.with_line(None),
            write: op.data.is_some(),
        };
        match shard.reorder[slot].replace(held) {
            Some(old) => {
                let why = format!("sequence {} resubmitted before it applied", old.op.seq);
                self.reject(shard, &old.op, why);
            }
            None => shard.held += 1,
        }
    }

    /// Apply the held requests the shard's sequence has reached, in order.
    fn release(&self, shard: &mut Shard) {
        // The lines leave the shard while they apply, so each operation
        // can borrow its line beside `&mut Shard`.
        let lines = std::mem::take(&mut shard.lines);
        while shard.held > 0 {
            let slot = (shard.next_seq % shard.reorder.len() as u64) as usize;
            let Some(held) = shard.reorder[slot].take() else {
                break;
            };
            debug_assert_eq!(held.op.seq, shard.next_seq, "one seq per slot");
            shard.held -= 1;
            let line = &lines[slot * self.line_size..][..self.line_size];
            self.execute(shard, &held.op.with_line(held.write.then_some(line)));
        }
        shard.lines = lines;
    }

    /// Apply `op`, the next in its shard's sequence, and queue its
    /// completion.
    fn execute(&self, shard: &mut Shard, op: &DataOp<'_>) {
        let body = match op.data {
            Some(data) => {
                let w = shard.ctrl.write(op.addr, data, op.gap);
                CompletionBody::Write {
                    eliminated: w.eliminated,
                    sim_ns: w.sim_ns,
                }
            }
            None => CompletionBody::Read {
                sim_ns: shard.ctrl.read(op.addr, op.gap),
            },
        };
        if host_sampled(shard.next_seq) {
            shard
                .host
                .record(self.elapsed_ns().saturating_sub(op.issued_ns));
        }
        shard.next_seq += 1;
        self.emit(shard, op.lane, op.conn, op.conn_seq, body);
    }
}

/// Why a shard lock can be poisoned.
const POISONED: &str = "a submitter panicked inside this shard";
/// Why a lane lock can be poisoned: a push or pop panicked.
const LANE_POISONED: &str = "a completion lane push or pop panicked";

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

    /// Submit `req`, which the service always takes.
    fn submit(svc: &EngineService, req: ServiceRequest) {
        svc.try_submit(req).expect("the service refuses nothing");
    }

    /// Feed `records` through the service as one submitter, in an order
    /// perturbed by `rotate`.
    fn drive(config: &EngineConfig, records: &[TraceRecord], rotate: usize) -> EngineRun {
        let svc = EngineService::start(config, "mcf", 1, 1024);
        let reqs = requests(records, svc.shards(), rotate);
        let total = reqs.len();
        let mut completed = 0;
        for req in reqs {
            submit(&svc, req);
            while let Some(c) = svc.try_complete(0) {
                assert_data(&c);
                completed += 1;
            }
        }
        assert_eq!(completed, total);
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
            let req = ServiceRequest {
                shard,
                seq: seqs[shard],
                lane: 0,
                conn: 0,
                conn_seq: 0,
                issued_ns: svc.elapsed_ns(),
                op,
            };
            seqs[shard] += 1;
            submit(&svc, req);
        }
        let completed = std::iter::from_fn(|| svc.try_complete(0)).count();
        assert_eq!(completed, records.len());

        // Broadcast scrub + report, one control request per shard.
        for op in [ServiceOp::Scrub, ServiceOp::Report] {
            for shard in 0..shards {
                let req = ServiceRequest {
                    shard,
                    seq: CONTROL_SEQ,
                    lane: 0,
                    conn: 0,
                    conn_seq: 1,
                    issued_ns: svc.elapsed_ns(),
                    op: op.clone(),
                };
                submit(&svc, req);
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
        let req = ServiceRequest {
            shard: 0,
            seq: CONTROL_SEQ,
            lane: 0,
            conn: 0,
            conn_seq: 0,
            issued_ns: 0,
            op,
        };
        submit(svc, req);
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
                    submit(&svc, req);
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
    fn a_request_behind_a_sequence_gap_never_applies() {
        let (records, lines) = trace(200, 128, 3);
        let mut config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        config.queue_depth = 8;
        let svc = EngineService::start(&config, "mcf", 1, 1024);
        // Sequence 5 with 0..5 never submitted: it waits for its turn,
        // which never comes.
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
        submit(&svc, req);
        assert!(svc.try_complete(0).is_none(), "an early request waits");
        let run = svc.shutdown();
        assert_eq!(run.ops, 0, "the gapped request must never apply");
    }

    /// `req` again, answered under `conn_seq`.
    fn copy_of(req: &ServiceRequest, conn_seq: u64) -> ServiceRequest {
        ServiceRequest {
            conn_seq,
            op: req.op.clone(),
            ..*req
        }
    }

    /// `conn_seq` of the extra copies the rejection tests submit.
    const EXTRA: u64 = 1 << 40;

    /// Submit `req` and return every completion it produced, counting each
    /// original request's in `seen`.
    fn submit_and_drain(
        svc: &EngineService,
        req: ServiceRequest,
        seen: &mut [u32],
    ) -> Vec<Completion> {
        submit(svc, req);
        let done: Vec<Completion> = std::iter::from_fn(|| svc.try_complete(0)).collect();
        for c in done.iter().filter(|c| c.conn_seq < EXTRA) {
            assert_data(c);
            seen[c.conn_seq as usize] += 1;
        }
        done
    }

    /// After a rejection test: every original request completed once, the
    /// shard's sequence stands where in-order submission leaves it, and the
    /// merged report is the in-order baseline's.
    fn assert_in_order_outcome(svc: EngineService, baseline: &EngineRun, seen: &[u32]) {
        assert!(
            seen.iter().all(|&n| n == 1),
            "every request completes exactly once: {seen:?}"
        );
        assert_eq!(svc.lock(0).next_seq, seen.len() as u64);
        let served = svc.shutdown();
        assert_eq!(served.ops, baseline.ops);
        assert_eq!(
            baseline.merged.to_json().to_string(),
            served.merged.to_json().to_string()
        );
    }

    /// The one rejection in `done`, which must answer `conn_seq`.
    fn sole_rejection(done: &[Completion], conn_seq: u64) -> &str {
        let rejected: Vec<&Completion> = done
            .iter()
            .filter(|c| matches!(c.body, CompletionBody::Rejected(_)))
            .collect();
        assert_eq!(rejected.len(), 1, "one rejection expected: {done:?}");
        assert_eq!(rejected[0].conn_seq, conn_seq);
        match &rejected[0].body {
            CompletionBody::Rejected(why) => why,
            _ => unreachable!("filtered to rejections"),
        }
    }

    #[test]
    fn a_duplicate_sequence_is_rejected() {
        let (records, lines) = trace(200, 128, 3);
        let config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());
        let svc = EngineService::start(&config, "mcf", 1, 1024);
        let reqs = requests(&records, 1, 1);
        let mut seen = vec![0u32; reqs.len()];
        for (i, req) in reqs.iter().enumerate() {
            submit_and_drain(&svc, copy_of(req, req.conn_seq), &mut seen);
            if i == 100 {
                // An old sequence number, and the one that just applied.
                for (k, old) in [40, i].into_iter().enumerate() {
                    let tag = EXTRA + k as u64;
                    let done = submit_and_drain(&svc, copy_of(&reqs[old], tag), &mut seen);
                    let why = sole_rejection(&done, tag);
                    assert!(why.contains("duplicate sequence"), "got {why:?}");
                    assert_eq!(done.len(), 1, "a duplicate releases nothing");
                }
            }
        }
        assert_in_order_outcome(svc, &baseline, &seen);
    }

    #[test]
    fn a_sequence_resubmitted_before_it_applied_rejects_the_older_copy() {
        const AT: usize = 100;
        let (records, lines) = trace(200, 128, 3);
        let config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());
        let svc = EngineService::start(&config, "mcf", 1, 1024);
        let reqs = requests(&records, 1, 1);
        let mut seen = vec![0u32; reqs.len()];
        for (i, req) in reqs.iter().enumerate() {
            if i == AT {
                // Two sequences early, twice: the first copy waits, the
                // second replaces it and the first is answered.
                let ahead = &reqs[AT + 2];
                let done = submit_and_drain(&svc, copy_of(ahead, EXTRA), &mut seen);
                assert!(done.is_empty(), "an early request waits: {done:?}");
                let done = submit_and_drain(&svc, copy_of(ahead, ahead.conn_seq), &mut seen);
                let why = sole_rejection(&done, EXTRA);
                assert!(why.contains("resubmitted before it applied"), "got {why:?}");
                assert_eq!(done.len(), 1, "the newer copy still waits");
            }
            if i == AT + 2 {
                continue;
            }
            let done = submit_and_drain(&svc, copy_of(req, req.conn_seq), &mut seen);
            if i == AT + 1 {
                let tags: Vec<u64> = done.iter().map(|c| c.conn_seq).collect();
                assert_eq!(tags, [AT as u64 + 1, AT as u64 + 2], "the gap closes");
            }
        }
        assert_in_order_outcome(svc, &baseline, &seen);
    }

    #[test]
    fn the_reorder_window_is_a_distance_past_the_next_sequence() {
        const AT: usize = 50;
        let (records, lines) = trace(200, 128, 3);
        let mut config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        config.queue_depth = 8;
        let window = config.queue_depth * REORDER_WINDOW_FACTOR;
        let baseline = run(&config, "mcf", records.clone());
        let svc = EngineService::start(&config, "mcf", 1, 1024);
        let reqs = requests(&records, 1, 1);
        let mut seen = vec![0u32; reqs.len()];
        let (farthest, beyond) = (AT + window - 1, AT + window);
        for (i, req) in reqs.iter().enumerate() {
            if i == AT {
                // With `AT` next, `AT + window - 1` waits and
                // `AT + window` is refused.
                let held = &reqs[farthest];
                let done = submit_and_drain(&svc, copy_of(held, held.conn_seq), &mut seen);
                assert!(done.is_empty(), "the window's far edge waits: {done:?}");
                let done = submit_and_drain(&svc, copy_of(&reqs[beyond], EXTRA), &mut seen);
                let why = sole_rejection(&done, EXTRA);
                assert!(why.contains("reorder window overflow"), "got {why:?}");
            }
            if i == farthest {
                continue;
            }
            let done = submit_and_drain(&svc, copy_of(req, req.conn_seq), &mut seen);
            if i == farthest - 1 {
                assert_eq!(
                    done.len(),
                    2,
                    "the held request applies after its predecessor"
                );
            }
        }
        assert_in_order_outcome(svc, &baseline, &seen);
    }

    #[test]
    fn a_lane_past_its_initial_capacity_takes_every_completion_once_in_order() {
        let (mut records, lines) = trace(0, 128, 5);
        records.truncate(64);
        assert_eq!(records.len(), 64, "warm-up alone covers the 64 submits");
        let config = EngineConfig::for_workload(1, 256, lines, records.len() as u64);
        let baseline = run(&config, "mcf", records.clone());

        // Windows of 8 submitted as 1..=7 then 0: seven requests wait
        // without a completion, the eighth releases all eight. Nothing is
        // collected until all 64 are in, so a lane allocated for four
        // holds 64.
        let svc = EngineService::start(&config, "mcf", 1, 4);
        for req in requests(&records, 1, 8) {
            assert!(svc.try_submit(req).is_ok(), "the service refuses nothing");
        }
        // One shard: a request's `conn_seq`, its index in `records`, is
        // also its `seq`.
        let order: Vec<u64> = std::iter::from_fn(|| svc.try_complete(0))
            .map(|c| {
                assert_data(&c);
                c.conn_seq
            })
            .collect();
        assert_eq!(
            order,
            (0..64).collect::<Vec<u64>>(),
            "every completion arrives once, in the shard's sequence order"
        );
        let served = svc.shutdown();
        assert_eq!(
            baseline.merged.to_json().to_string(),
            served.merged.to_json().to_string()
        );
    }

    #[test]
    fn contended_submitters_replay_the_trace_bit_identically() {
        use crate::Replacement;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;

        const SUBMITTERS: usize = 4;
        let (records, lines) = trace(2_000, 256, 31);
        let total = records.len() as u64;
        for policy in Replacement::ALL {
            let mut config = EngineConfig::for_workload(2, 256, lines, total);
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
                        for req in slice {
                            submit(svc, req);
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
                "{policy}: lock contention changed the merged report"
            );
        }
    }
}
