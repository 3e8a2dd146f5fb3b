//! The served engine: a std-only, nonblocking, thread-per-core event
//! loop between TCP sockets and [`EngineService`].
//!
//! # Event-loop model
//!
//! `threads` **lanes** each own a disjoint set of connections and run the
//! same sweep: read each socket once and decode its frames in place (a
//! `Write`'s line stays a slice of the receive buffer, copied only if the
//! engine must hold it for its turn), drain the engine's completion queue
//! for this lane, flush write buffers, then park on the engine's
//! spin→yield→sleep [`Backoff`] when a sweep makes no progress. The lanes
//! are the only serving threads: [`EngineService::apply`] runs the shard
//! on the lane that decoded the request (WAL appends and `persist_sync`
//! included, and a control operation such as a checkpoint stalls that
//! lane for its duration), so a request is read, executed and answered
//! within one sweep. Lane 0 additionally owns the (nonblocking) listener
//! and sends new connections round-robin to the lanes' inbox channels; it
//! probes `accept` on idle sweeps and on every [`ACCEPT_EVERY`]th busy
//! one. There are no poll/epoll syscalls and no async runtime — the sweep
//! is a straight scan.
//!
//! # Ordering and flow control
//!
//! Responses stream back to each connection strictly in request order:
//! every decoded request takes the connection's next `conn_seq`, and
//! out-of-order completions park in a per-connection ring of `window`
//! response slots until their turn. The window is the one flow control:
//! a connection with `window` requests unanswered **stops being read**
//! (its buffered frames stay undecoded), so TCP flow control propagates
//! the stall to the client. The engine refuses nothing, and needs not:
//! every completion in a lane's queue answers a request that one of the
//! lane's connections decoded and is still waiting on, so the lane holds
//! at most its connections' windows (a control broadcast counts once per
//! shard).
//!
//! # Engine lifecycle
//!
//! The engine is created lazily from the first [`Hello`]'s geometry
//! (the server's CLI fixes the shard count; the handshake brings line
//! size, line count, and expected writes). `Reset` tears it down
//! (drain + flush + checkpoint) so one server can host a whole
//! connection-count sweep; each generation persists under its own
//! `gen-<n>/` subdirectory. `Shutdown` drains in-flight work, flushes
//! WAL epochs, checkpoints every shard, and returns the merged
//! [`EngineRun`] through [`NetServer::join`]. [`ServerHandle::abort`]
//! kills the engine *without* flushing — the crash-recovery tests' kill
//! switch.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dewrite_core::tables::MAX_REFERENCE;
use dewrite_engine::{
    Backoff, Completion, CompletionBody, DataOp, DigestMode, EngineConfig, EngineRun,
    EngineService, Replacement, ServiceOp, ServiceRequest, CONTROL_SEQ,
};
use dewrite_nvm::LineAddr;
use dewrite_trace::shard_of_line;

use crate::proto::{
    self, ErrorCode, FrameEvent, Hello, RequestRef, Response, MAX_LINE_BYTES, NET_VERSION,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7411` (port 0 picks a free one).
    pub addr: String,
    /// Controller shards the engine will run with.
    pub shards: usize,
    /// Event-loop lanes, the only serving threads; 0 picks one per
    /// hardware thread.
    pub threads: usize,
    /// Per-connection in-flight window the server enforces (frames
    /// decoded but not yet answered).
    pub window: u32,
    /// Sizes the engine's per-shard reorder window (a request may arrive
    /// up to `4 × queue_depth − 1` sequence numbers early), and pre-sizes
    /// the lanes' completion queues (at least 4 096 entries each; they
    /// grow past that rather than refuse).
    pub queue_depth: usize,
    /// Root for crash-consistent metadata persistence; each engine
    /// generation logs under `gen-<n>/shard-<id>/`.
    pub persist_dir: Option<PathBuf>,
    /// Data writes per WAL epoch record.
    pub persist_epoch: u32,
    /// `fsync` the WAL on every epoch flush.
    pub persist_sync: bool,
    /// Upper bound a `Hello` may ask for in workload lines. Its expected
    /// writes may size an arena no larger than this many lines each
    /// written `MAX_REFERENCE` times would.
    pub max_lines: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7411".into(),
            shards: 4,
            threads: 0,
            window: 64,
            queue_depth: 1024,
            persist_dir: None,
            persist_epoch: 64,
            persist_sync: false,
            max_lines: 1 << 28,
        }
    }
}

/// What a run of the server produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The merged engine run from the final graceful teardown (`None`
    /// when no engine was ever created, or after a hard abort).
    pub run: Option<EngineRun>,
    /// Whether the server died by [`ServerHandle::abort`].
    pub aborted: bool,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Data operations completed over the server's lifetime.
    pub ops: u64,
    /// Typed error responses sent.
    pub errors: u64,
}

/// The session geometry an engine generation was built from.
#[derive(Debug, Clone)]
struct Geometry {
    line_size: u32,
    lines: u64,
    expected_writes: u64,
    cache_policy: Replacement,
    app: String,
    slots_per_shard: u64,
}

/// State shared by every lane.
#[derive(Debug)]
struct Shared {
    opts: ServeOptions,
    lanes: usize,
    /// The engine, once the first `Hello` arrives. Each lane takes one
    /// `Arc` clone per sweep ([`Lane::svc`]) so teardown can reclaim sole
    /// ownership with a bounded spin.
    service: RwLock<Option<Arc<EngineService>>>,
    geometry: Mutex<Option<Geometry>>,
    /// Engine generation; bumped by `Reset`. Stale sessions (handshaken
    /// against a previous generation) are refused.
    generation: AtomicU64,
    /// Requests submitted to the engine and not yet completed.
    in_flight: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    abort: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    ops: AtomicU64,
    errors: AtomicU64,
    final_run: Mutex<Option<EngineRun>>,
    start: Instant,
}

impl Shared {
    fn new(opts: ServeOptions, lanes: usize) -> Shared {
        Shared {
            opts,
            lanes,
            service: RwLock::new(None),
            geometry: Mutex::new(None),
            generation: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            final_run: Mutex::new(None),
            start: Instant::now(),
        }
    }
}

/// Socket read chunk: one `read` per connection per sweep.
const READ_CHUNK: usize = 16 * 1024;
/// Busy sweeps lane 0 lets pass between two `accept` probes (an `EAGAIN`
/// `accept` costs about eight `EAGAIN` reads).
const ACCEPT_EVERY: u32 = 32;
/// Stop reading a socket once this much is buffered undecoded (the
/// window gate usually stalls reads long before).
const MAX_RBUF: usize = 4 * (1 << 20);
/// How long lanes keep flushing responses after shutdown.
const LINGER: Duration = Duration::from_secs(5);

/// Per-session state cached on the connection after its `Hello`.
#[derive(Debug, Clone, Copy)]
struct Session {
    generation: u64,
    line_size: u32,
    lines: u64,
}

/// A control broadcast being folded back together (one engine
/// completion per shard).
#[derive(Debug)]
struct Aggregate {
    kind: AggKind,
    remaining: usize,
    lines: u64,
    reports: Vec<Option<String>>,
    err: Option<(ErrorCode, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Scrub,
    Flush,
    Report,
}

/// One client connection owned by a lane.
#[derive(Debug)]
struct Conn {
    /// The connection's routing tag ([`Conns::adopt`]): what its engine
    /// submissions carry as [`ServiceRequest::conn`].
    id: u64,
    stream: TcpStream,
    /// The socket is alive (readable/writable).
    open: bool,
    /// A framing violation happened: close once the error flushes.
    fatal: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next `conn_seq` to assign to a decoded request.
    next_assign: u64,
    /// Next `conn_seq` whose response moves to the write buffer.
    next_emit: u64,
    /// Responses that completed ahead of their turn, at slot
    /// `conn_seq % window`: the decode gate keeps `conn_seq − next_emit`
    /// below the window, so the slot is free. Sized on the first such
    /// response; a response is encoded once, straight into `wbuf`, when
    /// its turn comes.
    parked: Vec<Option<Response>>,
    /// Occupied `parked` slots.
    parked_count: usize,
    /// Control broadcasts in flight, keyed by `conn_seq`.
    aggregates: HashMap<u64, Aggregate>,
    /// Engine submissions not yet completed.
    live: u64,
    session: Option<Session>,
    /// Engine-clock time ([`EngineService::elapsed_ns`]) of the socket
    /// read that brought in the frames now being decoded — the issue stamp
    /// of every request among them: one clock read per chunk, since the
    /// frames of one chunk arrived together.
    arrived_ns: u64,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            open: true,
            fatal: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_assign: 0,
            next_emit: 0,
            parked: Vec::new(),
            parked_count: 0,
            aggregates: HashMap::new(),
            live: 0,
            session: None,
            arrived_ns: 0,
        }
    }

    /// Requests decoded but not yet answered into the write buffer.
    fn unanswered(&self) -> u64 {
        self.next_assign - self.next_emit
    }
}

/// Low bits of a connection's routing tag: its slot in the lane's table.
const SLOT_BITS: u32 = 24;

/// A lane's connections, in a slot table that reuses freed slots.
///
/// A connection's tag is `serial << SLOT_BITS | slot`, with `serial` the
/// server-wide accept count — unique for the server's lifetime. The engine
/// echoes the tag in every completion, so a completion finds its
/// connection by index; the tag is then compared with the slot's current
/// occupant, so whatever is still in flight for a connection that was
/// reaped — its slot empty or re-adopted since — matches nothing and is
/// dropped.
#[derive(Debug, Default)]
struct Conns {
    slots: Vec<Option<Conn>>,
}

impl Conns {
    /// Seat `stream` in the first free slot as the server's `serial`-th
    /// connection. `None` (the stream is dropped) if the table is at the
    /// tag's capacity.
    fn adopt(&mut self, serial: u64, stream: TcpStream) -> Option<u64> {
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => free,
            None if self.slots.len() < 1 << SLOT_BITS => {
                self.slots.push(None);
                self.slots.len() - 1
            }
            None => return None,
        };
        let tag = serial << SLOT_BITS | slot as u64;
        self.slots[slot] = Some(Conn::new(tag, stream));
        Some(tag)
    }

    /// Drop connections that are closed and fully drained; returns how
    /// many went.
    fn reap(&mut self) -> u64 {
        let mut reaped = 0;
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|c| !c.open && c.live == 0) {
                *slot = None;
                reaped += 1;
            }
        }
        reaped
    }

    /// The connection `tag` was issued to, if it is still seated.
    fn get_mut(&mut self, tag: u64) -> Option<&mut Conn> {
        let slot = (tag & ((1 << SLOT_BITS) - 1)) as usize;
        self.slots.get_mut(slot)?.as_mut().filter(|c| c.id == tag)
    }

    fn iter(&self) -> impl Iterator<Item = &Conn> {
        self.slots.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Conn> {
        self.slots.iter_mut().flatten()
    }
}

/// Answer `conn_seq`: in its turn, encode straight into the write buffer
/// and release every parked response behind it; ahead of its turn, park
/// it in its slot of the connection's ring. A closed connection encodes
/// nothing but still advances the in-order cursor so it can drain.
fn push_response(shared: &Shared, conn: &mut Conn, conn_seq: u64, resp: &Response) {
    if matches!(resp, Response::Error { .. }) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    if conn_seq != conn.next_emit {
        if conn.parked.is_empty() {
            conn.parked.resize(shared.opts.window as usize, None);
        }
        let ring = conn.parked.len() as u64;
        let early = conn.parked[(conn_seq % ring) as usize].replace(resp.clone());
        debug_assert!(
            early.is_none(),
            "conn_seq {conn_seq} is a window past its turn"
        );
        conn.parked_count += 1;
        return;
    }
    if conn.open {
        proto::encode_response_into(&mut conn.wbuf, resp);
    }
    conn.next_emit += 1;
    while conn.parked_count > 0 {
        let ring = conn.parked.len() as u64;
        let Some(next) = conn.parked[(conn.next_emit % ring) as usize].take() else {
            break;
        };
        conn.parked_count -= 1;
        if conn.open {
            proto::encode_response_into(&mut conn.wbuf, &next);
        }
        conn.next_emit += 1;
    }
}

/// Validate a `Hello` against the server's limits, returning its cache
/// policy, or why it is refused. The arena it may size is at most that of
/// a `max_lines` line space whose every line is written `MAX_REFERENCE`
/// times. The digest-mode byte must name crc32-verify, the only mode.
fn check_hello(opts: &ServeOptions, h: &Hello) -> Result<Replacement, String> {
    if h.line_size == 0
        || h.line_size as usize > MAX_LINE_BYTES
        || h.lines == 0
        || h.lines > opts.max_lines
    {
        return Err(format!(
            "geometry out of range: line_size {} lines {} (max {})",
            h.line_size, h.lines, opts.max_lines
        ));
    }
    let slots =
        |lines, writes| EngineConfig::for_workload(opts.shards, 1, lines, writes).slots_per_shard;
    let max_slots = slots(
        opts.max_lines,
        opts.max_lines.saturating_mul(u64::from(MAX_REFERENCE)),
    );
    let asked = slots(h.lines, h.expected_writes);
    if asked > max_slots {
        return Err(format!(
            "expected_writes {} sizes {asked} slots per shard (max {max_slots})",
            h.expected_writes
        ));
    }
    let cache_policy = Replacement::from_wire(h.cache_policy)
        .ok_or_else(|| format!("unknown cache policy {}", h.cache_policy))?;
    if DigestMode::from_wire(h.digest_mode).is_none() {
        return Err(format!("unknown digest mode {}", h.digest_mode));
    }
    Ok(cache_policy)
}

fn err(code: ErrorCode, detail: impl Into<String>) -> Response {
    Response::Error {
        code,
        detail: detail.into(),
    }
}

/// Answer a control broadcast once every shard has reported.
fn finish_aggregate(shared: &Shared, conn: &mut Conn, conn_seq: u64) {
    let done = conn
        .aggregates
        .get(&conn_seq)
        .is_some_and(|a| a.remaining == 0);
    if !done {
        return;
    }
    let agg = conn.aggregates.remove(&conn_seq).expect("checked above");
    let resp = if let Some((code, detail)) = agg.err {
        err(code, detail)
    } else {
        match agg.kind {
            AggKind::Scrub => Response::ScrubOk { lines: agg.lines },
            AggKind::Flush => Response::FlushOk,
            AggKind::Report => {
                let parts: Vec<String> = agg
                    .reports
                    .into_iter()
                    .map(|r| r.expect("all shards reported"))
                    .collect();
                Response::ReportOk {
                    json: format!("[{}]", parts.join(",")),
                }
            }
        }
    };
    push_response(shared, conn, conn_seq, &resp);
}

/// Take the engine out of the shared slot and reclaim sole ownership.
/// Converges because every other holder is a sweep-scoped clone; the
/// calling lane must have dropped its own ([`Lane::svc`]) first.
fn take_service(shared: &Shared) -> Option<EngineService> {
    let taken = shared.service.write().expect("service lock").take()?;
    let mut arc = taken;
    let mut parker = Backoff::new();
    loop {
        match Arc::try_unwrap(arc) {
            Ok(svc) => return Some(svc),
            Err(back) => {
                arc = back;
                parker.wait();
            }
        }
    }
}

/// A `Reset` decoded this sweep; torn down after the lane drops its
/// sweep-scoped engine handle.
#[derive(Debug)]
struct DeferredReset {
    conn: u64,
    conn_seq: u64,
}

/// One event-loop lane. Its connections live beside it, in a [`Conns`]
/// the lane's loop owns: every method here borrows the lane and one
/// connection at once, and mutates the connection where it sits.
struct Lane {
    lane: usize,
    shared: Arc<Shared>,
    /// New connections lane 0 dealt to this lane.
    inbox: Receiver<TcpStream>,
    deferred: Vec<DeferredReset>,
    progress: bool,
    /// This sweep's engine handle: taken once at the top of the sweep (and
    /// by a `Hello` that finds or creates the engine), dropped before any
    /// teardown.
    svc: Option<Arc<EngineService>>,
    /// Socket read buffer, shared by the lane's connections.
    chunk: Vec<u8>,
}

impl Lane {
    fn new(lane: usize, shared: Arc<Shared>, inbox: Receiver<TcpStream>) -> Lane {
        Lane {
            lane,
            shared,
            inbox,
            deferred: Vec::new(),
            progress: false,
            svc: None,
            chunk: vec![0; READ_CHUNK],
        }
    }

    /// Take this sweep's engine handle from the shared slot.
    fn take_handle(&mut self) {
        self.svc = self
            .shared
            .service
            .read()
            .expect("service lock")
            .as_ref()
            .map(Arc::clone);
    }

    fn adopt(&mut self, conns: &mut Conns, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let serial = self.shared.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        if conns.adopt(serial, stream).is_some() {
            self.shared.active.fetch_add(1, Ordering::Relaxed);
            self.progress = true;
        }
    }

    /// Count one more submission in flight, *before* the engine sees it,
    /// so the drain check never observes a request that is in a queue but
    /// not yet counted.
    fn count_in_flight(&self, conn: &mut Conn) {
        conn.live += 1;
        self.shared.in_flight.fetch_add(1, Ordering::Release);
    }

    fn on_hello(&mut self, conn: &mut Conn, conn_seq: u64, h: Hello) {
        if self.shared.draining.load(Ordering::Acquire) {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(ErrorCode::NotReady, "server is draining"),
            );
            return;
        }
        let cache_policy = match check_hello(&self.shared.opts, &h) {
            Ok(policy) => policy,
            Err(detail) => {
                push_response(
                    &self.shared,
                    conn,
                    conn_seq,
                    &err(ErrorCode::BadPayload, detail),
                );
                return;
            }
        };
        let mut geo = self.shared.geometry.lock().expect("geometry lock");
        let resp = match geo.as_ref() {
            Some(g) => {
                if g.line_size == h.line_size
                    && g.lines == h.lines
                    && g.expected_writes == h.expected_writes
                    && g.cache_policy == cache_policy
                    && g.app == h.app
                {
                    Ok(g.slots_per_shard)
                } else {
                    Err(err(
                        ErrorCode::ConfigMismatch,
                        format!(
                            "engine serves app '{}' ({} lines of {}B, {} expected writes, \
                             {} cache); reset before changing the workload",
                            g.app, g.lines, g.line_size, g.expected_writes, g.cache_policy
                        ),
                    ))
                }
            }
            None => {
                let opts = &self.shared.opts;
                let mut config = EngineConfig::for_workload(
                    opts.shards,
                    h.line_size as usize,
                    h.lines,
                    h.expected_writes,
                );
                config.queue_depth = opts.queue_depth;
                config.cache_policy = cache_policy;
                config.persist_epoch = opts.persist_epoch;
                config.persist_sync = opts.persist_sync;
                config.persist_dir = opts.persist_dir.as_ref().map(|root| {
                    root.join(format!(
                        "gen-{:04}",
                        self.shared.generation.load(Ordering::Acquire)
                    ))
                });
                let lane_capacity = opts.queue_depth.max(4096);
                let svc = EngineService::start(&config, &h.app, self.shared.lanes, lane_capacity);
                *self.shared.service.write().expect("service lock") = Some(Arc::new(svc));
                *geo = Some(Geometry {
                    line_size: h.line_size,
                    lines: h.lines,
                    expected_writes: h.expected_writes,
                    cache_policy,
                    app: h.app.clone(),
                    slots_per_shard: config.slots_per_shard,
                });
                Ok(config.slots_per_shard)
            }
        };
        drop(geo);
        match resp {
            Ok(slots_per_shard) => {
                if self.svc.is_none() {
                    // The engine was created during this sweep.
                    self.take_handle();
                }
                conn.session = Some(Session {
                    generation: self.shared.generation.load(Ordering::Acquire),
                    line_size: h.line_size,
                    lines: h.lines,
                });
                // The chunk that carried this `Hello` may have been read
                // before the engine (and its clock) existed.
                conn.arrived_ns = self.svc.as_deref().map_or(0, EngineService::elapsed_ns);
                push_response(
                    &self.shared,
                    conn,
                    conn_seq,
                    &Response::HelloOk {
                        version: NET_VERSION,
                        shards: self.shared.opts.shards as u32,
                        window: self.shared.opts.window,
                        line_size: h.line_size,
                        lines: h.lines,
                        slots_per_shard,
                    },
                );
            }
            Err(e) => push_response(&self.shared, conn, conn_seq, &e),
        }
    }

    fn on_data(&self, conn: &mut Conn, conn_seq: u64, req: RequestRef<'_>) {
        let Some(session) = conn.session else {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(
                    ErrorCode::NotReady,
                    "handshake first: no Hello on this connection",
                ),
            );
            return;
        };
        if session.generation != self.shared.generation.load(Ordering::Acquire) {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(
                    ErrorCode::NotReady,
                    "session predates a reset; handshake again",
                ),
            );
            return;
        }
        let Some(svc) = self.svc.as_deref() else {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(ErrorCode::NotReady, "no engine; handshake again"),
            );
            return;
        };
        let (addr, shard_seq, gap, data) = match req {
            RequestRef::Write {
                addr,
                shard_seq,
                gap,
                data,
            } => (addr, shard_seq, gap, Some(data)),
            RequestRef::Read {
                addr,
                shard_seq,
                gap,
            } => (addr, shard_seq, gap, None),
            _ => unreachable!("on_data only sees Write/Read"),
        };
        if let Some(data) = data.filter(|d| d.len() != session.line_size as usize) {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(
                    ErrorCode::BadPayload,
                    format!(
                        "write of {} bytes against a {}-byte line size",
                        data.len(),
                        session.line_size
                    ),
                ),
            );
            return;
        }
        if addr >= session.lines {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(
                    ErrorCode::BadPayload,
                    format!("address {addr} outside the {}-line space", session.lines),
                ),
            );
            return;
        }
        if shard_seq == CONTROL_SEQ {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(
                    ErrorCode::BadPayload,
                    "shard_seq reserves u64::MAX for control",
                ),
            );
            return;
        }
        let addr = LineAddr::new(addr);
        let op = DataOp {
            shard: shard_of_line(addr, svc.shards()),
            seq: shard_seq,
            lane: self.lane,
            conn: conn.id,
            conn_seq,
            issued_ns: conn.arrived_ns,
            addr,
            gap,
            data,
        };
        self.count_in_flight(conn);
        svc.apply(&op);
    }

    fn on_control(&self, conn: &mut Conn, conn_seq: u64, kind: AggKind) {
        let Some(svc) = self.svc.as_deref() else {
            push_response(
                &self.shared,
                conn,
                conn_seq,
                &err(ErrorCode::NotReady, "no engine; handshake first"),
            );
            return;
        };
        let shards = svc.shards();
        conn.aggregates.insert(
            conn_seq,
            Aggregate {
                kind,
                remaining: shards,
                lines: 0,
                reports: vec![None; shards],
                err: None,
            },
        );
        let op = match kind {
            AggKind::Scrub => ServiceOp::Scrub,
            AggKind::Flush => ServiceOp::Flush,
            AggKind::Report => ServiceOp::Report,
        };
        for shard in 0..shards {
            let request = ServiceRequest {
                shard,
                seq: CONTROL_SEQ,
                lane: self.lane,
                conn: conn.id,
                conn_seq,
                issued_ns: conn.arrived_ns,
                op: op.clone(),
            };
            self.count_in_flight(conn);
            // Never `Err`: the service takes every request.
            let _ = svc.try_submit(request);
        }
    }

    fn on_stats(&self, conn: &mut Conn, conn_seq: u64) {
        let shards = if self.svc.is_some() {
            self.shared.opts.shards as u32
        } else {
            0
        };
        let resp = Response::StatsOk {
            shards,
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
            ops: self.shared.ops.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            uptime_ns: self.shared.start.elapsed().as_nanos() as u64,
        };
        push_response(&self.shared, conn, conn_seq, &resp);
    }

    fn handle_request(&mut self, conn: &mut Conn, req: RequestRef<'_>) {
        let conn_seq = conn.next_assign;
        conn.next_assign += 1;
        match req {
            RequestRef::Hello(h) => self.on_hello(conn, conn_seq, h),
            RequestRef::Write { .. } | RequestRef::Read { .. } => {
                self.on_data(conn, conn_seq, req);
            }
            RequestRef::Scrub => self.on_control(conn, conn_seq, AggKind::Scrub),
            RequestRef::Flush => self.on_control(conn, conn_seq, AggKind::Flush),
            RequestRef::Report => self.on_control(conn, conn_seq, AggKind::Report),
            RequestRef::Stats => self.on_stats(conn, conn_seq),
            RequestRef::Reset => self.deferred.push(DeferredReset {
                conn: conn.id,
                conn_seq,
            }),
            RequestRef::Shutdown => {
                push_response(&self.shared, conn, conn_seq, &Response::ShutdownOk);
                self.shared.draining.store(true, Ordering::Release);
            }
        }
    }

    /// Read the socket once and decode frames up to the window gate. A
    /// short read has drained the socket; a full chunk counts as progress,
    /// so the next sweep comes straight back for the rest.
    fn read_and_decode(&mut self, conn: &mut Conn) {
        if conn.rbuf.len() < MAX_RBUF {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    conn.open = false;
                    self.progress = true;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    if let Some(svc) = self.svc.as_deref() {
                        conn.arrived_ns = svc.elapsed_ns();
                    }
                    self.progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => self.progress = true,
                Err(_) => conn.open = false,
            }
        }
        let window = u64::from(self.shared.opts.window);
        // Decoded requests borrow from the receive buffer while the
        // connection they belong to is updated, so the buffer leaves the
        // connection for the loop.
        let rbuf = std::mem::take(&mut conn.rbuf);
        let mut off = 0usize;
        while conn.open && !conn.fatal {
            if conn.unanswered() >= window {
                break;
            }
            // Once draining, no new work enters the engine — `in_flight`
            // only falls, so the teardown check can't be outrun.
            if self.shared.draining.load(Ordering::Acquire) {
                break;
            }
            let step = match proto::next_frame(&rbuf[off..]) {
                Ok(FrameEvent::Incomplete) => None,
                Ok(FrameEvent::Frame { payload, consumed }) => {
                    Some((proto::decode_request_ref(payload), consumed))
                }
                Err(fe) => {
                    // The stream can't be trusted past this point: send
                    // one error outside the conn_seq order and close.
                    conn.wbuf.extend_from_slice(&proto::encode_response(&err(
                        ErrorCode::BadFrame,
                        fe.to_string(),
                    )));
                    self.shared.errors.fetch_add(1, Ordering::Relaxed);
                    conn.fatal = true;
                    None
                }
            };
            let Some((decoded, consumed)) = step else {
                break;
            };
            off += consumed;
            self.progress = true;
            match decoded {
                Ok(req) => self.handle_request(conn, req),
                Err((code, detail)) => {
                    let conn_seq = conn.next_assign;
                    conn.next_assign += 1;
                    push_response(&self.shared, conn, conn_seq, &err(code, detail));
                }
            }
        }
        conn.rbuf = rbuf;
        conn.rbuf.drain(..off);
    }

    fn flush(&mut self, conn: &mut Conn) {
        while conn.open && conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => conn.open = false,
                Ok(n) => {
                    conn.wpos += n;
                    self.progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => conn.open = false,
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.fatal {
                conn.open = false;
            }
        }
    }

    fn on_completion(&mut self, conns: &mut Conns, c: Completion) {
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        let Some(conn) = conns.get_mut(c.conn) else {
            return;
        };
        let shared = &*self.shared;
        conn.live -= 1;
        self.progress = true;
        match c.body {
            CompletionBody::Write { eliminated, sim_ns } => {
                shared.ops.fetch_add(1, Ordering::Relaxed);
                push_response(
                    shared,
                    conn,
                    c.conn_seq,
                    &Response::WriteOk { eliminated, sim_ns },
                );
            }
            CompletionBody::Read { sim_ns } => {
                shared.ops.fetch_add(1, Ordering::Relaxed);
                push_response(shared, conn, c.conn_seq, &Response::ReadOk { sim_ns });
            }
            CompletionBody::Rejected(msg) => {
                push_response(shared, conn, c.conn_seq, &err(ErrorCode::Overloaded, msg));
            }
            CompletionBody::Scrub(res) => {
                if let Some(agg) = conn.aggregates.get_mut(&c.conn_seq) {
                    match res {
                        Ok(n) => agg.lines += n,
                        Err(e) => {
                            agg.err =
                                Some((ErrorCode::ScrubFailed, format!("shard {}: {e}", c.shard)))
                        }
                    }
                    agg.remaining -= 1;
                }
                finish_aggregate(shared, conn, c.conn_seq);
            }
            CompletionBody::Flush(res) => {
                if let Some(agg) = conn.aggregates.get_mut(&c.conn_seq) {
                    if let Err(e) = res {
                        agg.err =
                            Some((ErrorCode::Internal, format!("shard {} flush: {e}", c.shard)));
                    }
                    agg.remaining -= 1;
                }
                finish_aggregate(shared, conn, c.conn_seq);
            }
            CompletionBody::Report(json) => {
                if let Some(agg) = conn.aggregates.get_mut(&c.conn_seq) {
                    agg.reports[c.shard] = Some(json);
                    agg.remaining -= 1;
                }
                finish_aggregate(shared, conn, c.conn_seq);
            }
        }
    }

    /// `Reset`s decoded this sweep, torn down after every transient
    /// service clone on this lane is gone.
    fn run_deferred(&mut self, conns: &mut Conns) {
        if self.deferred.is_empty() {
            return;
        }
        for d in std::mem::take(&mut self.deferred) {
            let resp = if self.shared.in_flight.load(Ordering::Acquire) != 0 {
                err(
                    ErrorCode::NotReady,
                    "operations in flight; quiesce before reset",
                )
            } else {
                if let Some(svc) = take_service(&self.shared) {
                    // Graceful teardown: flush + checkpoint; the run
                    // itself is discarded (the client collected its
                    // reports before resetting).
                    let _ = svc.shutdown();
                }
                *self.shared.geometry.lock().expect("geometry lock") = None;
                self.shared.generation.fetch_add(1, Ordering::Release);
                Response::ResetOk
            };
            if let Some(conn) = conns.get_mut(d.conn) {
                push_response(&self.shared, conn, d.conn_seq, &resp);
            }
            self.progress = true;
        }
    }

    /// Drop connections that are closed and have nothing in the engine.
    fn reap(&mut self, conns: &mut Conns) {
        let reaped = conns.reap();
        if reaped > 0 {
            self.shared.active.fetch_sub(reaped, Ordering::Relaxed);
            self.progress = true;
        }
    }

    /// One pass over the connections: submit whatever the sockets hold,
    /// collect this lane's completions — which the submits just produced,
    /// so a request is answered in the sweep that read it — and write the
    /// responses out.
    fn sweep_conns(&mut self, conns: &mut Conns) {
        for conn in conns.iter_mut() {
            if conn.open && !conn.fatal {
                self.read_and_decode(conn);
            }
        }
        if let Some(svc) = self.svc.clone() {
            while let Some(c) = svc.try_complete(self.lane) {
                self.on_completion(conns, c);
            }
        }
        for conn in conns.iter_mut() {
            self.flush(conn);
        }
    }
}

/// Any response bytes still owed to a live socket?
fn unflushed(conns: &Conns) -> bool {
    conns
        .iter()
        .any(|c| c.open && (c.wpos < c.wbuf.len() || (c.parked_count > 0 && c.live == 0)))
}

/// Lane 0's accept side: the listener, and every lane's inbox sender.
struct Acceptor {
    listener: TcpListener,
    inboxes: Vec<Sender<TcpStream>>,
}

fn run_lane(mut lane: Lane, acceptor: Option<Acceptor>) {
    let mut conns = Conns::default();
    let mut parker = Backoff::new();
    let mut deal = 0usize;
    let mut linger: Option<Instant> = None;
    let mut since_accept = ACCEPT_EVERY;
    loop {
        let was_idle = !lane.progress;
        lane.progress = false;

        if lane.shared.abort.load(Ordering::Acquire) {
            if lane.lane == 0 {
                if let Some(svc) = take_service(&lane.shared) {
                    svc.abort();
                }
                lane.shared.shutdown.store(true, Ordering::Release);
            }
            return;
        }

        // Lane 0 accepts and deals connections round-robin — after an idle
        // sweep, and at least every `ACCEPT_EVERY`th sweep however busy.
        since_accept += 1;
        if let Some(a) = acceptor
            .as_ref()
            .filter(|_| was_idle || since_accept >= ACCEPT_EVERY)
        {
            since_accept = 0;
            while !lane.shared.draining.load(Ordering::Acquire) {
                match a.listener.accept() {
                    Ok((stream, _)) => {
                        // A send fails only once the target lane has
                        // exited, and the stream is then dropped.
                        let _ = a.inboxes[deal % a.inboxes.len()].send(stream);
                        deal += 1;
                        lane.progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        while let Ok(stream) = lane.inbox.try_recv() {
            lane.adopt(&mut conns, stream);
        }

        lane.take_handle();
        lane.sweep_conns(&mut conns);
        lane.svc = None;
        lane.reap(&mut conns);
        lane.run_deferred(&mut conns);

        // Graceful drain: once everything in flight has completed, lane 0
        // tears the engine down and flips the shutdown flag.
        if lane.lane == 0
            && lane.shared.draining.load(Ordering::Acquire)
            && !lane.shared.shutdown.load(Ordering::Acquire)
            && lane.shared.in_flight.load(Ordering::Acquire) == 0
        {
            if let Some(svc) = take_service(&lane.shared) {
                let run = svc.shutdown();
                *lane.shared.final_run.lock().expect("final run lock") = Some(run);
            }
            lane.shared.shutdown.store(true, Ordering::Release);
            lane.progress = true;
        }

        if lane.shared.shutdown.load(Ordering::Acquire) {
            let since = *linger.get_or_insert_with(Instant::now);
            if !unflushed(&conns) || since.elapsed() > LINGER {
                return;
            }
        }

        if lane.progress {
            parker.reset();
        } else {
            parker.wait();
        }
    }
}

/// A handle for poking a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Kill the server and its engine **without** flushing the open WAL
    /// epoch or taking a checkpoint — the crash-recovery tests' kill
    /// switch. On-disk state is whatever the epoch log had already
    /// flushed.
    pub fn abort(&self) {
        self.shared.abort.store(true, Ordering::Release);
    }
}

/// A running server: lanes spawned, listener live.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind the listener and spawn the event-loop lanes.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listen address.
    pub fn bind(opts: ServeOptions) -> io::Result<NetServer> {
        assert!(opts.shards > 0, "need at least one shard");
        assert!(opts.window > 0, "need a non-zero window");
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = if opts.threads > 0 {
            opts.threads
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        };
        let shared = Arc::new(Shared::new(opts, threads));
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..threads).map(|_| mpsc::channel()).unzip();
        let mut acceptor = Some(Acceptor { listener, inboxes });
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                let lane = Lane::new(i, Arc::clone(&shared), inbox);
                let acceptor = acceptor.take();
                std::thread::spawn(move || run_lane(lane, acceptor))
            })
            .collect();
        Ok(NetServer {
            addr,
            shared,
            handles,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for aborting from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Wait for the server to shut down (a client's `Shutdown`, or
    /// [`ServerHandle::abort`]) and collect the outcome.
    ///
    /// # Panics
    ///
    /// Panics if a lane thread panicked.
    pub fn join(self) -> ServeOutcome {
        for h in self.handles {
            h.join().expect("server lane panicked");
        }
        let run = self.shared.final_run.lock().expect("final run lock").take();
        ServeOutcome {
            run,
            aborted: self.shared.abort.load(Ordering::Acquire),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            ops: self.shared.ops.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: (the server's end, the client's end).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    fn read_done(conn: u64) -> Completion {
        Completion {
            shard: 0,
            conn,
            conn_seq: 0,
            body: CompletionBody::Read { sim_ns: 77 },
        }
    }

    // The lane only reaps a drained connection, so a completion can name a
    // connection that is gone only if that invariant ever breaks; when it
    // does, the tag must miss the slot's next occupant rather than answer
    // it with someone else's response.
    #[test]
    fn completion_for_a_reaped_connection_misses_the_slots_new_occupant() {
        let shared = Arc::new(Shared::new(ServeOptions::default(), 1));
        let mut lane = Lane::new(0, Arc::clone(&shared), mpsc::channel().1);
        let mut conns = Conns::default();

        let (a, _a_client) = socket_pair();
        lane.adopt(&mut conns, a);
        let old = conns.iter().next().expect("seated").id;
        // A's request is still inside the engine when A goes away.
        shared.in_flight.fetch_add(1, Ordering::Release);
        conns.get_mut(old).expect("seated").open = false;
        lane.reap(&mut conns);
        assert!(conns.get_mut(old).is_none(), "a reaped tag finds nobody");
        assert_eq!(shared.active.load(Ordering::Relaxed), 0);

        let (b, _b_client) = socket_pair();
        lane.adopt(&mut conns, b);
        let new = conns.iter().next().expect("seated").id;
        let slot_of = |tag: u64| tag & ((1 << SLOT_BITS) - 1);
        assert_eq!(slot_of(new), slot_of(old), "B took over A's slot");
        assert_ne!(new, old);
        conns.get_mut(new).expect("seated").live = 1;
        shared.in_flight.fetch_add(1, Ordering::Release);

        // A's completion surfaces: counted out of `in_flight`, otherwise
        // dropped — B is not answered, not advanced, not un-counted.
        lane.on_completion(&mut conns, read_done(old));
        let b = conns.get_mut(new).expect("seated");
        assert_eq!((b.live, b.next_emit, b.wbuf.len()), (1, 0, 0));
        assert_eq!(shared.in_flight.load(Ordering::Acquire), 1);
        assert_eq!(shared.ops.load(Ordering::Relaxed), 0);

        // B's own completion routes by the same tag scheme.
        b.next_assign = 1;
        lane.on_completion(&mut conns, read_done(new));
        let b = conns.get_mut(new).expect("seated");
        assert_eq!((b.live, b.next_emit), (0, 1));
        assert!(!b.wbuf.is_empty(), "B's response is encoded in place");
        assert_eq!(shared.in_flight.load(Ordering::Acquire), 0);
        assert_eq!(shared.ops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tags_are_unique_per_accept_and_slots_are_reused_lowest_first() {
        let mut conns = Conns::default();
        let mut keep = Vec::new();
        let mut tags = Vec::new();
        for serial in 1..=3u64 {
            let (s, c) = socket_pair();
            keep.push(c);
            tags.push(conns.adopt(serial, s).expect("room"));
        }
        assert_eq!(
            tags,
            [1 << SLOT_BITS, 2 << SLOT_BITS | 1, 3 << SLOT_BITS | 2]
        );
        conns.get_mut(tags[1]).expect("seated").open = false;
        assert_eq!(conns.reap(), 1);
        let (s, c) = socket_pair();
        keep.push(c);
        let reused = conns.adopt(4, s).expect("room");
        assert_eq!(reused, 4 << SLOT_BITS | 1, "the freed slot is taken first");
        assert!(conns.get_mut(tags[1]).is_none());
        assert!(conns.get_mut(reused).is_some());
        // A tag whose slot was never seated finds nobody either.
        assert!(conns.get_mut(9 << SLOT_BITS | 7).is_none());
    }
}
