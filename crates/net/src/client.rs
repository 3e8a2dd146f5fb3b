//! Socket clients for the served engine: a blocking [`Control`]
//! connection for RPC-style control operations, and [`drive`] — the
//! multi-connection data-phase driver behind `loadgen --net`.
//!
//! # The determinism contract
//!
//! [`drive`] walks the trace once in order, stamping each record with
//! its **per-shard sequence number** and dealing records round-robin
//! across connections (record `i` rides connection `i mod connections`).
//! The server's shards reassemble their exact trace
//! subsequence from the in-band sequence numbers, so the replay's merged
//! simulated report is bit-identical to the in-process run for *any*
//! connection count, thread count, or socket interleaving. Host-side
//! measurements (end-to-end latency, wall clock) live in [`NetSummary`],
//! quarantined from the simulated report.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use dewrite_engine::Backoff;
use dewrite_mem::LatencyHistogram;
use dewrite_trace::{shard_of_line, TraceOp, TraceRecord};

use crate::proto::{self, FrameEvent, Hello, Request, Response};

/// What the server answered a handshake with.
#[derive(Debug, Clone, Copy)]
pub struct HelloInfo {
    /// Shard count the engine runs with.
    pub shards: usize,
    /// Per-connection in-flight window the server enforces.
    pub window: u32,
    /// Line size in bytes.
    pub line_size: u32,
    /// Workload-visible line space.
    pub lines: u64,
    /// Arena slots per shard the engine was sized with.
    pub slots_per_shard: u64,
}

/// Host-side counters the server reports through `Stats`.
#[derive(Debug, Clone, Copy)]
pub struct NetStats {
    /// Shard count (0 before the first handshake).
    pub shards: u32,
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Data operations completed.
    pub ops: u64,
    /// Typed error responses sent.
    pub errors: u64,
    /// Nanoseconds since the server started.
    pub uptime_ns: u64,
}

fn refused(what: &str, resp: Response) -> io::Error {
    match resp {
        Response::Error { code, detail } => {
            io::Error::other(format!("{what} refused ({code:?}): {detail}"))
        }
        other => io::Error::other(format!("unexpected {what} response: {other:?}")),
    }
}

/// Read one CRC-verified response frame from a blocking stream,
/// consuming it from `rbuf`.
fn read_response(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> io::Result<Response> {
    loop {
        let step = match proto::next_frame(rbuf) {
            Ok(FrameEvent::Incomplete) => None,
            Ok(FrameEvent::Frame { payload, consumed }) => {
                Some((proto::decode_response(payload), consumed))
            }
            Err(fe) => return Err(io::Error::other(fe.to_string())),
        };
        if let Some((resp, consumed)) = step {
            rbuf.drain(..consumed);
            return resp.map_err(io::Error::other);
        }
        let mut tmp = [0u8; 16 * 1024];
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        rbuf.extend_from_slice(&tmp[..n]);
    }
}

/// Connect and handshake; the stream comes back still in blocking mode.
fn handshake(addr: &str, hello: &Hello) -> io::Result<(TcpStream, Vec<u8>, HelloInfo)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&proto::encode_request(&Request::Hello(hello.clone())))?;
    let mut rbuf = Vec::new();
    match read_response(&mut stream, &mut rbuf)? {
        Response::HelloOk {
            shards,
            window,
            line_size,
            lines,
            slots_per_shard,
            ..
        } => Ok((
            stream,
            rbuf,
            HelloInfo {
                shards: shards as usize,
                window,
                line_size,
                lines,
                slots_per_shard,
            },
        )),
        other => Err(refused("handshake", other)),
    }
}

/// Ask a server to drain and exit without handshaking first — no engine
/// generation is created if none exists yet.
///
/// # Errors
///
/// Socket errors or a typed server error.
pub fn request_shutdown(addr: &str) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&proto::encode_request(&Request::Shutdown))?;
    let mut rbuf = Vec::new();
    match read_response(&mut stream, &mut rbuf)? {
        Response::ShutdownOk => Ok(()),
        other => Err(refused("shutdown", other)),
    }
}

/// A blocking control connection: one request, one response, in order.
#[derive(Debug)]
pub struct Control {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl Control {
    /// Connect, handshake, and return the session geometry. The first
    /// `Hello` a fresh server (or generation) sees creates the engine.
    ///
    /// # Errors
    ///
    /// Socket errors, a refused handshake, or a protocol violation.
    pub fn connect(addr: &str, hello: &Hello) -> io::Result<(Control, HelloInfo)> {
        let (stream, rbuf, info) = handshake(addr, hello)?;
        Ok((Control { stream, rbuf }, info))
    }

    fn rpc(&mut self, req: &Request) -> io::Result<Response> {
        self.stream.write_all(&proto::encode_request(req))?;
        read_response(&mut self.stream, &mut self.rbuf)
    }

    /// Cross-table consistency scrub on every shard; total resident
    /// lines checked.
    ///
    /// # Errors
    ///
    /// Socket errors or a typed server error (e.g. `ScrubFailed`).
    pub fn scrub(&mut self) -> io::Result<u64> {
        match self.rpc(&Request::Scrub)? {
            Response::ScrubOk { lines } => Ok(lines),
            other => Err(refused("scrub", other)),
        }
    }

    /// Flush WAL epochs and checkpoint every shard.
    ///
    /// # Errors
    ///
    /// Socket errors or a typed server error.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.rpc(&Request::Flush)? {
            Response::FlushOk => Ok(()),
            other => Err(refused("flush", other)),
        }
    }

    /// The per-shard simulated reports as one JSON array in shard order
    /// — the server's exact per-shard texts, for bit-identity checks.
    ///
    /// # Errors
    ///
    /// Socket errors or a typed server error.
    pub fn report(&mut self) -> io::Result<String> {
        match self.rpc(&Request::Report)? {
            Response::ReportOk { json } => Ok(json),
            other => Err(refused("report", other)),
        }
    }

    /// Host-side server counters.
    ///
    /// # Errors
    ///
    /// Socket errors or a typed server error.
    pub fn stats(&mut self) -> io::Result<NetStats> {
        match self.rpc(&Request::Stats)? {
            Response::StatsOk {
                shards,
                accepted,
                active,
                ops,
                errors,
                uptime_ns,
            } => Ok(NetStats {
                shards,
                accepted,
                active,
                ops,
                errors,
                uptime_ns,
            }),
            other => Err(refused("stats", other)),
        }
    }

    /// Tear the engine down (drain + flush + checkpoint); the next
    /// `Hello` builds a fresh generation.
    ///
    /// # Errors
    ///
    /// Socket errors or `NotReady` when operations are still in flight.
    pub fn reset(&mut self) -> io::Result<()> {
        match self.rpc(&Request::Reset)? {
            Response::ResetOk => Ok(()),
            other => Err(refused("reset", other)),
        }
    }

    /// Ask the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Socket errors or a typed server error.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.rpc(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(refused("shutdown", other)),
        }
    }
}

/// How [`drive`] issues operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop: each connection keeps its window full.
    Closed,
    /// Open loop: record `i` may not go out before `i / ops_per_sec`
    /// seconds into the data phase (and still waits for room in its
    /// connection's window).
    Open {
        /// Target issue rate over all connections, operations per second.
        ops_per_sec: f64,
    },
}

/// Data-phase driver configuration.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Server address.
    pub addr: String,
    /// Data connections to open.
    pub connections: usize,
    /// Per-connection in-flight window (clamped to the server's).
    pub window: usize,
    /// Client threads; 0 picks `min(connections, parallelism)`.
    pub threads: usize,
    /// Closed loop (fill the window) or open loop (fixed global rate).
    pub pacing: Pacing,
}

/// What one socket-driven data phase measured — host-side only,
/// quarantined from the simulated report.
#[derive(Debug)]
pub struct NetSummary {
    /// Operations acknowledged.
    pub ops: u64,
    /// Wall-clock duration of the data phase, ns.
    pub wall_ns: u64,
    /// Data connections used.
    pub connections: usize,
    /// Per-connection window used.
    pub window: usize,
    /// Typed error responses received (0 on a healthy run).
    pub errors: u64,
    /// End-to-end issue → response latency across all connections.
    pub host_latency: LatencyHistogram,
}

impl NetSummary {
    /// Host throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// One data connection's pre-encoded sendable stream.
struct DataConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Encoded request frames, in this connection's issue order.
    frames: Vec<Vec<u8>>,
    /// Open-loop issue offsets (ns since phase start), parallel to
    /// `frames`; empty for closed loop.
    sched: Vec<u64>,
    cursor: usize,
    recv: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    issued: VecDeque<Instant>,
}

impl DataConn {
    fn done(&self) -> bool {
        self.recv == self.frames.len()
    }
}

struct ThreadSummary {
    ops: u64,
    errors: u64,
    host_latency: LatencyHistogram,
}

/// Drive `records` through the server and measure end to end.
///
/// Every connection handshakes with the same `hello` (the first one on a
/// fresh server creates the engine). Call this once per engine
/// generation: sequence numbers start at 0, so replaying without a
/// `Reset` in between would collide with the already-applied sequences.
///
/// # Errors
///
/// Socket errors, refused handshakes, protocol violations, or a
/// geometry mismatch between the server's handshake reply and `hello`.
///
/// # Panics
///
/// Panics if `connections` is 0 or a client thread panicked.
pub fn drive(
    opts: &DriveOptions,
    hello: &Hello,
    records: &[TraceRecord],
) -> io::Result<NetSummary> {
    assert!(opts.connections > 0, "need at least one connection");

    // Handshake every connection up front (outside the timed phase).
    let mut conns: Vec<DataConn> = Vec::with_capacity(opts.connections);
    let mut window = opts.window.max(1);
    let mut shards = 1usize;
    for c in 0..opts.connections {
        let (stream, rbuf, info) = handshake(&opts.addr, hello)?;
        if c == 0 {
            window = window.min(info.window as usize).max(1);
            shards = info.shards;
        }
        if info.line_size != hello.line_size || info.lines != hello.lines {
            return Err(io::Error::other(format!(
                "server geometry {}x{}B disagrees with the requested {}x{}B",
                info.lines, info.line_size, hello.lines, hello.line_size
            )));
        }
        conns.push(DataConn {
            stream,
            rbuf,
            frames: Vec::new(),
            sched: Vec::new(),
            cursor: 0,
            recv: 0,
            wbuf: Vec::new(),
            wpos: 0,
            issued: VecDeque::new(),
        });
    }
    // Stamp per-shard sequence numbers in trace order and deal records
    // round-robin across connections.
    let mut seqs = vec![0u64; shards];
    for (i, rec) in records.iter().enumerate() {
        let shard = shard_of_line(rec.op.addr(), shards);
        let shard_seq = seqs[shard];
        seqs[shard] += 1;
        let req = match &rec.op {
            TraceOp::Write { addr, data } => Request::Write {
                addr: addr.index(),
                shard_seq,
                gap: rec.gap_instructions,
                data: data.clone(),
            },
            TraceOp::Read { addr } => Request::Read {
                addr: addr.index(),
                shard_seq,
                gap: rec.gap_instructions,
            },
        };
        let conn = &mut conns[i % opts.connections];
        conn.frames.push(proto::encode_request(&req));
        if let Pacing::Open { ops_per_sec } = opts.pacing {
            conn.sched.push((i as f64 * 1e9 / ops_per_sec) as u64);
        }
    }
    for conn in &mut conns {
        conn.stream.set_nonblocking(true)?;
    }

    // Deal connections round-robin to client threads and sweep.
    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }
    .clamp(1, opts.connections);
    let mut lots: Vec<Vec<DataConn>> = (0..threads).map(|_| Vec::new()).collect();
    for (c, conn) in conns.into_iter().enumerate() {
        lots[c % threads].push(conn);
    }
    let start = Instant::now();
    let workers: Vec<std::thread::JoinHandle<io::Result<ThreadSummary>>> = lots
        .into_iter()
        .map(|lot| std::thread::spawn(move || sweep_loop(lot, window, start)))
        .collect();

    let mut ops = 0u64;
    let mut errors = 0u64;
    let mut host_latency = LatencyHistogram::new();
    for w in workers {
        let s = w.join().expect("client thread panicked")?;
        ops += s.ops;
        errors += s.errors;
        host_latency.merge(&s.host_latency);
    }
    Ok(NetSummary {
        ops,
        wall_ns: start.elapsed().as_nanos() as u64,
        connections: opts.connections,
        window,
        errors,
        host_latency,
    })
}

/// Sweep one thread's connections until every frame is answered.
fn sweep_loop(mut lot: Vec<DataConn>, window: usize, start: Instant) -> io::Result<ThreadSummary> {
    let mut sum = ThreadSummary {
        ops: 0,
        errors: 0,
        host_latency: LatencyHistogram::new(),
    };
    let mut parker = Backoff::new();
    loop {
        let mut progress = false;
        let mut all_done = true;
        for conn in &mut lot {
            if conn.done() {
                continue;
            }
            all_done = false;
            progress |= sweep_conn(conn, window, start, &mut sum)?;
        }
        if all_done {
            return Ok(sum);
        }
        if progress {
            parker.reset();
        } else {
            parker.wait();
        }
    }
}

fn sweep_conn(
    conn: &mut DataConn,
    window: usize,
    start: Instant,
    sum: &mut ThreadSummary,
) -> io::Result<bool> {
    let mut progress = false;

    // Issue: move frames into the write buffer up to the window (and,
    // open loop, up to the schedule).
    let now_ns = start.elapsed().as_nanos() as u64;
    while conn.cursor < conn.frames.len() && conn.issued.len() < window {
        if !conn.sched.is_empty() && conn.sched[conn.cursor] > now_ns {
            break;
        }
        conn.wbuf.extend_from_slice(&conn.frames[conn.cursor]);
        conn.issued.push_back(Instant::now());
        conn.cursor += 1;
        progress = true;
    }

    // Flush.
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "server closed the connection mid-phase",
                ))
            }
            Ok(n) => {
                conn.wpos += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }

    // Read.
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-phase",
                ))
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&tmp[..n]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    // Decode: responses arrive strictly in this connection's request
    // order, so each one answers the oldest issued frame.
    let mut off = 0usize;
    loop {
        let step = match proto::next_frame(&conn.rbuf[off..]) {
            Ok(FrameEvent::Incomplete) => None,
            Ok(FrameEvent::Frame { payload, consumed }) => {
                Some((proto::decode_response(payload), consumed))
            }
            Err(fe) => return Err(io::Error::other(fe.to_string())),
        };
        let Some((resp, consumed)) = step else { break };
        off += consumed;
        let resp = resp.map_err(io::Error::other)?;
        let issued = conn
            .issued
            .pop_front()
            .ok_or_else(|| io::Error::other("response without an outstanding request"))?;
        sum.host_latency.record(issued.elapsed().as_nanos() as u64);
        conn.recv += 1;
        progress = true;
        match resp {
            Response::WriteOk { .. } | Response::ReadOk { .. } => sum.ops += 1,
            Response::Error { .. } => sum.errors += 1,
            other => {
                return Err(io::Error::other(format!(
                    "unexpected data-phase response: {other:?}"
                )))
            }
        }
    }
    conn.rbuf.drain(..off);
    Ok(progress)
}
