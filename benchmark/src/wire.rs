//! The wire rung: an in-process `NetServer` (one lane, one shard) driven
//! over loopback TCP by a blocking client of the benchmark's own, so
//! every latency sample and system call is counted here.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dewrite_net::proto::{self, FrameEvent, Hello, Request, Response, NET_VERSION};
use dewrite_net::{Control, NetServer, ServeOptions};
use dewrite_trace::{TraceOp, TraceRecord};

use crate::host::cpu_ns;
use crate::inputs::Inputs;
use crate::rep::{ns32, Rep, ShardSide};
use crate::spec::LINE_SIZE;

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: each connection keeps `window` requests in flight.
    Closed {
        /// Requests in flight per connection.
        window: usize,
    },
    /// Open loop: operation `i` is due `i / ops_per_s` seconds after the
    /// start, sent then whatever the server is doing, and timed from then.
    Open {
        /// Offered rate, operations per second.
        ops_per_s: f64,
    },
}

/// The wire request for `record`, the shard's `shard_seq`-th operation.
pub fn request_of(record: &TraceRecord, shard_seq: u64) -> Request {
    match &record.op {
        TraceOp::Write { addr, data } => Request::Write {
            addr: addr.index(),
            shard_seq,
            gap: record.gap_instructions,
            data: data.clone(),
        },
        TraceOp::Read { addr } => Request::Read {
            addr: addr.index(),
            shard_seq,
            gap: record.gap_instructions,
        },
    }
}

/// Deal `records` round-robin over `connections` and pre-encode them.
/// The first record is the shard's `first_seq`-th operation.
fn encode(records: &[TraceRecord], first_seq: u64, connections: usize) -> Vec<Frames> {
    let mut out: Vec<Frames> = (0..connections)
        .map(|_| Frames {
            bytes: Vec::new(),
            ends: Vec::new(),
        })
        .collect();
    for (i, record) in records.iter().enumerate() {
        let frames = &mut out[i % connections];
        let request = request_of(record, first_seq + i as u64);
        frames
            .bytes
            .extend_from_slice(&proto::encode_request(&request));
        frames.ends.push(frames.bytes.len());
    }
    out
}

fn protocol_error(what: impl std::fmt::Display) -> io::Error {
    io::Error::other(what.to_string())
}

/// Connect and handshake; the stream stays blocking.
fn connect(addr: SocketAddr, hello: &Hello) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&proto::encode_request(&Request::Hello(hello.clone())))?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        match proto::next_frame(&buf).map_err(protocol_error)? {
            FrameEvent::Frame { payload, .. } => {
                return match proto::decode_response(payload).map_err(protocol_error)? {
                    Response::HelloOk { shards: 1, .. } => Ok(stream),
                    other => Err(protocol_error(format!("handshake answered {other:?}"))),
                };
            }
            FrameEvent::Incomplete => {
                let n = stream.read(&mut tmp)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                buf.extend_from_slice(&tmp[..n]);
            }
        }
    }
}

/// Open loop: when the `k`-th operation of connection `c` (of
/// `connections`, dealt round-robin) is due.
fn due(start: Instant, connections: usize, c: usize, k: usize, ops_per_s: f64) -> Instant {
    let global = k * connections + c;
    start + Duration::from_nanos((global as f64 * 1e9 / ops_per_s) as u64)
}

/// What one connection's pass saw.
#[derive(Debug, Default)]
struct Pass {
    errors: u64,
    syscalls: u64,
    bytes: u64,
    lat: Vec<u32>,
    lag: Vec<u32>,
}

impl Pass {
    fn absorb(&mut self, other: Pass) {
        self.errors += other.errors;
        self.syscalls += other.syscalls;
        self.bytes += other.bytes;
        self.lat.extend(other.lat);
        self.lag.extend(other.lag);
    }
}

/// The receiving half of a connection: block in `read`, stamp the
/// arrival, decode. Responses come back in the connection's request
/// order, so the `k`-th one answers the `k`-th request.
struct Receiver<'a> {
    stream: &'a TcpStream,
    rbuf: Vec<u8>,
    scratch: Box<[u8; 64 * 1024]>,
    received: usize,
    pass: Pass,
}

impl<'a> Receiver<'a> {
    fn new(stream: &'a TcpStream, expect: usize) -> Self {
        Receiver {
            stream,
            rbuf: Vec::new(),
            scratch: Box::new([0u8; 64 * 1024]),
            received: 0,
            pass: Pass {
                lat: Vec::with_capacity(expect),
                ..Pass::default()
            },
        }
    }

    /// Wait for at least one response; `since(k)` is the instant the
    /// `k`-th request's latency counts from.
    fn receive(&mut self, since: impl Fn(usize) -> Instant) -> io::Result<()> {
        self.pass.syscalls += 1;
        let n = self.stream.read(&mut self.scratch[..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let arrived = Instant::now();
        self.pass.bytes += n as u64;
        self.rbuf.extend_from_slice(&self.scratch[..n]);
        let mut off = 0usize;
        while let FrameEvent::Frame { payload, consumed } =
            proto::next_frame(&self.rbuf[off..]).map_err(protocol_error)?
        {
            off += consumed;
            match proto::decode_response(payload).map_err(protocol_error)? {
                Response::WriteOk { .. } | Response::ReadOk { .. } => {}
                Response::Error { .. } => self.pass.errors += 1,
                other => return Err(protocol_error(format!("data phase answered {other:?}"))),
            }
            let lat = arrived.saturating_duration_since(since(self.received));
            self.pass.lat.push(ns32(lat));
            self.received += 1;
        }
        self.rbuf.drain(..off);
        Ok(())
    }
}

/// One connection's pre-encoded request stream.
struct Frames {
    /// The request frames, back to back.
    bytes: Vec<u8>,
    /// End offset of each frame in `bytes`.
    ends: Vec<usize>,
}

impl Frames {
    /// The bytes of requests `from..to`.
    fn span(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// Closed loop on one connection, one thread: keep `window` requests in
/// flight, blocking in `read` in between.
fn closed_conn(stream: &TcpStream, frames: &Frames, window: usize) -> io::Result<Pass> {
    let total = frames.ends.len();
    let mut rx = Receiver::new(stream, total);
    let mut stamps = vec![Instant::now(); total];
    let mut issued = 0usize;
    let mut tx = stream;
    while rx.received < total {
        let allowed = (rx.received + window).min(total);
        if allowed > issued {
            let now = Instant::now();
            stamps[issued..allowed].fill(now);
            let span = frames.span(issued, allowed);
            rx.pass.syscalls += 1;
            rx.pass.bytes += span.len() as u64;
            tx.write_all(span)?;
            issued = allowed;
        }
        rx.receive(|k| stamps[k])?;
    }
    Ok(rx.pass)
}

/// Open loop, sending half: sleep until the next request is due, send
/// every request due by then, record how late each went out.
fn open_sender(
    stream: &TcpStream,
    frames: &Frames,
    due_of: impl Fn(usize) -> Instant,
) -> io::Result<Pass> {
    let total = frames.ends.len();
    let mut pass = Pass {
        lag: Vec::with_capacity(total),
        ..Pass::default()
    };
    let mut sent = 0usize;
    let mut tx = stream;
    while sent < total {
        let mut now = Instant::now();
        let next = due_of(sent);
        if next > now {
            std::thread::sleep(next - now);
            now = Instant::now();
        }
        let mut upto = sent + 1;
        while upto < total && due_of(upto) <= now {
            upto += 1;
        }
        for k in sent..upto {
            pass.lag
                .push(ns32(now.saturating_duration_since(due_of(k))));
        }
        let span = frames.span(sent, upto);
        pass.syscalls += 1;
        pass.bytes += span.len() as u64;
        tx.write_all(span)?;
        sent = upto;
    }
    Ok(pass)
}

/// Drive every connection to completion under `load`, each on threads of
/// its own (closed loop: one; open loop: a sender and a receiver), all
/// blocking — an idle client thread costs the two cores it shares with
/// the server nothing. `start` is the instant open-loop due times count
/// from. Returns the merged pass plus wall and CPU time of the window.
fn drive_connections(
    streams: &[TcpStream],
    frames: &[Frames],
    load: Load,
    start: Instant,
) -> io::Result<(Pass, u64, u64)> {
    let connections = streams.len();
    let threads = match load {
        Load::Closed { .. } => connections,
        Load::Open { .. } => 2 * connections,
    };
    // Client threads stay alive until the CPU clock has been read: an
    // exited thread's time drops out of the per-thread counters.
    let finished = Barrier::new(threads + 1);
    let released = Barrier::new(threads + 1);
    let cpu0 = cpu_ns();
    let (wall_ns, cpu, results) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (c, (stream, frames)) in streams.iter().zip(frames).enumerate() {
            let (finished, released) = (&finished, &released);
            let park = move |result: io::Result<Pass>| {
                finished.wait();
                released.wait();
                result
            };
            match load {
                Load::Closed { window } => {
                    handles.push(scope.spawn(move || park(closed_conn(stream, frames, window))));
                }
                Load::Open { ops_per_s } => {
                    let due_of = move |k: usize| due(start, connections, c, k, ops_per_s);
                    handles.push(scope.spawn(move || park(open_sender(stream, frames, due_of))));
                    handles.push(scope.spawn(move || {
                        let total = frames.ends.len();
                        let mut rx = Receiver::new(stream, total);
                        let mut result = Ok(());
                        while result.is_ok() && rx.received < total {
                            result = rx.receive(due_of);
                        }
                        park(result.map(|()| rx.pass))
                    }));
                }
            }
        }
        finished.wait();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu = cpu_ns() - cpu0;
        released.wait();
        let results: Vec<io::Result<Pass>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (wall_ns, cpu, results)
    });
    let mut merged = Pass::default();
    for result in results {
        merged.absorb(result?);
    }
    Ok((merged, wall_ns, cpu))
}

/// Everything between a bound server and its shutdown; an `Err` leaves
/// the server for the caller to abort.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    connections: usize,
    load: Load,
    start: Instant,
    rep: &mut Rep,
) -> io::Result<()> {
    let config = inputs.engine_config();
    let hello = Hello {
        version: NET_VERSION,
        line_size: LINE_SIZE as u32,
        lines: inputs.lines,
        expected_writes: inputs.writes,
        cache_policy: config.cache_policy.to_wire(),
        digest_mode: config.digest_mode.to_wire(),
        app: inputs.app.into(),
    };
    let (mut control, _) = Control::connect(&addr.to_string(), &hello)?;
    let streams = (0..connections)
        .map(|_| connect(addr, &hello))
        .collect::<io::Result<Vec<_>>>()?;

    // Warm-up replay, untimed, through the same sockets.
    let (warm, _, _) = drive_connections(
        &streams,
        &encode(&inputs.warmup, 0, connections),
        Load::Closed { window: 32 },
        Instant::now(),
    )?;
    if warm.errors > 0 {
        rep.problems
            .push(format!("{} warm-up writes refused", warm.errors));
    }
    let frames = encode(&inputs.records, inputs.warmup.len() as u64, connections);
    rep.bringup_ns = start.elapsed().as_nanos() as u64;

    let (pass, wall_ns, cpu) = drive_connections(&streams, &frames, load, Instant::now())?;
    rep.wall_ns = wall_ns;
    rep.cpu_ns = cpu;
    rep.failed = pass.errors;
    rep.syscalls = pass.syscalls;
    rep.wire_bytes = pass.bytes;
    rep.lat_ns = pass.lat;
    rep.lag_ns = pass.lag;

    if let Err(e) = control.scrub() {
        rep.problems.push(format!("scrub: {e}"));
    }
    let json = control.report()?;
    rep.report_json = json
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .unwrap_or(&json)
        .to_string();
    control.shutdown()
}

/// One repetition against a fresh server over `connections` sockets;
/// persistence (the engine's own epoch policy) under `persist` if given.
pub fn run(inputs: &Inputs, connections: usize, load: Load, persist: Option<&Path>) -> Rep {
    let start = Instant::now();
    let mut rep = Rep {
        attempted: inputs.records.len() as u64,
        ..Rep::default()
    };
    let server = match NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        threads: 1,
        persist_dir: persist.map(Path::to_path_buf),
        ..ServeOptions::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            rep.failed = rep.attempted;
            rep.problems.push(format!("bind: {e}"));
            return rep;
        }
    };
    if let Err(e) = drive(
        server.local_addr(),
        inputs,
        connections,
        load,
        start,
        &mut rep,
    ) {
        rep.problems.push(format!("wire: {e}"));
        rep.failed = rep.attempted;
        server.handle().abort();
    }
    let outcome = server.join();
    match outcome.run {
        Some(engine_run) => {
            rep.shard = ShardSide::from_summary(&engine_run.shards[0]);
            rep.report = engine_run.merged;
            rep.check_report(inputs, true);
        }
        None => rep
            .problems
            .push("the server ended without an engine run".into()),
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_trace::{app_by_name, TraceGenerator};
    use std::net::TcpListener;

    /// A stand-in server: reads request frames and answers none of them
    /// until `hold` have arrived, then answers every one.
    fn stalled_stub(listener: TcpListener, hold: usize) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            let (mut seen, mut answered, mut off) = (0usize, 0usize, 0usize);
            while answered < hold {
                let n = stream.read(&mut tmp).expect("stub read");
                assert!(n > 0, "client hung up early");
                buf.extend_from_slice(&tmp[..n]);
                while let Ok(FrameEvent::Frame { consumed, .. }) = proto::next_frame(&buf[off..]) {
                    off += consumed;
                    seen += 1;
                }
                if seen >= hold {
                    let ok = proto::encode_response(&Response::ReadOk { sim_ns: 1 });
                    for _ in answered..seen {
                        stream.write_all(&ok).expect("stub write");
                    }
                    answered = seen;
                }
            }
        })
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_generator_lag() {
        const OPS: usize = 20;
        let mut gen = TraceGenerator::new(app_by_name("mcf").expect("known app"), LINE_SIZE, 1);
        let records: Vec<TraceRecord> = gen.by_ref().take(OPS).collect();
        let frames = encode(&records, 0, 1);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = stalled_stub(listener, OPS);
        let stream = TcpStream::connect(addr).expect("connect");

        // The schedule started 40 ms ago at one request per millisecond:
        // every request is overdue, the last by 21 ms. No sleep needed —
        // the generator is late by construction, and the server answers
        // nothing until it holds all of them.
        let late = Duration::from_millis(40);
        let start = Instant::now() - late;
        let load = Load::Open { ops_per_s: 1_000.0 };
        let (pass, _, _) =
            drive_connections(&[stream], &frames, load, start).expect("open-loop pass");
        server.join().expect("stub panicked");

        assert_eq!(pass.errors, 0);
        assert_eq!(
            (pass.lat.len(), pass.lag.len()),
            (OPS, OPS),
            "every op timed"
        );
        // Generator lag is reported, per request, against its due time.
        let ms = |ns: u32| f64::from(ns) / 1e6;
        assert!(
            ms(pass.lag[0]) >= 40.0,
            "first request went out {} ms late",
            ms(pass.lag[0])
        );
        assert!(
            ms(pass.lag[OPS - 1]) >= 21.0,
            "last request {} ms late",
            ms(pass.lag[OPS - 1])
        );
        assert!(
            pass.lag[0] > pass.lag[OPS - 1],
            "earlier requests are later"
        );
        // Latency counts from the due time, so it holds the generator's
        // lag and the server's stall even though every answer came back
        // right after its request was finally sent.
        for k in 0..OPS {
            assert!(
                pass.lat[k] >= pass.lag[k],
                "op {k}: latency {} ns is less than its own send lag {} ns",
                pass.lat[k],
                pass.lag[k]
            );
        }
    }
}
