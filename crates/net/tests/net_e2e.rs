//! End-to-end socket tests: a real `NetServer` on an ephemeral port,
//! driven by the real client — asserting the load-bearing invariant
//! (socket replay is bit-identical to the in-process run), protocol
//! error handling without desync, generation resets, and a
//! many-connection smoke.

use std::io::{Read, Write};
use std::net::TcpStream;

use dewrite_engine::{run, EngineConfig};
use dewrite_net::proto::{self, ErrorCode, FrameEvent, Hello, Request, Response, NET_VERSION};
use dewrite_net::{drive, Control, DriveOptions, NetServer, Pacing, ServeOptions};
use dewrite_trace::{app_by_name, TraceRecord};

struct Trace {
    records: Vec<TraceRecord>,
    lines: u64,
    writes: u64,
}

/// A small deterministic mcf trace (warmup + `ops` records).
fn trace(ops: usize, seed: u64) -> Trace {
    let mut profile = app_by_name("mcf").expect("mcf profile");
    profile.working_set_lines = 512;
    profile.content_pool_size = 64;
    let mut gen = dewrite_trace::TraceGenerator::new(profile, 256, seed);
    let lines = gen.required_lines();
    let mut records = gen.warmup_records();
    records.extend(gen.by_ref().take(ops));
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;
    Trace {
        records,
        lines,
        writes,
    }
}

fn hello(t: &Trace) -> Hello {
    Hello {
        version: NET_VERSION,
        line_size: 256,
        lines: t.lines,
        expected_writes: t.writes,
        cache_policy: 0,
        digest_mode: 0,
        app: "mcf".into(),
    }
}

fn start_server(shards: usize) -> (NetServer, String) {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards,
        threads: 2,
        ..ServeOptions::default()
    };
    let server = NetServer::bind(opts).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The in-process oracle: same geometry, same trace, and the exact
/// per-shard report array string the server must reproduce.
fn baseline(t: &Trace, shards: usize) -> (dewrite_engine::EngineRun, String) {
    let config = EngineConfig::for_workload(shards, 256, t.lines, t.writes);
    let run = run(&config, "mcf", t.records.clone());
    let expected = format!(
        "[{}]",
        run.shards
            .iter()
            .map(|s| s.report.to_json().to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    (run, expected)
}

fn closed(addr: &str, connections: usize, window: usize) -> DriveOptions {
    DriveOptions {
        addr: addr.to_string(),
        connections,
        window,
        threads: 0,
        pacing: Pacing::Closed,
    }
}

/// Blocking frame read on a raw test socket.
fn read_resp(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Response {
    loop {
        match proto::next_frame(rbuf).expect("healthy frame stream") {
            FrameEvent::Incomplete => {}
            FrameEvent::Frame { payload, consumed } => {
                let resp = proto::decode_response(payload).expect("decodable response");
                rbuf.drain(..consumed);
                return resp;
            }
        }
        let mut tmp = [0u8; 4096];
        let n = stream.read(&mut tmp).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        rbuf.extend_from_slice(&tmp[..n]);
    }
}

fn expect_error(resp: Response, code: ErrorCode) {
    match resp {
        Response::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

#[test]
fn socket_replay_is_bit_identical_to_in_process() {
    let t = trace(3000, 7);
    let (server, addr) = start_server(4);
    let h = hello(&t);
    let (mut control, info) = Control::connect(&addr, &h).expect("control connect");
    assert_eq!(info.shards, 4);
    let (local, expected) = baseline(&t, info.shards);

    let summary = drive(&closed(&addr, 8, 16), &h, &t.records).expect("drive");
    assert_eq!(summary.errors, 0, "healthy replay must see no errors");
    assert_eq!(summary.ops as usize, t.records.len());
    assert!(summary.host_latency.p99_ns() > 0);

    control.flush().expect("flush");
    let checked = control.scrub().expect("scrub");
    assert!(checked > 0, "scrub must cover resident lines");
    let report = control.report().expect("report");
    assert_eq!(report, expected, "server reports must be bit-identical");

    control.shutdown().expect("shutdown");
    let outcome = server.join();
    assert!(!outcome.aborted);
    assert_eq!(outcome.errors, 0);
    // The drained engine run the server hands back is the same merged
    // simulated report the in-process run produced.
    let served = outcome.run.expect("graceful shutdown keeps the run");
    assert_eq!(served.ops, local.ops);
    assert_eq!(
        served.merged.to_json().to_string(),
        local.merged.to_json().to_string()
    );
    let b = &served.merged.base;
    assert_eq!(b.coalesced_writes, 0, "no controller coalesces");
    assert_eq!(
        b.writes_eliminated + served.merged.nvm_data_writes,
        b.writes,
        "every write dedups or stores"
    );
}

#[test]
fn sixty_four_connections_replay_cleanly() {
    let t = trace(2000, 11);
    let (server, addr) = start_server(2);
    let h = hello(&t);
    let (mut control, info) = Control::connect(&addr, &h).expect("control connect");
    let (_, expected) = baseline(&t, info.shards);

    let summary = drive(&closed(&addr, 64, 4), &h, &t.records).expect("drive");
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.ops as usize, t.records.len());

    let stats = control.stats().expect("stats");
    assert_eq!(stats.ops as usize, t.records.len());
    // 64 data conns + 1 control conn.
    assert_eq!(stats.accepted, 65);
    assert_eq!(control.report().expect("report"), expected);

    control.shutdown().expect("shutdown");
    assert!(!server.join().aborted);
}

#[test]
fn one_lane_answers_more_in_flight_than_its_queue_first_holds() {
    const CONNECTIONS: usize = 80;
    const WINDOW: u32 = 64;
    let t = trace(12_000, 17);
    // One lane serves every connection: up to 80 × 64 = 5 120 requests in
    // flight, past the 4 096 completions its queue is allocated for. One
    // shard sees them as a span of 5 120 sequence numbers, inside a
    // reorder ring of 4 × 2 048.
    let server = NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        threads: 1,
        window: WINDOW,
        queue_depth: 2048,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let h = hello(&t);
    let (mut control, info) = Control::connect(&addr, &h).expect("control connect");
    let (local, expected) = baseline(&t, info.shards);

    let summary =
        drive(&closed(&addr, CONNECTIONS, WINDOW as usize), &h, &t.records).expect("drive");
    assert_eq!(summary.errors, 0, "nothing is refused or rejected");
    assert_eq!(summary.ops as usize, t.records.len());
    assert_eq!(control.report().expect("report"), expected);

    control.shutdown().expect("shutdown");
    let outcome = server.join();
    assert_eq!(outcome.errors, 0);
    let served = outcome.run.expect("graceful shutdown keeps the run");
    assert_eq!(
        served.merged.to_json().to_string(),
        local.merged.to_json().to_string()
    );
}

#[test]
fn reset_tears_down_and_the_next_generation_matches_again() {
    let t = trace(1500, 3);
    let (server, addr) = start_server(2);
    let h = hello(&t);
    let (mut control, info) = Control::connect(&addr, &h).expect("control connect");
    let (_, expected) = baseline(&t, info.shards);

    drive(&closed(&addr, 4, 8), &h, &t.records).expect("first replay");
    let first = control.report().expect("report");
    assert_eq!(first, expected);
    control.reset().expect("reset");
    // The control session belongs to the torn-down generation now.
    assert!(
        control.report().is_err(),
        "stale-generation request must be refused"
    );

    // A fresh handshake builds generation 2; the identical replay must
    // produce the identical reports (per-generation state is complete).
    let (mut c2, _) = Control::connect(&addr, &h).expect("reconnect");
    drive(&closed(&addr, 4, 8), &h, &t.records).expect("second replay");
    let second = c2.report().expect("report");
    assert_eq!(second, expected);

    c2.shutdown().expect("shutdown");
    assert!(!server.join().aborted);
}

#[test]
fn malformed_frames_get_typed_errors_without_desync() {
    let t = trace(200, 5);
    let (server, addr) = start_server(2);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut rbuf = Vec::new();
    let data = vec![0u8; 256];

    // 1. Data op before any Hello: refused, typed.
    stream
        .write_all(&proto::encode_request(&Request::Write {
            addr: 0,
            shard_seq: 0,
            gap: 0,
            data: data.clone(),
        }))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::NotReady);

    // 2. Unknown tag: typed error, stream keeps going.
    stream
        .write_all(&proto::encode_frame(&[0x55]))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::UnknownOp);

    // 2b. A Hello whose expected writes would size an arena past the
    // `max_lines` bound (or overflow sizing it) is refused, naming them.
    for expected_writes in [u64::MAX, 1_000_000_000_000] {
        let mut huge = hello(&t);
        huge.expected_writes = expected_writes;
        stream
            .write_all(&proto::encode_request(&Request::Hello(huge)))
            .expect("write");
        match read_resp(&mut stream, &mut rbuf) {
            Response::Error {
                code: ErrorCode::BadPayload,
                detail,
            } => assert!(detail.contains("expected_writes"), "{detail}"),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    // 2c. CRC-32 plus verify (byte 0) is the only digest mode: any other
    // byte is refused, naming it, and brings up no engine.
    for digest_mode in [1, 2, 0xFF] {
        let mut other_mode = hello(&t);
        other_mode.digest_mode = digest_mode;
        stream
            .write_all(&proto::encode_request(&Request::Hello(other_mode)))
            .expect("write");
        match read_resp(&mut stream, &mut rbuf) {
            Response::Error {
                code: ErrorCode::BadPayload,
                detail,
            } => assert!(detail.contains("digest mode"), "{detail}"),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    // 3. The same connection can still handshake…
    stream
        .write_all(&proto::encode_request(&Request::Hello(hello(&t))))
        .expect("write");
    match read_resp(&mut stream, &mut rbuf) {
        Response::HelloOk { lines, .. } => assert_eq!(lines, t.lines),
        other => panic!("expected HelloOk, got {other:?}"),
    }

    // 4. …and run a valid op.
    stream
        .write_all(&proto::encode_request(&Request::Write {
            addr: 0,
            shard_seq: 0,
            gap: 0,
            data: data.clone(),
        }))
        .expect("write");
    match read_resp(&mut stream, &mut rbuf) {
        Response::WriteOk { .. } => {}
        other => panic!("expected WriteOk, got {other:?}"),
    }

    // 5. Wrong payload length for the session's line size.
    stream
        .write_all(&proto::encode_request(&Request::Write {
            addr: 1,
            shard_seq: 1,
            gap: 0,
            data: vec![0u8; 128],
        }))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::BadPayload);

    // 6. Out-of-range address.
    stream
        .write_all(&proto::encode_request(&Request::Read {
            addr: t.lines,
            shard_seq: 1,
            gap: 0,
        }))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::BadPayload);

    // 7. The reserved control sequence number is not a valid data seq.
    stream
        .write_all(&proto::encode_request(&Request::Write {
            addr: 1,
            shard_seq: u64::MAX,
            gap: 0,
            data: data.clone(),
        }))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::BadPayload);

    // 8. A second Hello with different geometry is a config mismatch.
    let mut wrong = hello(&t);
    wrong.lines = t.lines * 2;
    stream
        .write_all(&proto::encode_request(&Request::Hello(wrong)))
        .expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::ConfigMismatch);

    // 8b. Address 0's shard is at sequence 1. A sequence it already
    // applied, then one a whole reorder window (4 × queue_depth) past its
    // next: each is shed in its own slot, and the in-sequence op behind
    // them is answered normally.
    let past_window = 1 + 4 * ServeOptions::default().queue_depth as u64;
    for shard_seq in [0, past_window, 1] {
        stream
            .write_all(&proto::encode_request(&Request::Write {
                addr: 0,
                shard_seq,
                gap: 0,
                data: data.clone(),
            }))
            .expect("write");
    }
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::Overloaded);
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::Overloaded);
    match read_resp(&mut stream, &mut rbuf) {
        Response::WriteOk { .. } => {}
        other => panic!("expected WriteOk, got {other:?}"),
    }

    // 9. A CRC-corrupt frame is fatal for the connection: one BadFrame
    // error, then close (a desynced byte stream can't be trusted).
    let mut corrupt = proto::encode_request(&Request::Scrub);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    stream.write_all(&corrupt).expect("write");
    expect_error(read_resp(&mut stream, &mut rbuf), ErrorCode::BadFrame);
    let mut tmp = [0u8; 64];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) => panic!("expected EOF after a framing violation, got {e}"),
        }
    }

    // The server survived all of it: a fresh connection still works.
    let (mut control, _) = Control::connect(&addr, &hello(&t)).expect("reconnect");
    let stats = control.stats().expect("stats");
    assert!(stats.errors >= 7, "typed errors must be counted");
    control.shutdown().expect("shutdown");
    let outcome = server.join();
    assert!(!outcome.aborted);
}

#[test]
fn handshake_refuses_unknown_cache_policy_bytes() {
    let t = trace(200, 5);
    let (server, addr) = start_server(2);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut rbuf = Vec::new();

    // Bytes 0 (LRU) and 2 (S3-FIFO) name policies; any other is refused,
    // naming the byte, and brings up no engine.
    for cache_policy in [1, 3] {
        let mut unknown = hello(&t);
        unknown.cache_policy = cache_policy;
        stream
            .write_all(&proto::encode_request(&Request::Hello(unknown)))
            .expect("write");
        match read_resp(&mut stream, &mut rbuf) {
            Response::Error {
                code: ErrorCode::BadPayload,
                detail,
            } => assert!(
                detail.contains(&format!("cache policy {cache_policy}")),
                "{detail}"
            ),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    // The same connection still handshakes with LRU.
    stream
        .write_all(&proto::encode_request(&Request::Hello(hello(&t))))
        .expect("write");
    match read_resp(&mut stream, &mut rbuf) {
        Response::HelloOk { lines, .. } => assert_eq!(lines, t.lines),
        other => panic!("expected HelloOk, got {other:?}"),
    }
    drop(stream);
    let (mut control, _) = Control::connect(&addr, &hello(&t)).expect("reconnect");
    control.shutdown().expect("shutdown");
    assert!(!server.join().aborted);

    // A fresh server accepts S3-FIFO.
    let (server, addr) = start_server(2);
    let mut s3fifo = hello(&t);
    s3fifo.cache_policy = 2;
    let (mut control, _) = Control::connect(&addr, &s3fifo).expect("S3-FIFO handshake");
    control.shutdown().expect("shutdown");
    assert!(!server.join().aborted);
}

#[test]
fn a_saturated_lane_still_accepts_and_answers_a_new_connection() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    // One lane owns the listener and every connection. Two flooders keep
    // its sockets non-empty (a blocking writer each, so the send buffers
    // stay full), so its sweeps never go idle: the listener is reached
    // only through the every-Nth-busy-sweep probe.
    let server = NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let flood: Vec<u8> = proto::encode_request(&Request::Stats).repeat(4096);
    let stop = AtomicBool::new(false);
    // Also on a failed assertion, or the scope would wait on the flood.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let t = trace(10, 13);

    std::thread::scope(|scope| {
        let stop_flood = StopOnDrop(&stop);
        let mut answered = Vec::new();
        let mut writers = Vec::new();
        for _ in 0..2 {
            let mut tx = TcpStream::connect(&addr).expect("flooder connect");
            let mut rx = tx.try_clone().expect("clone flooder socket");
            let (flood, stop) = (&flood, &stop);
            writers.push(scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    tx.write_all(flood).expect("flood");
                }
                tx.shutdown(std::net::Shutdown::Write).expect("half-close");
            }));
            // Drain the answers so the server's write buffer stays small;
            // report once the flood is demonstrably being served.
            let (first_tx, first_rx) = std::sync::mpsc::channel();
            answered.push(first_rx);
            scope.spawn(move || {
                let mut tmp = [0u8; 16 * 1024];
                let mut first = Some(first_tx);
                while matches!(rx.read(&mut tmp), Ok(n) if n > 0) {
                    if let Some(tx) = first.take() {
                        tx.send(()).expect("main thread waits for the first answer");
                    }
                }
            });
        }
        for rx in answered {
            rx.recv().expect("flooder is being served");
        }

        let mut stream = TcpStream::connect(&addr).expect("connect under load");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut rbuf = Vec::new();
        stream
            .write_all(&proto::encode_request(&Request::Hello(hello(&t))))
            .expect("write");
        match read_resp(&mut stream, &mut rbuf) {
            Response::HelloOk { lines, .. } => assert_eq!(lines, t.lines),
            other => panic!("expected HelloOk, got {other:?}"),
        }
        // The flooders finish their last write while the lane still reads.
        drop(stop_flood);
        for w in writers {
            w.join().expect("flooder panicked");
        }
        stream
            .write_all(&proto::encode_request(&Request::Shutdown))
            .expect("write");
        assert!(matches!(
            read_resp(&mut stream, &mut rbuf),
            Response::ShutdownOk
        ));
    });
    let outcome = server.join();
    assert!(!outcome.aborted);
    assert_eq!(outcome.accepted, 3);
}
