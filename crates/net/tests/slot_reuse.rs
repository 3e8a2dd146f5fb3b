//! A connection that dies with a request still inside the engine holds its
//! lane slot until that request completes; the slot then goes to the next
//! connection accepted. This drives that hand-over through a real
//! one-lane server and checks the newcomer sees its own responses and
//! nothing of its predecessor's, and that the server still drains and
//! shuts down gracefully.

use std::io::{Read, Write};
use std::net::TcpStream;

use dewrite_net::proto::{self, FrameEvent, Hello, Request, Response, NET_VERSION};
use dewrite_net::{NetServer, ServeOptions};

const LINE: usize = 256;

fn connect(addr: &str) -> (TcpStream, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    (stream, Vec::new())
}

fn send(stream: &mut TcpStream, req: &Request) {
    stream
        .write_all(&proto::encode_request(req))
        .expect("write");
}

/// Blocking frame read on a raw test socket.
fn recv(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> Response {
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

fn hello() -> Request {
    Request::Hello(Hello {
        version: NET_VERSION,
        line_size: LINE as u32,
        lines: 64,
        expected_writes: 16,
        cache_policy: 0,
        digest_mode: 0,
        app: "mcf".into(),
    })
}

fn write(addr: u64, shard_seq: u64) -> Request {
    Request::Write {
        addr,
        shard_seq,
        gap: 0,
        data: vec![addr as u8 + 1; LINE],
    }
}

#[test]
fn a_dead_connections_slot_passes_on_without_leaking_its_responses() {
    let server = NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();

    // A (slot 0) submits the shard's operation 1 before anyone sent
    // operation 0: it waits in the shard's reorder buffer. A then dies.
    let (mut a, mut a_buf) = connect(&addr);
    send(&mut a, &hello());
    assert!(matches!(recv(&mut a, &mut a_buf), Response::HelloOk { .. }));
    send(&mut a, &write(1, 1));
    drop(a);
    let (mut b, mut b_buf) = connect(&addr);
    send(&mut b, &hello());
    assert!(matches!(recv(&mut b, &mut b_buf), Response::HelloOk { .. }));

    // B (slot 1) sends operation 0: both apply. A's completion goes to a
    // closed connection — encoded nowhere — and A, drained, is reaped.
    send(&mut b, &write(0, 0));
    assert!(matches!(recv(&mut b, &mut b_buf), Response::WriteOk { .. }));
    // Wait until the server has let A go: only B is active.
    let mut polls = 0;
    loop {
        send(&mut b, &Request::Stats);
        match recv(&mut b, &mut b_buf) {
            Response::StatsOk { active: 1, ops, .. } => {
                assert_eq!(ops, 2, "A's write applied behind B's");
                break;
            }
            Response::StatsOk { .. } => {}
            other => panic!("expected StatsOk, got {other:?}"),
        }
        polls += 1;
        assert!(polls < 100_000, "the dead connection was never reaped");
    }

    // C is seated in the first free slot — A's. Everything it receives is
    // an answer to something it sent, in the order it sent it.
    let (mut c, mut c_buf) = connect(&addr);
    send(&mut c, &hello());
    send(&mut c, &write(2, 2));
    assert!(matches!(recv(&mut c, &mut c_buf), Response::HelloOk { .. }));
    assert!(matches!(recv(&mut c, &mut c_buf), Response::WriteOk { .. }));
    send(&mut c, &Request::Stats);
    match recv(&mut c, &mut c_buf) {
        Response::StatsOk {
            accepted,
            active,
            ops,
            errors,
            ..
        } => assert_eq!((accepted, active, ops, errors), (3, 2, 3, 0)),
        other => panic!("expected StatsOk, got {other:?}"),
    }

    // Nothing is left in flight: the drain completes and the run is kept.
    send(&mut c, &Request::Shutdown);
    assert!(matches!(recv(&mut c, &mut c_buf), Response::ShutdownOk));
    let outcome = server.join();
    assert!(!outcome.aborted);
    assert_eq!((outcome.ops, outcome.errors), (3, 0));
    assert_eq!(outcome.run.expect("graceful shutdown keeps the run").ops, 3);
    // C's stream ended with the ShutdownOk: no stray frame followed it.
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).expect("EOF");
    assert!(c_buf.is_empty() && rest.is_empty());
}
