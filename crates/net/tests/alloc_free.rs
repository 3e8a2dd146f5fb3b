//! The served path allocates nothing per operation: after warm-up, `Write`
//! and `Read` frames travel socket → lane → shard → response without one
//! heap allocation anywhere in the process.
//!
//! Two shards and two connections dealt round-robin on one lane exercise
//! both reorder rings: the shard's (a request that arrives ahead of its
//! `shard_seq`) and the lane's (a response that completes ahead of its
//! connection's turn). The count is process-wide, so the client allocates
//! nothing while it is measured either: its frames are encoded up front,
//! it reads into a fixed buffer, and it only frames the responses
//! (`next_frame`), never decodes them. This binary holds one test, so no
//! other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use dewrite_engine::{run, EngineConfig};
use dewrite_net::proto::{
    self, FrameEvent, Hello, Request, Response, FRAME_HEADER_BYTES, NET_VERSION,
};
use dewrite_net::{Control, NetServer, ServeOptions};
use dewrite_trace::{app_by_name, shard_of_line, TraceGenerator, TraceOp, TraceRecord};

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) since start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// Requests in flight per connection; also the server's window.
const WINDOW: usize = 32;
const LINE: usize = 256;
/// Records after the trace's warm-up writes; the first half of all records
/// warms the server up, the second half is measured.
const OPS: usize = 12_000;

/// One connection's share of a phase, encoded back to back.
struct Frames {
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

/// Stamp each record with its shard's sequence number, deal the records
/// round-robin over the connections, and split each connection's stream
/// into a warm-up and a measured phase.
fn encode(records: &[TraceRecord]) -> [Vec<Frames>; 2] {
    let mut seqs = [0u64; SHARDS];
    let mut phases: [Vec<Frames>; 2] = std::array::from_fn(|_| {
        (0..CONNECTIONS)
            .map(|_| Frames {
                bytes: Vec::new(),
                ends: Vec::new(),
            })
            .collect()
    });
    for (i, record) in records.iter().enumerate() {
        let shard = shard_of_line(record.op.addr(), SHARDS);
        let shard_seq = seqs[shard];
        seqs[shard] += 1;
        let request = match &record.op {
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
        };
        let frames = &mut phases[usize::from(i >= records.len() / 2)][i % CONNECTIONS];
        frames
            .bytes
            .extend_from_slice(&proto::encode_request(&request));
        frames.ends.push(frames.bytes.len());
    }
    phases
}

/// Connect and handshake (this may allocate; it runs before any count).
fn connect(addr: &str, hello: &Hello) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(&proto::encode_request(&Request::Hello(hello.clone())))
        .expect("send hello");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        if let FrameEvent::Frame { payload, .. } = proto::next_frame(&buf).expect("healthy frame") {
            let resp = proto::decode_response(payload).expect("decodable handshake");
            assert!(matches!(resp, Response::HelloOk { .. }), "got {resp:?}");
            return stream;
        }
        let n = stream.read(&mut tmp).expect("read handshake");
        assert!(n > 0, "server closed during the handshake");
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// Closed loop over one connection: keep `WINDOW` requests in flight
/// until every one is answered, reading into `buf` only. Returns how many
/// answers were not `WriteOk`/`ReadOk`.
fn closed_loop(stream: &mut TcpStream, frames: &Frames, buf: &mut [u8], ok_tags: [u8; 2]) -> u64 {
    let total = frames.ends.len();
    let (mut sent, mut received, mut filled, mut refused) = (0, 0, 0, 0);
    while received < total {
        let allowed = (received + WINDOW).min(total);
        if allowed > sent {
            stream
                .write_all(frames.span(sent, allowed))
                .expect("send requests");
            sent = allowed;
        }
        let n = stream.read(&mut buf[filled..]).expect("read responses");
        assert!(n > 0, "server closed mid-phase");
        filled += n;
        let mut off = 0;
        while let FrameEvent::Frame { payload, consumed } =
            proto::next_frame(&buf[off..filled]).expect("healthy response stream")
        {
            if !ok_tags.contains(&payload[0]) {
                refused += 1;
            }
            off += consumed;
            received += 1;
        }
        buf.copy_within(off..filled, 0);
        filled -= off;
    }
    refused
}

#[test]
fn served_writes_and_reads_allocate_nothing_after_warm_up() {
    let mut profile = app_by_name("mcf").expect("mcf profile");
    // Fewer lines than an index entry's reference cap (254): no content
    // saturates, so the shard's dedup index reaches its full size during
    // warm-up and what is measured is the served path alone.
    profile.working_set_lines = 192;
    profile.content_pool_size = 64;
    let mut gen = TraceGenerator::new(profile, LINE, 17);
    let lines = gen.required_lines();
    let mut records = gen.warmup_records();
    records.extend(gen.by_ref().take(OPS));
    let writes = records.iter().filter(|r| r.op.is_write()).count() as u64;
    let measured = &records[records.len() / 2..];
    let measured_writes = measured.iter().filter(|r| r.op.is_write()).count();

    let hello = Hello {
        version: NET_VERSION,
        line_size: LINE as u32,
        lines,
        expected_writes: writes,
        cache_policy: 0,
        digest_mode: 0,
        app: "mcf".into(),
    };
    let config = EngineConfig::for_workload(SHARDS, LINE, lines, writes);
    let local = run(&config, "mcf", records.clone());
    let expected = format!(
        "[{}]",
        local
            .shards
            .iter()
            .map(|s| s.report.to_json().to_string())
            .collect::<Vec<_>>()
            .join(",")
    );

    let server = NetServer::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS,
        threads: 1,
        window: WINDOW as u32,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let (mut control, _) = Control::connect(&addr, &hello).expect("control connect");
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS).map(|_| connect(&addr, &hello)).collect();
    let phases = encode(&records);
    let tag = |resp: Response| proto::encode_response(&resp)[FRAME_HEADER_BYTES];
    let ok_tags = [
        tag(Response::WriteOk {
            eliminated: false,
            sim_ns: 0,
        }),
        tag(Response::ReadOk { sim_ns: 0 }),
    ];

    // Each phase starts and ends on a barrier; the main thread reads the
    // counter between phases, while every client waits and the lane idles.
    let gate = Barrier::new(CONNECTIONS + 1);
    let allocations = std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let (gate, phases) = (&gate, &phases);
                scope.spawn(move || {
                    let mut buf = vec![0u8; 64 * 1024];
                    let mut refused = 0;
                    for phase in phases {
                        gate.wait();
                        refused += closed_loop(stream, &phase[c], &mut buf, ok_tags);
                        gate.wait();
                    }
                    refused
                })
            })
            .collect();
        gate.wait();
        gate.wait();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        gate.wait();
        gate.wait();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        for client in clients {
            let refused = client.join().expect("client panicked");
            assert_eq!(refused, 0, "every operation is answered OK");
        }
        after - before
    });
    assert_eq!(
        allocations,
        0,
        "{allocations} heap allocations over {} served operations \
         ({measured_writes} writes): {:.3} per write",
        measured.len(),
        allocations as f64 / measured_writes as f64
    );

    // Both rings handed every request over in sequence order.
    assert_eq!(control.report().expect("report"), expected);
    control.shutdown().expect("shutdown");
    let outcome = server.join();
    assert!(!outcome.aborted);
    assert_eq!(outcome.errors, 0);
}
