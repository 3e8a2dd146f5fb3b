//! The wire protocol: dependency-free, length-prefixed, CRC-guarded
//! binary frames, versioned and hardened like the persist codecs.
//!
//! ```text
//! frame   := len u32 · crc u32 (over payload) · payload
//! payload := tag u8 · body (fixed little-endian layout per tag)
//! ```
//!
//! The first frame on every connection must be [`Request::Hello`], whose
//! body leads with the protocol magic and version — the connection-level
//! analogue of the WAL file header. Every integer is little-endian; every
//! length field is bounded *before* any allocation; the CRC is verified
//! *before* any byte of the payload is interpreted.
//!
//! Error containment mirrors the persist layer's two-tier discipline:
//!
//! * A **framing** violation ([`FrameError`]: oversized length or CRC
//!   mismatch) means the stream can no longer be trusted to be aligned —
//!   the peer sends one [`Response::Error`] and closes.
//! * A **payload** violation (unknown tag, malformed body, trailing
//!   bytes) is contained to its frame: the frame boundary was sound, so
//!   the peer answers with a typed [`Response::Error`] and the stream
//!   continues — malformed frames never panic or desync.

use dewrite_hashes::Crc32;

/// Protocol magic, leading the [`Request::Hello`] body.
pub const NET_MAGIC: [u8; 4] = *b"DWNP";
/// Protocol version (bumped on any frame- or body-layout change).
/// v3 added the `digest_mode` byte to [`Hello`], after `cache_policy`.
/// v2 added the metadata-cache eviction policy to [`Hello`].
pub const NET_VERSION: u16 = 3;
/// Hard cap on a frame payload; larger length prefixes are a framing
/// violation and are never allocated.
pub const MAX_FRAME_BYTES: usize = 1 << 20;
/// Cap on a `Write` body's line payload.
pub const MAX_LINE_BYTES: usize = 1 << 14;
/// Cap on the application name in `Hello`.
pub const MAX_APP_BYTES: usize = 256;
/// Cap on an error detail string.
pub const MAX_DETAIL_BYTES: usize = 4096;

/// Frame header bytes: `len u32 · crc u32`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// A framing violation: the stream is no longer trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] (or is zero).
    BadLength(u32),
    /// The payload failed its CRC.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "frame length {n} outside 1..={MAX_FRAME_BYTES}"),
            FrameError::BadCrc => write!(f, "frame payload failed its CRC"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One step of frame extraction from a connection's read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// Not enough bytes buffered yet for a complete frame.
    Incomplete,
    /// One checksum-valid payload; `consumed` bytes of the buffer belong
    /// to this frame (header included).
    Frame {
        /// The CRC-verified payload.
        payload: &'a [u8],
        /// Total bytes this frame occupies in the buffer.
        consumed: usize,
    },
}

/// Extract the next frame from `buf`, which starts at a frame boundary.
///
/// # Errors
///
/// [`FrameError`] on an oversized length prefix or CRC mismatch — fatal
/// for the stream (alignment can no longer be trusted).
pub fn next_frame(buf: &[u8]) -> Result<FrameEvent<'_>, FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(FrameEvent::Incomplete);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len == 0 || len as usize > MAX_FRAME_BYTES {
        return Err(FrameError::BadLength(len));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Ok(FrameEvent::Incomplete);
    }
    let payload = &buf[FRAME_HEADER_BYTES..total];
    if Crc32::new().checksum(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(FrameEvent::Frame {
        payload,
        consumed: total,
    })
}

/// Wrap `payload` in a `len · crc · payload` frame.
///
/// # Panics
///
/// Panics if `payload` is empty or exceeds [`MAX_FRAME_BYTES`] (encoder
/// bug, not peer input).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes outside 1..={MAX_FRAME_BYTES}",
        payload.len()
    );
    let crc = Crc32::new().checksum(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The connection handshake: what the client wants served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks.
    pub version: u16,
    /// Line size in bytes.
    pub line_size: u32,
    /// Workload-visible line space.
    pub lines: u64,
    /// Expected data writes (sizes the per-shard arenas exactly like the
    /// in-process `EngineConfig::for_workload`).
    pub expected_writes: u64,
    /// Metadata-cache eviction policy, as `Replacement::to_wire` (0 LRU,
    /// 2 S3-FIFO; a server refuses any other byte). Carried in the
    /// handshake — not a server flag — so the server's shards and the
    /// client's local shadow run always agree and the bit-identity check
    /// stays meaningful per policy.
    pub cache_policy: u8,
    /// Dedup digest mode, as `DigestMode::to_wire`: 0 (crc32-verify) is
    /// the only mode, and a server refuses any other byte. The byte stays
    /// so protocol v3 is unchanged.
    pub digest_mode: u8,
    /// Application name stamped on reports.
    pub app: String,
}

/// A client → server operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the first frame on every connection.
    Hello(Hello),
    /// Store a line.
    Write {
        /// Target line index.
        addr: u64,
        /// Index within the owning shard's subsequence of the trace (the
        /// determinism invariant travels in-band).
        shard_seq: u64,
        /// Instruction gap since the previous record.
        gap: u32,
        /// Line content (must match the session's line size).
        data: Vec<u8>,
    },
    /// Read a line.
    Read {
        /// Target line index.
        addr: u64,
        /// Index within the owning shard's subsequence of the trace.
        shard_seq: u64,
        /// Instruction gap since the previous record.
        gap: u32,
    },
    /// Cross-table consistency scrub on every shard.
    Scrub,
    /// Host-side server counters.
    Stats,
    /// Flush WAL epochs and checkpoint on every shard.
    Flush,
    /// Every shard's simulated report, merged in shard order.
    Report,
    /// Tear the engine down (drain + flush + checkpoint) and build a
    /// fresh one on the next `Hello` — sweeps reuse one server.
    Reset,
    /// Graceful server shutdown: drain, flush, checkpoint, exit.
    Shutdown,
}

/// A decoded [`Request`] that borrows from its frame: a `Write`'s line is
/// a view into the payload, not a copy ([`decode_request_ref`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// Handshake.
    Hello(Hello),
    /// Store a line.
    Write {
        /// Target line index.
        addr: u64,
        /// Index within the owning shard's subsequence of the trace.
        shard_seq: u64,
        /// Instruction gap since the previous record.
        gap: u32,
        /// Line content, borrowed from the payload.
        data: &'a [u8],
    },
    /// Read a line.
    Read {
        /// Target line index.
        addr: u64,
        /// Index within the owning shard's subsequence of the trace.
        shard_seq: u64,
        /// Instruction gap since the previous record.
        gap: u32,
    },
    /// As [`Request::Scrub`].
    Scrub,
    /// As [`Request::Stats`].
    Stats,
    /// As [`Request::Flush`].
    Flush,
    /// As [`Request::Report`].
    Report,
    /// As [`Request::Reset`].
    Reset,
    /// As [`Request::Shutdown`].
    Shutdown,
}

impl RequestRef<'_> {
    /// The owned request, copying a `Write`'s line.
    pub fn into_request(self) -> Request {
        match self {
            RequestRef::Hello(h) => Request::Hello(h),
            RequestRef::Write {
                addr,
                shard_seq,
                gap,
                data,
            } => Request::Write {
                addr,
                shard_seq,
                gap,
                data: data.to_vec(),
            },
            RequestRef::Read {
                addr,
                shard_seq,
                gap,
            } => Request::Read {
                addr,
                shard_seq,
                gap,
            },
            RequestRef::Scrub => Request::Scrub,
            RequestRef::Stats => Request::Stats,
            RequestRef::Flush => Request::Flush,
            RequestRef::Report => Request::Report,
            RequestRef::Reset => Request::Reset,
            RequestRef::Shutdown => Request::Shutdown,
        }
    }
}

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Framing violation (length/CRC); the server closes after this.
    BadFrame = 1,
    /// Unknown request tag.
    UnknownOp = 2,
    /// Decodable frame with an invalid body or field.
    BadPayload = 3,
    /// Operation needs a handshake (or an engine) that isn't there yet.
    NotReady = 4,
    /// Handshake geometry conflicts with the running engine.
    ConfigMismatch = 5,
    /// Load shed: the request was not applied.
    Overloaded = 6,
    /// A scrub reported an inconsistency.
    ScrubFailed = 7,
    /// Server-side failure (I/O, internal invariant).
    Internal = 8,
}

impl ErrorCode {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::BadPayload,
            4 => ErrorCode::NotReady,
            5 => ErrorCode::ConfigMismatch,
            6 => ErrorCode::Overloaded,
            7 => ErrorCode::ScrubFailed,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server → client reply. Responses stream back in each connection's
/// request order (`conn_seq` order), exactly one per request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted; the session geometry.
    HelloOk {
        /// Protocol version the server speaks.
        version: u16,
        /// Shard count (the client stamps `shard_seq` against this).
        shards: u32,
        /// Per-connection in-flight window the server enforces.
        window: u32,
        /// Line size in bytes.
        line_size: u32,
        /// Workload-visible line space.
        lines: u64,
        /// Arena slots per shard the engine was sized with.
        slots_per_shard: u64,
    },
    /// Write applied.
    WriteOk {
        /// Whether the NVM array write was eliminated (confirmed dup).
        eliminated: bool,
        /// Simulated write latency, ns.
        sim_ns: u64,
    },
    /// Read served.
    ReadOk {
        /// Simulated read latency, ns.
        sim_ns: u64,
    },
    /// Scrub passed on every shard.
    ScrubOk {
        /// Total resident lines checked.
        lines: u64,
    },
    /// Host-side server counters.
    StatsOk {
        /// Shard count (0 before the first handshake).
        shards: u32,
        /// Connections accepted since start.
        accepted: u64,
        /// Connections currently open.
        active: u64,
        /// Data operations completed.
        ops: u64,
        /// Typed error responses sent.
        errors: u64,
        /// Nanoseconds since the server started.
        uptime_ns: u64,
    },
    /// Flush + checkpoint completed on every shard.
    FlushOk,
    /// Every shard's simulated report as one JSON array, in shard order
    /// (`[shard0, shard1, …]`) — the exact per-shard texts, so the client
    /// can assert bit-identity without a float round-trip.
    ReportOk {
        /// The JSON document text.
        json: String,
    },
    /// Engine torn down; handshake again to build a fresh one.
    ResetOk,
    /// Server is draining and will exit.
    ShutdownOk,
    /// The request failed; the stream continues unless the code is
    /// [`ErrorCode::BadFrame`].
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

// Request tags.
const T_HELLO: u8 = 1;
const T_WRITE: u8 = 2;
const T_READ: u8 = 3;
const T_SCRUB: u8 = 4;
const T_STATS: u8 = 5;
const T_FLUSH: u8 = 6;
const T_REPORT: u8 = 7;
const T_RESET: u8 = 8;
const T_SHUTDOWN: u8 = 9;
// Response tags.
const T_HELLO_OK: u8 = 0x81;
const T_WRITE_OK: u8 = 0x82;
const T_READ_OK: u8 = 0x83;
const T_SCRUB_OK: u8 = 0x84;
const T_STATS_OK: u8 = 0x85;
const T_FLUSH_OK: u8 = 0x86;
const T_REPORT_OK: u8 = 0x87;
const T_RESET_OK: u8 = 0x88;
const T_SHUTDOWN_OK: u8 = 0x89;
const T_ERROR: u8 = 0xFF;

/// Bounds-checked little-endian cursor (mirrors the WAL decoder).
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err(format!(
                "body truncated: wanted {n} bytes, {} left",
                self.bytes.len()
            ));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `len`-prefixed byte string, with `len` bounded by `cap` before
    /// any allocation.
    fn bytes_u32(&mut self, cap: usize, what: &str) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(format!("{what} of {len} bytes exceeds the {cap}-byte cap"));
        }
        self.take(len)
    }

    fn bytes_u16(&mut self, cap: usize, what: &str) -> Result<&'a [u8], String> {
        let len = self.u16()? as usize;
        if len > cap {
            return Err(format!("{what} of {len} bytes exceeds the {cap}-byte cap"));
        }
        self.take(len)
    }

    fn finish(&self) -> Result<(), String> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the body",
                self.bytes.len()
            ))
        }
    }
}

fn utf8(bytes: &[u8], what: &str) -> Result<String, String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
}

/// Encode a request as a complete frame (header + payload).
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    match r {
        Request::Hello(h) => {
            p.push(T_HELLO);
            p.extend_from_slice(&NET_MAGIC);
            p.extend_from_slice(&h.version.to_le_bytes());
            p.extend_from_slice(&h.line_size.to_le_bytes());
            p.extend_from_slice(&h.lines.to_le_bytes());
            p.extend_from_slice(&h.expected_writes.to_le_bytes());
            p.push(h.cache_policy);
            p.push(h.digest_mode);
            let app = h.app.as_bytes();
            assert!(app.len() <= MAX_APP_BYTES, "app name too long");
            p.extend_from_slice(&(app.len() as u16).to_le_bytes());
            p.extend_from_slice(app);
        }
        Request::Write {
            addr,
            shard_seq,
            gap,
            data,
        } => {
            p.push(T_WRITE);
            p.extend_from_slice(&addr.to_le_bytes());
            p.extend_from_slice(&shard_seq.to_le_bytes());
            p.extend_from_slice(&gap.to_le_bytes());
            assert!(data.len() <= MAX_LINE_BYTES, "line too long");
            p.extend_from_slice(&(data.len() as u32).to_le_bytes());
            p.extend_from_slice(data);
        }
        Request::Read {
            addr,
            shard_seq,
            gap,
        } => {
            p.push(T_READ);
            p.extend_from_slice(&addr.to_le_bytes());
            p.extend_from_slice(&shard_seq.to_le_bytes());
            p.extend_from_slice(&gap.to_le_bytes());
        }
        Request::Scrub => p.push(T_SCRUB),
        Request::Stats => p.push(T_STATS),
        Request::Flush => p.push(T_FLUSH),
        Request::Report => p.push(T_REPORT),
        Request::Reset => p.push(T_RESET),
        Request::Shutdown => p.push(T_SHUTDOWN),
    }
    encode_frame(&p)
}

/// Decode a request payload (already CRC-verified by [`next_frame`]) into
/// an owned [`Request`]: [`decode_request_ref`], with a `Write`'s line
/// copied.
///
/// # Errors
///
/// A description of the violation — contained to this frame; the stream
/// stays aligned.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    decode_request_ref(payload)
        .map(RequestRef::into_request)
        .map_err(|(_, detail)| detail)
}

/// Decode a request payload (already CRC-verified by [`next_frame`])
/// without copying it: a `Write` borrows its line from `payload`.
///
/// # Errors
///
/// The code to answer with — [`ErrorCode::UnknownOp`] for an unknown tag,
/// [`ErrorCode::BadPayload`] for any other violation — and a description.
/// Contained to this frame; the stream stays aligned.
pub fn decode_request_ref(payload: &[u8]) -> Result<RequestRef<'_>, (ErrorCode, String)> {
    let bad = |detail: String| (ErrorCode::BadPayload, detail);
    let mut c = Cursor::new(payload);
    let req = match c.u8().map_err(bad)? {
        T_HELLO => RequestRef::Hello(decode_hello(&mut c).map_err(bad)?),
        T_WRITE => {
            let (addr, shard_seq, gap) = data_head(&mut c).map_err(bad)?;
            let data = c.bytes_u32(MAX_LINE_BYTES, "line payload").map_err(bad)?;
            RequestRef::Write {
                addr,
                shard_seq,
                gap,
                data,
            }
        }
        T_READ => {
            let (addr, shard_seq, gap) = data_head(&mut c).map_err(bad)?;
            RequestRef::Read {
                addr,
                shard_seq,
                gap,
            }
        }
        T_SCRUB => RequestRef::Scrub,
        T_STATS => RequestRef::Stats,
        T_FLUSH => RequestRef::Flush,
        T_REPORT => RequestRef::Report,
        T_RESET => RequestRef::Reset,
        T_SHUTDOWN => RequestRef::Shutdown,
        other => {
            return Err((
                ErrorCode::UnknownOp,
                format!("unknown request tag {other:#04x}"),
            ))
        }
    };
    c.finish().map_err(bad)?;
    Ok(req)
}

/// A `Hello` body: magic and version first, each checked before the rest.
fn decode_hello(c: &mut Cursor<'_>) -> Result<Hello, String> {
    let magic = c.take(4)?;
    if magic != NET_MAGIC {
        return Err(format!("bad magic {magic:02x?}, want {NET_MAGIC:02x?}"));
    }
    let version = c.u16()?;
    if version != NET_VERSION {
        return Err(format!(
            "protocol version {version}, server speaks {NET_VERSION}"
        ));
    }
    Ok(Hello {
        version,
        line_size: c.u32()?,
        lines: c.u64()?,
        expected_writes: c.u64()?,
        cache_policy: c.u8()?,
        digest_mode: c.u8()?,
        app: utf8(c.bytes_u16(MAX_APP_BYTES, "app name")?, "app name")?,
    })
}

/// `addr · shard_seq · gap`, the head of a `Write` or `Read` body.
fn data_head(c: &mut Cursor<'_>) -> Result<(u64, u64, u32), String> {
    Ok((c.u64()?, c.u64()?, c.u32()?))
}

/// Encode a response as a complete frame (header + payload).
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + 32);
    encode_response_into(&mut out, r);
    out
}

/// Append a response to `out` as a complete frame (header + payload),
/// without an intermediate buffer: the payload is written in place behind
/// a header that is filled in once its length and CRC are known.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`] (encoder bug, not
/// peer input).
pub fn encode_response_into(out: &mut Vec<u8>, r: &Response) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    let p = &mut *out;
    match r {
        Response::HelloOk {
            version,
            shards,
            window,
            line_size,
            lines,
            slots_per_shard,
        } => {
            p.push(T_HELLO_OK);
            p.extend_from_slice(&version.to_le_bytes());
            p.extend_from_slice(&shards.to_le_bytes());
            p.extend_from_slice(&window.to_le_bytes());
            p.extend_from_slice(&line_size.to_le_bytes());
            p.extend_from_slice(&lines.to_le_bytes());
            p.extend_from_slice(&slots_per_shard.to_le_bytes());
        }
        Response::WriteOk { eliminated, sim_ns } => {
            p.push(T_WRITE_OK);
            p.push(u8::from(*eliminated));
            p.extend_from_slice(&sim_ns.to_le_bytes());
        }
        Response::ReadOk { sim_ns } => {
            p.push(T_READ_OK);
            p.extend_from_slice(&sim_ns.to_le_bytes());
        }
        Response::ScrubOk { lines } => {
            p.push(T_SCRUB_OK);
            p.extend_from_slice(&lines.to_le_bytes());
        }
        Response::StatsOk {
            shards,
            accepted,
            active,
            ops,
            errors,
            uptime_ns,
        } => {
            p.push(T_STATS_OK);
            p.extend_from_slice(&shards.to_le_bytes());
            p.extend_from_slice(&accepted.to_le_bytes());
            p.extend_from_slice(&active.to_le_bytes());
            p.extend_from_slice(&ops.to_le_bytes());
            p.extend_from_slice(&errors.to_le_bytes());
            p.extend_from_slice(&uptime_ns.to_le_bytes());
        }
        Response::FlushOk => p.push(T_FLUSH_OK),
        Response::ReportOk { json } => {
            p.push(T_REPORT_OK);
            let bytes = json.as_bytes();
            assert!(
                bytes.len() + 8 <= MAX_FRAME_BYTES,
                "report JSON too large for one frame"
            );
            p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            p.extend_from_slice(bytes);
        }
        Response::ResetOk => p.push(T_RESET_OK),
        Response::ShutdownOk => p.push(T_SHUTDOWN_OK),
        Response::Error { code, detail } => {
            p.push(T_ERROR);
            p.push(*code as u8);
            let bytes = &detail.as_bytes()[..detail.len().min(MAX_DETAIL_BYTES)];
            p.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            p.extend_from_slice(bytes);
        }
    }
    let payload = &out[start + FRAME_HEADER_BYTES..];
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds {MAX_FRAME_BYTES}",
        payload.len()
    );
    let (len, crc) = (payload.len() as u32, Crc32::new().checksum(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Decode a response payload (already CRC-verified by [`next_frame`]).
///
/// # Errors
///
/// A description of the violation.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let resp = match tag {
        T_HELLO_OK => Response::HelloOk {
            version: c.u16()?,
            shards: c.u32()?,
            window: c.u32()?,
            line_size: c.u32()?,
            lines: c.u64()?,
            slots_per_shard: c.u64()?,
        },
        T_WRITE_OK => Response::WriteOk {
            eliminated: match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("eliminated flag {other} is not 0/1")),
            },
            sim_ns: c.u64()?,
        },
        T_READ_OK => Response::ReadOk { sim_ns: c.u64()? },
        T_SCRUB_OK => Response::ScrubOk { lines: c.u64()? },
        T_STATS_OK => Response::StatsOk {
            shards: c.u32()?,
            accepted: c.u64()?,
            active: c.u64()?,
            ops: c.u64()?,
            errors: c.u64()?,
            uptime_ns: c.u64()?,
        },
        T_FLUSH_OK => Response::FlushOk,
        T_REPORT_OK => Response::ReportOk {
            json: utf8(c.bytes_u32(MAX_FRAME_BYTES, "report JSON")?, "report JSON")?,
        },
        T_RESET_OK => Response::ResetOk,
        T_SHUTDOWN_OK => Response::ShutdownOk,
        T_ERROR => {
            let code = c.u8()?;
            let code =
                ErrorCode::from_u8(code).ok_or_else(|| format!("unknown error code {code}"))?;
            let detail = utf8(
                c.bytes_u16(MAX_DETAIL_BYTES, "error detail")?,
                "error detail",
            )?;
            Response::Error { code, detail }
        }
        other => return Err(format!("unknown response tag {other:#04x}")),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> Request {
        Request::Hello(Hello {
            version: NET_VERSION,
            line_size: 256,
            lines: 4096,
            expected_writes: 10_000,
            cache_policy: 2,
            digest_mode: 1,
            app: "mcf".into(),
        })
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            hello(),
            Request::Write {
                addr: 77,
                shard_seq: 123,
                gap: 9,
                data: vec![0xAB; 256],
            },
            Request::Read {
                addr: 3,
                shard_seq: 0,
                gap: 0,
            },
            Request::Scrub,
            Request::Stats,
            Request::Flush,
            Request::Report,
            Request::Reset,
            Request::Shutdown,
        ];
        for req in &reqs {
            let frame = encode_request(req);
            let ev = next_frame(&frame).expect("valid frame");
            let FrameEvent::Frame { payload, consumed } = ev else {
                panic!("complete frame expected");
            };
            assert_eq!(consumed, frame.len());
            assert_eq!(&decode_request(payload).expect("decodes"), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::HelloOk {
                version: NET_VERSION,
                shards: 4,
                window: 64,
                line_size: 256,
                lines: 4096,
                slots_per_shard: 1100,
            },
            Response::WriteOk {
                eliminated: true,
                sim_ns: 321,
            },
            Response::ReadOk { sim_ns: 7 },
            Response::ScrubOk { lines: 888 },
            Response::StatsOk {
                shards: 2,
                accepted: 10,
                active: 3,
                ops: 12345,
                errors: 1,
                uptime_ns: 99,
            },
            Response::FlushOk,
            Response::ReportOk {
                json: "{\"merged\":{},\"per_shard\":[]}".into(),
            },
            Response::ResetOk,
            Response::ShutdownOk,
            Response::Error {
                code: ErrorCode::BadPayload,
                detail: "line payload of 3 bytes".into(),
            },
        ];
        for resp in &resps {
            let frame = encode_response(resp);
            let FrameEvent::Frame { payload, .. } = next_frame(&frame).expect("valid") else {
                panic!("complete frame expected");
            };
            assert_eq!(&decode_response(payload).expect("decodes"), resp);
        }
    }

    #[test]
    fn split_buffer_is_incomplete_then_complete() {
        let frame = encode_request(&Request::Scrub);
        for cut in 0..frame.len() {
            match next_frame(&frame[..cut]).expect("prefix is never an error") {
                FrameEvent::Incomplete => {}
                FrameEvent::Frame { .. } => panic!("cut {cut} decoded a partial frame"),
            }
        }
        assert!(matches!(
            next_frame(&frame).expect("whole frame"),
            FrameEvent::Frame { .. }
        ));
    }

    #[test]
    fn oversized_length_prefix_is_fatal_and_unallocated() {
        let mut frame = encode_request(&Request::Scrub);
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(next_frame(&frame), Err(FrameError::BadLength(u32::MAX)));
        let mut zero = encode_request(&Request::Scrub);
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(next_frame(&zero), Err(FrameError::BadLength(0)));
    }

    #[test]
    fn payload_bit_flip_fails_the_crc() {
        let frame = encode_request(&hello());
        for byte in FRAME_HEADER_BYTES..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            assert_eq!(next_frame(&bad), Err(FrameError::BadCrc), "byte {byte}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = vec![T_SCRUB];
        payload.push(0);
        let frame = encode_frame(&payload);
        let FrameEvent::Frame { payload, .. } = next_frame(&frame).expect("framed") else {
            panic!("complete");
        };
        assert!(decode_request(payload)
            .expect_err("trailing byte")
            .contains("trailing"));
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        let mut h = hello();
        if let Request::Hello(ref mut inner) = h {
            inner.version = NET_VERSION + 1;
        }
        // encode_request writes the version verbatim; decode rejects it.
        let frame = encode_request(&h);
        let FrameEvent::Frame { payload, .. } = next_frame(&frame).expect("framed") else {
            panic!("complete");
        };
        assert!(decode_request(payload)
            .expect_err("future version")
            .contains("version"));

        let frame = encode_request(&hello());
        let mut bad = frame.clone();
        bad[FRAME_HEADER_BYTES + 1] = b'X'; // corrupt magic, fix CRC
        let payload: Vec<u8> = bad[FRAME_HEADER_BYTES..].to_vec();
        let reframed = encode_frame(&payload);
        let FrameEvent::Frame { payload, .. } = next_frame(&reframed).expect("framed") else {
            panic!("complete");
        };
        assert!(decode_request(payload)
            .expect_err("bad magic")
            .contains("magic"));
    }
}
