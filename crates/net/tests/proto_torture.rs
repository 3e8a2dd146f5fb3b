//! Wire-protocol torture: proptest roundtrips for every message,
//! truncation at every offset, single-bit flips, oversized/zero length
//! prefixes, unknown tags, and a byte-dribbled multi-frame stream.
//!
//! Every test here is on `.github/required-tests.txt`. The invariant
//! under test: a malformed frame is *always* a typed error (or
//! `Incomplete`), never a panic, never a silently different message,
//! and never a desynchronized stream.

use dewrite_net::proto::{
    self, ErrorCode, FrameError, FrameEvent, Hello, Request, Response, FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES, NET_VERSION,
};
use proptest::prelude::*;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            any::<u32>(),
            1u64..1_000_000,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(line_size, lines, expected_writes, app)| {
                let cache_policy = (expected_writes % 3) as u8;
                let digest_mode = (expected_writes % 2) as u8;
                let app: String = app.into_iter().map(|b| (b'a' + b % 26) as char).collect();
                Request::Hello(Hello {
                    version: NET_VERSION,
                    line_size,
                    lines,
                    expected_writes,
                    cache_policy,
                    digest_mode,
                    app,
                })
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(addr, shard_seq, gap, data)| Request::Write {
                addr,
                shard_seq,
                gap,
                data,
            }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(addr, shard_seq, gap)| {
            Request::Read {
                addr,
                shard_seq,
                gap,
            }
        }),
        Just(Request::Scrub),
        Just(Request::Stats),
        Just(Request::Flush),
        Just(Request::Report),
        Just(Request::Reset),
        Just(Request::Shutdown),
    ]
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadFrame),
        Just(ErrorCode::UnknownOp),
        Just(ErrorCode::BadPayload),
        Just(ErrorCode::NotReady),
        Just(ErrorCode::ConfigMismatch),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::ScrubFailed),
        Just(ErrorCode::Internal),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(shards, window, line_size, lines, slots_per_shard)| {
                Response::HelloOk {
                    version: NET_VERSION,
                    shards,
                    window,
                    line_size,
                    lines,
                    slots_per_shard,
                }
            }),
        (any::<bool>(), any::<u64>())
            .prop_map(|(eliminated, sim_ns)| Response::WriteOk { eliminated, sim_ns }),
        any::<u64>().prop_map(|sim_ns| Response::ReadOk { sim_ns }),
        any::<u64>().prop_map(|lines| Response::ScrubOk { lines }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(shards, accepted, active, ops, errors, uptime_ns)| {
                Response::StatsOk {
                    shards,
                    accepted,
                    active,
                    ops,
                    errors,
                    uptime_ns,
                }
            }),
        Just(Response::FlushOk),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|bytes| {
            let json: String = bytes.into_iter().map(|b| (b' ' + b % 95) as char).collect();
            Response::ReportOk { json }
        }),
        Just(Response::ResetOk),
        Just(Response::ShutdownOk),
        (
            arb_error_code(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(code, bytes)| {
                let detail: String = bytes.into_iter().map(|b| (b' ' + b % 95) as char).collect();
                Response::Error { code, detail }
            }),
    ]
}

/// Decode one full frame, asserting there is exactly one and it consumes
/// the whole buffer.
fn sole_payload(frame: &[u8]) -> Vec<u8> {
    match proto::next_frame(frame) {
        Ok(FrameEvent::Frame { payload, consumed }) => {
            assert_eq!(consumed, frame.len(), "frame must consume itself exactly");
            payload.to_vec()
        }
        other => panic!("expected one whole frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_roundtrips(req in arb_request()) {
        let frame = proto::encode_request(&req);
        let payload = sole_payload(&frame);
        let back = proto::decode_request(&payload).expect("decode");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn every_response_roundtrips(resp in arb_response()) {
        let frame = proto::encode_response(&resp);
        let payload = sole_payload(&frame);
        let back = proto::decode_response(&payload).expect("decode");
        prop_assert_eq!(&back, &resp);
        // Appending in place behind earlier frames yields the same bytes.
        let mut wbuf = frame.clone();
        proto::encode_response_into(&mut wbuf, &resp);
        prop_assert_eq!(wbuf, [frame.as_slice(), frame.as_slice()].concat());
    }

    #[test]
    fn truncation_at_every_offset_is_incomplete(req in arb_request()) {
        let frame = proto::encode_request(&req);
        for cut in 0..frame.len() {
            let step = proto::next_frame(&frame[..cut]);
            prop_assert_eq!(
                step,
                Ok(FrameEvent::Incomplete),
                "prefix of {}/{} bytes must be incomplete",
                cut,
                frame.len()
            );
        }
    }

    #[test]
    fn single_bit_flips_never_yield_a_different_message(req in arb_request()) {
        let frame = proto::encode_request(&req);
        let original = sole_payload(&frame);
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                match proto::next_frame(&flipped) {
                    // A flip in the length prefix can only make the frame
                    // look longer (incomplete), out of bounds, or shorter
                    // (then the CRC no longer covers the right slice). A
                    // flip in the CRC or payload is a guaranteed CRC
                    // mismatch: CRC32 detects all single-bit errors.
                    Err(FrameError::BadCrc) | Err(FrameError::BadLength(_)) => {}
                    Ok(FrameEvent::Incomplete) => {}
                    Ok(FrameEvent::Frame { payload, .. }) => {
                        prop_assert_eq!(
                            payload,
                            original.as_slice(),
                            "bit {} of byte {} produced a different valid frame",
                            bit,
                            byte
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn byte_dribbled_stream_never_desyncs(reqs in proptest::collection::vec(arb_request(), 1..8)) {
        // Concatenate every frame, then feed the stream one byte at a
        // time the way a socket read loop would.
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&proto::encode_request(r));
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for &b in &stream {
            buf.push(b);
            loop {
                match proto::next_frame(&buf).expect("healthy stream") {
                    FrameEvent::Incomplete => break,
                    FrameEvent::Frame { payload, consumed } => {
                        decoded.push(proto::decode_request(payload).expect("decode"));
                        buf.drain(..consumed);
                    }
                }
            }
        }
        prop_assert!(buf.is_empty(), "stream left {} undecoded bytes", buf.len());
        prop_assert_eq!(decoded, reqs);
    }

    #[test]
    fn borrowed_and_owned_decoders_agree(req in arb_request()) {
        // On the frame's payload, on every truncation of it and on every
        // single-bit flip of it, the borrowed decoder and the owned one
        // give the same request or the same error; an unknown tag (the
        // request tags are 1..=9) is `UnknownOp`, anything else
        // `BadPayload`.
        let payload = sole_payload(&proto::encode_request(&req));
        let mut inputs: Vec<Vec<u8>> = (0..=payload.len()).map(|cut| payload[..cut].to_vec()).collect();
        for byte in 0..payload.len() {
            for bit in 0..8u8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                inputs.push(flipped);
            }
        }
        for input in &inputs {
            match (proto::decode_request_ref(input), proto::decode_request(input)) {
                (Ok(borrowed), Ok(owned)) => prop_assert_eq!(borrowed.into_request(), owned),
                (Err((code, detail)), Err(owned)) => {
                    prop_assert_eq!(&detail, &owned);
                    let unknown_tag = input.first().is_some_and(|tag| !(1..=9).contains(tag));
                    let want = if unknown_tag { ErrorCode::UnknownOp } else { ErrorCode::BadPayload };
                    prop_assert_eq!(code, want, "{}", detail);
                }
                (borrowed, owned) => {
                    prop_assert!(false, "decoders disagree: {:?} vs {:?}", borrowed, owned);
                }
            }
        }
    }

    #[test]
    fn garbage_payloads_are_typed_errors(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Whatever the bytes, decoding must return Err — never panic.
        // (A valid encoding could decode, which is fine; the point is
        // that arbitrary bytes can't crash the decoders.)
        let _ = proto::decode_request(&bytes);
        let _ = proto::decode_response(&bytes);
    }
}

#[test]
fn zero_and_oversized_length_prefixes_are_fatal() {
    let mut zero = Vec::new();
    zero.extend_from_slice(&0u32.to_le_bytes());
    zero.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(proto::next_frame(&zero), Err(FrameError::BadLength(0)));

    let huge = (MAX_FRAME_BYTES as u32) + 1;
    let mut frame = Vec::new();
    frame.extend_from_slice(&huge.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    // The violation must be detected from the 8-byte header alone:
    // a hostile length prefix never causes a buffer allocation.
    assert_eq!(frame.len(), FRAME_HEADER_BYTES);
    assert_eq!(proto::next_frame(&frame), Err(FrameError::BadLength(huge)));
}

#[test]
fn unknown_tags_are_typed_errors() {
    for tag in [0u8, 10, 0x40, 0x80, 0x8A, 0xFE] {
        let frame = proto::encode_frame(&[tag]);
        let payload = sole_payload(&frame);
        let err = proto::decode_request(&payload).expect_err("unknown tag must not decode");
        assert!(
            err.contains("unknown request tag"),
            "tag {tag:#x}: unexpected error {err:?}"
        );
    }
    // And on the response side.
    let frame = proto::encode_frame(&[0x7Fu8]);
    let payload = sole_payload(&frame);
    assert!(proto::decode_response(&payload).is_err());
}

fn v3_hello(digest_mode: u8) -> Hello {
    Hello {
        version: NET_VERSION,
        line_size: 256,
        lines: 64,
        expected_writes: 32,
        cache_policy: 0,
        digest_mode,
        app: "mcf".into(),
    }
}

#[test]
fn wrong_version_hello_is_rejected() {
    let good = proto::encode_request(&Request::Hello(v3_hello(0)));
    let payload = sole_payload(&good);
    // The version lives right after tag + magic; forge every other
    // version value's low byte and expect a typed rejection.
    let mut forged = payload.clone();
    forged[5] ^= 0xFF;
    let reframed = proto::encode_frame(&forged);
    let err = proto::decode_request(&sole_payload(&reframed)).expect_err("version must gate");
    assert!(err.contains("version"), "unexpected error {err:?}");
}

#[test]
fn digest_mode_byte_roundtrips_every_wire_value() {
    // The defined mode plus undefined values: the codec carries the
    // byte verbatim (range validation is the server's Hello handler, the
    // same split as cache_policy), so nothing in the transport layer can
    // silently remap a mode.
    for mode in [0u8, 1, 2, 0xFF] {
        let req = Request::Hello(v3_hello(mode));
        let frame = proto::encode_request(&req);
        let back = proto::decode_request(&sole_payload(&frame)).expect("decode");
        assert_eq!(back, req, "digest mode {mode} must survive the wire");
    }
}

#[test]
fn v2_hello_without_digest_mode_is_a_clean_version_mismatch() {
    // A v2 client's Hello body is one byte shorter (no digest_mode) and
    // says version 2. Hand-assemble that exact v2 layout: the decoder
    // must reject it on the version check — a typed error naming both
    // versions, never a desync or a misparse of the app bytes as a mode.
    let mut p = Vec::new();
    p.push(0x01); // T_HELLO
    p.extend_from_slice(b"DWNP");
    p.extend_from_slice(&2u16.to_le_bytes()); // the previous version
    p.extend_from_slice(&256u32.to_le_bytes()); // line_size
    p.extend_from_slice(&64u64.to_le_bytes()); // lines
    p.extend_from_slice(&32u64.to_le_bytes()); // expected_writes
    p.push(0); // cache_policy — and no digest_mode byte after it
    let app = b"mcf";
    p.extend_from_slice(&(app.len() as u16).to_le_bytes());
    p.extend_from_slice(app);
    let frame = proto::encode_frame(&p);
    let err = proto::decode_request(&sole_payload(&frame)).expect_err("v2 must be refused");
    assert!(
        err.contains("version 2") && err.contains("3"),
        "v2 client deserves a version mismatch, got {err:?}"
    );
}

#[test]
fn truncating_the_digest_mode_byte_never_misparses() {
    // Drop single bytes from a valid v3 Hello payload (shifting the app
    // bytes into the digest_mode position and so on): every result must
    // be a typed decode error or a *different* valid message detected as
    // such by its own checks — never a panic.
    let frame = proto::encode_request(&Request::Hello(v3_hello(1)));
    let payload = sole_payload(&frame);
    for drop_at in 0..payload.len() {
        let mut cut = payload.clone();
        cut.remove(drop_at);
        let reframed = proto::encode_frame(&cut);
        let _ = proto::decode_request(&sole_payload(&reframed));
    }
}
