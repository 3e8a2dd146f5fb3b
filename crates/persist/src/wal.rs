//! Write-ahead log format: a fingerprinted file header followed by
//! checksummed, length-prefixed epoch records.
//!
//! ```text
//! file   := header record*
//! header := magic "DWWL" · version u16 · crc u32 (over fingerprint) · fingerprint u64
//! record := len u32 · crc u32 (over payload) · payload
//! payload:= base_writes u64 · writes_covered u64 · op_count u32 · op*
//! op     := tag u8 · fields (fixed size per tag, little-endian)
//! ```
//!
//! Each record is the epoch batch of data writes `(base_writes,
//! writes_covered]`: all the [`MetaOp`]s those writes applied. The write
//! counts chain consecutive records (and checkpoints), so recovery can
//! detect a gap — as opposed to a *tail* that simply ends early, which is
//! the expected shape of a crash and is silently discarded.
//!
//! Decoding never trusts a length or count before bounding it against the
//! bytes actually present, and any structural violation from some offset
//! onward is classified as a torn tail at that offset: a torn record is
//! *detected and dropped*, never partially applied.

use dewrite_core::MetaOp;
use dewrite_hashes::Crc32;

use crate::PersistError;

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"DWWL";
/// Current WAL format version. v2 widened `ResidentSet.digest` from u32 to
/// u64 to carry the strong keyed tag; v1 segments are rejected at open (the
/// recovery path then falls back to the snapshot alone).
pub const WAL_VERSION: u16 = 2;
/// Size of the WAL file header, bytes.
pub const WAL_HEADER_BYTES: usize = 18;
/// Hard ceiling on one record's payload: 16 MB is far above any epoch
/// batch (an epoch of 64 writes logs at most a few KB).
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// Smallest encoded op (`ResidentDel`: tag + u64).
const MIN_OP_BYTES: usize = 9;
/// Fixed payload bytes before the ops (`base`, `covered`, `op_count`).
const RECORD_FIXED_BYTES: usize = 20;

/// One epoch record: the metadata mutations of data writes
/// `(base_writes, writes_covered]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Total data writes covered *before* this epoch.
    pub base_writes: u64,
    /// Total data writes covered after applying this record.
    pub writes_covered: u64,
    /// The mutations, in application order.
    pub ops: Vec<MetaOp>,
}

/// How a decoded WAL segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The segment ends exactly after its last complete record.
    Clean,
    /// The segment tears at `offset`: `bytes` trailing bytes do not form a
    /// complete valid record and must be discarded (never replayed).
    Torn {
        /// Byte offset of the first unusable byte.
        offset: usize,
        /// Number of discarded bytes.
        bytes: usize,
    },
}

/// A decoded WAL segment: every complete valid record plus the tail state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedWal {
    /// Complete, checksum-valid records in file order.
    pub records: Vec<WalRecord>,
    /// Whether (and where) the segment tears.
    pub tail: WalTail,
}

/// Encode the 18-byte segment header for `fingerprint`.
pub fn encode_wal_header(fingerprint: u64) -> [u8; WAL_HEADER_BYTES] {
    let fp = fingerprint.to_le_bytes();
    let crc = Crc32::new().checksum(&fp);
    let mut h = [0u8; WAL_HEADER_BYTES];
    h[0..4].copy_from_slice(&WAL_MAGIC);
    h[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[6..10].copy_from_slice(&crc.to_le_bytes());
    h[10..18].copy_from_slice(&fp);
    h
}

fn encode_op(op: &MetaOp, out: &mut Vec<u8>) {
    match *op {
        MetaOp::MapSet { init, real } => {
            out.push(0);
            out.extend_from_slice(&init.to_le_bytes());
            out.extend_from_slice(&real.to_le_bytes());
        }
        MetaOp::ResidentSet { real, digest } => {
            out.push(1);
            out.extend_from_slice(&real.to_le_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
        }
        MetaOp::ResidentDel { real } => {
            out.push(2);
            out.extend_from_slice(&real.to_le_bytes());
        }
        MetaOp::CounterSet { line, value } => {
            out.push(3);
            out.extend_from_slice(&line.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
}

fn take_u64(cur: &mut &[u8]) -> Option<u64> {
    if cur.len() < 8 {
        return None;
    }
    let (head, rest) = cur.split_at(8);
    *cur = rest;
    Some(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

fn take_u32(cur: &mut &[u8]) -> Option<u32> {
    if cur.len() < 4 {
        return None;
    }
    let (head, rest) = cur.split_at(4);
    *cur = rest;
    Some(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

fn decode_op(cur: &mut &[u8]) -> Option<MetaOp> {
    let (&tag, rest) = cur.split_first()?;
    *cur = rest;
    match tag {
        0 => Some(MetaOp::MapSet {
            init: take_u64(cur)?,
            real: take_u64(cur)?,
        }),
        1 => Some(MetaOp::ResidentSet {
            real: take_u64(cur)?,
            digest: take_u64(cur)?,
        }),
        2 => Some(MetaOp::ResidentDel {
            real: take_u64(cur)?,
        }),
        3 => Some(MetaOp::CounterSet {
            line: take_u64(cur)?,
            value: take_u32(cur)?,
        }),
        _ => None,
    }
}

/// Encode one record as `len · crc · payload` bytes, ready to append.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(RECORD_FIXED_BYTES + rec.ops.len() * 17);
    payload.extend_from_slice(&rec.base_writes.to_le_bytes());
    payload.extend_from_slice(&rec.writes_covered.to_le_bytes());
    payload.extend_from_slice(&(rec.ops.len() as u32).to_le_bytes());
    for op in &rec.ops {
        encode_op(op, &mut payload);
    }
    assert!(
        payload.len() <= MAX_RECORD_BYTES,
        "epoch record exceeds MAX_RECORD_BYTES"
    );
    let crc = Crc32::new().checksum(&payload);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Bytes ahead of a record's ops: `len · crc` plus the fixed payload head.
const RECORD_HEAD_BYTES: usize = 8 + RECORD_FIXED_BYTES;

/// The streamed encoder behind [`EpochLog`](crate::EpochLog): one reused
/// buffer holding the open epoch's record. Ops are encoded as they arrive
/// behind a reserved head; [`finish`](Self::finish) patches the head in,
/// yielding the bytes [`encode_record`] builds for the same record.
#[derive(Debug)]
pub(crate) struct RecordBuf {
    bytes: Vec<u8>,
    ops: u32,
}

impl RecordBuf {
    pub(crate) fn new() -> Self {
        RecordBuf {
            bytes: vec![0u8; RECORD_HEAD_BYTES],
            ops: 0,
        }
    }

    /// Encode `op` at the end of the open record.
    pub(crate) fn push(&mut self, op: &MetaOp) {
        encode_op(op, &mut self.bytes);
        self.ops += 1;
    }

    /// Close the record over data writes `(base_writes, writes_covered]`
    /// and return its `len · crc · payload` bytes, ready to append.
    pub(crate) fn finish(&mut self, base_writes: u64, writes_covered: u64) -> &[u8] {
        let len = self.bytes.len() - 8;
        assert!(
            len <= MAX_RECORD_BYTES,
            "epoch record exceeds MAX_RECORD_BYTES"
        );
        self.bytes[8..16].copy_from_slice(&base_writes.to_le_bytes());
        self.bytes[16..24].copy_from_slice(&writes_covered.to_le_bytes());
        self.bytes[24..28].copy_from_slice(&self.ops.to_le_bytes());
        let crc = Crc32::new().checksum(&self.bytes[8..]);
        self.bytes[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        &self.bytes
    }

    /// Start the next record, keeping the buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.bytes.truncate(RECORD_HEAD_BYTES);
        self.ops = 0;
    }
}

/// Decode one record payload (already checksum-verified). `None` means the
/// payload is structurally invalid despite the matching CRC (possible only
/// under a checksum collision) — callers treat it as torn.
fn decode_payload(mut cur: &[u8]) -> Option<WalRecord> {
    let base_writes = take_u64(&mut cur)?;
    let writes_covered = take_u64(&mut cur)?;
    if writes_covered <= base_writes {
        return None;
    }
    let count = take_u32(&mut cur)? as usize;
    if count > cur.len() / MIN_OP_BYTES {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(decode_op(&mut cur)?);
    }
    if !cur.is_empty() {
        return None;
    }
    Some(WalRecord {
        base_writes,
        writes_covered,
        ops,
    })
}

/// Decode the record at the head of `rest`, returning it and the bytes it
/// occupies. `None` when `rest` does not start with a complete valid
/// record: short, over-long, checksum-failing or structurally invalid.
fn decode_record(rest: &[u8]) -> Option<(WalRecord, usize)> {
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES || rest.len() - 8 < len {
        return None;
    }
    let payload = &rest[8..8 + len];
    if Crc32::new().checksum(payload) != crc {
        return None;
    }
    Some((decode_payload(payload)?, 8 + len))
}

/// Streaming decoder over a WAL segment image: yields every complete,
/// checksum-valid record in file order, one at a time, and stops at the
/// end of the image or at the first torn byte.
#[derive(Debug)]
pub(crate) struct WalRecords<'a> {
    bytes: &'a [u8],
    /// Offset of the next undecoded byte; `bytes.len()` once stopped.
    offset: usize,
    tail: WalTail,
}

impl<'a> WalRecords<'a> {
    /// Check the segment header and position the decoder on the first
    /// record.
    ///
    /// A missing/short/corrupt *header* classifies the whole segment as
    /// torn at offset 0 (the crash happened before the header reached the
    /// medium). From the first structurally invalid or checksum-failing
    /// record onward, everything is a torn tail: detected, reported by
    /// [`tail`](Self::tail), and never yielded.
    ///
    /// # Errors
    ///
    /// A valid header whose fingerprint differs from `fingerprint` is a
    /// hard [`PersistError::ConfigMismatch`]; an unsupported version is
    /// [`PersistError::Corrupt`]. Torn data never errors.
    pub(crate) fn new(bytes: &'a [u8], fingerprint: u64) -> Result<Self, PersistError> {
        let mut records = WalRecords {
            bytes,
            offset: WAL_HEADER_BYTES,
            tail: WalTail::Clean,
        };
        if bytes.len() < WAL_HEADER_BYTES || bytes[0..4] != WAL_MAGIC {
            records.tear(0);
            return Ok(records);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        let crc = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
        let fp_bytes: [u8; 8] = bytes[10..18].try_into().expect("8 bytes");
        if Crc32::new().checksum(&fp_bytes) != crc {
            records.tear(0);
            return Ok(records);
        }
        if version != WAL_VERSION {
            return Err(PersistError::Corrupt(format!(
                "unsupported WAL version {version} (expected {WAL_VERSION})"
            )));
        }
        let fp = u64::from_le_bytes(fp_bytes);
        if fp != fingerprint {
            return Err(PersistError::ConfigMismatch(format!(
                "WAL was written under config fingerprint {fp:#018x}, expected {fingerprint:#018x}"
            )));
        }
        Ok(records)
    }

    /// How the segment ended; final once `next` has returned `None`.
    pub(crate) fn tail(&self) -> WalTail {
        self.tail
    }

    /// Stop decoding: everything from `offset` on is a torn tail.
    fn tear(&mut self, offset: usize) {
        self.tail = WalTail::Torn {
            offset,
            bytes: self.bytes.len() - offset,
        };
        self.offset = self.bytes.len();
    }
}

impl Iterator for WalRecords<'_> {
    type Item = WalRecord;

    fn next(&mut self) -> Option<WalRecord> {
        let rest = &self.bytes[self.offset..];
        if rest.is_empty() {
            return None;
        }
        match decode_record(rest) {
            Some((record, used)) => {
                self.offset += used;
                Some(record)
            }
            None => {
                self.tear(self.offset);
                None
            }
        }
    }
}

/// Decode a whole WAL segment image: every record [`WalRecords`] yields,
/// plus the tail state — same header rules, same torn-tail classification.
///
/// # Errors
///
/// Only the two hard header cases (fingerprint mismatch, unsupported
/// version) error; torn data never does.
pub fn decode_wal(bytes: &[u8], fingerprint: u64) -> Result<DecodedWal, PersistError> {
    let mut decoder = WalRecords::new(bytes, fingerprint)?;
    let records = decoder.by_ref().collect();
    Ok(DecodedWal {
        records,
        tail: decoder.tail(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                base_writes: 0,
                writes_covered: 4,
                ops: vec![
                    MetaOp::ResidentSet { real: 3, digest: 9 },
                    MetaOp::MapSet { init: 0, real: 3 },
                    MetaOp::CounterSet { line: 3, value: 1 },
                ],
            },
            WalRecord {
                base_writes: 4,
                writes_covered: 8,
                ops: vec![
                    MetaOp::MapSet { init: 1, real: 3 },
                    MetaOp::ResidentDel { real: 7 },
                ],
            },
        ]
    }

    fn encode_segment(records: &[WalRecord], fp: u64) -> Vec<u8> {
        let mut out = encode_wal_header(fp).to_vec();
        for r in records {
            out.extend_from_slice(&encode_record(r));
        }
        out
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records();
        let bytes = encode_segment(&recs, 42);
        let decoded = decode_wal(&bytes, 42).expect("decode");
        assert_eq!(decoded.records, recs);
        assert_eq!(decoded.tail, WalTail::Clean);
    }

    // The on-disk format is pinned byte for byte (computed independently
    // with Python's struct + zlib.crc32): header for fingerprint 42, then
    // one record holding one op of each kind. Both encoders must produce
    // it.
    #[test]
    fn golden_bytes() {
        let golden: String = [
            "4457574c0200f7a1940d2a000000000000004c0000006799b322000000000000",
            "0000040000000000000004000000010300000000000000090000000000000000",
            "0000000000000000030000000000000003030000000000000001000000020700",
            "000000000000",
        ]
        .concat();
        let rec = WalRecord {
            base_writes: 0,
            writes_covered: 4,
            ops: vec![
                MetaOp::ResidentSet { real: 3, digest: 9 },
                MetaOp::MapSet { init: 0, real: 3 },
                MetaOp::CounterSet { line: 3, value: 1 },
                MetaOp::ResidentDel { real: 7 },
            ],
        };
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(&encode_segment(std::slice::from_ref(&rec), 42)), golden);

        let mut streamed = RecordBuf::new();
        for op in &rec.ops {
            streamed.push(op);
        }
        let mut bytes = encode_wal_header(42).to_vec();
        bytes.extend_from_slice(streamed.finish(0, 4));
        assert_eq!(hex(&bytes), golden);
    }

    #[test]
    fn streamed_records_match_encode_record_across_reuse() {
        // One buffer reused over records of every size from empty up.
        let mut streamed = RecordBuf::new();
        let mut base = 0u64;
        for n in 0..40u64 {
            let ops: Vec<MetaOp> = (0..n)
                .map(|i| match (i + n) % 4 {
                    0 => MetaOp::MapSet {
                        init: i,
                        real: n * i,
                    },
                    1 => MetaOp::ResidentSet {
                        real: i,
                        digest: !(n << i),
                    },
                    2 => MetaOp::ResidentDel { real: n + i },
                    _ => MetaOp::CounterSet {
                        line: i,
                        value: n as u32,
                    },
                })
                .collect();
            for op in &ops {
                streamed.push(op);
            }
            let rec = WalRecord {
                base_writes: base,
                writes_covered: base + n + 1,
                ops,
            };
            assert_eq!(
                streamed.finish(rec.base_writes, rec.writes_covered),
                encode_record(&rec)
            );
            streamed.clear();
            base = rec.writes_covered;
        }
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let bytes = encode_segment(&sample_records(), 42);
        assert!(matches!(
            decode_wal(&bytes, 43),
            Err(PersistError::ConfigMismatch(_))
        ));
    }

    #[test]
    fn short_or_garbled_header_is_torn_empty() {
        let d = decode_wal(b"DW", 0).expect("decode");
        assert!(d.records.is_empty());
        assert_eq!(
            d.tail,
            WalTail::Torn {
                offset: 0,
                bytes: 2
            }
        );
        let d = decode_wal(b"", 0).expect("decode");
        assert!(d.records.is_empty());

        let mut bytes = encode_segment(&[], 7);
        bytes[11] ^= 0x10; // corrupt the fingerprint under its CRC
        let d = decode_wal(&bytes, 7).expect("decode");
        assert!(d.records.is_empty());
        assert!(matches!(d.tail, WalTail::Torn { offset: 0, .. }));
    }

    #[test]
    fn truncation_at_every_offset_keeps_a_prefix() {
        let recs = sample_records();
        let bytes = encode_segment(&recs, 9);
        for cut in 0..bytes.len() {
            let d = decode_wal(&bytes[..cut], 9);
            // Fingerprint errors can't occur: either the header is torn or
            // it matches.
            let d = d.expect("no hard error on truncation");
            assert!(d.records.len() <= recs.len(), "cut {cut} invented records");
            for (got, want) in d.records.iter().zip(&recs) {
                assert_eq!(got, want, "cut {cut} altered a record");
            }
            if cut < bytes.len() {
                assert!(
                    matches!(d.tail, WalTail::Torn { .. }) || d.records.len() < recs.len(),
                    "cut {cut} reported a clean full decode of a truncated image"
                );
            }
        }
    }

    #[test]
    fn record_bit_flips_never_add_or_alter_records() {
        let recs = sample_records();
        let bytes = encode_segment(&recs, 9);
        for byte in WAL_HEADER_BYTES..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let d = decode_wal(&corrupt, 9).expect("flips are torn, not errors");
                // Every surviving record must be a verbatim prefix element.
                for (got, want) in d.records.iter().zip(&recs) {
                    assert_eq!(got, want, "flip at {byte}:{bit} altered a record");
                }
                assert!(d.records.len() <= recs.len());
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_torn_not_allocated() {
        let mut bytes = encode_wal_header(1).to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let d = decode_wal(&bytes, 1).expect("decode");
        assert!(d.records.is_empty());
        assert!(matches!(d.tail, WalTail::Torn { offset, .. } if offset == WAL_HEADER_BYTES));
    }

    #[test]
    fn op_count_is_bounded_by_payload() {
        // Valid CRC, absurd op count: decode_payload must bail before
        // reserving.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = Crc32::new().checksum(&payload);
        let mut bytes = encode_wal_header(1).to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let d = decode_wal(&bytes, 1).expect("decode");
        assert!(d.records.is_empty());
        assert!(matches!(d.tail, WalTail::Torn { .. }));
    }
}
