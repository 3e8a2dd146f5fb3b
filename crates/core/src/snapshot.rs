//! Controller-state snapshot: serialize the durable metadata (dedup tables
//! and per-line counters) so a DeWrite memory can power-cycle.
//!
//! In hardware, this state lives in the encrypted NVM metadata region and
//! survives power loss by construction (given one of the §V persistence
//! schemes for the *cached* portion). In the simulator, the authoritative
//! copies are in-controller structures, so a restart needs an explicit
//! snapshot: [`DeWrite::snapshot`](crate::DeWrite::snapshot) captures it,
//! [`DeWrite::power_on`](crate::DeWrite::power_on) rebuilds a controller
//! over the same device, and [`DeWrite::scrub`](crate::DeWrite::scrub)
//! verifies the result. Both the simulator and the engine's shard capture
//! through one [`CommitKernel::snapshot`](crate::CommitKernel::snapshot),
//! which holds the tables and the counters alike.
//!
//! # Format (version 2)
//!
//! A snapshot image is `magic "DWSS" · version u16 · crc u32 · payload`,
//! where the CRC-32 covers the whole payload and the payload is
//! `config_fp u64 · lines u64 · mappings · residents · counters` (each
//! section a `u64` count followed by fixed-size little-endian records).
//!
//! The decoder is hardened against corrupt or adversarial input: the
//! payload is length-capped before it is buffered, the checksum is verified
//! before any field is interpreted, and every count is bounded both by the
//! bytes actually present and by a caller-supplied (config-derived) line
//! maximum — a corrupt header can never demand a large allocation.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use dewrite_crypto::{LineCounter, COUNTER_MAX};
use dewrite_hashes::Crc32;
use dewrite_nvm::LineAddr;

use crate::dedup::DedupIndex;

/// Magic bytes of a snapshot stream.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DWSS";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 3;
/// Hard ceiling on the line count any snapshot may claim: 2^40 lines
/// (a 256 TB device at 256 B lines) — far beyond any simulated config.
pub const MAX_SNAPSHOT_LINES: u64 = 1 << 40;

/// Bytes of one mapping record (`init u64`, `real u64`).
const MAPPING_BYTES: u64 = 16;
/// Bytes of one resident record (`real u64`, `digest u64`).
const RESIDENT_BYTES: u64 = 16;
/// Bytes of one counter record (`line u64`, `value u32`).
const COUNTER_BYTES: u64 = 12;
/// Payload bytes before the variable sections (`config_fp`, `lines`).
const FIXED_PAYLOAD_BYTES: u64 = 16;
/// Bytes of the image header (`magic`, `version u16`, `crc u32`).
const IMAGE_HEADER_BYTES: u64 = 10;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The durable controller state of a DeWrite memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the controller configuration that produced this
    /// snapshot ([`DeWriteConfig::fingerprint`](crate::DeWriteConfig::fingerprint)).
    /// Restoring under a configuration with a different fingerprint would
    /// silently misinterpret the tables, so
    /// [`DeWrite::power_on`](crate::DeWrite::power_on) rejects mismatches.
    pub config_fp: u64,
    /// Number of data lines the index covers.
    pub lines: u64,
    /// `initAddr → realAddr` for every written address (identity entries
    /// included, so residency can be rebuilt).
    pub mappings: Vec<(u64, u64)>,
    /// `realAddr → digest` for every resident line.
    pub residents: Vec<(u64, u64)>,
    /// `line → counter` for every line ever encrypted.
    pub counters: Vec<(u64, u32)>,
}

impl Snapshot {
    /// Capture the durable state of an index, its counters included,
    /// stamped with the owning configuration's fingerprint.
    pub fn capture(index: &DedupIndex, config_fp: u64) -> Self {
        index
            .kernel()
            .snapshot(config_fp, index.lines(), |line| line)
    }

    /// An empty snapshot over `lines` lines (the state of a fresh
    /// controller): no mappings, no residents, no counters.
    pub fn empty(lines: u64, config_fp: u64) -> Self {
        Snapshot {
            config_fp,
            lines,
            mappings: Vec::new(),
            residents: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Rebuild the dedup index, its counters included.
    ///
    /// The hash table is reconstructed from the resident set: one entry per
    /// resident line, with reference counts recomputed from the mappings —
    /// exactly what a recovery scan of the inverted table would produce.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (mapping to a
    /// non-resident line or across dedup domains, out-of-range address,
    /// counter wider than its 28 bits).
    pub fn rebuild(&self) -> Result<DedupIndex, String> {
        self.rebuild_with_domains(1)
    }

    /// Like [`rebuild`](Self::rebuild) with the configured number of dedup
    /// domains, so the rebuilt index keeps enforcing domain isolation. A
    /// checkpoint is outside input: a mapping whose target lies in another
    /// domain would restore sharing across tenants, and is rejected.
    pub fn rebuild_with_domains(&self, domains: u64) -> Result<DedupIndex, String> {
        let mut index = DedupIndex::with_domains(self.lines, domains.max(1));
        let resident: HashMap<u64, u64> = self.residents.iter().copied().collect();

        // Install every resident line first (owner stores)…
        for &(line, digest) in &self.residents {
            if line >= self.lines {
                return Err(format!("resident line {line} out of range"));
            }
            index.restore_resident(LineAddr::new(line), digest);
        }
        // …then re-link every written address.
        for &(init, real) in &self.mappings {
            if init >= self.lines || real >= self.lines {
                return Err(format!("mapping {init}->{real} out of range"));
            }
            if !resident.contains_key(&real) {
                return Err(format!(
                    "mapping {init}->{real} targets a non-resident line"
                ));
            }
            let (from, to) = (
                index.domain_of(LineAddr::new(init)),
                index.domain_of(LineAddr::new(real)),
            );
            if from != to {
                return Err(format!(
                    "mapping {init}->{real} crosses from dedup domain {from} to {to}"
                ));
            }
            index.restore_mapping(LineAddr::new(init), LineAddr::new(real));
        }
        index
            .check_invariants()
            .map_err(|e| format!("rebuilt index is inconsistent: {e}"))?;

        for &(line, value) in &self.counters {
            if line >= self.lines {
                return Err(format!("counter line {line} out of range"));
            }
            // The checksum covers the bytes, not their meaning: a value
            // wider than the counter is corrupt input, not a panic.
            if value > COUNTER_MAX {
                return Err(format!(
                    "counter of line {line} is {value}, wider than 28 bits"
                ));
            }
            index.restore_counter(LineAddr::new(line), LineCounter::from_value(value));
        }
        Ok(index)
    }

    /// Exact size of the image [`encode_into`](Self::encode_into) appends.
    pub fn encoded_len(&self) -> usize {
        (IMAGE_HEADER_BYTES
            + FIXED_PAYLOAD_BYTES
            + 24
            + self.mappings.len() as u64 * MAPPING_BYTES
            + self.residents.len() as u64 * RESIDENT_BYTES
            + self.counters.len() as u64 * COUNTER_BYTES) as usize
    }

    /// Append the serialized image to `buf`: the header goes in first with
    /// the checksum left blank, the payload is encoded in place behind it,
    /// and the CRC is patched in at the end — one pass, no staging copy.
    /// Callers embedding the image (the persistence layer's checkpoint
    /// files) reserve [`encoded_len`](Self::encoded_len) up front.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.reserve(self.encoded_len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let crc_at = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        let payload_at = buf.len();
        buf.extend_from_slice(&self.config_fp.to_le_bytes());
        buf.extend_from_slice(&self.lines.to_le_bytes());
        buf.extend_from_slice(&(self.mappings.len() as u64).to_le_bytes());
        for &(a, b) in &self.mappings {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        buf.extend_from_slice(&(self.residents.len() as u64).to_le_bytes());
        for &(line, digest) in &self.residents {
            buf.extend_from_slice(&line.to_le_bytes());
            buf.extend_from_slice(&digest.to_le_bytes());
        }
        buf.extend_from_slice(&(self.counters.len() as u64).to_le_bytes());
        for &(line, ctr) in &self.counters {
            buf.extend_from_slice(&line.to_le_bytes());
            buf.extend_from_slice(&ctr.to_le_bytes());
        }
        let crc = Crc32::new().checksum(&buf[payload_at..]);
        buf[crc_at..payload_at].copy_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len() - start, self.encoded_len());
    }

    /// Serialize to a writer (one `write_all` of the encoded image).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut image = Vec::new();
        self.encode_into(&mut image);
        w.write_all(&image)
    }

    /// Deserialize from a reader with the default
    /// [`MAX_SNAPSHOT_LINES`] bound. Prefer
    /// [`read_from_bounded`](Self::read_from_bounded) when the expected
    /// line count is known from configuration.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on bad magic/version, a
    /// checksum mismatch, a truncated stream, or counts exceeding the input.
    pub fn read_from<R: Read>(r: R) -> io::Result<Self> {
        Self::read_from_bounded(r, MAX_SNAPSHOT_LINES)
    }

    /// Deserialize from a reader, rejecting any image claiming more than
    /// `max_lines` lines (callers derive the bound from their
    /// [`SystemConfig`](crate::SystemConfig), e.g. `data_lines`).
    ///
    /// The input is buffered up to a size bound derived from `max_lines`
    /// *before* any length prefix is trusted, the CRC is verified before
    /// any field is interpreted, and every section count is additionally
    /// bounded by the remaining payload bytes — a corrupt header cannot
    /// demand a multi-GB allocation.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] as [`read_from`](Self::read_from).
    pub fn read_from_bounded<R: Read>(mut r: R, max_lines: u64) -> io::Result<Self> {
        let max_lines = max_lines.min(MAX_SNAPSHOT_LINES);
        let mut head = [0u8; 10];
        r.read_exact(&mut head)?;
        if head[0..4] != SNAPSHOT_MAGIC {
            return Err(bad("not a DeWrite snapshot"));
        }
        let version = u16::from_le_bytes([head[4], head[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let crc = u32::from_le_bytes([head[6], head[7], head[8], head[9]]);

        // Buffer the payload, capped at the largest size a `max_lines`
        // snapshot can legitimately occupy. `read_to_end` grows with the
        // bytes actually supplied, so a short corrupt stream allocates
        // proportionally to its own length, never to a claimed count.
        let cap = FIXED_PAYLOAD_BYTES.saturating_add(24).saturating_add(
            max_lines.saturating_mul(MAPPING_BYTES + RESIDENT_BYTES + COUNTER_BYTES),
        );
        let mut payload = Vec::new();
        let read = r.by_ref().take(cap + 1).read_to_end(&mut payload)? as u64;
        if read > cap {
            return Err(bad(format!(
                "snapshot payload exceeds the {cap}-byte bound for {max_lines} lines"
            )));
        }
        if Crc32::new().checksum(&payload) != crc {
            return Err(bad("snapshot checksum mismatch (corrupt or torn image)"));
        }

        let mut cur = &payload[..];
        let take_u64 = |cur: &mut &[u8]| -> io::Result<u64> {
            if cur.len() < 8 {
                return Err(bad("snapshot payload truncated"));
            }
            let (head, rest) = cur.split_at(8);
            *cur = rest;
            Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
        };
        let take_u32 = |cur: &mut &[u8]| -> io::Result<u32> {
            if cur.len() < 4 {
                return Err(bad("snapshot payload truncated"));
            }
            let (head, rest) = cur.split_at(4);
            *cur = rest;
            Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
        };

        let config_fp = take_u64(&mut cur)?;
        let lines = take_u64(&mut cur)?;
        if lines > max_lines {
            return Err(bad(format!(
                "snapshot claims {lines} lines, above the configured maximum {max_lines}"
            )));
        }
        // Each section's count is bounded by the configured line space AND
        // by the bytes actually remaining, so `with_capacity` is safe.
        let section = |cur: &mut &[u8], entry_bytes: u64, name: &str| -> io::Result<usize> {
            let n = take_u64(cur)?;
            if n > lines {
                return Err(bad(format!(
                    "snapshot {name} count {n} exceeds the {lines}-line index"
                )));
            }
            if n > cur.len() as u64 / entry_bytes {
                return Err(bad(format!(
                    "snapshot {name} count {n} exceeds the remaining {} payload bytes",
                    cur.len()
                )));
            }
            Ok(n as usize)
        };

        let n = section(&mut cur, MAPPING_BYTES, "mapping")?;
        let mut mappings = Vec::with_capacity(n);
        for _ in 0..n {
            let a = take_u64(&mut cur)?;
            let b = take_u64(&mut cur)?;
            mappings.push((a, b));
        }
        let n = section(&mut cur, RESIDENT_BYTES, "resident")?;
        let mut residents = Vec::with_capacity(n);
        for _ in 0..n {
            let line = take_u64(&mut cur)?;
            let digest = take_u64(&mut cur)?;
            residents.push((line, digest));
        }
        let n = section(&mut cur, COUNTER_BYTES, "counter")?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let line = take_u64(&mut cur)?;
            let value = take_u32(&mut cur)?;
            counters.push((line, value));
        }
        if !cur.is_empty() {
            return Err(bad(format!(
                "snapshot payload has {} trailing bytes",
                cur.len()
            )));
        }
        Ok(Snapshot {
            config_fp,
            lines,
            mappings,
            residents,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> DedupIndex {
        let mut idx = DedupIndex::new(16);
        // line 0 stores content A (digest 10), lines 1 and 2 dedup to it;
        // line 3 stores content B (digest 20).
        idx.apply_store(LineAddr::new(0), 10);
        idx.apply_duplicate(LineAddr::new(1), LineAddr::new(0));
        idx.apply_duplicate(LineAddr::new(2), LineAddr::new(0));
        idx.apply_store(LineAddr::new(3), 20);
        idx.restore_counter(LineAddr::new(3), LineCounter::from_value(2));
        idx.restore_counter(LineAddr::new(0), LineCounter::from_value(5));
        idx
    }

    #[test]
    fn capture_rebuild_roundtrip() {
        let idx = sample_index();
        let snap = Snapshot::capture(&idx, 0xFEED);
        assert_eq!(snap.config_fp, 0xFEED);
        let rebuilt = snap.rebuild().expect("rebuild");
        let rcounters = rebuilt.counters();
        assert_eq!(rebuilt.resolve(LineAddr::new(1)), Some(LineAddr::new(0)));
        assert_eq!(rebuilt.resolve(LineAddr::new(2)), Some(LineAddr::new(0)));
        assert_eq!(rebuilt.resolve(LineAddr::new(3)), Some(LineAddr::new(3)));
        assert_eq!(rebuilt.reference_of(LineAddr::new(0)), Some(3));
        assert_eq!(rebuilt.digest_of(LineAddr::new(3)), Some(20));
        assert_eq!(snap.counters, vec![(0, 5), (3, 2)], "sorted wire form");
        assert_eq!(rcounters.get(0).map(LineCounter::value), Some(5));
        assert_eq!(rcounters.iter().count(), 2);
        rebuilt.check_invariants().expect("invariants");
    }

    #[test]
    fn serialization_roundtrip() {
        let snap = Snapshot::capture(&sample_index(), 77);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).expect("encode");
        let decoded = Snapshot::read_from(buf.as_slice()).expect("decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(Snapshot::read_from(&b"NOPE"[..]).is_err());
        let snap = Snapshot::capture(&sample_index(), 0);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).expect("encode");
        // Truncation at EVERY byte offset must error, never panic.
        for cut in 0..buf.len() {
            assert!(
                Snapshot::read_from(&buf[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let snap = Snapshot::capture(&sample_index(), 42);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).expect("encode");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Snapshot::read_from(corrupt.as_slice()).is_err(),
                    "flip at byte {byte} bit {bit} decoded"
                );
            }
        }
    }

    #[test]
    fn oversized_header_counts_are_rejected_without_allocation() {
        // A hand-built image claiming u64::MAX mappings in a 60-byte stream:
        // the decoder must reject it from the length bound (the CRC is made
        // valid on purpose so the count check itself is exercised).
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes()); // config_fp
        payload.extend_from_slice(&16u64.to_le_bytes()); // lines
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // mapping count
        let crc = Crc32::new().checksum(&payload);
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = Snapshot::read_from(buf.as_slice()).expect_err("oversized count");
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn line_counts_above_the_configured_bound_are_rejected() {
        let snap = Snapshot::empty(1 << 20, 0);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).expect("encode");
        assert!(Snapshot::read_from_bounded(buf.as_slice(), 1 << 20).is_ok());
        let err = Snapshot::read_from_bounded(buf.as_slice(), 1 << 10).expect_err("too many lines");
        assert!(err.to_string().contains("maximum"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let snap = Snapshot::empty(4, 0);
        let mut buf = Vec::new();
        snap.write_to(&mut buf).expect("encode");
        buf.push(0xAB);
        assert!(Snapshot::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn rebuild_rejects_dangling_mapping() {
        let snap = Snapshot {
            config_fp: 0,
            lines: 8,
            mappings: vec![(1, 5)],
            residents: vec![], // line 5 is not resident
            counters: vec![],
        };
        let err = snap.rebuild().expect_err("dangling mapping");
        assert!(err.contains("non-resident"), "{err}");
    }

    #[test]
    fn rebuild_rejects_cross_domain_mapping() {
        let snap = Snapshot {
            config_fp: 0,
            lines: 64,
            mappings: vec![(0, 40)],
            residents: vec![(40, 7)],
            counters: vec![],
        };
        assert!(snap.rebuild().is_ok(), "one domain shares everything");
        let err = snap
            .rebuild_with_domains(2)
            .expect_err("cross-domain mapping");
        assert!(err.contains("mapping 0->40 crosses"), "{err}");
    }

    #[test]
    fn rebuild_rejects_out_of_range() {
        let snap = Snapshot {
            config_fp: 0,
            lines: 4,
            mappings: vec![],
            residents: vec![(9, 1)],
            counters: vec![],
        };
        assert!(snap.rebuild().is_err());
        let snap = Snapshot {
            config_fp: 0,
            lines: 4,
            mappings: vec![],
            residents: vec![],
            counters: vec![(1 << 50, 1)],
        };
        let err = snap.rebuild().expect_err("counter beyond the index");
        assert!(err.contains("counter line"), "{err}");
        let snap = Snapshot {
            counters: vec![(1, 1 << 28)],
            ..snap
        };
        let err = snap.rebuild().expect_err("counter wider than 28 bits");
        assert!(err.contains("counter of line 1"), "{err}");
    }
}
