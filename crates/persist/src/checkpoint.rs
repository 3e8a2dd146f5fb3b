//! Checkpoint file format: a checksummed wrapper around the core
//! [`Snapshot`] plus the write count it covers.
//!
//! ```text
//! file    := magic "DWCK" · version u16 · crc u32 (over payload) · payload
//! payload := writes_covered u64 · snapshot bytes (the core v2 format)
//! ```
//!
//! `writes_covered` anchors the WAL chain: the segment paired with this
//! checkpoint logs epochs whose `base_writes` start here. The snapshot
//! carries its own config fingerprint, which recovery verifies.

use std::io::{self, Write};

use dewrite_core::Snapshot;
use dewrite_hashes::Crc32;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DWCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bytes before the payload: `magic`, `version u16`, `crc u32`.
const HEADER_BYTES: usize = 10;

/// Encode the checkpoint file image for `snapshot` as of `writes_covered`
/// data writes, borrowing the snapshot: one exactly-sized buffer, both
/// headers written ahead of their payloads and both CRCs patched in after,
/// so the store can hand the file a single `write_all`.
pub(crate) fn encode_checkpoint(writes_covered: u64, snapshot: &Snapshot) -> Vec<u8> {
    let mut image = Vec::with_capacity(HEADER_BYTES + 8 + snapshot.encoded_len());
    image.extend_from_slice(&CHECKPOINT_MAGIC);
    image.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    image.extend_from_slice(&[0u8; 4]);
    image.extend_from_slice(&writes_covered.to_le_bytes());
    snapshot.encode_into(&mut image);
    let crc = Crc32::new().checksum(&image[HEADER_BYTES..]);
    image[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    image
}

/// A durable checkpoint: the full metadata state as of `writes_covered`
/// data writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Total data writes whose effects the snapshot includes.
    pub writes_covered: u64,
    /// The metadata state.
    pub snapshot: Snapshot,
}

impl Checkpoint {
    /// Serialize to a writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&encode_checkpoint(self.writes_covered, &self.snapshot))
    }

    /// Decode a checkpoint image, bounding the embedded snapshot's claimed
    /// line count by `max_lines`.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on bad magic/version, a
    /// checksum mismatch, or an invalid embedded snapshot.
    pub fn read_from_bounded(bytes: &[u8], max_lines: u64) -> io::Result<Self> {
        if bytes.len() < HEADER_BYTES {
            return Err(bad("checkpoint header truncated"));
        }
        if bytes[0..4] != CHECKPOINT_MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let crc = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
        let payload = &bytes[HEADER_BYTES..];
        if Crc32::new().checksum(payload) != crc {
            return Err(bad("checkpoint checksum mismatch (corrupt or torn)"));
        }
        if payload.len() < 8 {
            return Err(bad("checkpoint payload truncated"));
        }
        let writes_covered = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let snapshot = Snapshot::read_from_bounded(&payload[8..], max_lines)?;
        Ok(Checkpoint {
            writes_covered,
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            writes_covered: 123,
            snapshot: Snapshot {
                config_fp: 7,
                lines: 64,
                mappings: vec![(0, 5), (1, 5)],
                residents: vec![(5, 99)],
                counters: vec![(5, 2)],
            },
        }
    }

    #[test]
    fn roundtrip() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert_eq!(Checkpoint::read_from_bounded(&buf, 64).unwrap(), ck);
    }

    // The on-disk format is pinned byte for byte (computed independently
    // with zlib's crc32): the encoder may change how it builds the image,
    // never the image.
    #[test]
    fn golden_bytes() {
        let golden: String = [
            "4457434b0100e4a21fee7b0000000000000044575353030066a0b31f07000000",
            "0000000040000000000000000200000000000000000000000000000005000000",
            "0000000001000000000000000500000000000000010000000000000005000000",
            "0000000063000000000000000100000000000000050000000000000002000000",
        ]
        .concat();
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    #[test]
    fn every_truncation_and_flip_is_rejected() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                Checkpoint::read_from_bounded(&buf[..cut], 64).is_err(),
                "truncation at {cut} decoded"
            );
        }
        for byte in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 0x01;
            assert!(
                Checkpoint::read_from_bounded(&corrupt, 64).is_err(),
                "flip at {byte} decoded"
            );
        }
    }

    #[test]
    fn line_bound_applies_to_embedded_snapshot() {
        let ck = sample();
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert!(Checkpoint::read_from_bounded(&buf, 16).is_err());
    }
}
