//! Recovery: newest valid checkpoint + WAL suffix replay → the
//! [`Snapshot`] the store's last flushed epoch left.
//!
//! The algorithm (mirroring what a controller's recovery microcode would do
//! over the NVM metadata region):
//!
//! 1. scan the store directory for checkpoints, newest first; take the
//!    first that decodes (checksum + bounds + fingerprint) — a torn newest
//!    checkpoint falls back to the previous pair, which rotation always
//!    retains;
//! 2. replay every WAL segment from that checkpoint's sequence upward, in
//!    order, applying each record's [`MetaOp`]s to the state; records
//!    wholly covered by the checkpoint are skipped, and any discontinuity
//!    in the write-count chain is a hard corruption error;
//! 3. a torn tail (short/garbled record at the end of the stream) is
//!    *discarded*: the crash lost at most the final unflushed epoch — the
//!    atomic unit of loss under epoch persistence.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use dewrite_core::{MetaOp, Snapshot};

use crate::checkpoint::Checkpoint;
use crate::store::{ckpt_path, list_seqs, wal_path, CKPT_EXT, CKPT_PREFIX, WAL_EXT, WAL_PREFIX};
use crate::wal::{WalRecords, WalTail};
use crate::PersistError;

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Data writes that checkpoint covered.
    pub checkpoint_writes: u64,
    /// Newer checkpoints that failed to decode and were skipped.
    pub checkpoints_skipped: u64,
    /// WAL segments scanned.
    pub segments_scanned: u64,
    /// Complete epoch records replayed.
    pub records_replayed: u64,
    /// Records skipped as already covered by the checkpoint.
    pub records_skipped: u64,
    /// Data writes covered by the recovered state.
    pub writes_covered: u64,
    /// Whether a torn tail was detected (and discarded).
    pub torn_tail: bool,
    /// Bytes discarded as torn.
    pub discarded_bytes: u64,
}

/// One entry per key in ascending key order; of several entries for one
/// key the last wins, as applying them in order would. Every writer in
/// this repo already produces such tables, and on them this is one linear
/// pass.
fn normalise<V>(table: &mut Vec<(u64, V)>) {
    table.sort_by_key(|e| e.0);
    table.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            std::mem::swap(later, earlier);
        }
        same
    });
}

/// Overlay `delta` on the normalised table `base`: a delta entry replaces
/// the base entry of its key, and `None` deletes it.
fn overlay<V>(
    base: Vec<(u64, V)>,
    delta: impl IntoIterator<Item = (u64, Option<V>)>,
) -> Vec<(u64, V)> {
    let mut delta: Vec<(u64, Option<V>)> = delta.into_iter().collect();
    if delta.is_empty() {
        return base;
    }
    delta.sort_unstable_by_key(|e| e.0);
    let mut out = Vec::with_capacity(base.len() + delta.len());
    let mut base = base.into_iter().peekable();
    for (key, value) in delta {
        while let Some(entry) = base.next_if(|e| e.0 < key) {
            out.push(entry);
        }
        let _ = base.next_if(|e| e.0 == key);
        if let Some(value) = value {
            out.push((key, value));
        }
    }
    out.extend(base);
    out
}

/// A map of assignments as an [`overlay`] delta.
fn set<V>(map: HashMap<u64, V>) -> impl Iterator<Item = (u64, Option<V>)> {
    map.into_iter().map(|(key, value)| (key, Some(value)))
}

/// Mutable replay state: the checkpoint's tables, left as they were
/// decoded, under an overlay of the keys the replayed ops touched — so
/// recovery costs what the log changed, not what the image holds.
struct ReplayState {
    base: Snapshot,
    mappings: HashMap<u64, u64>,
    /// `None`: deleted by a `ResidentDel`.
    residents: HashMap<u64, Option<u64>>,
    counters: HashMap<u64, u32>,
}

impl ReplayState {
    fn from_snapshot(mut base: Snapshot) -> Self {
        normalise(&mut base.mappings);
        normalise(&mut base.residents);
        normalise(&mut base.counters);
        ReplayState {
            base,
            mappings: HashMap::new(),
            residents: HashMap::new(),
            counters: HashMap::new(),
        }
    }

    fn apply(&mut self, op: MetaOp) {
        match op {
            MetaOp::MapSet { init, real } => {
                self.mappings.insert(init, real);
            }
            MetaOp::ResidentSet { real, digest } => {
                self.residents.insert(real, Some(digest));
            }
            MetaOp::ResidentDel { real } => {
                self.residents.insert(real, None);
            }
            MetaOp::CounterSet { line, value } => {
                self.counters.insert(line, value);
            }
        }
    }

    fn into_snapshot(self) -> Snapshot {
        Snapshot {
            config_fp: self.base.config_fp,
            lines: self.base.lines,
            mappings: overlay(self.base.mappings, set(self.mappings)),
            residents: overlay(self.base.residents, self.residents),
            counters: overlay(self.base.counters, set(self.counters)),
        }
    }
}

/// Load the newest valid checkpoint under `dir` and replay the WAL suffix,
/// returning the reassembled snapshot and what recovery did.
///
/// `fingerprint` must be the one the store was created under (a shard's
/// `ShardController::persist_fingerprint`); `max_lines` bounds decode
/// allocations.
///
/// # Errors
///
/// [`PersistError::ConfigMismatch`] when the durable state was written
/// under a different fingerprint; [`PersistError::Corrupt`] when no
/// checkpoint decodes or the record chain has a gap; [`PersistError::Io`]
/// on filesystem failures.
pub fn recover_state(
    dir: &Path,
    fingerprint: u64,
    max_lines: u64,
) -> Result<(Snapshot, RecoveryStats), PersistError> {
    let ckpt_seqs = list_seqs(dir, CKPT_PREFIX, CKPT_EXT)?;
    if ckpt_seqs.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "no checkpoint found in {}",
            dir.display()
        )));
    }

    // 1. Newest checkpoint that decodes.
    let mut stats = RecoveryStats::default();
    let mut base: Option<(u64, Checkpoint)> = None;
    let mut last_decode_err = String::new();
    for &seq in ckpt_seqs.iter().rev() {
        let bytes = fs::read(ckpt_path(dir, seq))?;
        match Checkpoint::read_from_bounded(&bytes, max_lines) {
            Ok(ckpt) => {
                if ckpt.snapshot.config_fp != fingerprint {
                    return Err(PersistError::ConfigMismatch(format!(
                        "checkpoint {seq} was captured under config fingerprint {:#018x}, \
                         expected {fingerprint:#018x}",
                        ckpt.snapshot.config_fp
                    )));
                }
                base = Some((seq, ckpt));
                break;
            }
            Err(e) => {
                stats.checkpoints_skipped += 1;
                last_decode_err = e.to_string();
            }
        }
    }
    let Some((base_seq, ckpt)) = base else {
        return Err(PersistError::Corrupt(format!(
            "no checkpoint in {} decodes (last error: {last_decode_err})",
            dir.display()
        )));
    };
    stats.checkpoint_seq = base_seq;
    stats.checkpoint_writes = ckpt.writes_covered;
    stats.writes_covered = ckpt.writes_covered;

    // 2. Replay WAL segments from the checkpoint's sequence upward.
    let mut state = ReplayState::from_snapshot(ckpt.snapshot);
    let wal_seqs: Vec<u64> = list_seqs(dir, WAL_PREFIX, WAL_EXT)?
        .into_iter()
        .filter(|&s| s >= base_seq)
        .collect();
    for seq in wal_seqs {
        stats.segments_scanned += 1;
        let bytes = fs::read(wal_path(dir, seq))?;
        // Record by record: a segment can be as large as the image, and
        // only the record being applied needs to exist decoded.
        let mut records = WalRecords::new(&bytes, fingerprint)?;
        for rec in records.by_ref() {
            if rec.writes_covered <= stats.writes_covered {
                stats.records_skipped += 1;
                continue;
            }
            if rec.base_writes != stats.writes_covered {
                return Err(PersistError::Corrupt(format!(
                    "WAL segment {seq}: record covers writes ({}, {}] but the \
                     state only reaches {} — a gap in the log chain",
                    rec.base_writes, rec.writes_covered, stats.writes_covered
                )));
            }
            for op in rec.ops {
                state.apply(op);
            }
            stats.writes_covered = rec.writes_covered;
            stats.records_replayed += 1;
        }
        // 3. A torn tail is discarded, never replayed. It normally sits in
        // the newest segment; a tear in an *earlier* segment is also safe —
        // any record logged after it would break the write-count chain and
        // trip the gap check above.
        if let WalTail::Torn { bytes: torn, .. } = records.tail() {
            stats.torn_tail = true;
            stats.discarded_bytes += torn as u64;
        }
    }

    Ok((state.into_snapshot(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_overlays_the_checkpoint_tables() {
        // Out of order and with a repeated key: no writer here produces
        // that, but a checkpoint that does still means "last entry wins".
        let base = Snapshot {
            config_fp: 1,
            lines: 64,
            mappings: vec![(9, 1), (2, 5), (4, 7), (2, 6)],
            residents: vec![(1, 11), (5, 55), (7, 77)],
            counters: vec![(1, 1), (7, 3)],
        };
        let mut state = ReplayState::from_snapshot(base);
        for op in [
            MetaOp::ResidentDel { real: 5 },
            MetaOp::ResidentSet {
                real: 8,
                digest: 88,
            },
            MetaOp::ResidentSet { real: 0, digest: 1 },
            MetaOp::ResidentDel { real: 0 },
            MetaOp::ResidentDel { real: 7 },
            MetaOp::ResidentSet {
                real: 7,
                digest: 78,
            },
            MetaOp::MapSet { init: 4, real: 8 },
            MetaOp::MapSet { init: 63, real: 7 },
            MetaOp::CounterSet { line: 8, value: 1 },
            MetaOp::CounterSet { line: 7, value: 4 },
        ] {
            state.apply(op);
        }
        let out = state.into_snapshot();
        assert_eq!(out.mappings, vec![(2, 6), (4, 8), (9, 1), (63, 7)]);
        assert_eq!(out.residents, vec![(1, 11), (7, 78), (8, 88)]);
        assert_eq!(out.counters, vec![(1, 1), (7, 4), (8, 1)]);
        assert_eq!((out.config_fp, out.lines), (1, 64));
    }
}
