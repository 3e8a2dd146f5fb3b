//! The on-disk metadata store: a directory of checkpoint/WAL segment pairs.
//!
//! ```text
//! <dir>/ckpt-00000000.dwck   checkpoint 0 (state at creation)
//! <dir>/wal-00000000.log     epochs after checkpoint 0
//! <dir>/ckpt-00000001.dwck   checkpoint 1
//! <dir>/wal-00000001.log     epochs after checkpoint 1
//! ...
//! ```
//!
//! Sequence `s`'s WAL segment logs exactly the epochs between checkpoint
//! `s` and checkpoint `s+1`. Rotation writes the new checkpoint via
//! temp-file + rename + directory fsync *before* opening the new segment,
//! and keeps the previous pair on disk (pruning only `seq ≤ current − 2`),
//! so a checkpoint torn mid-write can always be recovered past: the older
//! checkpoint plus its complete WAL segment reproduce the same state.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dewrite_core::Snapshot;

use crate::checkpoint::encode_checkpoint;
use crate::wal::{encode_wal_header, WAL_HEADER_BYTES};

/// File-name prefix of checkpoint files.
pub(crate) const CKPT_PREFIX: &str = "ckpt-";
/// File-name extension of checkpoint files.
pub(crate) const CKPT_EXT: &str = ".dwck";
/// File-name prefix of WAL segments.
pub(crate) const WAL_PREFIX: &str = "wal-";
/// File-name extension of WAL segments.
pub(crate) const WAL_EXT: &str = ".log";

/// Path of checkpoint `seq` under `dir`.
pub(crate) fn ckpt_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{CKPT_PREFIX}{seq:08}{CKPT_EXT}"))
}

/// Path of WAL segment `seq` under `dir`.
pub(crate) fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{WAL_PREFIX}{seq:08}{WAL_EXT}"))
}

/// Parse `name` as `<prefix><seq><ext>`, returning the sequence number.
pub(crate) fn parse_seq(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let body = name.strip_prefix(prefix)?.strip_suffix(ext)?;
    if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    body.parse().ok()
}

/// Sorted sequence numbers of all files `<prefix>*<ext>` in `dir`.
pub(crate) fn list_seqs(dir: &Path, prefix: &str, ext: &str) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = parse_seq(name, prefix, ext) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Persist the rename itself. Directory fsync is POSIX-only; on
    // platforms where opening a directory fails, fall back to best effort.
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Remove `path`; a file that is already gone is not an error (pruning
/// must not fail a checkpoint because someone tidied the directory).
fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

/// Write checkpoint `seq` under `dir`: the whole image in one write to a
/// temp file, then rename (+ file and directory fsync when `sync`).
/// Returns the image's size in bytes.
fn write_checkpoint_file(
    dir: &Path,
    seq: u64,
    writes_covered: u64,
    snapshot: &Snapshot,
    sync: bool,
) -> io::Result<u64> {
    let tmp = dir.join(format!("{CKPT_PREFIX}{seq:08}.tmp"));
    let image = encode_checkpoint(writes_covered, snapshot);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, ckpt_path(dir, seq))?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(image.len() as u64)
}

/// Create (or truncate) WAL segment `seq` under `dir` and write its header.
fn open_segment(dir: &Path, seq: u64, fingerprint: u64, sync: bool) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(wal_path(dir, seq))?;
    f.write_all(&encode_wal_header(fingerprint))?;
    if sync {
        f.sync_all()?;
        sync_dir(dir)?;
    }
    Ok(f)
}

/// What a store has written since [`MetaStore::create`], counted where the
/// bytes are written (no `stat`), plus the sizes of the current pair: how
/// far the WAL has run ahead of the last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Epoch records appended.
    pub epochs: u64,
    /// Checkpoint images written, the one `create` anchors on included.
    pub checkpoints: u64,
    /// Bytes written to WAL segments (headers and records).
    pub wal_bytes: u64,
    /// Bytes written as checkpoint images.
    pub checkpoint_bytes: u64,
    /// Bytes in the active WAL segment (header and records).
    pub segment_bytes: u64,
    /// Bytes of the checkpoint image the active segment is paired with.
    pub image_bytes: u64,
}

impl PersistStats {
    /// Account for checkpoint `image_bytes` and the fresh segment opened
    /// behind it.
    fn rotated(&mut self, image_bytes: u64) {
        self.checkpoints += 1;
        self.checkpoint_bytes += image_bytes;
        self.image_bytes = image_bytes;
        self.wal_bytes += WAL_HEADER_BYTES as u64;
        self.segment_bytes = WAL_HEADER_BYTES as u64;
    }
}

/// Owner of a store directory: appends epoch records to the active WAL
/// segment and rotates checkpoint/segment pairs.
#[derive(Debug)]
pub struct MetaStore {
    dir: PathBuf,
    fingerprint: u64,
    seq: u64,
    wal: File,
    sync: bool,
    stats: PersistStats,
}

impl MetaStore {
    /// Create a fresh store in `dir` (created if absent; any previous
    /// checkpoint/WAL files are removed), writing checkpoint 0 from
    /// `initial` (the state before any logged write) and opening WAL
    /// segment 0.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(
        dir: &Path,
        fingerprint: u64,
        initial: &Snapshot,
        sync: bool,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        for seq in list_seqs(dir, CKPT_PREFIX, CKPT_EXT)? {
            fs::remove_file(ckpt_path(dir, seq))?;
        }
        for seq in list_seqs(dir, WAL_PREFIX, WAL_EXT)? {
            fs::remove_file(wal_path(dir, seq))?;
        }
        let image_bytes = write_checkpoint_file(dir, 0, 0, initial, sync)?;
        let mut stats = PersistStats::default();
        stats.rotated(image_bytes);
        Ok(MetaStore {
            dir: dir.to_path_buf(),
            fingerprint,
            seq: 0,
            wal: open_segment(dir, 0, fingerprint, sync)?,
            sync,
            stats,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current checkpoint/segment sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Byte and event counts since creation, and the current pair's sizes
    /// (public as [`EpochLog::stats`](crate::EpochLog::stats)).
    pub(crate) fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Append one encoded epoch record to the active segment and (when
    /// `sync`) fsync it — the "append → fsync" half of the ordered
    /// discipline; the caller applies the epoch's effects only after this
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.wal.write_all(record)?;
        if self.sync {
            self.wal.sync_data()?;
        }
        self.stats.epochs += 1;
        self.stats.wal_bytes += record.len() as u64;
        self.stats.segment_bytes += record.len() as u64;
        Ok(())
    }

    /// Force the store to stable storage regardless of the `sync` option:
    /// fsync the active WAL segment, the current checkpoint file, and the
    /// directory. The graceful-shutdown durability point for stores that
    /// log with `sync: false` (the engine's measurement-harness default).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.wal.sync_data()?;
        let ckpt = ckpt_path(&self.dir, self.seq);
        if ckpt.exists() {
            File::open(&ckpt)?.sync_all()?;
        }
        sync_dir(&self.dir)
    }

    /// Rotate: write checkpoint `seq+1` capturing `snapshot` as of
    /// `writes_covered` data writes (temp + rename + dir fsync), open WAL
    /// segment `seq+1`, and prune pair `seq−1` (keeping exactly one older
    /// pair as the fallback for a torn checkpoint). Everything below
    /// `seq−1` is already gone: `create` wipes the directory and every
    /// earlier rotation pruned its own `seq−1`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn rotate(&mut self, writes_covered: u64, snapshot: &Snapshot) -> io::Result<()> {
        let next = self.seq + 1;
        let image_bytes =
            write_checkpoint_file(&self.dir, next, writes_covered, snapshot, self.sync)?;
        self.wal = open_segment(&self.dir, next, self.fingerprint, self.sync)?;
        self.seq = next;
        self.stats.rotated(image_bytes);
        if let Some(old) = next.checked_sub(2) {
            remove_if_present(&ckpt_path(&self.dir, old))?;
            remove_if_present(&wal_path(&self.dir, old))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, WalRecord};

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("dewrite-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn snap() -> Snapshot {
        Snapshot::empty(64, 5)
    }

    #[test]
    fn create_rotate_prune() {
        let dir = tmpdir("rotate");
        let mut store = MetaStore::create(&dir, 5, &snap(), false).unwrap();
        assert_eq!(store.seq(), 0);
        store
            .append(&encode_record(&WalRecord {
                base_writes: 0,
                writes_covered: 4,
                ops: vec![],
            }))
            .unwrap();
        for seq in 1..=50u64 {
            store.rotate(4 * seq, &snap()).unwrap();
            // Exactly the current pair and one fallback survive every
            // rotation.
            let kept = vec![seq - 1, seq];
            assert_eq!(list_seqs(&dir, CKPT_PREFIX, CKPT_EXT).unwrap(), kept);
            assert_eq!(list_seqs(&dir, WAL_PREFIX, WAL_EXT).unwrap(), kept);
        }
        assert_eq!(store.seq(), 50);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            4,
            "two pairs, no temp files"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_wipes_previous_state() {
        let dir = tmpdir("wipe");
        let mut store = MetaStore::create(&dir, 5, &snap(), false).unwrap();
        store.rotate(4, &snap()).unwrap();
        drop(store);
        let _fresh = MetaStore::create(&dir, 5, &snap(), false).unwrap();
        assert_eq!(list_seqs(&dir, CKPT_PREFIX, CKPT_EXT).unwrap(), vec![0]);
        assert_eq!(list_seqs(&dir, WAL_PREFIX, WAL_EXT).unwrap(), vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seq_parsing_rejects_noise() {
        assert_eq!(
            parse_seq("ckpt-00000007.dwck", CKPT_PREFIX, CKPT_EXT),
            Some(7)
        );
        assert_eq!(parse_seq("ckpt-abc.dwck", CKPT_PREFIX, CKPT_EXT), None);
        assert_eq!(parse_seq("ckpt-.dwck", CKPT_PREFIX, CKPT_EXT), None);
        assert_eq!(parse_seq("wal-00000001.log", CKPT_PREFIX, CKPT_EXT), None);
    }
}
