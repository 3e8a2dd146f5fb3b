//! Epoch-batched durable logging: [`EpochLog`], the policy engine behind
//! the engine's per-shard controllers (`ShardController::attach_persistence`).
//!
//! SecPM-style epoch batching: instead of one log write per metadata
//! update, the [`MetaOp`]s of `epoch_writes` consecutive data writes are
//! buffered and appended (then fsynced) as one record. A crash loses at
//! most the open epoch — the same exposure window the core's
//! `MetadataPersistence::EpochFlush` policy charges to simulated time.
//! Host-side logging itself is *never* charged: simulated results are
//! bit-identical with persistence on or off.

use std::path::Path;

use dewrite_core::{MetaOp, Snapshot};

use crate::store::{MetaStore, PersistStats};
use crate::wal::RecordBuf;

/// Tuning knobs of the durable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Data writes per epoch record (the atomic unit of loss).
    pub epoch_writes: u32,
    /// *Minimum* epochs between automatic checkpoints (WAL segment
    /// rotation). [`EpochLog::record_write`] reports one due only once
    /// this many epochs have passed **and** the active segment has grown
    /// to at least the size of the checkpoint image it is paired with: the
    /// segment already holds the delta, so an image is rewritten only when
    /// replaying the log would cost as much as loading it. An image entry
    /// is never larger than the op that created it, so each image is at
    /// most twice the segment before it — checkpoint bytes stay within
    /// 2× the WAL bytes (plus the first image), replay within one
    /// image-sized segment, the directory within two pairs. A store whose
    /// image is smaller than this many epochs of WAL checkpoints exactly
    /// every `checkpoint_epochs` epochs. Explicit
    /// [`EpochLog::checkpoint`] calls are unconditional: the caller is
    /// asking for a durability point (drain, shutdown), not bounding
    /// replay.
    pub checkpoint_epochs: u32,
    /// `fsync` after every append/checkpoint. Disable only in tests that
    /// model the medium with in-memory copies of the files.
    pub sync: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            epoch_writes: 16,
            checkpoint_epochs: 8,
            sync: true,
        }
    }
}

/// The epoch-batching state machine over a [`MetaStore`].
///
/// Callers feed it each data write's journal ops via
/// [`record_write`](Self::record_write); it appends one WAL record per
/// epoch and reports when a checkpoint is due (the caller supplies the
/// snapshot, since only it can capture one).
#[derive(Debug)]
pub struct EpochLog {
    store: MetaStore,
    /// The open epoch's record, encoded op by op as writes arrive.
    record: RecordBuf,
    /// Total data writes observed.
    writes: u64,
    /// Data writes covered by appended records (plus the base checkpoint).
    flushed_writes: u64,
    epochs_since_checkpoint: u32,
    opts: DurableOptions,
}

impl EpochLog {
    /// Create a fresh log in `dir`, anchored on a checkpoint of
    /// `initial` (state before any logged write).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(
        dir: &Path,
        fingerprint: u64,
        initial: &Snapshot,
        opts: DurableOptions,
    ) -> std::io::Result<Self> {
        let store = MetaStore::create(dir, fingerprint, initial, opts.sync)?;
        Ok(EpochLog {
            store,
            record: RecordBuf::new(),
            writes: 0,
            flushed_writes: 0,
            epochs_since_checkpoint: 0,
            opts,
        })
    }

    /// Feed one data write's journal ops. Returns `true` when a checkpoint
    /// is due — the caller should capture a snapshot and call
    /// [`checkpoint`](Self::checkpoint). One is due at an epoch boundary
    /// once [`DurableOptions::checkpoint_epochs`] epochs have passed and
    /// the active WAL segment has outgrown the checkpoint image it is
    /// paired with.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from an epoch flush.
    pub fn record_write(&mut self, ops: impl IntoIterator<Item = MetaOp>) -> std::io::Result<bool> {
        for op in ops {
            self.record.push(&op);
        }
        self.writes += 1;
        if self.writes - self.flushed_writes >= u64::from(self.opts.epoch_writes.max(1)) {
            self.flush()?;
            let stats = self.store.stats();
            return Ok(
                self.epochs_since_checkpoint >= self.opts.checkpoint_epochs.max(1)
                    && stats.segment_bytes >= stats.image_bytes,
            );
        }
        Ok(false)
    }

    /// Append the open (partial) epoch, if any, as a record and fsync.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.writes == self.flushed_writes {
            return Ok(());
        }
        self.store
            .append(self.record.finish(self.flushed_writes, self.writes))?;
        self.record.clear();
        self.flushed_writes = self.writes;
        self.epochs_since_checkpoint += 1;
        Ok(())
    }

    /// Flush, then rotate to a new checkpoint capturing `snapshot` (which
    /// must reflect *all* writes fed so far).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn checkpoint(&mut self, snapshot: &Snapshot) -> std::io::Result<()> {
        self.flush()?;
        self.store.rotate(self.flushed_writes, snapshot)?;
        self.epochs_since_checkpoint = 0;
        Ok(())
    }

    /// Shutdown durability: flush the open epoch, then force the store's
    /// files to stable storage even when the log runs with `sync: false`.
    /// Unlike [`checkpoint`](Self::checkpoint) this writes no new
    /// checkpoint — callers that want one checkpoint first.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn sync_all(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.store.sync_all()
    }

    /// Data writes not yet covered by a durable record: the crash-loss
    /// exposure right now (0 ≤ exposure < `epoch_writes`).
    pub fn unflushed_writes(&self) -> u64 {
        self.writes - self.flushed_writes
    }

    /// Total data writes fed to the log.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The underlying store (directory, sequence).
    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// What the log has written so far and how far the active segment has
    /// run ahead of the last checkpoint.
    pub fn stats(&self) -> PersistStats {
        self.store.stats()
    }
}
