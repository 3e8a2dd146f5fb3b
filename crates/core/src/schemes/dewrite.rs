//! The DeWrite secure-NVMM scheme (§III).
//!
//! The write path composes four mechanisms:
//!
//! 1. **light-weight detection** — CRC-32 digest (15 ns), hash-store query,
//!    then a candidate-line read (75 ns) + byte compare (1 cycle) to confirm;
//! 2. **prediction-based parallelism** — the 3-bit history window decides
//!    whether encryption runs in parallel with detection (predicted
//!    non-duplicate) or is deferred until detection resolves (predicted
//!    duplicate);
//! 3. **prediction-based NVM access (PNA)** — on a hash-store *cache* miss,
//!    the in-NVM hash table is queried only when the prediction says
//!    duplicate; otherwise the line is treated as non-duplicate, trading a
//!    small write-reduction loss for far fewer metadata reads;
//! 4. **metadata colocation** — the per-line counter travels with the
//!    address-mapping / inverted-hash row, so one metadata access serves
//!    both dedup and encryption.
//!
//! Timing/energy note: as in Table I of the paper, the duplicate-
//! confirmation read is charged `read + compare` ns, and the dedup logic is
//! charged only CRC + comparison energy (§IV-D). The candidate's one-time
//! pad is assumed regenerable from its colocated counter while the array
//! read is in flight, its cost hidden within the read — the paper's own
//! idealization.

use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_mem::CacheStats;
use dewrite_nvm::{EnergyParams, LineAddr, NvmDevice, NvmError, Timing};

use crate::compare::lines_equal;
use crate::config::{DeWriteConfig, MetadataPersistence, SystemConfig, WriteMode};
use crate::counters::CounterTable;
use crate::dedup::{DedupIndex, WriteOutcome};
use crate::digest::IndexDigest;
use crate::journal::MetaOp;
use crate::predictor::HistoryPredictor;
use crate::schemes::{BaseMetrics, MetaTable, ReadResult, SecureMemory, WriteResult};
use crate::tables::MAX_REFERENCE;
use crate::trace::{EventSink, Stage, WriteEvent, WritePath};

/// DeWrite-specific counters beyond [`BaseMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeWriteMetrics {
    /// Writes confirmed duplicate and eliminated.
    pub dup_eliminated: u64,
    /// Hash-store cache misses where PNA declined the in-NVM query.
    pub pna_skips: u64,
    /// Actual duplicates lost to PNA skips (ground truth).
    pub pna_missed_dups: u64,
    /// Duplicates declined because the target reference was saturated.
    pub saturated_skips: u64,
    /// Digest matches whose byte comparison failed (CRC collisions).
    pub false_matches: u64,
    /// Writes taking the parallel path (speculative encryption).
    pub parallel_writes: u64,
    /// Writes taking the direct path (deferred encryption).
    pub direct_writes: u64,
    /// Speculative encryptions discarded because the write was duplicate.
    pub wasted_encryptions: u64,
    /// Encryptions avoided outright (direct-path duplicates).
    pub saved_encryptions: u64,
    /// Predictor accuracy over all writes.
    pub predictor_accuracy: f64,
}

/// Per-partition metadata-cache statistics (Fig. 21).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeWriteCacheStats {
    /// Address-mapping table cache.
    pub addr_map: CacheStats,
    /// Inverted hash table cache.
    pub inverted: CacheStats,
    /// Hash table cache.
    pub hash: CacheStats,
    /// Free-space-management table cache.
    pub fsm: CacheStats,
}

/// Result of the candidate comparison loop: the confirmed duplicate (if
/// any), when detection resolved, and how the time split between array
/// verify reads and byte comparisons (for the trace breakdown).
struct ConfirmOutcome {
    matched: Option<LineAddr>,
    done_ns: u64,
    verify_ns: u64,
    compare_ns: u64,
}

/// The dedup logic's verify buffer: the plaintext of recently verified
/// candidate lines, so a hot candidate confirms without touching the array.
/// A fixed set of line buffers, allocated once; recency is a short list of
/// `(line, buffer)` pairs, least recent first, so a hit is compared where
/// it lies and a refresh moves sixteen bytes, not a line.
#[derive(Debug)]
struct VerifyBuffer {
    /// Buffered lines and the buffer each occupies, least recent first.
    order: Vec<(u64, usize)>,
    /// Buffers holding no line.
    free: Vec<usize>,
    /// The line buffers, back to back.
    lines: Box<[u8]>,
    line_size: usize,
}

impl VerifyBuffer {
    fn new(entries: usize, line_size: usize) -> Self {
        VerifyBuffer {
            order: Vec::with_capacity(entries),
            free: (0..entries).collect(),
            lines: vec![0u8; entries * line_size].into_boxed_slice(),
            line_size,
        }
    }

    /// The buffer holding `line`, if any, made the most recent.
    fn touch(&mut self, line: u64) -> Option<usize> {
        let at = self.order.iter().position(|&(l, _)| l == line)?;
        let entry = self.order.remove(at);
        self.order.push(entry);
        Some(entry.1)
    }

    fn contents(&self, buffer: usize) -> &[u8] {
        &self.lines[buffer * self.line_size..(buffer + 1) * self.line_size]
    }

    /// Buffer `content` as `line`'s, most recent, displacing the least
    /// recent line if every buffer is taken.
    fn insert(&mut self, line: u64, content: &[u8]) {
        self.invalidate(line);
        if self.free.is_empty() {
            if self.order.is_empty() {
                return; // zero buffers: every confirm pays the read
            }
            self.free.push(self.order.remove(0).1);
        }
        let buffer = self.free.pop().expect("a buffer was just freed");
        self.lines[buffer * self.line_size..(buffer + 1) * self.line_size].copy_from_slice(content);
        self.order.push((line, buffer));
    }

    fn invalidate(&mut self, line: u64) {
        if let Some(at) = self.order.iter().position(|&(l, _)| l == line) {
            self.free.push(self.order.remove(at).1);
        }
    }
}

/// Decrypt the resident line `real`, stored as `ciphertext`, under its
/// counter into `out`; `None` if the line has no counter (which a resident
/// line always does unless controller state was lost).
fn decrypt_resident(
    engine: &CounterModeEngine,
    counters: &CounterTable,
    real: LineAddr,
    ciphertext: &[u8],
    out: &mut [u8],
) -> Option<()> {
    let counter = counters.get(real.index())?;
    engine.decrypt_line_into(ciphertext, real.index(), counter, out);
    Some(())
}

/// The DeWrite controller over an NVM device.
///
/// ```
/// use dewrite_core::{DeWrite, DeWriteConfig, SecureMemory, SystemConfig};
/// use dewrite_nvm::LineAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = DeWrite::new(SystemConfig::for_lines(1024), DeWriteConfig::paper(), b"0123456789abcdef");
/// let line = vec![7u8; 256];
/// mem.write(LineAddr::new(0), &line, 0)?;
/// // The same content at another address is a duplicate: no NVM write.
/// let w = mem.write(LineAddr::new(1), &line, 1_000)?;
/// assert!(w.eliminated);
/// assert_eq!(mem.read(LineAddr::new(1), 2_000)?.data, line);
/// # Ok(())
/// # }
/// ```
pub struct DeWrite {
    config: SystemConfig,
    dw: DeWriteConfig,
    device: NvmDevice,
    engine: CounterModeEngine,
    digest: IndexDigest,
    index: DedupIndex,
    counters: CounterTable,
    predictor: HistoryPredictor,
    addr_map_meta: MetaTable,
    inverted_meta: MetaTable,
    hash_meta: MetaTable,
    fsm_meta: MetaTable,
    metrics: BaseMetrics,
    dmetrics: DeWriteMetrics,
    /// Recently verified candidate contents.
    verify_buffer: VerifyBuffer,
    /// Data writes since the last epoch flush.
    writes_since_flush: u32,
    /// Metadata-mutation journal for external persistence (WAL); `None`
    /// (the default) keeps the hot path free of journaling work.
    journal: Option<Vec<MetaOp>>,
    /// Optional per-write event sink (observability; None on the hot path).
    sink: Option<Box<dyn EventSink>>,
    /// Scratch ciphertext buffer reused across writes (no per-write alloc).
    line_buf: Vec<u8>,
    /// Scratch plaintext line: what a candidate decrypts into for its byte
    /// comparison, and what a [`ReadResult`] borrows.
    plain_buf: Vec<u8>,
}

impl std::fmt::Debug for DeWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeWrite")
            .field("mode", &self.dw.mode)
            .field("pna", &self.dw.pna)
            .field("hasher", &self.digest.algorithm())
            .field("writes", &self.metrics.writes)
            .finish_non_exhaustive()
    }
}

impl DeWrite {
    /// Build DeWrite over a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: SystemConfig, dw: DeWriteConfig, key: &[u8; 16]) -> Self {
        let device = NvmDevice::new(config.nvm.clone()).expect("validated config");
        let index = DedupIndex::with_domains(config.data_lines, dw.dedup_domains.max(1));
        Self::assemble(config, dw, key, device, index, CounterTable::new())
    }

    /// Power off: hand back the durable state (metadata snapshot) and the
    /// physical device, consuming the controller.
    pub fn power_off(self) -> (crate::snapshot::Snapshot, NvmDevice) {
        let snapshot = self.snapshot();
        (snapshot, self.device)
    }

    /// Capture the durable metadata state without consuming the controller
    /// (the checkpoint primitive of the persistence layer).
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot::capture(&self.index, &self.counters, self.dw.fingerprint())
    }

    /// Enable (`true`) or disable (`false`) the metadata-mutation journal.
    /// While enabled, every write appends its durable-state changes as
    /// [`MetaOp`]s, collected with [`drain_meta_ops`](Self::drain_meta_ops).
    pub fn set_meta_journal(&mut self, enabled: bool) {
        self.journal = if enabled { Some(Vec::new()) } else { None };
    }

    /// Take the journal ops accumulated since the last drain (empty when
    /// journaling is disabled).
    pub fn drain_meta_ops(&mut self) -> Vec<MetaOp> {
        self.journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Power on: rebuild a controller over an existing `device` from a
    /// durable `snapshot` (the inverse of [`power_off`](Self::power_off)).
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency if the snapshot does not
    /// match the configuration or fails its own consistency checks.
    pub fn power_on(
        config: SystemConfig,
        dw: DeWriteConfig,
        key: &[u8; 16],
        device: NvmDevice,
        snapshot: &crate::snapshot::Snapshot,
    ) -> Result<Self, String> {
        if snapshot.lines != config.data_lines {
            return Err(format!(
                "snapshot covers {} lines, configuration expects {}",
                snapshot.lines, config.data_lines
            ));
        }
        let fp = dw.fingerprint();
        if snapshot.config_fp != fp {
            return Err(format!(
                "snapshot config fingerprint {:#018x} does not match the \
                 current DeWrite configuration's {fp:#018x}: the controller \
                 that captured it used a different scheme (mode/PNA/history \
                 width/hash algorithm/counter width/dedup domains), so its \
                 tables cannot be reinterpreted safely",
                snapshot.config_fp
            ));
        }
        if device.config() != &config.nvm {
            return Err("device configuration does not match".into());
        }
        let (index, counters) = snapshot.rebuild_with_domains(dw.dedup_domains.max(1))?;
        Ok(Self::assemble(config, dw, key, device, index, counters))
    }

    fn assemble(
        config: SystemConfig,
        dw: DeWriteConfig,
        key: &[u8; 16],
        device: NvmDevice,
        index: DedupIndex,
        counters: CounterTable,
    ) -> Self {
        config.validate().expect("invalid system config");
        let line_size = config.nvm.line_size;
        let hit = config.meta_cache_hit_ns;
        let meta = config.meta_base();
        let data = config.data_lines;

        // Metadata subregions, laid out after the data region:
        // [addr map][inverted][hash][fsm].
        let addr_lines = (data * 4).div_ceil(line_size as u64).max(1);
        let hash_lines = (data * 9).div_ceil(line_size as u64).max(1);
        let fsm_lines = data.div_ceil(2048).max(1);
        let mut base = meta;
        let addr_base = base;
        base += addr_lines;
        let inv_base = base;
        base += addr_lines;
        let hash_base = base;
        base += hash_lines;
        let fsm_base = base;
        assert!(
            fsm_base + fsm_lines <= config.nvm.num_lines(),
            "metadata region too small: need {} lines past {}, device has {}              (size the config with SystemConfig::for_lines_with)",
            fsm_base + fsm_lines - meta,
            meta,
            config.nvm.num_lines()
        );

        let mc = dw.meta_cache;
        let addr_map_meta = MetaTable::new(
            mc.addr_map_entries,
            mc.replacement,
            addr_base,
            addr_lines,
            4,
            mc.prefetch_entries,
            true,
            hit,
            line_size,
        );
        let inverted_meta = MetaTable::new(
            mc.inverted_entries,
            mc.replacement,
            inv_base,
            addr_lines,
            4,
            mc.prefetch_entries,
            true,
            hit,
            line_size,
        );
        let hash_meta = MetaTable::new(
            mc.hash_entries,
            mc.replacement,
            hash_base,
            hash_lines,
            9,
            1,
            false,
            hit,
            line_size,
        );
        let fsm_meta = MetaTable::new(
            mc.fsm_groups,
            mc.replacement,
            fsm_base,
            fsm_lines,
            line_size,
            1,
            true,
            hit,
            line_size,
        );

        let mut addr_map_meta = addr_map_meta;
        let mut inverted_meta = inverted_meta;
        let mut hash_meta = hash_meta;
        let mut fsm_meta = fsm_meta;
        if dw.persistence == MetadataPersistence::WriteThrough {
            addr_map_meta.set_write_through(true);
            inverted_meta.set_write_through(true);
            hash_meta.set_write_through(true);
            fsm_meta.set_write_through(true);
        }

        DeWrite {
            engine: CounterModeEngine::new(key),
            digest: IndexDigest::new(dw.hasher),
            index,
            counters,
            predictor: HistoryPredictor::new(dw.history_bits),
            addr_map_meta,
            inverted_meta,
            hash_meta,
            fsm_meta,
            metrics: BaseMetrics::default(),
            dmetrics: DeWriteMetrics::default(),
            verify_buffer: VerifyBuffer::new(dw.verify_buffer_entries, line_size),
            writes_since_flush: 0,
            journal: None,
            sink: None,
            line_buf: Vec::new(),
            plain_buf: vec![0u8; line_size],
            device,
            config,
            dw,
        }
    }

    /// Apply the configured metadata-persistence policy after a write.
    fn apply_persistence(&mut self, now_ns: u64) {
        if let MetadataPersistence::EpochFlush { interval } = self.dw.persistence {
            self.writes_since_flush += 1;
            if self.writes_since_flush >= interval {
                self.writes_since_flush = 0;
                self.flush_metadata(now_ns);
            }
        }
    }

    /// Flush all dirty cached metadata to NVM. Returns the number of
    /// entries written back.
    pub fn flush_metadata(&mut self, now_ns: u64) -> u64 {
        let mut flushed = 0;
        flushed += self
            .addr_map_meta
            .flush_all(&mut self.device, now_ns, &mut self.metrics);
        flushed += self
            .inverted_meta
            .flush_all(&mut self.device, now_ns, &mut self.metrics);
        flushed += self
            .hash_meta
            .flush_all(&mut self.device, now_ns, &mut self.metrics);
        flushed += self
            .fsm_meta
            .flush_all(&mut self.device, now_ns, &mut self.metrics);
        flushed
    }

    /// Dirty (crash-vulnerable) metadata entries currently cached. Zero
    /// under write-through; bounded by one epoch under epoch flush.
    pub fn dirty_metadata_entries(&self) -> u64 {
        self.addr_map_meta.dirty_entries()
            + self.inverted_meta.dirty_entries()
            + self.hash_meta.dirty_entries()
            + self.fsm_meta.dirty_entries()
    }

    /// Materialize the §III-C colocated metadata layout from the current
    /// controller state (Figs. 8–9): mappings and resident hashes in their
    /// slots, counters embedded in the null ones. Used to validate the
    /// null-slot invariant and the 6.25% storage arithmetic on real end
    /// states (`repro ext-layout`).
    pub fn colocation_layout(&self) -> crate::colocate::ColocatedStore {
        let mut store = crate::colocate::ColocatedStore::new(self.config.data_lines);
        for i in 0..self.config.data_lines {
            let line = LineAddr::new(i);
            if let Some(real) = self.index.resolve(line) {
                if real != line {
                    store.set_mapping(line, Some(real));
                }
            }
            if let Some(digest) = self.index.digest_of(line) {
                store.set_resident_hash(line, Some(IndexDigest::fold(digest)));
            }
        }
        for (line, counter) in self.counters.iter() {
            store.set_counter(LineAddr::new(line), counter);
        }
        store
    }

    /// Integrity scrub: the recovery-time consistency check a controller
    /// runs after a restart. Verifies, for every written address, that
    ///
    /// 1. the address resolves to a resident line,
    /// 2. the resident line's stored ciphertext decrypts under its counter
    ///    to content whose fingerprint matches the inverted-table digest,
    /// 3. the dedup index invariants hold.
    ///
    /// Returns the number of lines checked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (e.g. after NVM
    /// corruption or a crash that lost unflushed metadata).
    pub fn scrub(&self) -> Result<u64, String> {
        self.index.check_invariants()?;
        let mut checked = 0;
        let mut plaintext = vec![0u8; self.config.nvm.line_size];
        for i in 0..self.config.data_lines {
            let init = LineAddr::new(i);
            let Some(real) = self.index.resolve(init) else {
                continue;
            };
            let expected_digest = self
                .index
                .digest_of(real)
                .ok_or_else(|| format!("{init} resolves to non-resident {real}"))?;
            self.plaintext_into(real, &mut plaintext)?;
            let actual = self.digest.digest(&plaintext);
            if actual != expected_digest {
                return Err(format!(
                    "line {real}: stored content hashes to {actual:#x}, \
                     inverted table says {expected_digest:#x}"
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Fault injection for recovery testing: flip one byte of the stored
    /// (encrypted) contents of `line` directly in the array, bypassing the
    /// controller — as a stuck cell or undetected disturb would. No write
    /// is issued, so nothing is booked: no device write, wear, energy or
    /// bank time.
    pub fn inject_corruption(&mut self, line: LineAddr) {
        self.device.line_mut(line).expect("line in range")[0] ^= 0xFF;
        // The dedup logic's verify buffer would mask the corruption.
        self.verify_buffer.invalidate(line.index());
    }

    fn check_addr(&self, addr: LineAddr) -> Result<(), NvmError> {
        if addr.index() >= self.config.data_lines {
            Err(NvmError::AddressOutOfRange {
                addr,
                num_lines: self.config.data_lines,
            })
        } else {
            Ok(())
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// DeWrite-specific metrics (predictor accuracy filled in).
    pub fn dewrite_metrics(&self) -> DeWriteMetrics {
        DeWriteMetrics {
            saturated_skips: self.index.saturated_skips(),
            false_matches: self.index.false_matches(),
            predictor_accuracy: self.predictor.accuracy(),
            ..self.dmetrics
        }
    }

    /// Per-partition metadata-cache statistics.
    pub fn cache_stats(&self) -> DeWriteCacheStats {
        DeWriteCacheStats {
            addr_map: self.addr_map_meta.cache_stats(),
            inverted: self.inverted_meta.cache_stats(),
            hash: self.hash_meta.cache_stats(),
            fsm: self.fsm_meta.cache_stats(),
        }
    }

    /// The dedup index (reference distributions, residency).
    pub fn index(&self) -> &DedupIndex {
        &self.index
    }

    /// Decrypt the resident line `real` into `out` without timing side
    /// effects (the scrub's content check).
    ///
    /// # Errors
    ///
    /// Every resident line is written encrypted, so a missing counter means
    /// the controller state is inconsistent (lost metadata, corrupted
    /// snapshot). Returning the raw ciphertext would silently compare
    /// garbage; fail loudly instead.
    fn plaintext_into(&self, real: LineAddr, out: &mut [u8]) -> Result<(), String> {
        let ciphertext = self.device.line(real).expect("resident line in range");
        decrypt_resident(&self.engine, &self.counters, real, ciphertext, out)
            .ok_or_else(|| format!("resident line {real} has no encryption counter"))
    }

    /// Journal the commit of a write of `init` with content `digest` when
    /// the metadata journal is on; `counter` is a stored line's new
    /// encryption counter.
    fn journal(&mut self, init: LineAddr, outcome: WriteOutcome, digest: u64, counter: u32) {
        if let Some(journal) = self.journal.as_mut() {
            journal.extend(outcome.meta_ops(init.index(), digest, counter, LineAddr::index));
        }
    }

    /// Run the candidate comparison loop with timed NVM reads.
    fn confirm_duplicate(
        &mut self,
        init: LineAddr,
        digest: u64,
        data: &[u8],
        start_ns: u64,
    ) -> ConfirmOutcome {
        let timing: Timing = self.config.nvm.timing;
        let mut t = start_ns;
        let mut verify_ns = 0;
        let mut compare_ns = 0;
        // Saturated entries are visible in the hash entry itself (the
        // 8-bit reference field, §III-B2): they are skipped without any
        // read — further duplicates of that content use its one
        // non-saturated successor copy instead. The candidates come as an
        // inline view of the bucket (at most the compare cap of them).
        let candidates = self.index.open_for(digest, init);
        let skipped_saturated = candidates.skipped_saturated;
        for &real in candidates.reals() {
            // Hot candidates sit in the dedup logic's verify buffer and
            // confirm without touching the array; the rest are read,
            // decrypted into the scratch line and buffered.
            let content = match self.verify_buffer.touch(real.index()) {
                Some(buffer) => self.verify_buffer.contents(buffer),
                None => {
                    let (ciphertext, access) = self
                        .device
                        .read_line(real, t)
                        .expect("candidate line in range");
                    self.metrics.verify_reads += 1;
                    verify_ns += access.slot.finish_ns - t;
                    t = access.slot.finish_ns;
                    let plain = &mut self.plain_buf;
                    decrypt_resident(&self.engine, &self.counters, real, ciphertext, plain)
                        .expect("resident candidate must have a counter");
                    self.verify_buffer.insert(real.index(), &self.plain_buf);
                    &self.plain_buf
                }
            };
            self.device.charge_dedup_pj(EnergyParams::PCM.compare_pj);
            // Per the paper's accounting (§IV-D), dedup-logic energy is the
            // CRC + comparison only: the candidate's pad is assumed
            // regenerable from its colocated counter while the array read is
            // in flight, with both its latency and energy hidden in the
            // read (Table I charges the duplicate path 15 + 75 + 1 ns).
            t += timing.compare_ns;
            compare_ns += timing.compare_ns;
            if lines_equal(content, data) {
                return ConfirmOutcome {
                    matched: Some(real),
                    done_ns: t,
                    verify_ns,
                    compare_ns,
                };
            }
            self.index.note_false_match();
        }
        if skipped_saturated {
            self.index.note_saturated_skip();
        }
        ConfirmOutcome {
            matched: None,
            done_ns: t,
            verify_ns,
            compare_ns,
        }
    }

    /// Post-commit metadata-cache traffic mirroring the tables a commit
    /// of `init` touched (off the critical path): the address-map row, the
    /// hash entry and the target's inverted row — §III-C: a duplicate's
    /// reference count lives in that colocated row — a store's FSM word,
    /// and a freed line's inverted row and FSM word. Returns when the last
    /// update lands.
    fn commit_metadata(
        &mut self,
        init: LineAddr,
        outcome: WriteOutcome,
        digest: u64,
        now_ns: u64,
    ) -> u64 {
        let DeWrite {
            addr_map_meta,
            inverted_meta,
            hash_meta,
            fsm_meta,
            device,
            metrics,
            ..
        } = self;
        let mut touch = |table: &mut MetaTable, key: u64| {
            table.write_insert(key, device, now_ns, metrics).done_ns
        };
        let mut done = touch(addr_map_meta, init.index());
        let freed = match outcome {
            WriteOutcome::Duplicate { real, freed, .. } => {
                done = done
                    .max(touch(hash_meta, digest))
                    .max(touch(inverted_meta, real.index()));
                freed
            }
            WriteOutcome::Stored { target, freed, .. } => {
                done = done
                    .max(touch(inverted_meta, target.index()))
                    .max(touch(hash_meta, digest))
                    .max(touch(fsm_meta, target.index() / 2048));
                freed
            }
        };
        if let Some(freed) = freed {
            done = done
                .max(touch(inverted_meta, freed.index()))
                .max(touch(fsm_meta, freed.index() / 2048));
        }
        done
    }
}

impl SecureMemory for DeWrite {
    fn name(&self) -> String {
        format!(
            "DeWrite ({} mode{})",
            self.dw.mode,
            if self.dw.pna { ", PNA" } else { "" }
        )
    }

    fn write(&mut self, init: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        self.check_addr(init)?;
        if data.len() != self.config.nvm.line_size {
            return Err(NvmError::WrongLineSize {
                got: data.len(),
                expected: self.config.nvm.line_size,
            });
        }
        self.metrics.writes += 1;

        // 1. Fingerprint: the light hash (15 ns).
        let cost = self.digest.cost();
        let digest_ns = cost.latency_ns;
        let digest = self.digest.digest(data);
        let hash_done = now_ns + digest_ns;
        self.metrics.hash_ops += 1;
        self.device.charge_dedup_pj(cost.energy_pj);

        // 2. Mode decision (parallelism between dedup and encryption).
        let predicted_dup = self.predictor.predict_duplicate();
        let speculative = match self.dw.mode {
            WriteMode::Direct => false,
            WriteMode::Parallel => true,
            WriteMode::Predictive => !predicted_dup,
        };
        if speculative {
            self.dmetrics.parallel_writes += 1;
        } else {
            self.dmetrics.direct_writes += 1;
        }

        // 3. Hash-store query with PNA.
        let mut pna_skip = false;
        let (candidates_known, query_done) = match self.hash_meta.probe(digest, false, hash_done) {
            Some(hit) => (true, hit.done_ns),
            None if self.dw.pna && !predicted_dup => {
                // PNA: decline the in-NVM query; treat as non-duplicate.
                self.dmetrics.pna_skips += 1;
                pna_skip = true;
                (false, hash_done + self.config.meta_cache_hit_ns)
            }
            None => {
                let acc = self.hash_meta.fetch(
                    digest,
                    false,
                    &mut self.device,
                    hash_done,
                    &mut self.metrics,
                );
                (true, acc.done_ns)
            }
        };

        // 4. Detection: candidate reads + byte comparison.
        let mut verify_ns = None;
        let mut compare_ns = None;
        let (matched, detect_done) = if candidates_known {
            let confirm = self.confirm_duplicate(init, digest, data, query_done);
            verify_ns = Some(confirm.verify_ns);
            compare_ns = Some(confirm.compare_ns);
            (confirm.matched, confirm.done_ns)
        } else {
            // Ground truth for PNA accounting: would a live candidate have
            // matched? (The bucket is walked where it lives; each candidate
            // decrypts into the scratch line.)
            let missed = self.index.candidates_for(digest, init).any(|e| {
                e.reference != MAX_REFERENCE && {
                    let ciphertext = self.device.line(e.real).expect("in range");
                    let plain = &mut self.plain_buf;
                    decrypt_resident(&self.engine, &self.counters, e.real, ciphertext, plain)
                        .expect("resident line must have a counter");
                    lines_equal(&self.plain_buf, data)
                }
            });
            if missed {
                self.dmetrics.pna_missed_dups += 1;
            }
            (None, query_done)
        };

        // 5. Speculative encryption (parallel path) starts at `now`.
        let spec_counter_probe = if speculative {
            // Counter comes with the colocated metadata row of the current
            // mapping (or home) of `init`.
            let row = self.index.resolve(init).unwrap_or(init);
            let acc = self.inverted_meta.access(
                row.index(),
                false,
                &mut self.device,
                now_ns,
                &mut self.metrics,
            );
            self.metrics.aes_line_ops += 1;
            self.device.charge_aes_pj(aes_line_energy_pj(data.len()));
            Some(acc.done_ns + AES_LINE_LATENCY_NS)
        } else {
            None
        };

        let mut event = None;
        let result = match matched {
            Some(real) => {
                // Duplicate: the NVM write is eliminated.
                let outcome = self.index.apply_duplicate(init, real);
                let WriteOutcome::Duplicate { freed, .. } = outcome else {
                    unreachable!("apply_duplicate returns Duplicate");
                };
                if let Some(freed) = freed {
                    self.verify_buffer.invalidate(freed.index());
                }
                self.journal(init, outcome, digest, 0);
                self.dmetrics.dup_eliminated += 1;
                self.metrics.writes_eliminated += 1;
                if speculative {
                    self.dmetrics.wasted_encryptions += 1;
                } else {
                    self.dmetrics.saved_encryptions += 1;
                }
                let meta_done = self.commit_metadata(init, outcome, digest, detect_done);
                self.predictor.record(true);
                if self.sink.is_some() {
                    let mut e = WriteEvent::new(WritePath::Duplicate);
                    e.predicted_dup = predicted_dup;
                    e.pna_skip = pna_skip;
                    e.total_ns = detect_done - now_ns;
                    e.set_stage(Stage::Digest, digest_ns);
                    e.set_stage(Stage::HashProbe, query_done - hash_done);
                    if let Some(ns) = verify_ns {
                        e.set_stage(Stage::VerifyRead, ns);
                    }
                    if let Some(ns) = compare_ns {
                        e.set_stage(Stage::Compare, ns);
                    }
                    if let Some(spec_done) = spec_counter_probe {
                        // Wasted speculative encryption: ran from write issue.
                        e.set_stage(Stage::Encrypt, spec_done - now_ns);
                    }
                    e.set_stage(Stage::Metadata, meta_done.saturating_sub(detect_done));
                    event = Some(e);
                }
                WriteResult {
                    critical_ns: detect_done - now_ns,
                    nvm_finish_ns: None,
                    eliminated: true,
                    total_ns: detect_done - now_ns,
                }
            }
            None => {
                // Non-duplicate: store.
                let outcome = self.index.apply_store(init, digest);
                let WriteOutcome::Stored { target, freed, .. } = outcome else {
                    unreachable!("apply_store returns Stored");
                };

                // Counter for the target line (colocated row access), unless
                // the speculative path already fetched it.
                let enc_done = match spec_counter_probe {
                    Some(done) => done,
                    None => {
                        let acc = self.inverted_meta.access(
                            target.index(),
                            false,
                            &mut self.device,
                            detect_done,
                            &mut self.metrics,
                        );
                        self.metrics.aes_line_ops += 1;
                        self.device.charge_aes_pj(aes_line_energy_pj(data.len()));
                        acc.done_ns + AES_LINE_LATENCY_NS
                    }
                };

                self.verify_buffer.invalidate(target.index());
                if let Some(freed) = freed {
                    self.verify_buffer.invalidate(freed.index());
                }
                let counter = self.counters.bump(target.index());
                self.journal(init, outcome, digest, counter.value());
                self.line_buf.resize(data.len(), 0);
                self.engine
                    .encrypt_line_into(data, target.index(), counter, &mut self.line_buf);

                let ready = detect_done.max(enc_done);
                let old = self.device.line(target)?;
                let flips =
                    crate::schemes::encoded_flips(self.config.bit_encoding, old, &self.line_buf);
                let access =
                    self.device
                        .write_line_with_flips(target, &self.line_buf, flips, ready)?;
                let meta_done = self.commit_metadata(init, outcome, digest, ready);
                self.predictor.record(false);
                if self.sink.is_some() {
                    let mut e = WriteEvent::new(WritePath::Stored);
                    e.predicted_dup = predicted_dup;
                    e.pna_skip = pna_skip;
                    e.total_ns = access.slot.finish_ns - now_ns;
                    e.set_stage(Stage::Digest, digest_ns);
                    e.set_stage(Stage::HashProbe, query_done - hash_done);
                    if let Some(ns) = verify_ns {
                        e.set_stage(Stage::VerifyRead, ns);
                    }
                    if let Some(ns) = compare_ns {
                        e.set_stage(Stage::Compare, ns);
                    }
                    // Speculative encryption ran from write issue; deferred
                    // encryption started once detection resolved.
                    let enc_start = if spec_counter_probe.is_some() {
                        now_ns
                    } else {
                        detect_done
                    };
                    e.set_stage(Stage::Encrypt, enc_done - enc_start);
                    e.set_stage(Stage::ArrayWrite, access.slot.finish_ns - ready);
                    e.set_stage(Stage::Metadata, meta_done.saturating_sub(ready));
                    event = Some(e);
                }
                WriteResult {
                    critical_ns: ready - now_ns,
                    nvm_finish_ns: Some(access.slot.finish_ns),
                    eliminated: false,
                    total_ns: access.slot.finish_ns - now_ns,
                }
            }
        };
        self.apply_persistence(now_ns);
        if let (Some(e), Some(sink)) = (event, self.sink.as_mut()) {
            sink.record(&e);
        }
        Ok(result)
    }

    fn read(&mut self, init: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError> {
        self.check_addr(init)?;
        self.metrics.reads += 1;

        // 1. Address-mapping row (mapping + colocated counter of `init`).
        let map_acc = self.addr_map_meta.access(
            init.index(),
            false,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );

        let done = match self.index.resolve(init) {
            Some(real) => {
                // 2. If remapped, the counter lives with the target's row.
                let ctr_done = if real == init {
                    map_acc.done_ns
                } else {
                    self.inverted_meta
                        .access(
                            real.index(),
                            false,
                            &mut self.device,
                            map_acc.done_ns,
                            &mut self.metrics,
                        )
                        .done_ns
                };

                // 3. Array read (starts once the mapping is known) overlaps
                // pad generation (starts once the counter is known).
                let (ciphertext, access) = self.device.read_line(real, map_acc.done_ns)?;
                let plain = &mut self.plain_buf;
                decrypt_resident(&self.engine, &self.counters, real, ciphertext, plain)
                    .expect("resident line has counter");
                // Read-side pad energy is not charged (write-dominated
                // accounting, identical across schemes; see CmeBaseline).
                let pad_done = ctr_done + AES_LINE_LATENCY_NS;
                access.slot.finish_ns.max(pad_done) + OTP_XOR_LATENCY_NS
            }
            None => {
                // Never written: logically zero. The home line may have
                // been reallocated to hold another address's data, so the
                // physical bytes must NOT be exposed — the controller knows
                // from the (absent) mapping that this address is unwritten.
                // The array read still happens (timing parity with a
                // controller that probes before deciding).
                self.plain_buf.fill(0);
                self.device
                    .read_timing(init, map_acc.done_ns)?
                    .slot
                    .finish_ns
            }
        };
        Ok(ReadResult {
            data: &self.plain_buf,
            latency_ns: done - now_ns,
        })
    }

    fn device(&self) -> &NvmDevice {
        &self.device
    }

    fn base_metrics(&self) -> BaseMetrics {
        self.metrics
    }

    fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const KEY: &[u8; 16] = b"dewrite test key";

    fn mem() -> DeWrite {
        DeWrite::new(SystemConfig::for_lines(4096), DeWriteConfig::paper(), KEY)
    }

    fn line(tag: u8) -> Vec<u8> {
        (0..256).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn roundtrip_through_encryption() {
        let mut m = mem();
        let data = line(1);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        assert_eq!(m.read(LineAddr::new(0), 1_000).unwrap().data, data);
        // Stored bytes are ciphertext.
        assert_ne!(m.device().peek_line(LineAddr::new(0)).unwrap(), data);
    }

    #[test]
    fn duplicate_write_is_eliminated() {
        let mut m = mem();
        let data = line(2);
        let w1 = m.write(LineAddr::new(0), &data, 0).unwrap();
        assert!(!w1.eliminated);
        let w2 = m.write(LineAddr::new(9), &data, 10_000).unwrap();
        assert!(w2.eliminated);
        assert!(w2.nvm_finish_ns.is_none());
        // Both addresses read the same content.
        assert_eq!(m.read(LineAddr::new(9), 20_000).unwrap().data, data);
        assert_eq!(m.device().writes(), 1 + m.base_metrics().meta_nvm_writes);
    }

    #[test]
    fn duplicate_detection_latency_matches_table_1() {
        let mut m = mem();
        let data = line(3);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        // Warm the predictor into the duplicate state so the hash query path
        // is exercised without PNA interference.
        let mut t = 100_000;
        let mut last = None;
        for i in 1..6 {
            let w = m.write(LineAddr::new(i), &data, t).unwrap();
            t += 50_000;
            last = Some(w);
        }
        let w = last.unwrap();
        assert!(w.eliminated);
        // 15 (CRC) + t_Q' + confirmation + 1 (compare): a cold candidate
        // costs a 75 ns array read (the paper's 91 ns total); a hot one is
        // confirmed from the dedup logic's verify buffer for just the
        // comparison. Either way the duplicate path stays far below the
        // 300 ns write latency.
        assert!(w.total_ns >= 17, "latency {}", w.total_ns);
        assert!(w.total_ns <= 120, "latency {}", w.total_ns);
    }

    #[test]
    fn non_duplicate_parallel_path_overlaps_encryption() {
        let mut m = mem();
        // Unique contents: predictor stays in non-dup state → parallel path.
        let mut t = 0;
        let mut totals = Vec::new();
        for i in 0..20u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            let w = m.write(LineAddr::new(i), &data, t).unwrap();
            totals.push(w);
            t += 10_000;
        }
        let w = totals.last().unwrap();
        assert!(!w.eliminated);
        // Warm caches: critical ≈ max(detect ~16, counter+AES ~97) = ~97,
        // plus the 300 ns array write.
        assert!(w.total_ns <= 97 + 300 + 20, "total {}", w.total_ns);
        let dm = m.dewrite_metrics();
        assert!(dm.parallel_writes > dm.direct_writes);
    }

    #[test]
    fn pna_skips_nvm_query_for_predicted_non_duplicates() {
        let mut m = mem();
        let mut t = 0;
        // All-unique stream: every hash-store probe misses, predictor says
        // non-dup, so PNA must skip the in-NVM query each time (after the
        // first few warmup writes).
        for i in 0..50u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 10_000;
        }
        let dm = m.dewrite_metrics();
        assert!(dm.pna_skips >= 45, "pna_skips {}", dm.pna_skips);
        assert_eq!(dm.pna_missed_dups, 0);
    }

    #[test]
    fn pna_can_miss_duplicates() {
        let mut cfg = DeWriteConfig::paper();
        // Shrink the hash cache so resident digests fall out.
        cfg.meta_cache.hash_entries = 8;
        let mut m = DeWrite::new(SystemConfig::for_lines(4096), cfg, KEY);
        let mut t = 0;
        // Interleave unique writes (keeping the predictor at non-dup) with
        // occasional duplicates whose digests have been evicted.
        let dup = line(200);
        m.write(LineAddr::new(4000), &dup, t).unwrap();
        for i in 0..100u64 {
            t += 10_000;
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&(i + 7).to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
        }
        t += 10_000;
        let w = m.write(LineAddr::new(4001), &dup, t).unwrap();
        // The duplicate was missed: stored, not eliminated.
        assert!(!w.eliminated);
        assert!(m.dewrite_metrics().pna_missed_dups >= 1);
        // Correctness is unaffected.
        assert_eq!(m.read(LineAddr::new(4001), t + 50_000).unwrap().data, dup);
    }

    #[test]
    fn direct_mode_never_speculates() {
        let mut cfg = DeWriteConfig::paper();
        cfg.mode = WriteMode::Direct;
        let mut m = DeWrite::new(SystemConfig::for_lines(1024), cfg, KEY);
        let mut t = 0;
        for i in 0..10u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 10_000;
        }
        let dm = m.dewrite_metrics();
        assert_eq!(dm.parallel_writes, 0);
        assert_eq!(dm.direct_writes, 10);
        assert_eq!(dm.wasted_encryptions, 0);
    }

    #[test]
    fn parallel_mode_wastes_encryption_on_duplicates() {
        let mut cfg = DeWriteConfig::paper();
        cfg.mode = WriteMode::Parallel;
        let mut m = DeWrite::new(SystemConfig::for_lines(1024), cfg, KEY);
        let data = line(9);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        m.write(LineAddr::new(1), &data, 10_000).unwrap();
        let dm = m.dewrite_metrics();
        assert_eq!(dm.wasted_encryptions, 1);
        assert_eq!(dm.saved_encryptions, 0);
    }

    #[test]
    fn shared_content_survives_owner_overwrite() {
        let mut m = mem();
        let shared = line(7);
        let fresh = line(8);
        m.write(LineAddr::new(0), &shared, 0).unwrap();
        m.write(LineAddr::new(1), &shared, 10_000).unwrap(); // dedup → line 0
        m.write(LineAddr::new(0), &fresh, 20_000).unwrap(); // owner moves away
        assert_eq!(m.read(LineAddr::new(1), 30_000).unwrap().data, shared);
        assert_eq!(m.read(LineAddr::new(0), 40_000).unwrap().data, fresh);
        m.index().check_invariants().unwrap();
    }

    #[test]
    fn unwritten_reads_return_zeros() {
        let mut m = mem();
        let r = m.read(LineAddr::new(55), 0).unwrap();
        assert!(r.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_and_size_checks() {
        let mut m = mem();
        assert!(m.write(LineAddr::new(4096), &line(0), 0).is_err());
        assert!(m.read(LineAddr::new(4096), 0).is_err());
        assert!(m.write(LineAddr::new(0), &[0u8; 16], 0).is_err());
    }

    #[test]
    fn write_reduction_tracks_duplicate_share() {
        let mut m = mem();
        let mut t = 0;
        let dup = line(100);
        m.write(LineAddr::new(0), &dup, t).unwrap();
        for i in 1..100u64 {
            t += 5_000;
            if i % 2 == 0 {
                m.write(LineAddr::new(i), &dup, t).unwrap();
            } else {
                let mut data = line(i as u8);
                data[0..8].copy_from_slice(&i.to_le_bytes());
                m.write(LineAddr::new(i), &data, t).unwrap();
            }
        }
        let b = m.base_metrics();
        let reduction = b.writes_eliminated as f64 / b.writes as f64;
        assert!((0.35..0.55).contains(&reduction), "reduction {reduction}");
        m.index().check_invariants().unwrap();
    }

    #[test]
    fn write_through_keeps_no_dirty_metadata() {
        let mut cfg = DeWriteConfig::paper();
        cfg.persistence = crate::config::MetadataPersistence::WriteThrough;
        let mut m = DeWrite::new(SystemConfig::for_lines(1024), cfg, KEY);
        let mut t = 0;
        for i in 0..50u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 5_000;
        }
        assert_eq!(
            m.dirty_metadata_entries(),
            0,
            "write-through must not buffer"
        );
        assert!(
            m.base_metrics().meta_nvm_writes > 50,
            "every update written through"
        );
    }

    #[test]
    fn epoch_flush_bounds_dirty_metadata() {
        let mut cfg = DeWriteConfig::paper();
        cfg.persistence = crate::config::MetadataPersistence::EpochFlush { interval: 8 };
        let mut m = DeWrite::new(SystemConfig::for_lines(1024), cfg, KEY);
        let mut t = 0;
        let mut max_dirty = 0;
        for i in 0..64u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
            max_dirty = max_dirty.max(m.dirty_metadata_entries());
            t += 5_000;
        }
        // Each write dirties a handful of entries; 8 writes per epoch
        // bounds exposure to a few dozen entries.
        assert!(max_dirty <= 8 * 6, "max dirty {max_dirty}");
        assert!(m.base_metrics().meta_nvm_writes > 0);
    }

    #[test]
    fn battery_backed_buffers_freely() {
        let mut m = mem(); // default: battery-backed
        let mut t = 0;
        for i in 0..50u64 {
            let mut data = line(i as u8);
            data[0..8].copy_from_slice(&i.to_le_bytes());
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 5_000;
        }
        assert!(
            m.dirty_metadata_entries() > 0,
            "write-back keeps dirty entries"
        );
        // An explicit flush drains them all.
        let flushed = m.flush_metadata(t);
        assert!(flushed > 0);
        assert_eq!(m.dirty_metadata_entries(), 0);
    }

    #[test]
    fn scrub_passes_on_a_healthy_memory() {
        let mut m = mem();
        let dup = line(9);
        let mut t = 0;
        for i in 0..40u64 {
            let data = if i % 3 == 0 {
                dup.clone()
            } else {
                let mut d = line(i as u8);
                d[0..8].copy_from_slice(&i.to_le_bytes());
                d
            };
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 5_000;
        }
        let checked = m.scrub().expect("healthy memory scrubs clean");
        assert!(checked > 0);
    }

    #[test]
    fn scrub_detects_missing_counter() {
        let mut m = mem();
        m.write(LineAddr::new(3), &line(5), 0).unwrap();
        m.scrub().expect("clean before the fault");
        let real = m.index().resolve(LineAddr::new(3)).expect("written");
        // Simulate lost counter metadata (e.g. a crash before flush).
        m.counters
            .set(real.index(), dewrite_crypto::LineCounter::new());
        let err = m.scrub().expect_err("missing counter must fail the scrub");
        assert!(err.contains("no encryption counter"), "{err}");
    }

    #[test]
    fn duplicate_commit_touches_target_row() {
        let mut cfg = DeWriteConfig::paper();
        cfg.persistence = crate::config::MetadataPersistence::WriteThrough;
        let mut m = DeWrite::new(SystemConfig::for_lines(1024), cfg, KEY);
        let data = line(4);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        let before = m.base_metrics().meta_nvm_writes;
        let w = m.write(LineAddr::new(1), &data, 10_000).unwrap();
        assert!(w.eliminated);
        let delta = m.base_metrics().meta_nvm_writes - before;
        // §III-C: a duplicate commit updates the address mapping, the hash
        // entry, AND the target's colocated row (its reference count).
        assert!(
            delta >= 3,
            "duplicate commit wrote only {delta} metadata lines"
        );
    }

    #[test]
    fn event_sink_sees_both_write_paths() {
        use crate::trace::{Stage, StageCollector};
        let mut m = mem();
        m.set_event_sink(Box::new(StageCollector::default()));
        let data = line(6);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        m.write(LineAddr::new(1), &data, 50_000).unwrap(); // duplicate
        let mut sink = m.take_event_sink().expect("sink installed");
        let collector = sink
            .as_any_mut()
            .downcast_mut::<StageCollector>()
            .expect("collector type");
        let b = &collector.breakdown;
        assert_eq!(b.stored_writes, 1);
        assert_eq!(b.duplicate_writes, 1);
        assert_eq!(b.stage(Stage::Digest).count(), 2);
        assert_eq!(
            b.stage(Stage::ArrayWrite).count(),
            1,
            "only the store hits the array"
        );
        assert_eq!(b.stage(Stage::Metadata).count(), 2);
        assert!(b.stage(Stage::Digest).mean_ns() > 0.0);
        // Detection on the duplicate write did verify + compare work.
        assert!(b.stage(Stage::Compare).count() >= 1);
    }

    #[test]
    fn journal_replay_matches_snapshot() {
        // Replaying the drained MetaOps onto plain maps must reproduce the
        // exact durable state a snapshot captures — the property the WAL
        // recovery path depends on.
        let mut m = mem();
        m.set_meta_journal(true);
        let mut maps: HashMap<u64, u64> = HashMap::new();
        let mut residents: HashMap<u64, u64> = HashMap::new();
        let mut ctrs: HashMap<u64, u32> = HashMap::new();
        let dup = line(1);
        let mut t = 0;
        for i in 0..120u64 {
            let data = if i % 3 == 0 {
                dup.clone()
            } else {
                let mut d = line(i as u8);
                d[0..8].copy_from_slice(&i.to_le_bytes());
                d
            };
            // Reuse a small address range so overwrites, frees, and silent
            // stores all occur.
            m.write(LineAddr::new(i % 40), &data, t).unwrap();
            t += 5_000;
            for op in m.drain_meta_ops() {
                match op {
                    MetaOp::MapSet { init, real } => {
                        maps.insert(init, real);
                    }
                    MetaOp::ResidentSet { real, digest } => {
                        residents.insert(real, digest);
                    }
                    MetaOp::ResidentDel { real } => {
                        residents.remove(&real);
                    }
                    MetaOp::CounterSet { line, value } => {
                        ctrs.insert(line, value);
                    }
                }
            }
        }
        let snap = m.snapshot();
        assert_eq!(
            maps,
            snap.mappings.iter().copied().collect::<HashMap<_, _>>()
        );
        assert_eq!(
            residents,
            snap.residents.iter().copied().collect::<HashMap<_, _>>()
        );
        assert_eq!(
            ctrs,
            snap.counters.iter().copied().collect::<HashMap<_, _>>()
        );
    }

    #[test]
    fn journal_disabled_stays_empty() {
        let mut m = mem();
        m.write(LineAddr::new(0), &line(3), 0).unwrap();
        assert!(m.drain_meta_ops().is_empty());
        m.set_meta_journal(true);
        m.write(LineAddr::new(1), &line(4), 10_000).unwrap();
        assert!(!m.drain_meta_ops().is_empty());
        m.set_meta_journal(false);
        m.write(LineAddr::new(2), &line(5), 20_000).unwrap();
        assert!(m.drain_meta_ops().is_empty());
    }

    #[test]
    fn scrub_detects_injected_corruption() {
        let mut m = mem();
        let data = line(5);
        m.write(LineAddr::new(3), &data, 0).unwrap();
        m.scrub().expect("clean before corruption");
        let real = m.index().resolve(LineAddr::new(3)).expect("written");
        m.inject_corruption(real);
        let err = m.scrub().expect_err("corruption must be detected");
        assert!(err.contains("hashes to"), "{err}");
    }

    #[test]
    fn injected_corruption_is_not_booked_as_a_write() {
        let mut m = mem();
        let data = line(5);
        m.write(LineAddr::new(3), &data, 0).unwrap();
        // A second copy confirms against the first: it sits in the verify
        // buffer, which must not mask the fault.
        assert!(m.write(LineAddr::new(4), &data, 10_000).unwrap().eliminated);
        let real = m.index().resolve(LineAddr::new(3)).expect("written");
        let before = (
            m.device().writes(),
            m.device().reads(),
            m.device().wear().total_line_writes(),
            m.device().wear().total_bits_flipped(),
            m.device().line_writes(real),
            *m.device().energy(),
            m.base_metrics(),
        );
        m.inject_corruption(real);
        let after = (
            m.device().writes(),
            m.device().reads(),
            m.device().wear().total_line_writes(),
            m.device().wear().total_bits_flipped(),
            m.device().line_writes(real),
            *m.device().energy(),
            m.base_metrics(),
        );
        assert_eq!(before, after, "a fault is not a device write");
        assert!(m.scrub().is_err(), "the fault is still there to find");
        // And the next would-be duplicate reads the array, not the buffer.
        assert!(!m.write(LineAddr::new(5), &data, 20_000).unwrap().eliminated);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_workload_preserves_contents(
            ops in proptest::collection::vec((0u64..64, 0u8..8), 1..120),
        ) {
            let mut m = mem();
            let mut shadow: std::collections::HashMap<u64, Vec<u8>> = Default::default();
            let mut t = 0;
            for (addr, tag) in ops {
                // Small tag space forces heavy duplication.
                let data = line(tag);
                m.write(LineAddr::new(addr), &data, t).unwrap();
                shadow.insert(addr, data);
                t += 7_000;
            }
            m.index().check_invariants().unwrap();
            for (addr, expect) in shadow {
                let got = m.read(LineAddr::new(addr), t).unwrap().data;
                prop_assert_eq!(got, expect);
                t += 1_000;
            }
        }
    }
}
