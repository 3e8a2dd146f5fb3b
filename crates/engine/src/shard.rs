//! One controller shard: the exclusive owner of every table for its slice
//! of the line space.
//!
//! A [`ShardController`] is a self-contained DeWrite-style secure-memory
//! controller over the lines `{a : a mod shards == id}`. It owns, privately:
//!
//! * a **hash table** + **inverted hash table**, sharded by CRC-32 digest
//!   implicitly — a digest only ever lands on the shard that owns the
//!   written address, so entries for the same content on different shards
//!   are independent (the dedup cost of sharding, quantified by `loadgen`);
//! * an **address map** + **colocated CME counters**, sharded by line
//!   address — every write resolves on one shard because allocation is
//!   home-local;
//! * a free-space map, the two-level [`FsmTree`] (per-chunk counters skip
//!   drained regions), claimed in home-preference or wear-rotation order
//!   as [`FsmPolicy`] selects — a claim or a release is plain loads and
//!   stores, never an atomic read-modify-write;
//! * a metadata cache and a 3-bit [`HistoryPredictor`].
//!
//! All methods take `&mut self`: concurrency comes from shard ownership,
//! never shared mutation — whoever runs a shard holds it exclusively for
//! the call (`run()`'s owner thread; `EngineService`'s submitter under the
//! shard's `Mutex`) — so a shard's final state, and its [`RunReport`], is
//! a pure function of its input feed.
//!
//! [`ShardController::write`] also issues the shard's prefetch schedule:
//! side-effect-free hints for the lines the commit is known to need,
//! placed a digest or an encryption ahead of their use (DESIGN.md §9).

pub use dewrite_core::tables::MAX_CANDIDATE_COMPARES;
use dewrite_core::tables::{HashTable, InvertedTable, OpenEntry, MAX_REFERENCE};
use dewrite_core::{
    durable_fingerprint, lines_equal, BaseMetrics, DeWriteMetrics, DigestMode, HistoryPredictor,
    IndexDigest, MetaOp, RunReport, Snapshot, Stage, StageBreakdown, WriteEvent, WritePath,
};
use dewrite_crypto::{aes_line_energy_pj, CounterModeEngine, LineCounter, AES_LINE_LATENCY_NS};
use dewrite_hashes::HashAlgorithm;
use dewrite_mem::{
    hint, CacheConfig, CacheStats, LatencyHistogram, LatencyStats, MetadataCache, Replacement,
};
use dewrite_nvm::{EnergyBreakdown, EnergyParams, FsmStats, FsmTree, LineAddr};
use dewrite_persist::{DurableOptions, EpochLog, PersistStats};

use std::collections::HashMap;
use std::path::Path;

/// Sentinel in the dense address map: address has no mapping.
const SLOT_NONE: u64 = u64::MAX;

/// Which order a shard's [`FsmTree`] claims lines in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsmPolicy {
    /// Home preference ([`FsmTree::allocate`]): a stored line goes to the
    /// first free slot at or after its home in flat word order, with
    /// per-chunk counters skipping drained regions. The default.
    #[default]
    Tree,
    /// Wear rotation ([`FsmTree::allocate_rotating`]): claims come from
    /// one reserved chunk, rotated by wear bucket — the flattest wear, but
    /// placement (and therefore flip-bit/energy figures) differs from
    /// `Tree`.
    TreeWear,
}

/// Simulated PCM array read latency, ns.
const ARRAY_READ_NS: u64 = 75;
/// Simulated PCM array write latency, ns.
const ARRAY_WRITE_NS: u64 = 300;
/// Metadata-cache hit / table update latency, ns.
const META_NS: u64 = 1;
/// Byte-compare latency per candidate, ns.
const COMPARE_NS: u64 = 1;
/// Final counter-mode XOR on the read path, ns.
const OTP_XOR_NS: u64 = 1;

/// Simulated read latency, ns: metadata lookup and array read, plus the
/// pad XOR when the line is mapped (a never-written line has nothing to
/// decrypt).
const fn read_ns(mapped: bool) -> u64 {
    if mapped {
        META_NS + ARRAY_READ_NS + OTP_XOR_NS
    } else {
        META_NS + ARRAY_READ_NS
    }
}

/// Number of distinct [`WriteShape`]s: three flags times the verified
/// count `0..=MAX_CANDIDATE_COMPARES`.
const WRITE_SHAPES: usize = 8 * (MAX_CANDIDATE_COMPARES + 1);

/// The four decisions a write's simulated latency depends on. The shard
/// counts writes per shape and turns the counts into latency
/// distributions only when a report is taken (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteShape {
    /// The array write was eliminated (confirmed duplicate).
    eliminated: bool,
    /// The predictor forecast a duplicate (direct path, no speculative
    /// encryption).
    predicted_dup: bool,
    /// The digest hit the metadata cache.
    cache_hit: bool,
    /// Candidates verify-read and compared, at most
    /// [`MAX_CANDIDATE_COMPARES`].
    verified: usize,
}

impl WriteShape {
    /// Dense index into the shard's per-shape counters.
    fn index(self) -> usize {
        debug_assert!(self.verified <= MAX_CANDIDATE_COMPARES);
        let flags = usize::from(self.eliminated) << 2
            | usize::from(self.predicted_dup) << 1
            | usize::from(self.cache_hit);
        flags * (MAX_CANDIDATE_COMPARES + 1) + self.verified
    }

    /// Inverse of [`index`](Self::index).
    fn from_index(index: usize) -> Self {
        let flags = index / (MAX_CANDIDATE_COMPARES + 1);
        WriteShape {
            eliminated: flags & 4 != 0,
            predicted_dup: flags & 2 != 0,
            cache_hit: flags & 1 != 0,
            verified: index % (MAX_CANDIDATE_COMPARES + 1),
        }
    }

    /// The simulated `(critical, total)` latency, ns, and the trace event
    /// of a write of this shape, given the digest mode's latency. The one
    /// statement of the shard's write cost: [`ShardController::write`]
    /// returns its total and [`ShardController::report`] expands the
    /// per-shape counts through it.
    #[inline]
    fn cost(self, digest_ns: u64) -> (u64, u64, WriteEvent) {
        let speculative = !self.predicted_dup;
        let probe_ns = if self.cache_hit {
            META_NS
        } else {
            ARRAY_READ_NS
        };
        let k = self.verified as u64;
        let verify_ns = k * ARRAY_READ_NS;
        let compare_ns = k * COMPARE_NS;
        let detection_ns = probe_ns + verify_ns + compare_ns;

        let mut event = WriteEvent::new(if self.eliminated {
            WritePath::Duplicate
        } else {
            WritePath::Stored
        });
        event.predicted_dup = self.predicted_dup;
        // PNA: a cache miss with a non-duplicate prediction skips the
        // in-NVM hash-table query.
        event.pna_skip = !self.cache_hit && !self.predicted_dup;
        event.set_stage(Stage::Digest, digest_ns);
        event.set_stage(Stage::HashProbe, probe_ns);
        if k > 0 {
            event.set_stage(Stage::VerifyRead, verify_ns);
            event.set_stage(Stage::Compare, compare_ns);
        }
        event.set_stage(Stage::Metadata, META_NS);

        let (critical_ns, total_ns) = if self.eliminated {
            if speculative {
                // The speculative encryption raced detection and lost.
                event.set_stage(Stage::Encrypt, AES_LINE_LATENCY_NS);
            }
            let critical_ns = digest_ns + detection_ns + META_NS;
            (critical_ns, critical_ns)
        } else {
            event.set_stage(Stage::Encrypt, AES_LINE_LATENCY_NS);
            event.set_stage(Stage::ArrayWrite, ARRAY_WRITE_NS);
            // Parallel path overlaps encryption with detection; direct path
            // serializes them.
            let front_ns = if speculative {
                detection_ns.max(AES_LINE_LATENCY_NS)
            } else {
                detection_ns + AES_LINE_LATENCY_NS
            };
            let critical_ns = digest_ns + front_ns + META_NS;
            (critical_ns, critical_ns + ARRAY_WRITE_NS)
        };
        (critical_ns, total_ns, event)
    }
}

/// What one write did, plus its simulated latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWrite {
    /// Whether the NVM array write was eliminated (confirmed duplicate).
    pub eliminated: bool,
    /// Simulated full write latency, ns.
    pub sim_ns: u64,
}

/// One shard of the sharded memory-controller service.
pub struct ShardController {
    id: usize,
    shards: usize,
    line_size: usize,
    slots: u64,

    crypt: CounterModeEngine,
    /// What keys the dedup index — see [`ShardController::set_digest_mode`].
    digest: IndexDigest,
    /// The raw encryption key, kept to derive the strong digest key when
    /// the mode is switched after construction.
    key: [u8; 16],

    hash: HashTable,
    inverted: InvertedTable,
    fsm: FsmTree,
    fsm_policy: FsmPolicy,
    /// Global initial address → local slot, for every line this shard has
    /// accepted a write for. Dense: owned addresses are exactly
    /// `{a : a mod shards == id}`, so `a / shards` is a unique index.
    /// [`SLOT_NONE`] marks unmapped; grown on demand for address spaces
    /// larger than the arena.
    addr_map: Vec<u64>,
    /// Per-slot CME write counters, colocated with the address map.
    /// Monotonic for the shard's lifetime — pad uniqueness survives slot
    /// reuse.
    counters: Vec<u32>,
    /// Ciphertext arena, one line per slot.
    store: Vec<u8>,
    meta: MetadataCache,
    predictor: HistoryPredictor,

    scratch: Vec<u8>,

    /// Optional epoch-batched metadata WAL. Host-side only: logging is
    /// never charged to simulated time, so the [`RunReport`] is
    /// bit-identical with persistence on or off.
    log: Option<EpochLog>,
    /// Journal ops of the write in flight, drained into the log.
    meta_ops: Vec<MetaOp>,

    base: BaseMetrics,
    dewrite: DeWriteMetrics,
    /// Writes per [`WriteShape::index`]; every write latency distribution
    /// in the report is expanded from these.
    write_shapes: [u64; WRITE_SHAPES],
    /// Reads of never-written (`[0]`) and mapped (`[1]`) lines.
    read_kinds: [u64; 2],
    energy: EnergyBreakdown,
    energy_params: EnergyParams,
    instructions: u64,
    flip_bits: u64,
    nvm_data_writes: u64,
    ops: u64,
    /// XOR-fold of read-back plaintext; keeps reads observable.
    read_sink: u64,
}

impl ShardController {
    /// Create shard `id` of `shards`, owning `slots` local lines of
    /// `line_size` bytes, keyed with the memory-encryption `key`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= shards` or `slots == 0`.
    pub fn new(id: usize, shards: usize, slots: u64, line_size: usize, key: &[u8; 16]) -> Self {
        assert!(id < shards, "shard id {id} out of range 0..{shards}");
        assert!(slots > 0, "a shard needs at least one slot");
        ShardController {
            id,
            shards,
            line_size,
            slots,
            crypt: CounterModeEngine::new(key),
            digest: IndexDigest::new(HashAlgorithm::Crc32, DigestMode::Crc32Verify, key),
            key: *key,
            hash: HashTable::new(),
            inverted: InvertedTable::new(slots),
            fsm: FsmTree::new(slots),
            fsm_policy: FsmPolicy::default(),
            addr_map: vec![SLOT_NONE; slots as usize],
            counters: vec![0u32; slots as usize],
            store: vec![0u8; slots as usize * line_size],
            meta: MetadataCache::new(CacheConfig::with_capacity((slots as usize / 4).max(64))),
            predictor: HistoryPredictor::new(3),
            scratch: vec![0u8; line_size],
            log: None,
            meta_ops: Vec::new(),
            base: BaseMetrics::default(),
            dewrite: DeWriteMetrics::default(),
            write_shapes: [0; WRITE_SHAPES],
            read_kinds: [0; 2],
            energy: EnergyBreakdown::new(),
            energy_params: EnergyParams::PCM,
            instructions: 0,
            flip_bits: 0,
            nvm_data_writes: 0,
            ops: 0,
            read_sink: 0,
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Operations processed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Fraction of writes eliminated as duplicates.
    pub fn dedup_rate(&self) -> f64 {
        if self.base.writes == 0 {
            0.0
        } else {
            self.base.writes_eliminated as f64 / self.base.writes as f64
        }
    }

    /// Select the order the shard's free-space map claims lines in.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed operations.
    pub fn set_fsm_policy(&mut self, policy: FsmPolicy) {
        assert!(
            self.ops == 0,
            "cannot switch the FSM after {} operations",
            self.ops
        );
        self.fsm_policy = policy;
    }

    /// Select the metadata-cache eviction policy. The cache is rebuilt
    /// empty (same geometry), so switch only between runs.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed operations.
    pub fn set_cache_policy(&mut self, policy: Replacement) {
        assert!(
            self.ops == 0,
            "cannot switch the metadata-cache policy after {} operations",
            self.ops
        );
        if self.meta.config().replacement != policy {
            let mut config = *self.meta.config();
            config.replacement = policy;
            self.meta = MetadataCache::new(config);
        }
    }

    /// Select the digest mode keying the dedup index. Under
    /// [`DigestMode::Crc32Verify`] (the default) digests are the folded
    /// CRC-32 zero-extended and every candidate match is confirmed by a
    /// verify-read; under [`DigestMode::StrongKeyed`] the index keys on the
    /// 64-bit keyed strong tag and a tag match is accepted as a duplicate
    /// with no verify-read. The strong key is derived from the shard's
    /// memory-encryption key, so all shards of one engine agree.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed operations — the stored
    /// digests would no longer match the digest function.
    pub fn set_digest_mode(&mut self, mode: DigestMode) {
        assert!(
            self.ops == 0,
            "cannot switch the digest mode after {} operations",
            self.ops
        );
        self.digest = IndexDigest::new(HashAlgorithm::Crc32, mode, &self.key);
    }

    /// Metadata-cache counters (hits, misses, queue splits, filtered scan
    /// evictions — the S3-FIFO fields stay zero under LRU/FIFO).
    pub fn cache_stats(&self) -> CacheStats {
        self.meta.stats()
    }

    /// Allocator counters: claims, rotation refills, steals, scan steps.
    pub fn fsm_stats(&self) -> FsmStats {
        self.fsm.stats()
    }

    /// Stable fingerprint of a shard's durable-format-relevant geometry:
    /// two stores agree on it exactly when their persisted metadata is
    /// mutually interpretable (same interleaving, arena, line size, shard
    /// identity, and digest mode — the stored digests are only meaningful
    /// under the digest function that produced them).
    pub fn persist_fingerprint(
        id: usize,
        shards: usize,
        slots: u64,
        line_size: usize,
        mode: DigestMode,
    ) -> u64 {
        durable_fingerprint(&[
            b"dewrite-engine-shard-v2",
            &(id as u64).to_le_bytes(),
            &(shards as u64).to_le_bytes(),
            &slots.to_le_bytes(),
            &(line_size as u64).to_le_bytes(),
            &[mode.to_wire()],
        ])
    }

    /// Attach an epoch-batched metadata WAL rooted at `dir`, anchored on a
    /// checkpoint of the shard's current state. From here on every applied
    /// write's metadata mutations are journaled (global addresses, so the
    /// per-shard stores compose into the full line space) and flushed per
    /// the epoch policy.
    ///
    /// # Errors
    ///
    /// Propagates store-creation failures.
    pub fn attach_persistence(&mut self, dir: &Path, opts: DurableOptions) -> std::io::Result<()> {
        let snapshot = self.snapshot();
        let log = EpochLog::create(
            dir,
            Self::persist_fingerprint(
                self.id,
                self.shards,
                self.slots,
                self.line_size,
                self.digest.mode(),
            ),
            &snapshot,
            opts,
        )?;
        self.log = Some(log);
        Ok(())
    }

    /// Applied writes not yet covered by a durable WAL record (always 0
    /// without persistence).
    pub fn unflushed_wal_writes(&self) -> u64 {
        self.log.as_ref().map_or(0, EpochLog::unflushed_writes)
    }

    /// What the metadata WAL has written and how far its active segment
    /// has run ahead of the last checkpoint; `None` without persistence.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.log.as_ref().map(EpochLog::stats)
    }

    /// Force the open WAL epoch to the log; a no-op without persistence.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush_wal(&mut self) -> std::io::Result<()> {
        match &mut self.log {
            Some(log) => log.flush(),
            None => Ok(()),
        }
    }

    /// Flush the WAL and rotate to a checkpoint of the shard's current
    /// state (the end-of-drain durability point); a no-op without
    /// persistence.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist_checkpoint(&mut self) -> std::io::Result<()> {
        if self.log.is_none() {
            return Ok(());
        }
        let snapshot = self.snapshot();
        self.log
            .as_mut()
            .expect("checked above")
            .checkpoint(&snapshot)
    }

    /// Graceful-shutdown durability: checkpoint, then force the store's
    /// files to stable storage even when the log runs with `sync: false`
    /// (the engine default). A no-op without persistence.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist_shutdown(&mut self) -> std::io::Result<()> {
        if self.log.is_none() {
            return Ok(());
        }
        self.persist_checkpoint()?;
        self.log.as_mut().expect("checked above").sync_all()
    }

    /// Capture the shard's durable metadata as a [`Snapshot`] in global
    /// address terms: mappings are initial address → resident line, and
    /// resident/counter lines are [`ShardController::slot_global`] values,
    /// so per-shard snapshots compose without collisions.
    pub fn snapshot(&self) -> Snapshot {
        let lines = self.addr_map.len().max(self.slots as usize) as u64 * self.shards as u64;
        // Each table is sized exactly before it is filled: a checkpoint
        // stalls the write path, and a megabyte-sized `Vec` grown by
        // doubling pays for its final size again in copies and fresh
        // pages. A counting pass over a dense array is far cheaper.
        let mapped = self.addr_map.iter().filter(|&&s| s != SLOT_NONE).count();
        let mut mappings = Vec::with_capacity(mapped);
        for (idx, &slot) in self.addr_map.iter().enumerate() {
            if slot != SLOT_NONE {
                let init = idx as u64 * self.shards as u64 + self.id as u64;
                mappings.push((init, self.slot_global(slot)));
            }
        }
        let mut residents = Vec::with_capacity(self.inverted.len());
        let inverted = &self.inverted;
        self.fsm.for_each_occupied(|slot| {
            let digest = inverted
                .digest_of(LineAddr::new(slot))
                .expect("occupied slot must have an inverted-hash row");
            residents.push((self.slot_global(slot), digest));
        });
        // `for_each_occupied` walks slots upward and `slot_global` is
        // monotonic in the slot.
        debug_assert!(residents.is_sorted());
        let touched = self.counters.iter().filter(|&&c| c != 0).count();
        let mut counters = Vec::with_capacity(touched);
        for (slot, &c) in self.counters.iter().enumerate() {
            if c != 0 {
                counters.push((self.slot_global(slot as u64), c));
            }
        }
        Snapshot {
            config_fp: Self::persist_fingerprint(
                self.id,
                self.shards,
                self.slots,
                self.line_size,
                self.digest.mode(),
            ),
            lines,
            mappings,
            residents,
            counters,
        }
    }

    /// Feed the in-flight write's journal ops to the log, flushing and
    /// checkpointing per the epoch policy. Called at the end of every
    /// applied write; a no-op without persistence.
    fn journal_write(&mut self) {
        let Some(log) = self.log.as_mut() else {
            return;
        };
        let due = log
            .record_write(self.meta_ops.drain(..))
            .expect("metadata WAL append failed");
        if due {
            let snapshot = self.snapshot();
            self.log
                .as_mut()
                .expect("checked above")
                .checkpoint(&snapshot)
                .expect("metadata checkpoint failed");
        }
    }

    /// Dense address-map index of a global address this shard owns. One
    /// 64-bit division: `write` and `read` take it once, derive the home
    /// slot from it, and pass both down.
    fn map_index(&self, addr: LineAddr) -> usize {
        (addr.index() / self.shards as u64) as usize
    }

    /// Global line address of a local slot (the crypto pad tweak, unique
    /// across shards).
    fn slot_global(&self, slot: u64) -> u64 {
        slot * self.shards as u64 + self.id as u64
    }

    fn slot_range(&self, slot: u64) -> std::ops::Range<usize> {
        let start = slot as usize * self.line_size;
        start..start + self.line_size
    }

    /// Decrypt the line resident in `slot` into the scratch buffer.
    fn decrypt_slot(&mut self, slot: u64) {
        let range = self.slot_range(slot);
        let addr = self.slot_global(slot);
        let ctr = LineCounter::from_value(self.counters[slot as usize]);
        self.crypt
            .decrypt_line_into(&self.store[range], addr, ctr, &mut self.scratch);
    }

    /// The local slot mapped at address-map index `idx`, if any.
    fn mapped_slot(&self, idx: usize) -> Option<u64> {
        self.addr_map
            .get(idx)
            .copied()
            .filter(|&slot| slot != SLOT_NONE)
    }

    /// Map address-map index `idx` to a local slot, growing the dense map
    /// if the address space outruns the arena size it was pre-sized to.
    fn map_addr(&mut self, idx: usize, slot: u64) {
        if idx >= self.addr_map.len() {
            self.addr_map.resize(idx + 1, SLOT_NONE);
        }
        self.addr_map[idx] = slot;
    }

    /// Drop the mapping at address-map index `idx`, releasing its slot
    /// when the last reference goes. Returns the freed local slot, if one
    /// went free.
    fn release_previous_mapping(&mut self, idx: usize) -> Option<u64> {
        let old_slot = self.mapped_slot(idx)?;
        self.addr_map[idx] = SLOT_NONE;
        let digest = self
            .inverted
            .digest_of(LineAddr::new(old_slot))
            .expect("occupied slot must have an inverted-hash row");
        if self.hash.release_reference(digest, LineAddr::new(old_slot)) == 0 {
            self.inverted.clear(LineAddr::new(old_slot));
            assert!(self.fsm.release(old_slot), "double free of slot {old_slot}");
            Some(old_slot)
        } else {
            None
        }
    }

    /// First half of a write's hint schedule, issued a whole digest ahead
    /// of use: load the current mapping at `idx` and start fetching the old
    /// slot's inverted row (the release reads it) and — when a store is
    /// predicted, which is when `home` is given — what the commit will
    /// touch at the home slot, which allocation almost always hands back:
    /// its ciphertext lines (the bit-flip count reads them), its counter
    /// and its inverted row. Hints only; returns the old slot for the
    /// second half.
    #[inline]
    fn hint_before_digest(&self, idx: usize, home: Option<u64>) -> Option<u64> {
        let old = self.mapped_slot(idx);
        if let Some(home) = home {
            hint::prefetch_read_bytes(&self.store[self.slot_range(home)]);
            hint::prefetch_read(&self.counters[home as usize]);
            self.inverted.prefetch(LineAddr::new(home));
        }
        if let Some(old) = old.filter(|&old| Some(old) != home) {
            self.inverted.prefetch(LineAddr::new(old));
        }
        old
    }

    /// Second half, issued once the digest is known and ahead of the
    /// encryption or verify: the metadata-cache set, the new digest's index
    /// group (control bytes for the insert a store ends in, slots too for
    /// the probe a predicted duplicate starts with) and the old digest's
    /// group, slots included, for the release.
    #[inline]
    fn hint_after_digest(&self, digest: u64, old: Option<u64>, predicted_dup: bool) {
        self.meta.prefetch(digest);
        self.hash.prefetch(digest, predicted_dup);
        let old_digest = old.and_then(|old| self.inverted.digest_of(LineAddr::new(old)));
        if let Some(old_digest) = old_digest {
            self.hash.prefetch(old_digest, true);
        }
    }

    /// Accept one write of a full line at `addr` (which must belong to this
    /// shard), preceded by `gap` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not this shard's, `data` is not one line, the
    /// shard's arena is exhausted (size it for the workload plus saturated
    /// residue), or an attached metadata WAL hits an I/O error.
    pub fn write(&mut self, addr: LineAddr, data: &[u8], gap: u32) -> ShardWrite {
        debug_assert_eq!(
            addr.index() as usize % self.shards,
            self.id,
            "write routed to the wrong shard"
        );
        assert_eq!(data.len(), self.line_size, "write must be one full line");
        self.ops += 1;
        self.instructions += u64::from(gap) + 1;
        self.base.writes += 1;

        // The prediction depends on past writes only; taking it first lets
        // the hint schedule know whether this write will probe or store.
        let predicted_dup = self.predictor.predict_duplicate();
        let idx = self.map_index(addr);
        let home = idx as u64 % self.slots;
        let old_slot = self.hint_before_digest(idx, (!predicted_dup).then_some(home));

        // Stage 1: fingerprint.
        let digest_cost = self.digest.cost();
        let digest = self.digest.digest(data);
        self.base.hash_ops += 1;
        self.energy.dedup_pj += digest_cost.energy_pj;
        self.hint_after_digest(digest, old_slot, predicted_dup);

        // Stage 2: probe the hash-store cache.
        let cache_hit = self.meta.access(digest, false);
        if !cache_hit {
            self.base.meta_nvm_reads += 1;
            self.energy.nvm_read_pj += self.energy_params.read_line_pj;
            let _ = self.meta.insert(digest, false);
        }
        // PNA: on a cache miss with a non-duplicate prediction, skip the
        // in-NVM hash-table query entirely.
        let pna_skip = !cache_hit && !predicted_dup;
        if pna_skip {
            self.dewrite.pna_skips += 1;
        }

        // Speculative encryption on the parallel path: predicted-non-dup
        // writes encrypt while detection runs.
        let speculative = !predicted_dup;
        if speculative {
            self.dewrite.parallel_writes += 1;
        } else {
            self.dewrite.direct_writes += 1;
        }

        // Stages 3+4: candidate verification.
        let mut verified = 0usize;
        let mut dup: Option<OpenEntry> = None;
        if !pna_skip {
            // The bucket's unsaturated entries in seed order, at most the
            // compare cap of them; a walk that finds no duplicate has
            // skipped every saturated entry up to where it stopped.
            let view = self.hash.open(digest);
            let mut skipped = view.saturated_walked();
            if self.digest.mode() == DigestMode::StrongKeyed {
                // Verify-free: a 64-bit keyed-tag match *is* the duplicate
                // decision — accept the first unsaturated candidate with no
                // array read, no decryption, no byte compare.
                if let Some(&first) = view.entries().first() {
                    self.dewrite.assumed_dups += 1;
                    skipped = first.saturated_before;
                    dup = Some(first);
                }
            } else {
                for &entry in view.entries() {
                    verified += 1;
                    self.energy.nvm_read_pj += self.energy_params.read_line_pj;
                    self.energy.dedup_pj += self.energy_params.compare_pj;
                    self.decrypt_slot(entry.real.index());
                    if lines_equal(&self.scratch, data) {
                        skipped = entry.saturated_before;
                        dup = Some(entry);
                        break;
                    }
                    self.dewrite.false_matches += 1;
                }
            }
            self.base.verify_reads += verified as u64;
            self.dewrite.saturated_skips += u64::from(skipped);
        }

        // Commit: duplicate (reference the resident copy) or store.
        let eliminated = match dup {
            Some(entry) if self.hash.add_reference_at(entry) => {
                let slot = entry.real.index();
                // Order matters when the old mapping is the same slot: add
                // the new reference before releasing the old one so the
                // entry never transiently hits zero.
                let freed = self.release_previous_mapping(idx);
                self.map_addr(idx, slot);
                if self.log.is_some() {
                    if let Some(f) = freed {
                        let real = self.slot_global(f);
                        self.meta_ops.push(MetaOp::ResidentDel { real });
                    }
                    let real = self.slot_global(slot);
                    self.meta_ops.push(MetaOp::MapSet {
                        init: addr.index(),
                        real,
                    });
                }
                true
            }
            _ => false,
        };

        if eliminated {
            self.base.writes_eliminated += 1;
            self.dewrite.dup_eliminated += 1;
            if speculative {
                // The speculative encryption raced detection and lost.
                self.dewrite.wasted_encryptions += 1;
                self.base.aes_line_ops += 1;
                self.energy.aes_pj += aes_line_energy_pj(self.line_size);
            } else {
                self.dewrite.saved_encryptions += 1;
            }
        } else {
            let freed = self.release_previous_mapping(idx);
            let slot = match self.fsm_policy {
                FsmPolicy::Tree => self.fsm.allocate(home),
                FsmPolicy::TreeWear => self.fsm.allocate_rotating(),
            }
            .expect("shard arena exhausted: size slots for the workload");
            self.counters[slot as usize] += 1;
            let ctr = LineCounter::from_value(self.counters[slot as usize]);
            let global = self.slot_global(slot);
            let range = self.slot_range(slot);
            let old_ct = &self.store[range.clone()];
            self.crypt
                .encrypt_line_into(data, global, ctr, &mut self.scratch);
            let flips = dewrite_nvm::bit_flips(old_ct, &self.scratch);
            self.store[range].copy_from_slice(&self.scratch);
            self.flip_bits += flips;
            self.nvm_data_writes += 1;
            self.energy.nvm_write_pj += self.energy_params.write_energy_pj(flips);
            self.base.aes_line_ops += 1;
            self.energy.aes_pj += aes_line_energy_pj(self.line_size);
            self.hash.insert(digest, LineAddr::new(slot));
            self.inverted.set(LineAddr::new(slot), digest);
            self.map_addr(idx, slot);
            if self.log.is_some() {
                // ResidentDel first: the allocator may hand back the slot
                // the release just freed, and replay applies ops in order.
                if let Some(f) = freed {
                    let real = self.slot_global(f);
                    self.meta_ops.push(MetaOp::ResidentDel { real });
                }
                let real = self.slot_global(slot);
                self.meta_ops.push(MetaOp::ResidentSet { real, digest });
                self.meta_ops.push(MetaOp::MapSet {
                    init: addr.index(),
                    real,
                });
                self.meta_ops.push(MetaOp::CounterSet {
                    line: real,
                    value: self.counters[slot as usize],
                });
            }
        }

        // The write updated dedup metadata either way; dirty the cached
        // hash-store entry so its eventual eviction becomes an NVM write.
        let _ = self.meta.access(digest, true);

        self.predictor.record(eliminated);
        let shape = WriteShape {
            eliminated,
            predicted_dup,
            cache_hit,
            verified,
        };
        self.write_shapes[shape.index()] += 1;
        self.journal_write();
        let (_, sim_ns, _) = shape.cost(digest_cost.latency_ns);
        ShardWrite { eliminated, sim_ns }
    }

    /// Serve one read at `addr`, preceded by `gap` instructions. Returns
    /// the simulated latency; the plaintext is folded into an internal
    /// sink so the work is observable.
    pub fn read(&mut self, addr: LineAddr, gap: u32) -> u64 {
        debug_assert_eq!(
            addr.index() as usize % self.shards,
            self.id,
            "read routed to the wrong shard"
        );
        self.ops += 1;
        self.instructions += u64::from(gap) + 1;
        self.base.reads += 1;
        self.energy.nvm_read_pj += self.energy_params.read_line_pj;
        let slot = self.mapped_slot(self.map_index(addr));
        if let Some(slot) = slot {
            self.decrypt_slot(slot);
            self.read_sink ^= fold_words(&self.scratch);
        }
        self.read_kinds[usize::from(slot.is_some())] += 1;
        read_ns(slot.is_some())
    }

    /// The XOR-fold of all plaintext this shard has read back.
    pub fn read_sink(&self) -> u64 {
        self.read_sink
    }

    /// Full cross-table consistency check. Verifies that
    ///
    /// * occupied FSM slots, inverted-hash rows and hash-table entries are
    ///   in exact 1:1:1 correspondence (no orphaned counters, no dangling
    ///   inverted rows);
    /// * every resident line decrypts to content whose digest matches its
    ///   inverted-hash row;
    /// * every non-saturated reference count equals the number of mapped
    ///   addresses resolving to that slot;
    /// * the free count is consistent.
    ///
    /// Returns the number of resident lines checked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn scrub(&mut self) -> Result<u64, String> {
        if self.unflushed_wal_writes() > 0 {
            return Err(format!(
                "shard {}: {} writes in the open WAL epoch not yet flushed",
                self.id,
                self.unflushed_wal_writes()
            ));
        }
        // One pass over the bitmap through the visitor — no intermediate
        // `Vec` of every resident; the set is needed for membership anyway.
        let mut occupied_set = std::collections::HashSet::new();
        self.fsm.for_each_occupied(|slot| {
            occupied_set.insert(slot);
        });

        if self.fsm.free_lines() + occupied_set.len() as u64 != self.slots {
            return Err(format!(
                "shard {}: free count {} + occupied {} != {} slots",
                self.id,
                self.fsm.free_lines(),
                occupied_set.len(),
                self.slots
            ));
        }
        if self.inverted.len() != occupied_set.len() {
            return Err(format!(
                "shard {}: {} inverted rows but {} occupied slots",
                self.id,
                self.inverted.len(),
                occupied_set.len()
            ));
        }
        if self.hash.len() != occupied_set.len() {
            return Err(format!(
                "shard {}: {} hash entries but {} occupied slots",
                self.id,
                self.hash.len(),
                occupied_set.len()
            ));
        }

        // How many mapped addresses resolve to each slot.
        let mut mapped_refs: HashMap<u64, u64> = HashMap::new();
        for (idx, &slot) in self.addr_map.iter().enumerate() {
            if slot == SLOT_NONE {
                continue;
            }
            if !occupied_set.contains(&slot) {
                let init = idx as u64 * self.shards as u64 + self.id as u64;
                return Err(format!(
                    "shard {}: address {init} maps to free slot {slot}",
                    self.id
                ));
            }
            *mapped_refs.entry(slot).or_insert(0) += 1;
        }

        for &slot in &occupied_set {
            let Some(digest) = self.inverted.digest_of(LineAddr::new(slot)) else {
                return Err(format!(
                    "shard {}: occupied slot {slot} has no inverted-hash row (orphaned counter)",
                    self.id
                ));
            };
            let Some(reference) = self.hash.reference(digest, LineAddr::new(slot)) else {
                return Err(format!(
                    "shard {}: slot {slot} digest {digest:#x} missing from the hash table",
                    self.id
                ));
            };
            self.decrypt_slot(slot);
            let actual = self.digest.digest_readonly(&self.scratch);
            if actual != digest {
                return Err(format!(
                    "shard {}: slot {slot} content digests to {actual:#x}, inverted row says {digest:#x}",
                    self.id
                ));
            }
            let refs = mapped_refs.get(&slot).copied().unwrap_or(0);
            if reference != MAX_REFERENCE && u64::from(reference) != refs {
                return Err(format!(
                    "shard {}: slot {slot} reference {reference} but {refs} mapped addresses",
                    self.id
                ));
            }
        }
        Ok(occupied_set.len() as u64)
    }

    /// This shard's simulated run report (deterministic: a pure function
    /// of the shard's input feed). The latency distributions are expanded
    /// here from the per-shape counts; every part of them is an
    /// order-independent sum, so they equal recording each operation as it
    /// happened.
    pub fn report(&self, app: &str) -> RunReport {
        let digest_ns = self.digest.cost().latency_ns;
        let mut stage_breakdown = StageBreakdown::default();
        let mut write_latency = LatencyStats::new();
        let mut write_latency_eliminated = LatencyStats::new();
        let mut write_latency_stored = LatencyStats::new();
        let mut write_critical = LatencyStats::new();
        let mut write_latency_hist = LatencyHistogram::new();
        for (index, &n) in self.write_shapes.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let shape = WriteShape::from_index(index);
            let (critical_ns, total_ns, event) = shape.cost(digest_ns);
            stage_breakdown.observe_n(&event, n);
            write_latency.record_n(total_ns, n);
            write_latency_hist.record_n(total_ns, n);
            write_critical.record_n(critical_ns, n);
            if shape.eliminated {
                write_latency_eliminated.record_n(total_ns, n);
            } else {
                write_latency_stored.record_n(total_ns, n);
            }
        }
        let mut read_latency = LatencyStats::new();
        let mut read_latency_hist = LatencyHistogram::new();
        for (mapped, &n) in [false, true].into_iter().zip(&self.read_kinds) {
            read_latency.record_n(read_ns(mapped), n);
            read_latency_hist.record_n(read_ns(mapped), n);
        }
        let sim_ns = write_latency.total_ns() + read_latency.total_ns();

        let mut dewrite = self.dewrite;
        dewrite.predictor_accuracy = self.predictor.accuracy();
        let cache = self.meta.stats();
        let mut base = self.base;
        base.meta_nvm_writes += cache.dirty_evictions;
        RunReport {
            scheme: "engine-dewrite".into(),
            app: app.into(),
            instructions: self.instructions,
            cycles: sim_ns as f64,
            ipc: if sim_ns == 0 {
                0.0
            } else {
                self.instructions as f64 / sim_ns as f64
            },
            write_latency,
            write_latency_eliminated,
            write_latency_stored,
            read_latency,
            write_critical,
            base,
            energy: self.energy,
            nvm_data_writes: self.nvm_data_writes,
            bit_flip_ratio: if self.nvm_data_writes == 0 {
                0.0
            } else {
                self.flip_bits as f64 / (self.nvm_data_writes * self.line_size as u64 * 8) as f64
            },
            dewrite: Some(dewrite),
            write_latency_hist,
            read_latency_hist,
            stage_breakdown,
        }
    }
}

/// XOR-fold of a line read as little-endian 64-bit words, a ragged tail
/// zero-padded to a word.
fn fold_words(line: &[u8]) -> u64 {
    let mut words = line.chunks_exact(8);
    let mut fold = 0u64;
    for word in &mut words {
        fold ^= u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        fold ^= u64::from_le_bytes(last);
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: usize = 64;
    const KEY: &[u8; 16] = b"dewrite-repro-16";

    fn shard() -> ShardController {
        ShardController::new(0, 1, 256, LINE, KEY)
    }

    fn line(tag: u8) -> Vec<u8> {
        (0..LINE).map(|i| tag ^ (i as u8)).collect()
    }

    #[test]
    fn duplicate_writes_are_eliminated() {
        let mut s = shard();
        let a = s.write(LineAddr::new(0), &line(7), 10);
        assert!(!a.eliminated);
        let b = s.write(LineAddr::new(1), &line(7), 10);
        assert!(b.eliminated);
        assert_eq!(s.dedup_rate(), 0.5);
        assert_eq!(s.scrub().unwrap(), 1);
    }

    #[test]
    fn overwrite_releases_the_old_reference() {
        let mut s = shard();
        s.write(LineAddr::new(0), &line(1), 0);
        s.write(LineAddr::new(1), &line(1), 0); // dup of line(1)
        s.write(LineAddr::new(1), &line(2), 0); // overwrite with new content
        s.write(LineAddr::new(0), &line(3), 0); // last ref to line(1) gone
        assert_eq!(s.scrub().unwrap(), 2, "line(1)'s slot was freed");
    }

    #[test]
    fn rewrite_same_content_to_same_address_is_stable() {
        let mut s = shard();
        s.write(LineAddr::new(4), &line(9), 0);
        let again = s.write(LineAddr::new(4), &line(9), 0);
        assert!(again.eliminated, "self-duplicate dedups against itself");
        assert_eq!(s.scrub().unwrap(), 1);
    }

    #[test]
    fn reads_return_after_writes_and_fold_data() {
        let mut s = shard();
        // line()'s tag^i pattern XOR-folds to zero; break the symmetry so
        // the sink observably changes.
        let mut data = line(5);
        data[0] ^= 0xFF;
        s.write(LineAddr::new(2), &data, 0);
        let before = s.read_sink();
        let ns = s.read(LineAddr::new(2), 3);
        assert!(ns >= 75);
        assert_ne!(s.read_sink(), before, "read folded real plaintext");
        // A never-written read is still served.
        s.read(LineAddr::new(8), 0);
        let r = s.report("t");
        assert_eq!(r.base.reads, 2);
    }

    /// The byte-wise fold `read` used to run: the definition of the sink,
    /// kept as the word-wise fold's oracle.
    fn fold_bytewise(line: &[u8]) -> u64 {
        let mut fold = 0u64;
        for chunk in line.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            fold ^= u64::from_le_bytes(b);
        }
        fold
    }

    #[test]
    fn read_sink_word_fold_matches_bytewise() {
        // 52 is not a multiple of the word: its last word is zero-padded.
        for line_size in [8usize, 52, 64, 256] {
            let mut s = ShardController::new(0, 1, 64, line_size, KEY);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ line_size as u64;
            let mut expected = 0u64;
            for addr in 0..48u64 {
                let data: Vec<u8> = (0..line_size)
                    .map(|_| {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        (rng >> 32) as u8
                    })
                    .collect();
                assert_eq!(fold_words(&data), fold_bytewise(&data), "{line_size} B");
                s.write(LineAddr::new(addr), &data, 0);
                s.read(LineAddr::new(addr), 0);
                expected ^= fold_bytewise(&data);
                assert_eq!(s.read_sink(), expected, "{line_size} B, read {addr}");
            }
            s.scrub().expect("clean");
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut s = shard();
        for i in 0..50u64 {
            s.write(LineAddr::new(i), &line((i % 5) as u8), 2);
        }
        let r = s.report("unit");
        assert_eq!(r.base.writes, 50);
        assert_eq!(
            r.base.writes_eliminated + r.nvm_data_writes,
            50,
            "every write either dedups or stores"
        );
        assert!(r.write_latency.count() == 50);
        assert!(r.stage_breakdown.writes() == 50);
        assert!(r.dewrite.unwrap().dup_eliminated > 0);
        assert_eq!(s.scrub().unwrap(), 5, "five distinct contents resident");
    }

    #[test]
    fn saturated_entries_fall_through_to_store() {
        let mut s = ShardController::new(0, 1, 1024, LINE, KEY);
        // 255 refs saturate the entry; the 256th+ write of the same content
        // must store a successor copy instead of over-counting.
        for i in 0..300u64 {
            s.write(LineAddr::new(i), &line(1), 0);
        }
        let r = s.report("sat");
        assert!(r.dewrite.unwrap().saturated_skips > 0);
        assert!(s.scrub().is_ok());
    }

    /// One content written to `255·k + r` addresses leaves `k` saturated
    /// residues and one open entry under a single digest; every count is
    /// then closed-form, whatever the bucket is made of.
    fn saturated_chain_closed_form(mode: DigestMode) {
        const K: u64 = 3;
        const R: u64 = 40;
        const N: u64 = 255 * K + R;
        let mut s = ShardController::new(0, 1, 2 * N, LINE, KEY);
        s.set_digest_mode(mode);
        for a in 0..N {
            s.write(LineAddr::new(a), &line(1), 0);
        }
        let r = s.report("chain");
        let d = r.dewrite.unwrap();
        assert_eq!(r.nvm_data_writes, K + 1);
        assert_eq!(r.base.writes_eliminated, N - (K + 1));
        // Write `w` (1-based) walks past the `(w - 1) / 255` residues
        // already saturated, then meets the open entry or stores.
        assert_eq!(
            d.saturated_skips,
            (1..=N).map(|w| (w - 1) / 255).sum::<u64>()
        );
        let (verified, assumed) = match mode {
            DigestMode::Crc32Verify => (N - (K + 1), 0),
            DigestMode::StrongKeyed => (0, N - (K + 1)),
        };
        assert_eq!((r.base.verify_reads, d.assumed_dups), (verified, assumed));
        assert_eq!(d.false_matches, 0);
        assert_eq!(s.scrub().unwrap(), K + 1);

        // Unique content over every address: the open entry's `R`
        // references drain to zero and free it; the residues' true counts
        // are unknown, so they stay, saturated and unreferenced.
        for a in 0..N {
            let mut unique = line(2);
            unique[..8].copy_from_slice(&a.to_le_bytes());
            s.write(LineAddr::new(a), &unique, 0);
        }
        let r = s.report("chain");
        assert_eq!(r.nvm_data_writes, K + 1 + N);
        assert_eq!(r.base.writes_eliminated, N - (K + 1));
        assert_eq!(r.dewrite.unwrap().saturated_skips, d.saturated_skips);
        assert_eq!(s.scrub().unwrap(), N + K);
    }

    #[test]
    fn saturated_chain_counts_are_closed_form_crc32_verify() {
        saturated_chain_closed_form(DigestMode::Crc32Verify);
    }

    #[test]
    fn saturated_chain_counts_are_closed_form_strong_keyed() {
        saturated_chain_closed_form(DigestMode::StrongKeyed);
    }

    /// Drive a random script through one shard, fold every latency its
    /// calls return into fresh recorders one observation at a time, and
    /// demand the report's distributions — built from per-shape counts —
    /// equal them: the write-time and report-time costs cannot diverge.
    fn report_latencies_match_the_returned_ones(mode: DigestMode) {
        const OPS: u64 = 6000;
        const ADDRS: u64 = 700;
        let mut s = ShardController::new(0, 1, 2048, LINE, KEY);
        s.set_digest_mode(mode);
        let mut write_latency = LatencyStats::new();
        let mut eliminated = LatencyStats::new();
        let mut stored = LatencyStats::new();
        let mut write_hist = LatencyHistogram::new();
        let mut read_latency = LatencyStats::new();
        let mut read_hist = LatencyHistogram::new();
        let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ u64::from(mode.to_wire());
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..OPS {
            let r = next();
            // Reads reach past the written range, so some hit lines that
            // were never written.
            if r % 4 == 0 {
                let ns = s.read(LineAddr::new((r >> 8) % (ADDRS + 100)), 1);
                read_latency.record(ns);
                read_hist.record(ns);
                continue;
            }
            // A small content pool, three quarters of it one line, so
            // duplicates, same-content rewrites and saturated entries
            // (more than 255 references) all occur.
            let tag = match (r >> 4) % 16 {
                0..=11 => 0,
                t => t as u8,
            };
            let w = s.write(LineAddr::new((r >> 8) % ADDRS), &line(tag), 1);
            write_latency.record(w.sim_ns);
            write_hist.record(w.sim_ns);
            if w.eliminated {
                eliminated.record(w.sim_ns);
            } else {
                stored.record(w.sim_ns);
            }
        }
        let r = s.report("shapes");
        assert!(
            r.dewrite.unwrap().saturated_skips > 0,
            "saturation occurred"
        );
        assert!(eliminated.count() > 0 && stored.count() > 0);
        assert!(read_hist.stats().min_ns() < read_hist.stats().max_ns());
        assert_eq!(r.write_latency, write_latency);
        assert_eq!(r.write_latency_eliminated, eliminated);
        assert_eq!(r.write_latency_stored, stored);
        assert_eq!(r.write_latency_hist, write_hist);
        assert_eq!(r.read_latency, read_latency);
        assert_eq!(r.read_latency_hist, read_hist);
        assert_eq!(
            r.cycles,
            (write_latency.total_ns() + read_latency.total_ns()) as f64
        );
        s.scrub().expect("clean");
    }

    #[test]
    fn report_latencies_match_the_returned_ones_crc32_verify() {
        report_latencies_match_the_returned_ones(DigestMode::Crc32Verify);
    }

    #[test]
    fn report_latencies_match_the_returned_ones_strong_keyed() {
        report_latencies_match_the_returned_ones(DigestMode::StrongKeyed);
    }

    /// The shard's index digest under [`DigestMode::Crc32Verify`].
    fn crc_digest(data: &[u8]) -> u64 {
        IndexDigest::new(HashAlgorithm::Crc32, DigestMode::Crc32Verify, KEY).digest_readonly(data)
    }

    /// `base` with four bytes at `at` patched so that it digests to
    /// `target`. CRC-32 over a fixed length is affine over GF(2), so
    /// `digest(x ^ d) = digest(x) ^ digest(d) ^ digest(0)`: solve for the
    /// 32 patch bits by elimination over the 32 single-bit columns.
    fn forge_crc(base: &[u8], at: usize, target: u64) -> Vec<u8> {
        let zero = vec![0u8; base.len()];
        let z = crc_digest(&zero);
        // An xor basis of the columns, each with the patch bits it is made
        // of; leading bits distinct, kept in descending order.
        let mut basis: Vec<(u64, u32)> = Vec::new();
        let reduce = |basis: &[(u64, u32)], mut v: u64, mut bits: u32| {
            for &(b, b_bits) in basis {
                if v ^ b < v {
                    v ^= b;
                    bits ^= b_bits;
                }
            }
            (v, bits)
        };
        for bit in 0..32 {
            let mut unit = zero.clone();
            unit[at + bit / 8] = 1 << (bit % 8);
            let (v, bits) = reduce(&basis, crc_digest(&unit) ^ z, 1 << bit);
            assert_ne!(v, 0, "a CRC-32 maps 32 adjacent bits one-to-one");
            basis.push((v, bits));
            basis.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
        }
        let (rest, bits) = reduce(&basis, crc_digest(base) ^ target, 0);
        assert_eq!(rest, 0);
        let mut forged = base.to_vec();
        for bit in 0..32 {
            if bits >> bit & 1 != 0 {
                forged[at + bit / 8] ^= 1 << (bit % 8);
            }
        }
        assert_eq!(crc_digest(&forged), target);
        forged
    }

    #[test]
    fn verify_misses_cost_closed_forms() {
        const LINE_256: usize = 256;
        let base = |tag: u8| -> Vec<u8> {
            (0..LINE_256)
                .map(|i| tag.wrapping_mul(31) ^ (i as u8))
                .collect()
        };
        // Five distinct lines sharing one digest bucket.
        let target = crc_digest(&base(1));
        let lines: Vec<Vec<u8>> = (1..=5u8)
            .map(|tag| forge_crc(&base(tag), 100, target))
            .collect();
        for (i, a) in lines.iter().enumerate() {
            assert!(lines[i + 1..].iter().all(|b| a != b), "distinct lines");
        }

        let mut s = ShardController::new(0, 1, 64, LINE_256, KEY);
        let mut addr = 0u64;
        // Each write's verify reads, read off the report around it.
        let mut write = |s: &mut ShardController, data: &[u8]| {
            let before = s.report("v").base.verify_reads;
            let w = s.write(LineAddr::new(addr), data, 0);
            addr += 1;
            (w.eliminated, s.report("v").base.verify_reads - before)
        };
        // Stored: line k (k = 2..5) walks past the k − 1 lines already in
        // the bucket, each a verify-read that misses; the walk stops at
        // the compare cap of 4.
        assert_eq!(write(&mut s, &lines[0]), (false, 0));
        for (k, data) in lines.iter().enumerate().skip(1) {
            assert_eq!(write(&mut s, data), (false, k as u64));
        }
        // Eliminated: line k (k = 1..4) is the k-th entry in seed order,
        // found after k − 1 misses.
        for (k, data) in lines[..4].iter().enumerate() {
            assert_eq!(write(&mut s, data), (true, k as u64 + 1));
        }

        let r = s.report("v");
        // Stored walks verify 1 + 2 + 3 + 4, all misses; eliminated walks
        // verify 1 + 2 + 3 + 4 with one hit each.
        assert_eq!(r.base.verify_reads, 10 + 10);
        assert_eq!(r.dewrite.unwrap().false_matches, 10 + 6);
        let verify = r.stage_breakdown.stage(Stage::VerifyRead).stats();
        let compare = r.stage_breakdown.stage(Stage::Compare).stats();
        assert_eq!(verify.count(), 8);
        assert_eq!(compare.count(), 8);
        assert_eq!(verify.total_ns(), 20 * ARRAY_READ_NS);
        assert_eq!(compare.total_ns(), 20 * COMPARE_NS);
        assert_eq!(
            (verify.min_ns(), verify.max_ns()),
            (ARRAY_READ_NS, 4 * ARRAY_READ_NS)
        );
        assert_eq!(
            (compare.min_ns(), compare.max_ns()),
            (COMPARE_NS, 4 * COMPARE_NS)
        );
        assert_eq!(s.scrub().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "one full line")]
    fn wrong_line_size_rejected() {
        shard().write(LineAddr::new(0), &[0u8; 3], 0);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dewrite-shard-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn persist_opts(epoch_writes: u32, checkpoint_epochs: u32) -> DurableOptions {
        DurableOptions {
            epoch_writes,
            checkpoint_epochs,
            sync: false,
        }
    }

    #[test]
    fn persisted_metadata_recovers_to_the_live_snapshot() {
        let dir = persist_dir("roundtrip");
        let mut s = ShardController::new(1, 2, 128, LINE, KEY);
        s.attach_persistence(&dir, persist_opts(4, 2)).unwrap();
        for i in 0..30u64 {
            s.write(LineAddr::new(i * 2 + 1), &line((i % 5) as u8), 0);
        }
        assert_eq!(s.unflushed_wal_writes(), 2, "30 writes = 7 epochs + 2");
        assert!(
            s.scrub().unwrap_err().contains("WAL"),
            "scrub refuses unflushed WAL epochs"
        );
        s.persist_checkpoint().unwrap();
        assert_eq!(s.unflushed_wal_writes(), 0);
        s.scrub().expect("clean after checkpoint");

        let fp = ShardController::persist_fingerprint(1, 2, 128, LINE, DigestMode::Crc32Verify);
        let (recovered, stats) =
            dewrite_persist::recover_state(&dir, fp, 1 << 20).expect("recover");
        assert_eq!(stats.writes_covered, 30);
        assert!(!stats.torn_tail);
        assert_eq!(recovered, s.snapshot(), "replayed state == live state");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_recovery_stops_at_the_epoch_boundary() {
        let dir = persist_dir("crash");
        let mut s = ShardController::new(0, 1, 256, LINE, KEY);
        s.attach_persistence(&dir, persist_opts(4, 100)).unwrap();
        // 10 writes = 2 flushed epochs (8 writes) + 2 lost with the crash.
        for i in 0..10u64 {
            s.write(LineAddr::new(i % 6), &line((i % 3) as u8), 0);
        }
        assert_eq!(s.unflushed_wal_writes(), 2);
        drop(s);

        // Replay the flushed prefix through a fresh shard: recovery must
        // land exactly on that epoch-boundary state.
        let mut reference = shard();
        for i in 0..8u64 {
            reference.write(LineAddr::new(i % 6), &line((i % 3) as u8), 0);
        }
        let fp = ShardController::persist_fingerprint(0, 1, 256, LINE, DigestMode::Crc32Verify);
        let (recovered, stats) =
            dewrite_persist::recover_state(&dir, fp, 1 << 20).expect("recover");
        assert_eq!(stats.writes_covered, 8);
        assert_eq!(recovered, reference.snapshot());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistence_does_not_change_the_report() {
        let dir = persist_dir("determinism");
        let mut plain = shard();
        let mut logged = shard();
        logged.attach_persistence(&dir, persist_opts(4, 2)).unwrap();
        for i in 0..60u64 {
            let a = plain.write(LineAddr::new(i % 9), &line((i % 4) as u8), 3);
            let b = logged.write(LineAddr::new(i % 9), &line((i % 4) as u8), 3);
            assert_eq!(a, b);
        }
        logged.persist_checkpoint().unwrap();
        assert_eq!(
            plain.report("p").to_json().to_string(),
            logged.report("p").to_json().to_string(),
            "host-side logging must never leak into the simulated report"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Both durable-format fingerprints are written into every WAL header
    /// and checkpoint, so their raw values are part of the format: a
    /// change here makes every existing store unrecoverable.
    #[test]
    fn durable_fingerprints_are_pinned() {
        let mut config = dewrite_core::DeWriteConfig::paper();
        assert_eq!(config.fingerprint(), 0xe6b2_4db6_ed4b_68be);
        config.digest_mode = DigestMode::StrongKeyed;
        assert_eq!(config.fingerprint(), 0x9556_09d5_5b97_d6cd);

        let fp = ShardController::persist_fingerprint;
        assert_eq!(
            fp(0, 1, 256, 256, DigestMode::Crc32Verify),
            0xad88_60d3_3882_e679
        );
        assert_eq!(
            fp(0, 1, 256, 256, DigestMode::StrongKeyed),
            0xad88_5fd3_3882_e4c6
        );
        assert_eq!(
            fp(1, 4, 4096, 64, DigestMode::Crc32Verify),
            0x493d_081d_c498_1795
        );
        assert_eq!(
            fp(1, 4, 4096, 64, DigestMode::StrongKeyed),
            0x493d_071d_c498_15e2
        );
    }

    #[test]
    fn sharded_controller_owns_interleaved_addresses() {
        let mut s = ShardController::new(1, 4, 64, LINE, KEY);
        s.write(LineAddr::new(5), &line(1), 0); // 5 % 4 == 1
        s.write(LineAddr::new(9), &line(1), 0);
        assert_eq!(s.dedup_rate(), 0.5);
        assert_eq!(s.scrub().unwrap(), 1);
    }
}
