//! One controller shard: the exclusive owner of every table for its slice
//! of the line space.
//!
//! A [`ShardController`] is a self-contained DeWrite-style secure-memory
//! controller over the lines `{a : a mod shards == id}`. It owns, privately:
//!
//! * a [`CommitKernel`], the dedup commit step it shares with the
//!   simulator: a **hash table** + **inverted hash table**, sharded by
//!   CRC-32 digest implicitly — a digest only ever lands on the shard that
//!   owns the written address, so entries for the same content on
//!   different shards are independent (the dedup cost of sharding,
//!   quantified by `loadgen`); an **address map**, sharded by line address
//!   — every write resolves on one shard because allocation is home-local;
//!   and a free-space map, the two-level [`FsmTree`] (per-chunk counters
//!   skip drained regions), claimed in home-preference or wear-rotation
//!   order as [`FsmPolicy`] selects — a claim or a release is plain loads
//!   and stores, never an atomic read-modify-write;
//! * **CME counters** colocated with the address map;
//! * a metadata cache and a 3-bit [`HistoryPredictor`];
//! * a host-side **verify buffer**: the plaintext of recently verified
//!   resident lines keyed by `(slot, counter)`, so a hot duplicate's
//!   candidate is decrypted once per version rather than once per write.
//!   It caches a pure function and is never simulated; `read` and `scrub`
//!   decrypt from the arena.
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

use dewrite_core::tables::OpenEntry;
pub use dewrite_core::tables::MAX_CANDIDATE_COMPARES;
use dewrite_core::{
    durable_fingerprint, lines_equal, CommitKernel, DeWriteMetrics, DigestMode, FreeSpace,
    HistoryPredictor, IndexDigest, RunReport, Snapshot, Stage, WriteEvent, WriteOutcome, WritePath,
};
use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, LineCounter, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_hashes::HashAlgorithm;
use dewrite_mem::{hint, CacheConfig, CacheStats, MetadataCache, Replacement};
use dewrite_nvm::{EnergyParams, FsmStats, FsmTree, LineAddr, Timing};
use dewrite_persist::{DurableOptions, EpochLog, PersistStats};

use std::path::Path;

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

/// The shard's free-space source for the commit kernel: its [`FsmTree`],
/// claimed in [`FsmPolicy`] order. A store's claim ignores the slot its
/// own release just freed; the tree hands it back only when the policy's
/// order reaches it.
#[derive(Debug)]
struct ShardSpace {
    tree: FsmTree,
    policy: FsmPolicy,
}

impl FreeSpace for ShardSpace {
    fn release(&mut self, slot: LineAddr) {
        assert!(
            self.tree.release(slot.index()),
            "double free of slot {slot}"
        );
    }

    fn claim(&mut self, home: LineAddr, _freed: Option<LineAddr>) -> Option<LineAddr> {
        match self.policy {
            FsmPolicy::Tree => self.tree.allocate(home.index()),
            FsmPolicy::TreeWear => self.tree.allocate_rotating(),
        }
        .map(LineAddr::new)
    }

    fn is_free(&self, slot: LineAddr) -> bool {
        self.tree.is_free(slot.index())
    }
}

/// An empty commit kernel over `slots` slots, claiming in `policy` order.
fn shard_kernel(slots: u64, policy: FsmPolicy) -> CommitKernel<ShardSpace> {
    let tree = FsmTree::new(slots);
    CommitKernel::new(slots, ShardSpace { tree, policy })
}

/// Metadata-cache hit / table update latency, ns.
const META_NS: u64 = 1;

/// Simulated read latency, ns: metadata lookup and PCM array read, plus
/// the pad XOR when the line is mapped (a never-written line has nothing
/// to decrypt).
const fn read_ns(mapped: bool) -> u64 {
    if mapped {
        META_NS + Timing::PCM.read_ns + OTP_XOR_LATENCY_NS
    } else {
        META_NS + Timing::PCM.read_ns
    }
}

/// Number of distinct [`WriteShape`]s: three flags times the verified
/// count `0..=MAX_CANDIDATE_COMPARES`.
const WRITE_SHAPES: usize = 8 * (MAX_CANDIDATE_COMPARES + 1);

/// The four decisions a write's simulated cost depends on. The shard
/// counts writes per shape and turns the counts into latency
/// distributions, counters and energy only when a report is taken
/// (DESIGN.md §7).
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
    /// of a write of this shape, given the digest's latency:
    /// [`ShardController::write`] returns its total and
    /// [`charge`](Self::charge) expands it into the report.
    #[inline]
    fn cost(self, digest_ns: u64) -> (u64, u64, WriteEvent) {
        let timing = Timing::PCM;
        let speculative = !self.predicted_dup;
        let probe_ns = if self.cache_hit {
            META_NS
        } else {
            timing.read_ns
        };
        let k = self.verified as u64;
        let verify_ns = k * timing.read_ns;
        let compare_ns = k * timing.compare_ns;
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
            event.set_stage(Stage::ArrayWrite, timing.write_ns);
            // Parallel path overlaps encryption with detection; direct path
            // serializes them.
            let front_ns = if speculative {
                detection_ns.max(AES_LINE_LATENCY_NS)
            } else {
                detection_ns + AES_LINE_LATENCY_NS
            };
            let critical_ns = digest_ns + front_ns + META_NS;
            (critical_ns, critical_ns + timing.write_ns)
        };
        (critical_ns, total_ns, event)
    }

    /// Add `n` writes of this shape to `report`: their latencies and stage
    /// times, counters and energy. The one statement of what a shard write
    /// costs, but for the three quantities no shape fixes, which
    /// [`ShardController::report`] adds: the instruction gap, the flipped
    /// bits of a stored line and the saturated entries walked.
    fn charge(self, n: u64, digest: &IndexDigest, line_size: usize, report: &mut RunReport) {
        let digest_cost = digest.cost();
        let (critical_ns, total_ns, event) = self.cost(digest_cost.latency_ns);
        report.stage_breakdown.observe_n(&event, n);
        report.write_latency.record_n(total_ns, n);
        report.write_critical.record_n(critical_ns, n);
        if self.eliminated {
            report.write_latency_eliminated.record_n(total_ns, n);
        } else {
            report.write_latency_stored.record_n(total_ns, n);
        }

        let pcm = EnergyParams::PCM;
        let misses = u64::from(!self.cache_hit);
        let k = self.verified as u64;
        // Every stored line is encrypted; so is a duplicate whose
        // speculative encryption raced detection and lost.
        let encrypted = u64::from(!self.eliminated || !self.predicted_dup);
        let (base, energy) = (&mut report.base, &mut report.energy);
        base.writes += n;
        base.hash_ops += n;
        base.meta_nvm_reads += n * misses;
        base.verify_reads += n * k;
        base.aes_line_ops += n * encrypted;
        energy.dedup_pj += n * (digest_cost.energy_pj + k * pcm.compare_pj);
        energy.nvm_read_pj += n * (misses + k) * pcm.read_line_pj;
        energy.aes_pj += n * encrypted * aes_line_energy_pj(line_size);

        let dewrite = report.dewrite.get_or_insert_default();
        if event.pna_skip {
            dewrite.pna_skips += n;
        }
        if self.predicted_dup {
            dewrite.direct_writes += n;
        } else {
            dewrite.parallel_writes += n;
        }
        // A match is always an elimination (see `ShardController::write`),
        // so the verify walk missed on every candidate but the last of an
        // eliminated write.
        dewrite.false_matches += n * (k - u64::from(self.eliminated));
        if self.eliminated {
            base.writes_eliminated += n;
            dewrite.dup_eliminated += n;
            if self.predicted_dup {
                dewrite.saved_encryptions += n;
            } else {
                dewrite.wasted_encryptions += n;
            }
        } else {
            report.nvm_data_writes += n;
            energy.nvm_write_pj += n * pcm.write_base_pj;
        }
    }
}

/// Lines the verify buffer holds at most: 256 KiB at 256 B lines
/// (EXPERIMENTS.md, "Verify buffer").
const VERIFY_BUFFER_LINES: u64 = 1024;

/// The shard's host-side cache of decrypted resident lines for the verify
/// walk: a direct-mapped array of plaintext lines keyed by `(slot,
/// counter)` and indexed by `slot & (len − 1)`.
///
/// Every store bumps its slot's counter before it writes the arena, so a
/// key names exactly one ciphertext: the buffer needs no invalidation and
/// can never return a stale line. It caches a pure function, not a
/// modeled structure — every candidate is still compared and charged its
/// simulated verify read (DESIGN.md §9).
struct VerifyBuffer {
    /// The `(slot, counter)` each entry's line is the plaintext of.
    /// Counter 0, which no resident line has, marks an empty entry.
    keys: Vec<(u64, u32)>,
    /// The entries' plaintext lines, `line_size` bytes each.
    lines: Vec<u8>,
    line_size: usize,
}

impl VerifyBuffer {
    /// An empty buffer for a shard of `slots` slots.
    fn new(slots: u64, line_size: usize) -> Self {
        let len = slots.next_power_of_two().min(VERIFY_BUFFER_LINES) as usize;
        VerifyBuffer {
            keys: vec![(0, 0); len],
            lines: vec![0; len * line_size],
            line_size,
        }
    }

    /// The plaintext of `slot`'s line under `counter`: the buffered line
    /// when the key matches, else `decrypt`ed straight into the entry,
    /// which then holds that key.
    #[inline]
    fn line(&mut self, slot: u64, counter: u32, decrypt: impl FnOnce(&mut [u8])) -> &[u8] {
        let entry = slot as usize & (self.keys.len() - 1);
        let line = &mut self.lines[entry * self.line_size..][..self.line_size];
        if self.keys[entry] != (slot, counter) {
            decrypt(line);
            self.keys[entry] = (slot, counter);
        }
        line
    }

    /// Entry `entry`'s line.
    fn line_at(&self, entry: usize) -> &[u8] {
        &self.lines[entry * self.line_size..][..self.line_size]
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
    /// What keys the dedup index: the folded CRC-32.
    digest: IndexDigest,

    /// The hash and inverted tables over local slots, the address map and
    /// the free-space tree. The map takes global initial address `a` to a
    /// local slot at index `a / shards`: owned addresses are exactly
    /// `{a : a mod shards == id}`, so the index is unique.
    kernel: CommitKernel<ShardSpace>,
    /// Per-slot CME write counters, colocated with the address map.
    /// Monotonic for the shard's lifetime — pad uniqueness survives slot
    /// reuse.
    counters: Vec<u32>,
    /// Ciphertext arena, one line per slot.
    store: Vec<u8>,
    meta: MetadataCache,
    predictor: HistoryPredictor,

    scratch: Vec<u8>,
    /// Plaintext of verified resident lines; see [`VerifyBuffer`].
    verify: VerifyBuffer,

    /// Optional epoch-batched metadata WAL. Host-side only: logging is
    /// never charged to simulated time, so the [`RunReport`] is
    /// bit-identical with persistence on or off.
    log: Option<EpochLog>,

    /// Writes per [`WriteShape::index`]; the report's write latencies,
    /// counters and energy are all expanded from these.
    write_shapes: [u64; WRITE_SHAPES],
    /// Reads of never-written (`[0]`) and mapped (`[1]`) lines.
    read_kinds: [u64; 2],
    /// Instructions retired: every operation's gap plus itself.
    instructions: u64,
    /// Bits programmed by stored lines.
    flip_bits: u64,
    /// Saturated hash-table entries walked past.
    saturated_skips: u64,
    /// XOR-fold of read-back plaintext; keeps reads observable.
    read_sink: u64,
    /// The last write's journal ops, journaled or not.
    #[cfg(test)]
    journaled: Vec<dewrite_core::MetaOp>,
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
            digest: IndexDigest::new(HashAlgorithm::Crc32),
            kernel: shard_kernel(slots, FsmPolicy::default()),
            counters: vec![0u32; slots as usize],
            store: vec![0u8; slots as usize * line_size],
            meta: MetadataCache::new(CacheConfig::with_capacity((slots as usize / 4).max(64))),
            predictor: HistoryPredictor::new(3),
            scratch: vec![0u8; line_size],
            verify: VerifyBuffer::new(slots, line_size),
            log: None,
            write_shapes: [0; WRITE_SHAPES],
            read_kinds: [0; 2],
            instructions: 0,
            flip_bits: 0,
            saturated_skips: 0,
            read_sink: 0,
            #[cfg(test)]
            journaled: Vec::new(),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Operations processed so far.
    pub fn ops(&self) -> u64 {
        self.write_shapes.iter().chain(&self.read_kinds).sum()
    }

    /// Fraction of writes eliminated as duplicates.
    pub fn dedup_rate(&self) -> f64 {
        self.report("").write_reduction()
    }

    /// Select the order the shard's free-space map claims lines in.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed operations.
    pub fn set_fsm_policy(&mut self, policy: FsmPolicy) {
        assert!(
            self.ops() == 0,
            "cannot switch the FSM after {} operations",
            self.ops()
        );
        if self.kernel.space().policy != policy {
            self.kernel = shard_kernel(self.slots, policy);
        }
    }

    /// Select the metadata-cache eviction policy. The cache is rebuilt
    /// empty (same geometry), so switch only between runs.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed operations.
    pub fn set_cache_policy(&mut self, policy: Replacement) {
        assert!(
            self.ops() == 0,
            "cannot switch the metadata-cache policy after {} operations",
            self.ops()
        );
        if self.meta.config().replacement != policy {
            let mut config = *self.meta.config();
            config.replacement = policy;
            self.meta = MetadataCache::new(config);
        }
    }

    /// Does nothing: CRC-32 plus a verify read is the only digest mode.
    /// Kept because the `benchmark/` package brings a shard up through it.
    pub fn set_digest_mode(&mut self, _mode: DigestMode) {}

    /// Metadata-cache counters (hits, misses, queue splits, filtered scan
    /// evictions — the S3-FIFO fields stay zero under LRU/FIFO).
    pub fn cache_stats(&self) -> CacheStats {
        self.meta.stats()
    }

    /// Allocator counters: claims, rotation refills, steals, scan steps.
    pub fn fsm_stats(&self) -> FsmStats {
        self.kernel.space().tree.stats()
    }

    /// Stable fingerprint of a shard's durable-format-relevant geometry:
    /// two stores agree on it exactly when their persisted metadata is
    /// mutually interpretable (same interleaving, arena, line size and
    /// shard identity). `mode` is hashed as its wire byte, always 0, so
    /// the fingerprint is unchanged from when a second mode existed; the
    /// argument stays because the `benchmark/` package passes it.
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
                DigestMode::Crc32Verify,
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
        let map = self.kernel.map();
        let lines = map.span().max(self.slots) * self.shards as u64;
        // Each table is sized exactly before it is filled: a checkpoint
        // stalls the write path, and a megabyte-sized `Vec` grown by
        // doubling pays for its final size again in copies and fresh
        // pages. A counting pass over a dense array is far cheaper.
        let mut mappings = Vec::with_capacity(map.iter().count());
        for (idx, slot) in map.iter() {
            let init = idx * self.shards as u64 + self.id as u64;
            mappings.push((init, self.slot_global(slot.index())));
        }
        let inverted = self.kernel.inverted();
        let mut residents = Vec::with_capacity(inverted.len());
        self.kernel.space().tree.for_each_occupied(|slot| {
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
                DigestMode::Crc32Verify,
            ),
            lines,
            mappings,
            residents,
            counters,
        }
    }

    /// Journal `outcome`, the commit of a write of `digest` at `addr`,
    /// flushing and checkpointing per the epoch policy. Called at the end
    /// of every applied write; a no-op without persistence.
    fn journal_write(&mut self, addr: LineAddr, outcome: WriteOutcome, digest: u64) {
        // Tests read every write's ops, journaled or not.
        if self.log.is_none() && !cfg!(test) {
            return;
        }
        let counter = match outcome {
            WriteOutcome::Stored { target, .. } => self.counters[target.index() as usize],
            WriteOutcome::Duplicate { .. } => 0,
        };
        let (shards, id) = (self.shards as u64, self.id as u64);
        let ops = outcome.meta_ops(addr.index(), digest, counter, move |slot| {
            slot.index() * shards + id
        });
        #[cfg(test)]
        {
            self.journaled = ops.clone().collect();
        }
        let Some(log) = self.log.as_mut() else {
            return;
        };
        let due = log.record_write(ops).expect("metadata WAL append failed");
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
    fn map_index(&self, addr: LineAddr) -> u64 {
        addr.index() / self.shards as u64
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

    /// The plaintext of the line resident in `slot`, through the verify
    /// buffer: decrypted from the arena only when the buffer does not hold
    /// the slot's current counter.
    #[inline]
    fn verify_line(&mut self, slot: u64) -> &[u8] {
        let counter = self.counters[slot as usize];
        let (range, addr) = (self.slot_range(slot), self.slot_global(slot));
        let (crypt, ciphertext) = (&self.crypt, &self.store[range]);
        self.verify.line(slot, counter, |out| {
            crypt.decrypt_line_into(ciphertext, addr, LineCounter::from_value(counter), out);
        })
    }

    /// The local slot mapped at address-map index `idx`, if any.
    #[inline]
    fn mapped_slot(&self, idx: u64) -> Option<u64> {
        self.kernel.map().get(idx).map(LineAddr::index)
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
    fn hint_before_digest(&self, idx: u64, home: Option<u64>) -> Option<u64> {
        let old = self.mapped_slot(idx);
        if let Some(home) = home {
            hint::prefetch_read_bytes(&self.store[self.slot_range(home)]);
            hint::prefetch_read(&self.counters[home as usize]);
            self.kernel.inverted().prefetch(LineAddr::new(home));
        }
        if let Some(old) = old.filter(|&old| Some(old) != home) {
            self.kernel.inverted().prefetch(LineAddr::new(old));
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
        let kernel = &self.kernel;
        kernel.hash().prefetch(digest, predicted_dup);
        let old_digest = old.and_then(|old| kernel.inverted().digest_of(LineAddr::new(old)));
        if let Some(old_digest) = old_digest {
            kernel.hash().prefetch(old_digest, true);
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
        self.instructions += u64::from(gap) + 1;

        // The prediction depends on past writes only; taking it first lets
        // the hint schedule know whether this write will probe or store.
        let predicted_dup = self.predictor.predict_duplicate();
        let idx = self.map_index(addr);
        let home = idx % self.slots;
        let old_slot = self.hint_before_digest(idx, (!predicted_dup).then_some(home));

        // Stage 1: fingerprint.
        let digest = self.digest.digest(data);
        self.hint_after_digest(digest, old_slot, predicted_dup);

        // Stage 2: probe the hash-store cache.
        let cache_hit = self.meta.access(digest, false);
        if !cache_hit {
            let _ = self.meta.insert(digest, false);
        }

        // Stages 3+4: candidate verification. PNA: on a cache miss with a
        // non-duplicate prediction, skip the in-NVM hash-table query
        // entirely.
        let mut verified = 0usize;
        let mut dup: Option<OpenEntry> = None;
        if cache_hit || predicted_dup {
            // The bucket's unsaturated entries in seed order, at most the
            // compare cap of them; a walk that finds no duplicate has
            // skipped every saturated entry up to where it stopped.
            let view = self.kernel.hash().open(digest);
            let mut skipped = view.saturated_walked();
            for &entry in view.entries() {
                verified += 1;
                if lines_equal(self.verify_line(entry.real.index()), data) {
                    skipped = entry.saturated_before;
                    dup = Some(entry);
                    break;
                }
            }
            self.saturated_skips += u64::from(skipped);
        }

        // Commit: reference the resident copy, or store (the kernel's
        // steps). A saturated match falls through to a store.
        let outcome = match dup.and_then(|entry| self.kernel.duplicate(idx, entry)) {
            Some(outcome) => outcome,
            None => {
                let outcome = self
                    .kernel
                    .store(idx, LineAddr::new(home), digest)
                    .expect("shard arena exhausted: size slots for the workload");
                let WriteOutcome::Stored { target, .. } = outcome else {
                    unreachable!("a store commits a stored line");
                };
                let slot = target.index();
                self.counters[slot as usize] += 1;
                let ctr = LineCounter::from_value(self.counters[slot as usize]);
                let global = self.slot_global(slot);
                let range = self.slot_range(slot);
                self.crypt
                    .encrypt_line_into(data, global, ctr, &mut self.scratch);
                self.flip_bits += dewrite_nvm::bit_flips(&self.store[range.clone()], &self.scratch);
                self.store[range].copy_from_slice(&self.scratch);
                outcome
            }
        };
        let eliminated = matches!(outcome, WriteOutcome::Duplicate { .. });

        // The write updated dedup metadata either way; dirty the cached
        // hash-store entry so its eventual eviction becomes an NVM write.
        let _ = self.meta.access(digest, true);

        self.predictor.record(eliminated);
        // `open` yields only unsaturated entries and a reference is refused
        // only at saturation, so a match is always an elimination: the
        // shape alone fixes the false matches.
        debug_assert_eq!(eliminated, dup.is_some(), "a match took no reference");
        let shape = WriteShape {
            eliminated,
            predicted_dup,
            cache_hit,
            verified,
        };
        self.write_shapes[shape.index()] += 1;
        self.journal_write(addr, outcome, digest);
        let (_, sim_ns, _) = shape.cost(self.digest.cost().latency_ns);
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
        self.instructions += u64::from(gap) + 1;
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
    /// * the commit kernel's invariants hold
    ///   ([`CommitKernel::check_invariants`]): occupied slots, inverted
    ///   rows and hash-table entries in exact 1:1:1 correspondence, every
    ///   mapped address on an occupied slot, and every non-saturated
    ///   reference count equal to the addresses resolving to its slot;
    /// * every resident line decrypts to content whose digest matches its
    ///   inverted-hash row;
    /// * the free count is consistent;
    /// * every verify-buffer line keyed at its slot's current counter is
    ///   what the arena decrypts to, and no key is ahead of its counter.
    ///
    /// The arena checks decrypt from the arena, never from the buffer.
    ///
    /// Returns the number of resident lines checked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn scrub(&mut self) -> Result<u64, String> {
        let id = self.id;
        if self.unflushed_wal_writes() > 0 {
            return Err(format!(
                "shard {id}: {} writes in the open WAL epoch not yet flushed",
                self.unflushed_wal_writes()
            ));
        }
        self.kernel
            .check_invariants(self.slots)
            .map_err(|e| format!("shard {id}: {e}"))?;
        let tree = &self.kernel.space().tree;
        let occupied = tree.occupied();
        if tree.free_lines() + occupied.len() as u64 != self.slots {
            return Err(format!(
                "shard {id}: free count {} + occupied {} != {} slots",
                tree.free_lines(),
                occupied.len(),
                self.slots
            ));
        }
        for &slot in &occupied {
            let line = LineAddr::new(slot);
            let digest = self.kernel.inverted().digest_of(line).expect("occupied");
            self.decrypt_slot(slot);
            let actual = self.digest.digest(&self.scratch);
            if actual != digest {
                return Err(format!(
                    "shard {id}: slot {slot} content digests to {actual:#x}, inverted row says {digest:#x}"
                ));
            }
        }
        for entry in 0..self.verify.keys.len() {
            let (slot, counter) = self.verify.keys[entry];
            let current = self.counters[slot as usize];
            if counter > current {
                return Err(format!(
                    "shard {id}: verify buffer holds slot {slot} at counter {counter}, ahead of its {current}"
                ));
            }
            if counter != 0 && counter == current {
                self.decrypt_slot(slot);
                if self.scratch != self.verify.line_at(entry) {
                    return Err(format!(
                        "shard {id}: verify buffer's line for slot {slot} at counter {counter} differs from the arena's"
                    ));
                }
            }
        }
        Ok(occupied.len() as u64)
    }

    /// This shard's simulated run report (deterministic: a pure function
    /// of the shard's input feed). Write latencies, counters and energy
    /// are expanded here from the per-shape counts; every part of them is
    /// an order-independent sum, so they equal accounting for each
    /// operation as it happened.
    pub fn report(&self, app: &str) -> RunReport {
        let pcm = EnergyParams::PCM;
        let mut report = RunReport {
            scheme: "engine-dewrite".into(),
            app: app.into(),
            instructions: self.instructions,
            dewrite: Some(DeWriteMetrics {
                saturated_skips: self.saturated_skips,
                predictor_accuracy: self.predictor.accuracy(),
                ..DeWriteMetrics::default()
            }),
            ..RunReport::default()
        };
        for (index, &n) in self.write_shapes.iter().enumerate() {
            if n > 0 {
                WriteShape::from_index(index).charge(n, &self.digest, self.line_size, &mut report);
            }
        }
        for (mapped, &n) in [false, true].into_iter().zip(&self.read_kinds) {
            report.read_latency.record_n(read_ns(mapped), n);
        }
        report.base.reads = report.read_latency.count();
        report.base.meta_nvm_writes = self.meta.stats().dirty_evictions;
        report.energy.nvm_read_pj += report.base.reads * pcm.read_line_pj;
        report.energy.nvm_write_pj += self.flip_bits * pcm.write_bit_pj;

        let sim_ns =
            report.write_latency.stats().total_ns() + report.read_latency.stats().total_ns();
        report.cycles = sim_ns as f64;
        if sim_ns > 0 {
            report.ipc = self.instructions as f64 / sim_ns as f64;
        }
        if report.nvm_data_writes > 0 {
            report.bit_flip_ratio =
                self.flip_bits as f64 / (report.nvm_data_writes * self.line_size as u64 * 8) as f64;
        }
        report
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
    use dewrite_core::tables::MAX_REFERENCE;
    use dewrite_core::MetaOp;
    use dewrite_mem::{LatencyHistogram, LatencyStats};

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
    #[test]
    fn saturated_chain_counts_are_closed_form_crc32_verify() {
        const K: u64 = 3;
        const R: u64 = 40;
        const N: u64 = 255 * K + R;
        let mut s = ShardController::new(0, 1, 2 * N, LINE, KEY);
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
        assert_eq!(r.base.verify_reads, N - (K + 1));
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

    /// Drive a random script through one shard, fold every latency its
    /// calls return into fresh recorders one observation at a time, and
    /// demand the report's distributions — built from per-shape counts —
    /// equal them: the write-time and report-time costs cannot diverge.
    #[test]
    fn report_latencies_match_the_returned_ones_crc32_verify() {
        const OPS: u64 = 6000;
        const ADDRS: u64 = 700;
        let mut s = ShardController::new(0, 1, 2048, LINE, KEY);
        let mut write_latency = LatencyHistogram::new();
        let mut eliminated = LatencyStats::new();
        let mut stored = LatencyStats::new();
        let mut read_latency = LatencyHistogram::new();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
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
        assert!(read_latency.stats().min_ns() < read_latency.stats().max_ns());
        assert_eq!(r.write_latency, write_latency);
        assert_eq!(r.write_latency_eliminated, eliminated);
        assert_eq!(r.write_latency_stored, stored);
        assert_eq!(r.read_latency, read_latency);
        assert_eq!(
            r.cycles,
            (write_latency.stats().total_ns() + read_latency.stats().total_ns()) as f64
        );
        s.scrub().expect("clean");
    }

    /// The shard's index digest.
    fn crc_digest(data: &[u8]) -> u64 {
        IndexDigest::new(HashAlgorithm::Crc32).digest(data)
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

    const LINE_256: usize = 256;

    /// Five distinct 256 B lines sharing one CRC-32 digest bucket.
    fn colliding_lines() -> Vec<Vec<u8>> {
        let base = |tag: u8| -> Vec<u8> {
            (0..LINE_256)
                .map(|i| tag.wrapping_mul(31) ^ (i as u8))
                .collect()
        };
        let target = crc_digest(&base(1));
        let lines: Vec<Vec<u8>> = (1..=5u8)
            .map(|tag| forge_crc(&base(tag), 100, target))
            .collect();
        for (i, a) in lines.iter().enumerate() {
            assert!(lines[i + 1..].iter().all(|b| a != b), "distinct lines");
        }
        lines
    }

    #[test]
    fn verify_misses_cost_closed_forms() {
        let lines = colliding_lines();
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
        let Timing {
            read_ns,
            compare_ns,
            ..
        } = Timing::PCM;
        assert_eq!(verify.total_ns(), 20 * read_ns);
        assert_eq!(compare.total_ns(), 20 * compare_ns);
        assert_eq!((verify.min_ns(), verify.max_ns()), (read_ns, 4 * read_ns));
        assert_eq!(
            (compare.min_ns(), compare.max_ns()),
            (compare_ns, 4 * compare_ns)
        );
        assert_eq!(s.scrub().unwrap(), 5);
    }

    /// The colliding lines stored at addresses 0–4, then rewritten in
    /// order at 5–8, then one mapped and one never-written read: every
    /// counter and energy term of the report in closed form.
    #[test]
    fn write_accounting_is_closed_form_crc32_verify() {
        let lines = colliding_lines();
        let mut s = ShardController::new(0, 1, 64, LINE_256, KEY);
        for (addr, data) in lines.iter().chain(&lines[..4]).enumerate() {
            s.write(LineAddr::new(addr as u64), data, 0);
        }
        s.read(LineAddr::new(0), 0);
        s.read(LineAddr::new(63), 0);
        assert_eq!(s.ops(), 11);

        // Outcomes run S S S S S E E E E. A majority of the last three
        // first forecasts a duplicate at the eighth write, so writes 1–7
        // take the parallel path (6 and 7 waste their encryption) and 8–9
        // the direct one. A cache miss on the parallel path skips the
        // probe (PNA); the metadata cache holds every digest once seen.
        // One shared digest: only the first write misses. Stored line k
        // walks the k − 1 before it, all misses; eliminated line k matches
        // after k − 1 misses.
        let (misses, verified, false_matches) = (1, 10 + 10, 10 + 6);
        let r = s.report("acct");
        let d = r.dewrite.unwrap();
        assert_eq!(
            (
                r.base.writes,
                r.nvm_data_writes,
                r.base.writes_eliminated,
                r.base.reads
            ),
            (9, 5, 4, 2)
        );
        assert_eq!((r.base.hash_ops, r.base.meta_nvm_reads), (9, misses));
        assert_eq!(
            (r.base.verify_reads, d.false_matches),
            (verified, false_matches)
        );
        assert_eq!(
            (d.parallel_writes, d.direct_writes, d.pna_skips),
            (7, 2, misses)
        );
        assert_eq!((d.wasted_encryptions, d.saved_encryptions), (2, 2));
        assert_eq!(r.base.aes_line_ops, 5 + 2);

        // Each stored line lands in its fresh, zeroed home slot with
        // counter 1, so it programs every set bit of its ciphertext.
        let crypt = CounterModeEngine::new(KEY);
        let mut ct = vec![0u8; LINE_256];
        let flip_bits: u64 = (0..5)
            .map(|addr| {
                crypt.encrypt_line_into(
                    &lines[addr],
                    addr as u64,
                    LineCounter::from_value(1),
                    &mut ct,
                );
                ct.iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
            })
            .sum();
        let pcm = EnergyParams::PCM;
        let digest_pj = IndexDigest::new(HashAlgorithm::Crc32).cost().energy_pj;
        assert_eq!(r.energy.dedup_pj, 9 * digest_pj + verified * pcm.compare_pj);
        assert_eq!(
            r.energy.nvm_read_pj,
            (misses + verified + 2) * pcm.read_line_pj
        );
        assert_eq!(r.energy.aes_pj, 7 * aes_line_energy_pj(LINE_256));
        assert_eq!(
            r.energy.nvm_write_pj,
            5 * pcm.write_base_pj + flip_bits * pcm.write_bit_pj
        );
        assert_eq!(s.scrub().unwrap(), 5);
    }

    /// A slot freed and stored again is verified against its new content:
    /// the buffer line its old content left must not answer for it.
    #[test]
    fn verify_buffer_refills_after_slot_reuse() {
        let mut s = shard();
        let (a, b, c, d) = (line(1), line(2), line(3), line(4));
        // A at address 0, whose home is slot 0.
        assert!(!s.write(LineAddr::new(0), &a, 0).eliminated);
        assert_eq!((s.mapped_slot(0), s.counters[0]), (Some(0), 1));
        // A elsewhere verifies against slot 0 and fills its buffer line.
        assert!(s.write(LineAddr::new(1), &a, 0).eliminated);
        assert_eq!(s.verify.keys[0], (0, 1));
        // Overwriting both addresses drops slot 0's last reference.
        s.write(LineAddr::new(0), &b, 0);
        s.write(LineAddr::new(1), &c, 0);
        assert!(s.kernel.space().is_free(LineAddr::new(0)));
        // D is stored at slot 0 under its second counter.
        assert!(!s.write(LineAddr::new(0), &d, 0).eliminated);
        assert_eq!((s.mapped_slot(0), s.counters[0]), (Some(0), 2));
        // D at a third address must find it there.
        assert!(
            s.write(LineAddr::new(2), &d, 0).eliminated,
            "the verify buffer answered with slot 0's old content"
        );
        assert_eq!(s.verify.keys[0], (0, 2));
        assert_eq!(s.scrub().unwrap(), 2);
    }

    proptest::proptest! {
        // Random writes over a 64-slot shard, five of seven contents in
        // one CRC-32 bucket: walks verify several candidates, slots are
        // freed and stored again under new counters, and a stale buffer
        // line would confirm a same-digest impostor. After every write
        // the address reads back what was written and the shard scrubs
        // clean, buffer coherence included.
        #[test]
        fn verify_buffer_stays_coherent_under_colliding_scripts(
            script in proptest::collection::vec((0u64..48, 0usize..7), 1..160),
        ) {
            let mut contents = colliding_lines();
            contents.extend((6..8u8).map(|tag| vec![tag; LINE_256]));
            let mut s = ShardController::new(0, 1, 64, LINE_256, KEY);
            for (step, &(addr, pick)) in script.iter().enumerate() {
                s.write(LineAddr::new(addr), &contents[pick], 0);
                let slot = s.mapped_slot(addr).expect("a written address is mapped");
                s.decrypt_slot(slot);
                proptest::prop_assert!(
                    s.scratch == contents[pick],
                    "step {step}: address {addr} reads back other content"
                );
                s.scrub().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
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
        let config = dewrite_core::DeWriteConfig::paper();
        assert_eq!(config.fingerprint(), 0xe6b2_4db6_ed4b_68be);

        let fp = ShardController::persist_fingerprint;
        assert_eq!(
            fp(0, 1, 256, 256, DigestMode::Crc32Verify),
            0xad88_60d3_3882_e679
        );
        assert_eq!(
            fp(1, 4, 4096, 64, DigestMode::Crc32Verify),
            0x493d_081d_c498_1795
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

    /// `snapshot` with `ops` applied in order, each an absolute assignment
    /// — what recovery does to a checkpoint.
    fn replay(snapshot: &Snapshot, ops: &[MetaOp]) -> Snapshot {
        use std::collections::BTreeMap;
        let mut mappings: BTreeMap<_, _> = snapshot.mappings.iter().copied().collect();
        let mut residents: BTreeMap<_, _> = snapshot.residents.iter().copied().collect();
        let mut counters: BTreeMap<_, _> = snapshot.counters.iter().copied().collect();
        for &op in ops {
            match op {
                MetaOp::MapSet { init, real } => drop(mappings.insert(init, real)),
                MetaOp::ResidentSet { real, digest } => drop(residents.insert(real, digest)),
                MetaOp::ResidentDel { real } => drop(residents.remove(&real)),
                MetaOp::CounterSet { line, value } => drop(counters.insert(line, value)),
            }
        }
        Snapshot {
            mappings: mappings.into_iter().collect(),
            residents: residents.into_iter().collect(),
            counters: counters.into_iter().collect(),
            ..*snapshot
        }
    }

    /// Every commit of the shard's source, replayed as its `MetaOp`s onto
    /// the snapshot before it, gives the snapshot after it, and the shard
    /// scrubs clean — over four seeded scripts on shard 1 of 2 (so every
    /// op is translated to global addresses). 300 writes of one content
    /// saturate its first copy; then the script, over the last 55 of its
    /// referrers, the 45 of its second copy and 100 fresh addresses: half
    /// its writes are of that content (same-content rewrites), a quarter
    /// of one of four shared contents and a quarter of a content of its
    /// own (a sole owner, whose rewrite frees the slot the tree claims
    /// back at home).
    #[test]
    fn shard_space_commits_replay_to_the_next_snapshot() {
        for seed in 1..=4u64 {
            let mut rng = seed;
            let mut next = |bound: u64| {
                // splitmix64
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            };
            let len = 200 + next(100);
            let script: Vec<(u64, u64)> = (0..len).map(|_| (200 + next(200), next(16))).collect();
            let mut s = ShardController::new(1, 2, 512, LINE, KEY);
            let mut before = s.snapshot();
            let mut in_place = 0;
            let writes = (0..300).map(|a| (a, 0)).chain(script);
            for (step, (a, pick)) in writes.enumerate() {
                let content = match pick {
                    0..=7 => 0,
                    8..=11 => pick - 7,
                    _ => 1000 + step as u64,
                };
                let data: Vec<u8> = content
                    .to_le_bytes()
                    .into_iter()
                    .cycle()
                    .take(LINE)
                    .collect();
                s.write(LineAddr::new(2 * a + 1), &data, 0);
                let after = s.snapshot();
                assert_eq!(
                    replay(&before, &s.journaled),
                    after,
                    "seed {seed} step {step}"
                );
                s.scrub().unwrap();
                in_place += usize::from(matches!(
                    s.journaled[..],
                    [MetaOp::ResidentDel { real: freed }, MetaOp::ResidentSet { real, .. }, ..]
                        if freed == real
                ));
                before = after;
            }
            let saturated = s
                .kernel
                .hash()
                .iter()
                .any(|(_, e)| e.reference == MAX_REFERENCE);
            assert!(
                saturated && in_place > 0,
                "seed {seed}: {in_place} in place"
            );
        }
    }
}
