//! Rung 0: the shard's write and read paths replayed as separate calls
//! into each layer's public functions, every call a span.
//!
//! `ShardController` has no clocks inside it, so the only way to see
//! where a write's time goes from outside is to make the same calls it
//! makes, in the same order, on the same payloads, with private copies of
//! the same structures — and to prove the copy faithful by checking every
//! write's `eliminated` decision against the real shard's (rung 1) and
//! the final counts against its report. The replay keeps no simulated
//! clock, energy or latency accounting: that part of the real write
//! stays inside `engine.shard_other_ns`.

use std::path::Path;

use dewrite_benchmark::ctrl::ENGINE_DURABLE;
use dewrite_core::tables::{HashEntry, HashTable, InvertedTable, MAX_REFERENCE};
use dewrite_core::{lines_equal, HistoryPredictor, MetaOp, Snapshot};
use dewrite_crypto::{CounterModeEngine, LineCounter};
use dewrite_engine::{EngineConfig, ShardController, MAX_CANDIDATE_COMPARES};
use dewrite_hashes::{HashAlgorithm, LineHasher};
use dewrite_mem::{CacheConfig, MetadataCache};
use dewrite_nvm::{FsmTree, LineAddr};
use dewrite_persist::EpochLog;

use crate::spans::{Laps, Recorder, SpanId};

const UNMAPPED: u64 = u64::MAX;

/// The span names of rung 0, registered once.
#[derive(Clone, Copy)]
struct Names {
    write: SpanId,
    read: SpanId,
    digest: SpanId,
    cache: SpanId,
    probe: SpanId,
    decrypt: SpanId,
    decrypt_read: SpanId,
    compare: SpanId,
    update: SpanId,
    claim: SpanId,
    encrypt: SpanId,
    flips: SpanId,
    wal: SpanId,
    checkpoint: SpanId,
}

/// What the replay counted, to check against the real shard's report and
/// to report where no report field exists.
#[derive(Debug, Default)]
pub struct Counts {
    pub writes: u64,
    pub eliminated: u64,
    pub stored: u64,
    pub probes: u64,
    pub candidates: u64,
    pub verify_reads: u64,
    pub false_matches: u64,
    pub saturated_skips: u64,
    pub pna_skips: u64,
    pub decrypts: u64,
    pub flip_bits: u64,
    pub checkpoints: u64,
    pub wal_bytes: u64,
    pub ckpt_bytes: u64,
}

/// Private copies of one shard's structures (one shard of one, CRC-32
/// with verify, LRU metadata cache, tree allocator — the defaults every
/// workload runs).
pub struct Replay {
    line_size: usize,
    slots: u64,
    fingerprint: u64,
    hasher: Box<dyn LineHasher>,
    crypt: CounterModeEngine,
    hash: HashTable,
    inverted: InvertedTable,
    fsm: FsmTree,
    addr_map: Vec<u64>,
    counters: Vec<u32>,
    store: Vec<u8>,
    meta: MetadataCache,
    predictor: HistoryPredictor,
    scratch: Vec<u8>,
    log: Option<EpochLog>,
    meta_ops: Vec<MetaOp>,
    names: Names,
    pub counts: Counts,
}

impl Replay {
    /// A fresh replay sized like the shard `config` describes, logging
    /// under `persist` (the engine's epoch policy) if given.
    pub fn new(config: &EngineConfig, persist: Option<&Path>, rec: &mut Recorder) -> Replay {
        let slots = config.slots_per_shard;
        let line_size = config.line_size;
        let names = Names {
            write: rec.id("engine.shard_write"),
            read: rec.id("engine.shard_read"),
            digest: rec.id("hashes.digest"),
            cache: rec.id("mem.cache"),
            probe: rec.id("core.index_probe"),
            decrypt: rec.id("crypto.decrypt"),
            decrypt_read: rec.id("crypto.decrypt_read"),
            compare: rec.id("core.compare"),
            update: rec.id("core.index_update"),
            claim: rec.id("nvm.fsm_claim"),
            encrypt: rec.id("crypto.encrypt"),
            flips: rec.id("nvm.bit_flips"),
            wal: rec.id("persist.record_write"),
            checkpoint: rec.id("persist.checkpoint"),
        };
        let fingerprint =
            ShardController::persist_fingerprint(0, 1, slots, line_size, config.digest_mode);
        let mut replay = Replay {
            line_size,
            slots,
            fingerprint,
            hasher: HashAlgorithm::Crc32.hasher(),
            crypt: CounterModeEngine::new(&config.key),
            hash: HashTable::new(),
            inverted: InvertedTable::new(slots),
            fsm: FsmTree::new(slots),
            addr_map: vec![UNMAPPED; slots as usize],
            counters: vec![0u32; slots as usize],
            store: vec![0u8; slots as usize * line_size],
            meta: MetadataCache::new(CacheConfig::with_capacity((slots as usize / 4).max(64))),
            predictor: HistoryPredictor::new(3),
            scratch: vec![0u8; line_size],
            log: None,
            meta_ops: Vec::new(),
            names,
            counts: Counts::default(),
        };
        if let Some(dir) = persist {
            let initial = replay.snapshot();
            let log = EpochLog::create(dir, fingerprint, &initial, ENGINE_DURABLE)
                .expect("create the replay's metadata WAL under the scratch directory");
            replay.log = Some(log);
        }
        replay
    }

    fn slot_range(&self, slot: u64) -> std::ops::Range<usize> {
        let start = slot as usize * self.line_size;
        start..start + self.line_size
    }

    fn decrypt_slot(&mut self, slot: u64) {
        let range = self.slot_range(slot);
        let ctr = LineCounter::from_value(self.counters[slot as usize]);
        self.crypt
            .decrypt_line_into(&self.store[range], slot, ctr, &mut self.scratch);
        self.counts.decrypts += 1;
    }

    fn mapped_slot(&self, addr: LineAddr) -> Option<u64> {
        self.addr_map
            .get(addr.index() as usize)
            .copied()
            .filter(|&s| s != UNMAPPED)
    }

    fn map_addr(&mut self, addr: LineAddr, slot: u64) {
        let idx = addr.index() as usize;
        if idx >= self.addr_map.len() {
            self.addr_map.resize(idx + 1, UNMAPPED);
        }
        self.addr_map[idx] = slot;
    }

    /// Drop `addr`'s mapping; returns the slot freed, if its last
    /// reference went.
    fn release_previous_mapping(&mut self, addr: LineAddr) -> Option<u64> {
        let old = self.mapped_slot(addr)?;
        self.addr_map[addr.index() as usize] = UNMAPPED;
        let digest = self
            .inverted
            .digest_of(LineAddr::new(old))
            .expect("occupied slot has an inverted-hash row");
        if self.hash.release_reference(digest, LineAddr::new(old)) == 0 {
            self.inverted.clear(LineAddr::new(old));
            assert!(self.fsm.release(old), "double free of slot {old}");
            Some(old)
        } else {
            None
        }
    }

    /// The shard's durable metadata, as `ShardController::snapshot`
    /// captures it.
    fn snapshot(&self) -> Snapshot {
        let mappings = self
            .addr_map
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != UNMAPPED)
            .map(|(init, &slot)| (init as u64, slot))
            .collect();
        let mut residents = Vec::new();
        self.fsm.for_each_occupied(|slot| {
            let digest = self
                .inverted
                .digest_of(LineAddr::new(slot))
                .expect("occupied slot has an inverted-hash row");
            residents.push((slot, digest));
        });
        residents.sort_unstable();
        let counters = self
            .counters
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(slot, &c)| (slot as u64, c))
            .collect();
        Snapshot {
            config_fp: self.fingerprint,
            lines: self.addr_map.len().max(self.slots as usize) as u64,
            mappings,
            residents,
            counters,
        }
    }

    fn file_len(dir: &Path, name: String) -> u64 {
        std::fs::metadata(dir.join(name)).map_or(0, |m| m.len())
    }

    /// One write, layer call by layer call. Returns whether it was
    /// eliminated.
    pub fn write(&mut self, rec: &mut Recorder, op: u64, addr: LineAddr, data: &[u8]) -> bool {
        let n = self.names;
        self.counts.writes += 1;
        let mut laps = Laps::start(op, n.write);

        let raw = self.hasher.digest(data);
        let digest = u64::from((raw ^ (raw >> 32)) as u32);
        laps.lap(rec, n.digest);

        let predicted_dup = self.predictor.predict_duplicate();
        let cache_hit = self.meta.access(digest, false);
        if !cache_hit {
            let _ = self.meta.insert(digest, false);
        }
        laps.lap(rec, n.cache);
        let pna_skip = !cache_hit && !predicted_dup;

        let mut dup_slot = None;
        if pna_skip {
            self.counts.pna_skips += 1;
        } else {
            let candidates = self.hash.candidates(digest);
            laps.lap(rec, n.probe);
            self.counts.probes += 1;
            self.counts.candidates += candidates.len() as u64;
            let mut compared = 0usize;
            for &HashEntry { real, reference } in &candidates {
                if compared == MAX_CANDIDATE_COMPARES {
                    break;
                }
                if reference == MAX_REFERENCE {
                    self.counts.saturated_skips += 1;
                    continue;
                }
                compared += 1;
                self.counts.verify_reads += 1;
                laps.skip();
                self.decrypt_slot(real.index());
                laps.lap(rec, n.decrypt);
                let equal = lines_equal(&self.scratch, data);
                laps.lap(rec, n.compare);
                if equal {
                    dup_slot = Some(real.index());
                    break;
                }
                self.counts.false_matches += 1;
            }
        }

        laps.skip();
        let logging = self.log.is_some();
        let eliminated = match dup_slot {
            Some(slot) if self.hash.add_reference(digest, LineAddr::new(slot)) => {
                let freed = self.release_previous_mapping(addr);
                self.map_addr(addr, slot);
                laps.lap(rec, n.update);
                if logging {
                    if let Some(real) = freed {
                        self.meta_ops.push(MetaOp::ResidentDel { real });
                    }
                    self.meta_ops.push(MetaOp::MapSet {
                        init: addr.index(),
                        real: slot,
                    });
                }
                true
            }
            _ => false,
        };
        if eliminated {
            self.counts.eliminated += 1;
        } else {
            let freed = self.release_previous_mapping(addr);
            laps.lap(rec, n.update);
            let slot = self
                .fsm
                .allocate(addr.index() % self.slots)
                .expect("replay arena exhausted");
            laps.lap(rec, n.claim);
            self.counters[slot as usize] += 1;
            let ctr = LineCounter::from_value(self.counters[slot as usize]);
            let range = self.slot_range(slot);
            self.crypt
                .encrypt_line_into(data, slot, ctr, &mut self.scratch);
            laps.lap(rec, n.encrypt);
            let flips = dewrite_nvm::bit_flips(&self.store[range.clone()], &self.scratch);
            laps.lap(rec, n.flips);
            self.store[range].copy_from_slice(&self.scratch);
            self.counts.flip_bits += flips;
            self.counts.stored += 1;
            laps.skip();
            self.hash.insert(digest, LineAddr::new(slot));
            self.inverted.set(LineAddr::new(slot), digest);
            self.map_addr(addr, slot);
            laps.lap(rec, n.update);
            if logging {
                if let Some(real) = freed {
                    self.meta_ops.push(MetaOp::ResidentDel { real });
                }
                self.meta_ops
                    .push(MetaOp::ResidentSet { real: slot, digest });
                self.meta_ops.push(MetaOp::MapSet {
                    init: addr.index(),
                    real: slot,
                });
                self.meta_ops.push(MetaOp::CounterSet {
                    line: slot,
                    value: self.counters[slot as usize],
                });
            }
        }

        laps.skip();
        let _ = self.meta.access(digest, true);
        laps.lap(rec, n.cache);
        self.predictor.record(eliminated);

        if let Some(log) = self.log.as_mut() {
            laps.skip();
            let ops = std::mem::take(&mut self.meta_ops);
            let due = log
                .record_write(ops)
                .expect("replay WAL append under the scratch directory");
            laps.lap(rec, n.wal);
            if due {
                let dir = log.store().dir().to_path_buf();
                let seq = log.store().seq();
                self.counts.wal_bytes += Self::file_len(&dir, format!("wal-{seq:08}.log"));
                laps.skip();
                let snapshot = self.snapshot();
                self.log
                    .as_mut()
                    .expect("checked above")
                    .checkpoint(&snapshot)
                    .expect("replay checkpoint under the scratch directory");
                laps.lap(rec, n.checkpoint);
                self.counts.checkpoints += 1;
                self.counts.ckpt_bytes += Self::file_len(&dir, format!("ckpt-{:08}.dwck", seq + 1));
            }
        }
        eliminated
    }

    /// One read: the decrypt of the mapped slot, if any.
    pub fn read(&mut self, rec: &mut Recorder, op: u64, addr: LineAddr) {
        let n = self.names;
        if let Some(slot) = self.mapped_slot(addr) {
            let mut laps = Laps::start(op, n.read);
            self.decrypt_slot(slot);
            laps.lap(rec, n.decrypt_read);
        }
    }

    /// Flush the open WAL epoch and add its bytes to the count.
    pub fn finish(&mut self) {
        if let Some(log) = self.log.as_mut() {
            log.flush().expect("replay WAL flush");
            let seq = log.store().seq();
            let dir = log.store().dir().to_path_buf();
            self.counts.wal_bytes += Self::file_len(&dir, format!("wal-{seq:08}.log"));
        }
    }
}
