//! The on-chip metadata cache.
//!
//! Secure-NVMM proposals keep a write-back cache of per-line counters in the
//! memory controller; DeWrite reuses it for all deduplication metadata
//! (§III-B). This is a set-associative, write-back cache over abstract
//! 64-bit entry keys — callers namespace keys per table — with LRU or
//! scan-resistant S3-FIFO replacement and support for the
//! sequential-prefetch insertions the address-mapping / inverted-hash / FSM
//! tables rely on (Fig. 21 sweeps both capacity and prefetch granularity).
//!
//! # Memory layout
//!
//! The cache sits on every simulated memory access, so it is one flat
//! buffer of 128-byte records, one per eight ways, each on a 128-byte
//! boundary. A record's first line holds what a probe and a victim choice
//! read — the tag word (a byte per way: `0x80 |` a 7-bit key hash, `0` if
//! never used), the flag bytes (valid, dirty, S3-FIFO's queue bit and
//! frequency) and the `u32` stamps — and ways 0–1's keys; ways 2–7's keys
//! fill the second. A probe that misses and an evicting LRU fill read
//! one line, a hit at most two. A set is `ceil(assoc / 8)` records (slot
//! `set * 8 * set_groups + way`; slots past the associativity are padding
//! that is never used), and an all-zero record is an empty set, so the
//! buffer is a plain zeroed allocation, paged in as it is touched. A set's
//! tags are matched with one u64 SWAR compare and full keys compared only
//! on tag hits; an exact byte compare from the word in register filters
//! SWAR false positives and empty lanes, so the scan is exact on every
//! platform (the few SWAR lines are duplicated from the core table scan;
//! this crate is dependency-free). Victims are the unique minimum stamp, so
//! LRU matches the seed per-set-`Vec` implementation (the oracle in
//! [`crate::seed`]) exactly. Stamps are only compared within a set, so
//! they fit in `u32`: when the clock nears `u32::MAX`, every set's stamps
//! are renumbered as their ranks and the clock restarts above them, which
//! keeps every victim. Nothing but that rare renumbering allocates after
//! [`MetadataCache::new`].
//!
//! # One fill
//!
//! A demand [`MetadataCache::insert`] and every key of a
//! [`MetadataCache::prefetch_run`] go through the same slot fill: one pass
//! over the set's tag words answers hit / first free way / full, and a full
//! LRU set gives up its minimum stamp through a branch-free
//! tournament. The run is that fill applied to `start, start + 1, …` in
//! order — the same keys, clock ticks and victims as a per-key loop, by
//! construction — with the per-key overhead hoisted (the set hash advances
//! by a constant, `hash(k + 1) = hash(k) + C`; the clock's headroom is
//! checked once; clock, population and statistics ride in locals) and the
//! first line of the set eight keys ahead hinted, so the fills' line
//! fetches overlap.
//!
//! # S3-FIFO over the same flat arrays
//!
//! [`Replacement::S3Fifo`] adds scan resistance without a second layout.
//! The small/main queues are **per set** and virtual: queue membership is
//! one flag bit, the 2-bit hit frequency shares its flag byte, and FIFO
//! order reuses LRU's stamps (minimum stamp = queue head, re-stamping =
//! move to tail). The ghost queue is a per-set ring of 16-bit key
//! fingerprints (one `u16` per way, no payload) consulted only on a miss
//! fill, so the hit path stays LRU's. Eviction prefers the small queue
//! while it exceeds ~assoc/8 ways: an entry hit while in small is promoted
//! to the main tail, an unhit one is evicted and only its fingerprint
//! remembered; a key whose fingerprint is still in the ring re-inserts
//! into main. Main evicts its head too, but re-queues entries with nonzero
//! frequency (decrementing it), so repeatedly-hit entries survive
//! sequential sweeps that flush an LRU set end to end.

use crate::hint;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Least-recently-used (the paper's choice).
    #[default]
    Lru,
    /// Scan-resistant S3-FIFO (small/main/ghost queues, frequency-capped
    /// promotion) per set, over the same flat arrays.
    S3Fifo,
}

impl Replacement {
    /// All policies, in presentation order (useful for sweeps).
    pub const ALL: [Replacement; 2] = [Replacement::Lru, Replacement::S3Fifo];

    /// Stable one-byte wire/JSON encoding. Byte 1 is unassigned: it named a
    /// removed FIFO policy, and decoding refuses it.
    pub fn to_wire(self) -> u8 {
        match self {
            Replacement::Lru => 0,
            Replacement::S3Fifo => 2,
        }
    }

    /// Decode [`Self::to_wire`]'s byte; `None` for unknown values.
    pub fn from_wire(v: u8) -> Option<Replacement> {
        Some(match v {
            0 => Replacement::Lru,
            2 => Replacement::S3Fifo,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Replacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Replacement::Lru => "lru",
            Replacement::S3Fifo => "s3-fifo",
        })
    }
}

impl std::str::FromStr for Replacement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "lru" => Replacement::Lru,
            "s3-fifo" | "s3fifo" => Replacement::S3Fifo,
            other => return Err(format!("unknown cache policy {other:?}")),
        })
    }
}

/// Cache geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in entries.
    pub capacity: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A capacity-`n` cache with 8-way sets and LRU replacement.
    pub fn with_capacity(n: usize) -> Self {
        CacheConfig {
            capacity: n,
            associativity: 8,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets.
    fn num_sets(&self) -> usize {
        (self.capacity / self.associativity).max(1)
    }
}

/// Hit/miss accounting.
///
/// The `small_hits`/`main_hits`/`ghost_hits`/`scan_evictions` fields are
/// only nonzero under [`Replacement::S3Fifo`]; under that policy
/// `hits == small_hits + main_hits` always holds, so `hit_rate` means the
/// same thing for every policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Entries inserted on demand.
    pub demand_inserts: u64,
    /// Entries inserted by prefetch.
    pub prefetch_inserts: u64,
    /// Dirty entries evicted (these become NVM metadata writes).
    pub dirty_evictions: u64,
    /// S3-FIFO: demand hits on entries in the small (probation) queue.
    pub small_hits: u64,
    /// S3-FIFO: demand hits on entries in the main queue.
    pub main_hits: u64,
    /// S3-FIFO: inserts whose fingerprint was found in the ghost ring
    /// (re-admitted straight to main).
    pub ghost_hits: u64,
    /// S3-FIFO: evictions from the small queue without promotion — the
    /// one-hit-wonder scan traffic the policy filtered out of main.
    pub scan_evictions: u64,
}

impl CacheStats {
    /// Demand hit rate in `[0, 1]`; zero if no lookups.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// An entry evicted from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted key.
    pub key: u64,
    /// Whether it was dirty (must be written back to NVM).
    pub dirty: bool,
}

/// Way flag bit: slot holds an entry.
const FLAG_VALID: u8 = 1 << 0;
/// Way flag bit: entry differs from NVM (write-back pending).
const FLAG_DIRTY: u8 = 1 << 1;
/// Way flag bit (S3-FIFO only): entry is in the small (probation) queue.
const FLAG_SMALL: u8 = 1 << 2;
/// S3-FIFO hit-frequency counter: 2 bits of the same flag byte.
const FREQ_SHIFT: u32 = 3;
const FREQ_MASK: u8 = 0b11 << FREQ_SHIFT;
const FREQ_MAX: u8 = 3;

/// The frequency counter packed into a flag byte.
#[inline]
fn freq_of(flag: u8) -> u8 {
    (flag & FREQ_MASK) >> FREQ_SHIFT
}

/// `flag` with its frequency counter incremented, saturating at
/// [`FREQ_MAX`].
#[inline]
fn freq_bumped(flag: u8) -> u8 {
    flag + (u8::from(freq_of(flag) < FREQ_MAX) << FREQ_SHIFT)
}

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Per-lane hit bits (at bit `8k + 7`) for bytes of `word` equal to `tag`,
/// via the SWAR zero-byte trick. Lanes above a true match may be false
/// positives; callers verify every candidate lane exactly.
#[inline]
fn swar_match_lanes(word: u64, tag: u8) -> u64 {
    let x = word ^ (SWAR_LO.wrapping_mul(u64::from(tag)));
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI
}

/// Ways per record: one SWAR tag word's lanes.
const GROUP_WAYS: usize = 8;

/// Host cache line size.
const LINE_BYTES: usize = 64;

/// Bytes per set record: eight ways' tags, flags, stamps and keys.
const RECORD_BYTES: usize = 2 * LINE_BYTES;

/// Byte offsets of a record's fields after the tag word: the flag bytes,
/// the `u32` stamps and ways 0–1's keys in the first line, ways 2–7's keys
/// in the second (16 bytes spare).
const FLAGS_AT: usize = 8;
const STAMPS_AT: usize = 16;
const KEYS_AT: usize = 48;

/// Byte offset of slot `slot`'s `width`-byte lane of the field at `field`.
#[inline(always)]
fn lane_at(slot: usize, field: usize, width: usize) -> usize {
    slot / GROUP_WAYS * RECORD_BYTES + field + slot % GROUP_WAYS * width
}

/// The records, record 0 on a 128-byte boundary `lead` bytes into a plain
/// zeroed buffer (an aligned element type allocates through
/// `posix_memalign` plus a memset: every page resident at once). Bytes,
/// not words, so that a flag, a stamp and a tag are each one store.
#[derive(Debug)]
struct Records {
    buf: Box<[u8]>,
    /// Bytes before `buf`'s first 128-byte boundary (a clone computes its own).
    lead: usize,
}

impl Records {
    fn new(records: usize) -> Self {
        let buf = vec![0u8; records * RECORD_BYTES + RECORD_BYTES - 1].into_boxed_slice();
        let lead = (buf.as_ptr() as usize).wrapping_neg() % RECORD_BYTES;
        Records { buf, lead }
    }

    /// Every record, back to back.
    #[inline(always)]
    fn bytes(&self) -> &[u8] {
        &self.buf[self.lead..self.lead + self.buf.len() + 1 - RECORD_BYTES]
    }

    #[inline(always)]
    fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.buf.len() + 1 - RECORD_BYTES;
        &mut self.buf[self.lead..self.lead + len]
    }
}

impl Clone for Records {
    /// The same records, laid out from the new buffer's own boundary.
    fn clone(&self) -> Self {
        let mut clone = Records::new(self.bytes().len() / RECORD_BYTES);
        clone.bytes_mut().copy_from_slice(self.bytes());
        clone
    }
}

/// Slot-indexed views of the record bytes (`tags` takes a record), as an
/// extension trait so the fill keeps the slice in registers.
trait Lanes {
    fn tags(&self, record: usize) -> u64;
    fn flag(&self, slot: usize) -> u8;
    fn flag_mut(&mut self, slot: usize) -> &mut u8;
    fn stamp(&self, slot: usize) -> u32;
    fn set_stamp(&mut self, slot: usize, stamp: u32);
    fn key(&self, slot: usize) -> u64;
    fn set_way(&mut self, slot: usize, key: u64, tag: u8, flag: u8, stamp: u32);
}

impl Lanes for [u8] {
    #[inline(always)]
    fn tags(&self, record: usize) -> u64 {
        let at = record * RECORD_BYTES;
        u64::from_le_bytes(self[at..at + 8].try_into().expect("an 8-byte range"))
    }

    #[inline(always)]
    fn flag(&self, slot: usize) -> u8 {
        self[lane_at(slot, FLAGS_AT, 1)]
    }

    #[inline(always)]
    fn flag_mut(&mut self, slot: usize) -> &mut u8 {
        &mut self[lane_at(slot, FLAGS_AT, 1)]
    }

    #[inline(always)]
    fn stamp(&self, slot: usize) -> u32 {
        let at = lane_at(slot, STAMPS_AT, 4);
        u32::from_le_bytes(self[at..at + 4].try_into().expect("a 4-byte range"))
    }

    #[inline(always)]
    fn set_stamp(&mut self, slot: usize, stamp: u32) {
        let at = lane_at(slot, STAMPS_AT, 4);
        self[at..at + 4].copy_from_slice(&stamp.to_le_bytes());
    }

    #[inline(always)]
    fn key(&self, slot: usize) -> u64 {
        let at = lane_at(slot, KEYS_AT, 8);
        u64::from_le_bytes(self[at..at + 8].try_into().expect("an 8-byte range"))
    }

    #[inline(always)]
    fn set_way(&mut self, slot: usize, key: u64, tag: u8, flag: u8, stamp: u32) {
        let at = lane_at(slot, KEYS_AT, 8);
        self[at..at + 8].copy_from_slice(&key.to_le_bytes());
        self.set_stamp(slot, stamp);
        *self.flag_mut(slot) = flag;
        self[lane_at(slot, 0, 1)] = tag;
    }
}

/// The counters a fill advances: recency clock, population and statistics,
/// apart from the records so a run fill can carry them in locals.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    len: usize,
    clock: u32,
    stats: CacheStats,
}

/// Set-associative write-back metadata cache.
///
/// ```
/// use dewrite_mem::{CacheConfig, MetadataCache};
///
/// let mut cache = MetadataCache::new(CacheConfig::with_capacity(64));
/// assert!(!cache.access(7, false));      // cold miss
/// cache.insert(7, false);
/// assert!(cache.access(7, true));        // hit, now dirty
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCache {
    config: CacheConfig,
    /// The set records, indexed by slot `set * 8 * set_groups + way`.
    /// Lanes past the associativity are padding: tag and flag 0. A way is
    /// valid iff its tag lane's high bit is set — tags are written exactly
    /// when a way is (re)filled and ways are never invalidated.
    records: Records,
    /// Records per set: `associativity.div_ceil(8)`.
    set_groups: usize,
    num_sets: usize,
    /// S3-FIFO only (empty otherwise): per-set rings of ghost-queue key
    /// fingerprints, `associativity` lanes per set, `0` = empty lane.
    /// Fingerprints only — the ghost never holds a payload.
    ghosts: Box<[u16]>,
    /// S3-FIFO only: per-set ghost ring write cursors.
    ghost_cursor: Box<[u16]>,
    /// S3-FIFO only: ways per set the small queue may occupy before
    /// eviction drains it (~1/8 of the set, at least one way).
    small_target: usize,
    /// The most clock ticks one fill takes: its own two, and one per
    /// S3-FIFO promotion or re-queue (see [`Sets::s3_evict`]).
    fill_ticks: u64,
    tally: Tally,
}

/// The per-key step of the set hash: `hash(k + 1) = hash(k) + HASH_STEP`
/// (wrapping), which is how a run fill walks sequential keys without a
/// multiply per key.
const HASH_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// How far ahead of its fill a run hints a key's record: eight keys' hash
/// steps, lead time enough for the line to arrive.
const RUN_AHEAD_STEP: u64 = HASH_STEP.wrapping_mul(8);

/// Multiplicative hashing spreads sequential keys across sets while
/// staying deterministic. Bits 32.. pick the set; bits 57.. are the
/// 7-bit way tag.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(HASH_STEP)
}

/// `(h >> 32) % num_sets`, with the modulo strength-reduced to a mask
/// for power-of-two set counts (the common geometry — a runtime `div`
/// costs more than the whole tag scan).
#[inline]
fn reduce_set(h: u64, num_sets: usize) -> usize {
    let idx = (h >> 32) as usize;
    if num_sets.is_power_of_two() {
        idx & (num_sets - 1)
    } else {
        idx % num_sets
    }
}

/// 16-bit ghost fingerprint of a key hash. `0` marks an empty ghost
/// lane, so the zero fingerprint is folded to 1 (a 2⁻¹⁶ bias, far below
/// the ring's ambient false-positive rate).
#[inline]
fn fingerprint(h: u64) -> u16 {
    ((h >> 48) as u16).max(1)
}

/// What one pass over a set's tag words says about a key.
enum Probe {
    /// Resident at this slot.
    Hit(usize),
    /// Absent; this is the set's first never-used way.
    Free(usize),
    /// Absent, and every way holds an entry.
    Full,
}

/// The tag lane of a key hash: bits 57.., high bit set (0 = never used).
#[inline(always)]
fn tag_of(h: u64) -> u8 {
    (h >> 57) as u8 | 0x80
}

/// One pass over `set`'s tag words: the key's slot if resident (full key
/// compare only on tag hits; keys are unique within a set), else the first
/// never-used way, else full. Padding lanes are permanently zero, but sit
/// above every real way of the last word, so a real free lane comes first.
#[inline(always)]
fn probe(
    records: &[u8],
    (assoc, set_groups): (usize, usize),
    set: usize,
    tag: u8,
    key: u64,
) -> Probe {
    let mut free_way = usize::MAX;
    for g in 0..set_groups {
        let record = set * set_groups + g;
        let word = records.tags(record);
        let mut hits = swar_match_lanes(word, tag);
        while hits != 0 {
            let lane = (hits.trailing_zeros() >> 3) as usize;
            hits &= hits - 1;
            // Exact byte compare from the word already in register
            // filters SWAR false positives, empty lanes, and padding.
            if (word >> (lane * 8)) as u8 == tag {
                let slot = record * GROUP_WAYS + lane;
                if records.key(slot) == key {
                    return Probe::Hit(slot);
                }
            }
        }
        let free = !word & SWAR_HI;
        if free != 0 && free_way == usize::MAX {
            free_way = g * GROUP_WAYS + (free.trailing_zeros() >> 3) as usize;
        }
    }
    if free_way < assoc {
        Probe::Free(free_way)
    } else {
        Probe::Full
    }
}

/// The cache's records and geometry, borrowed apart from its [`Tally`]:
/// the one fill implementation runs over this view, so a demand insert can
/// count straight into the cache while a run fill counts into locals.
struct Sets<'a> {
    records: &'a mut [u8],
    ghosts: &'a mut [u16],
    ghost_cursor: &'a mut [u16],
    assoc: usize,
    set_groups: usize,
    num_sets: usize,
    small_target: usize,
    replacement: Replacement,
}

impl Sets<'_> {
    /// The one fill: make `key` (hash `h`) resident, counting into `t`.
    ///
    /// A demand fill (`prefetch == false`) of a resident key updates it in
    /// place, refreshing the policy's reuse signal like a hit would; a
    /// prefetch fill of a resident key is the policy-aware touch (LRU
    /// re-stamp, S3-FIFO frequency bump, nothing under FIFO) and arrives
    /// clean. An absent key takes the set's first never-used way, else the
    /// policy's victim. Returns the victim if one was evicted.
    #[inline(always)]
    fn fill(
        &mut self,
        t: &mut Tally,
        h: u64,
        key: u64,
        dirty: bool,
        prefetch: bool,
    ) -> Option<Evicted> {
        let set = reduce_set(h, self.num_sets);
        let tag = tag_of(h);
        let base = set * self.set_groups * GROUP_WAYS;
        let s3 = self.replacement == Replacement::S3Fifo;
        let geometry = (self.assoc, self.set_groups);
        let probe = probe(self.records, geometry, set, tag, key);

        if let Probe::Hit(slot) = probe {
            if prefetch {
                match self.replacement {
                    Replacement::Lru => {
                        t.clock += 1;
                        self.records.set_stamp(slot, t.clock);
                    }
                    Replacement::S3Fifo => {
                        let flag = self.records.flag_mut(slot);
                        *flag = freq_bumped(*flag);
                    }
                }
            } else {
                t.clock += 1;
                if dirty {
                    *self.records.flag_mut(slot) |= FLAG_DIRTY;
                }
                if s3 {
                    let flag = self.records.flag_mut(slot);
                    *flag = freq_bumped(*flag);
                } else {
                    self.records.set_stamp(slot, t.clock);
                }
            }
            return None;
        }
        t.stats.prefetch_inserts += u64::from(prefetch);
        t.clock += 1;

        // S3-FIFO routes a fill whose fingerprint is still remembered in
        // the ghost ring straight to main; everything else starts in small.
        let mut new_flag = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        if s3 {
            if self.ghost_take(set, fingerprint(h)) {
                t.stats.ghost_hits += 1;
            } else {
                new_flag |= FLAG_SMALL;
            }
        }

        let (slot, evicted) = match probe {
            Probe::Free(way) => {
                t.len += 1;
                (base + way, None)
            }
            _ => {
                // Every way is valid; pick the victim by policy. LRU: the
                // (unique) smallest stamp, the last touch. S3-FIFO: drain
                // the queues.
                let victim = if s3 {
                    let (victim, clock, scanned) = self.s3_evict(t.clock, set);
                    t.clock = clock;
                    t.stats.scan_evictions += u64::from(scanned);
                    victim
                } else {
                    base + self.oldest_way(set)
                };
                let was_dirty = self.records.flag(victim) & FLAG_DIRTY != 0;
                t.stats.dirty_evictions += u64::from(was_dirty);
                let evicted = Evicted {
                    key: self.records.key(victim),
                    dirty: was_dirty,
                };
                (victim, Some(evicted))
            }
        };
        // The new entry joins the tail of its queue: promotions inside
        // `s3_evict` may have advanced the clock, so take a fresh stamp
        // (still strictly monotonic).
        t.clock += 1;
        self.records.set_way(slot, key, tag, new_flag, t.clock);
        evicted
    }

    /// The way of the full `set` with the smallest stamp, selected
    /// without a data-dependent branch (which way is oldest is as good as
    /// random to a predictor) and, eight ways at a time, as a tournament:
    /// three levels of independent compares instead of a seven-long chain
    /// of dependent ones. Stamps are unique, so ties never arise.
    #[inline(always)]
    fn oldest_way(&self, set: usize) -> usize {
        #[inline(always)]
        fn older(a: (u32, usize), b: (u32, usize)) -> (u32, usize) {
            let take_b = b.0 < a.0;
            (
                if take_b { b.0 } else { a.0 },
                if take_b { b.1 } else { a.1 },
            )
        }
        let base = set * self.set_groups * GROUP_WAYS;
        let at = |way: usize| (self.records.stamp(base + way), way);
        let full = self.assoc - self.assoc % GROUP_WAYS;
        let mut best = (u32::MAX, 0usize);
        for g in (0..full).step_by(GROUP_WAYS) {
            let quarter = [
                older(at(g), at(g + 1)),
                older(at(g + 2), at(g + 3)),
                older(at(g + 4), at(g + 5)),
                older(at(g + 6), at(g + 7)),
            ];
            let half = [older(quarter[0], quarter[1]), older(quarter[2], quarter[3])];
            best = older(best, older(half[0], half[1]));
        }
        for way in full..self.assoc {
            best = older(best, at(way));
        }
        best.1
    }

    /// Pick the S3-FIFO victim slot in a full `set`, promoting and
    /// re-queueing along the way. Takes the clock and returns it advanced
    /// (by value, so a run fill's tally never has its address taken), with
    /// whether the victim left the small queue unpromoted.
    ///
    /// Terminates: every iteration either returns, moves a way out of the
    /// small queue, or decrements a (bounded) frequency counter — at most
    /// `assoc * (FREQ_MAX + 1)` iterations before a zero-frequency head is
    /// found.
    fn s3_evict(&mut self, mut clock: u32, set: usize) -> (usize, u32, bool) {
        let assoc = self.assoc;
        let base = set * self.set_groups * GROUP_WAYS;
        loop {
            // One pass over the set: small occupancy plus each queue's
            // head (minimum stamp). Eviction is the rare path; the scan is
            // at most `assoc` flag bytes and stamps.
            let mut small_count = 0usize;
            // (stamp, slot) of each queue's head so far.
            let mut small_head: Option<(u32, usize)> = None;
            let mut main_head: Option<(u32, usize)> = None;
            for slot in base..base + assoc {
                let stamp = self.records.stamp(slot);
                let head = if self.records.flag(slot) & FLAG_SMALL != 0 {
                    small_count += 1;
                    &mut small_head
                } else {
                    &mut main_head
                };
                if head.is_none_or(|(head_stamp, _)| stamp < head_stamp) {
                    *head = Some((stamp, slot));
                }
            }
            if small_count > self.small_target || main_head.is_none() {
                let (_, slot) = small_head.expect("full set has a small way here");
                if freq_of(self.records.flag(slot)) >= 1 {
                    // Hit while on probation: promote to the main tail.
                    // Frequency restarts at zero so one early burst does
                    // not grant immortality in main.
                    *self.records.flag_mut(slot) &= !(FLAG_SMALL | FREQ_MASK);
                    clock += 1;
                    self.records.set_stamp(slot, clock);
                    continue;
                }
                // One-hit wonder: evict, remembering only the fingerprint.
                let fp = fingerprint(hash(self.records.key(slot)));
                self.ghost_push(set, fp);
                return (slot, clock, true);
            }
            let (_, slot) = main_head.expect("full set has a main way here");
            if freq_of(self.records.flag(slot)) > 0 {
                // Still hot: spend one frequency unit for another lap.
                *self.records.flag_mut(slot) -= 1 << FREQ_SHIFT;
                clock += 1;
                self.records.set_stamp(slot, clock);
                continue;
            }
            return (slot, clock, false);
        }
    }

    /// Remove `fp` from `set`'s ghost ring if present.
    fn ghost_take(&mut self, set: usize, fp: u16) -> bool {
        let ring = &mut self.ghosts[set * self.assoc..(set + 1) * self.assoc];
        ring.iter_mut()
            .find(|lane| **lane == fp)
            .map(|lane| *lane = 0)
            .is_some()
    }

    /// Append `fp` to `set`'s ghost ring, displacing the oldest entry.
    fn ghost_push(&mut self, set: usize, fp: u16) {
        let cur = usize::from(self.ghost_cursor[set]);
        self.ghosts[set * self.assoc + cur] = fp;
        self.ghost_cursor[set] = ((cur + 1) % self.assoc) as u16;
    }
}

impl MetadataCache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if capacity or associativity is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be nonzero");
        assert!(config.associativity > 0, "associativity must be nonzero");
        let num_sets = config.num_sets();
        let slots = num_sets * config.associativity;
        let set_groups = config.associativity.div_ceil(GROUP_WAYS);
        let s3 = config.replacement == Replacement::S3Fifo;
        MetadataCache {
            config,
            records: Records::new(num_sets * set_groups),
            set_groups,
            num_sets,
            ghosts: vec![0u16; if s3 { slots } else { 0 }].into_boxed_slice(),
            ghost_cursor: vec![0u16; if s3 { num_sets } else { 0 }].into_boxed_slice(),
            small_target: (config.associativity / 8).max(1),
            fill_ticks: 2 + config.associativity as u64 * u64::from(FREQ_MAX + 1),
            tally: Tally::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The records as the fill sees them, and the tally beside them, after
    /// renumbering the stamps if the clock has no room for `fills` fills.
    #[inline(always)]
    fn split(&mut self, fills: u64) -> (Sets<'_>, &mut Tally) {
        if u64::from(self.tally.clock) + fills * self.fill_ticks >= u64::from(u32::MAX) {
            self.renumber();
        }
        (
            Sets {
                records: self.records.bytes_mut(),
                ghosts: &mut self.ghosts,
                ghost_cursor: &mut self.ghost_cursor,
                assoc: self.config.associativity,
                set_groups: self.set_groups,
                num_sets: self.num_sets,
                small_target: self.small_target,
                replacement: self.config.replacement,
            },
            &mut self.tally,
        )
    }

    /// Rewrite every set's stamps as their ranks (1 = oldest) and restart
    /// the clock above them. Stamps are only compared within one set, so
    /// every later victim is the one the unrenumbered stamps would pick.
    #[cold]
    fn renumber(&mut self) {
        let assoc = self.config.associativity;
        let mut order = Vec::with_capacity(assoc);
        let stride = self.set_groups * RECORD_BYTES;
        for set in self.records.bytes_mut().chunks_exact_mut(stride) {
            order.clear();
            let valid = (0..assoc).filter(|&way| set.flag(way) & FLAG_VALID != 0);
            order.extend(valid.map(|way| (set.stamp(way), way)));
            order.sort_unstable();
            for (rank, &(_, way)) in (1..).zip(&order) {
                set.set_stamp(way, rank);
            }
        }
        self.tally.clock = assoc as u32;
    }

    /// Slot index of `key` within its set, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let h = hash(key);
        let set = reduce_set(h, self.num_sets);
        let geometry = (self.config.associativity, self.set_groups);
        match probe(self.records.bytes(), geometry, set, tag_of(h), key) {
            Probe::Hit(slot) => Some(slot),
            _ => None,
        }
    }

    /// Demand lookup. On a hit, refreshes the policy's reuse signal —
    /// recency under LRU, the capped frequency counter under S3-FIFO —
    /// and ORs in the `write` dirty bit. Returns whether it hit.
    #[inline]
    pub fn access(&mut self, key: u64, write: bool) -> bool {
        if self.tally.clock >= u32::MAX - 1 {
            self.renumber();
        }
        self.tally.clock += 1;
        if let Some(slot) = self.find(key) {
            let records = self.records.bytes_mut();
            match self.config.replacement {
                Replacement::Lru => records.set_stamp(slot, self.tally.clock),
                Replacement::S3Fifo => {
                    let flag = records.flag(slot);
                    let small = flag & FLAG_SMALL != 0;
                    self.tally.stats.small_hits += u64::from(small);
                    self.tally.stats.main_hits += u64::from(!small);
                    *records.flag_mut(slot) = freq_bumped(flag);
                }
            }
            if write {
                *records.flag_mut(slot) |= FLAG_DIRTY;
            }
            self.tally.stats.hits += 1;
            true
        } else {
            self.tally.stats.misses += 1;
            false
        }
    }

    /// Whether `key` is resident (no statistics side effects).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Host-side hint that `key` is about to be looked up or filled: start
    /// fetching its set's record lines (two for an 8-way set). Moves no
    /// statistic, clock or recency state — unrelated to
    /// [`prefetch_run`](Self::prefetch_run), which models the controller's
    /// own sequential fills.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        let set = reduce_set(hash(key), self.num_sets);
        let records = self.records.bytes();
        for record in set * self.set_groups..(set + 1) * self.set_groups {
            hint::prefetch_read(&records[record * RECORD_BYTES]);
            hint::prefetch_read(&records[record * RECORD_BYTES + LINE_BYTES]);
        }
    }

    /// Insert `key` (demand fill). Returns the victim if one was evicted.
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<Evicted> {
        let (mut sets, tally) = self.split(1);
        tally.stats.demand_inserts += 1;
        sets.fill(tally, hash(key), key, dirty, false)
    }

    /// Insert a run of `count` sequential keys starting at `start`
    /// (prefetch fill; entries arrive clean). The run stops at the top of
    /// the key space instead of wrapping. Keys already resident get a
    /// policy-aware touch (LRU re-stamp / S3-FIFO frequency bump) with no
    /// hit/miss accounting, so a prefetch over a warm run refreshes the
    /// same reuse signal under every policy. Returns the number of dirty
    /// victims evicted.
    ///
    /// This is the per-key fill applied to `start, start + 1, …` in order
    /// (module docs, "One fill"), with the clock's headroom checked once
    /// per run, or per chunk worth half the stamp range for absurd runs.
    pub fn prefetch_run(&mut self, start: u64, count: usize) -> u64 {
        let keys = (count as u64).min((u64::MAX - start).saturating_add(1));
        let chunk = ((1u64 << 31) / self.fill_ticks).max(1);
        let dirty_before = self.tally.stats.dirty_evictions;
        for done in (0..keys).step_by(chunk as usize) {
            let (first, n) = (start + done, chunk.min(keys - done));
            let (mut sets, tally) = self.split(n);
            let mut t = *tally;
            let mut h = hash(first);
            for key in first..=first + (n - 1) {
                let ahead = reduce_set(h.wrapping_add(RUN_AHEAD_STEP), sets.num_sets);
                hint::prefetch_read(&sets.records[ahead * sets.set_groups * RECORD_BYTES]);
                sets.fill(&mut t, h, key, false, true);
                h = h.wrapping_add(HASH_STEP);
            }
            *tally = t;
        }
        self.tally.stats.dirty_evictions - dirty_before
    }

    /// Clear every dirty bit, returning how many entries were dirty —
    /// the write-backs a flush (epoch persistence) must perform.
    pub fn flush_dirty(&mut self) -> u64 {
        let flushed = self.dirty_count();
        for record in self.records.bytes_mut().chunks_exact_mut(RECORD_BYTES) {
            record[FLAGS_AT..FLAGS_AT + GROUP_WAYS]
                .iter_mut()
                .for_each(|f| *f &= !FLAG_DIRTY);
        }
        flushed
    }

    /// Number of currently dirty entries (padding lanes are flag 0).
    pub fn dirty_count(&self) -> u64 {
        let records = self.records.bytes().chunks_exact(RECORD_BYTES);
        records
            .flat_map(|record| &record[FLAGS_AT..FLAGS_AT + GROUP_WAYS])
            .filter(|&&f| f & (FLAG_VALID | FLAG_DIRTY) == FLAG_VALID | FLAG_DIRTY)
            .count() as u64
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.tally.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.tally.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.tally.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small(assoc: usize, capacity: usize) -> MetadataCache {
        MetadataCache::new(CacheConfig {
            capacity,
            associativity: assoc,
            replacement: Replacement::Lru,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2, 4);
        assert!(!c.access(1, false));
        c.insert(1, false);
        assert!(c.access(1, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_access_marks_dirty_and_eviction_reports_it() {
        // Fully-associative single set of 2.
        let mut c = small(2, 2);
        c.insert(1, false);
        assert!(c.access(1, true)); // dirtied by write hit
        c.insert(2, false);
        // Force eviction of 1 (LRU: 1 was touched before 2's insert).
        let mut victims = Vec::new();
        for k in 3..100 {
            if let Some(v) = c.insert(k, false) {
                victims.push(v);
            }
        }
        assert!(victims.iter().any(|v| v.key == 1 && v.dirty));
        assert!(c.stats().dirty_evictions >= 1);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = small(2, 2); // one set, two ways
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.access(1, false)); // 1 is now MRU
        let v = c.insert(3, false).expect("full set evicts");
        assert_eq!(v.key, 2);
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = small(2, 2);
        c.insert(1, false);
        assert!(c.insert(1, true).is_none());
        assert_eq!(c.len(), 1);
        // The single entry must now be dirty: evict it and check.
        c.insert(2, false);
        let v = c.insert(3, false).unwrap();
        assert!(v.key == 1 && v.dirty);
    }

    #[test]
    fn prefetch_inserts_clean_and_counts() {
        let mut c = small(4, 64);
        let dirty = c.prefetch_run(100, 16);
        assert_eq!(dirty, 0);
        assert_eq!(c.stats().prefetch_inserts, 16);
        assert!(c.access(100, false));
        assert!(c.access(115, false));
    }

    #[test]
    fn prefetch_skips_resident_keys() {
        let mut c = small(4, 64);
        c.insert(100, true);
        c.prefetch_run(100, 4);
        assert_eq!(c.stats().prefetch_inserts, 3);
        // Resident dirty entry must keep its dirty bit.
        assert!(c.contains(100));
    }

    #[test]
    fn prefetch_stops_at_top_of_key_space() {
        // A run starting near u64::MAX must clamp, not wrap or overflow:
        // only the 3 representable keys are inserted.
        let mut c = small(4, 64);
        let dirty = c.prefetch_run(u64::MAX - 2, 10);
        assert_eq!(dirty, 0);
        assert_eq!(c.stats().prefetch_inserts, 3);
        assert!(c.contains(u64::MAX - 2));
        assert!(c.contains(u64::MAX - 1));
        assert!(c.contains(u64::MAX));
        assert!(!c.contains(0), "the run must not wrap around");
        assert_eq!(c.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = MetadataCache::new(CacheConfig::with_capacity(0));
    }

    #[test]
    fn flush_clears_all_dirty_bits() {
        let mut c = small(4, 32);
        c.insert(1, true);
        c.insert(2, false);
        c.insert(3, true);
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.flush_dirty(), 2);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.flush_dirty(), 0);
        // Entries remain resident after a flush.
        assert!(c.contains(1) && c.contains(2) && c.contains(3));
        // A flushed entry evicts clean.
        for k in 10..200 {
            c.insert(k, false);
        }
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn bigger_cache_hits_more_on_looping_scan() {
        // Scan a 512-entry loop through a 128-entry and a 1024-entry cache.
        let run = |capacity: usize| {
            let mut c = MetadataCache::new(CacheConfig::with_capacity(capacity));
            for round in 0..4 {
                for k in 0..512u64 {
                    if !c.access(k, false) {
                        c.insert(k, false);
                    }
                    let _ = round;
                }
            }
            c.stats().hit_rate()
        };
        assert!(run(1024) > run(128));
        assert!(run(1024) > 0.7, "loop fits: expect high hit rate");
    }

    fn s3(assoc: usize, capacity: usize) -> MetadataCache {
        MetadataCache::new(CacheConfig {
            capacity,
            associativity: assoc,
            replacement: Replacement::S3Fifo,
        })
    }

    #[test]
    fn policy_names_round_trip() {
        for p in Replacement::ALL {
            assert_eq!(p.to_string().parse::<Replacement>(), Ok(p));
            assert_eq!(Replacement::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!("s3fifo".parse::<Replacement>(), Ok(Replacement::S3Fifo));
        assert!("clock".parse::<Replacement>().is_err());
        assert_eq!(Replacement::from_wire(1), None);
        assert_eq!(Replacement::from_wire(9), None);
    }

    #[test]
    fn s3fifo_scan_does_not_evict_hot_main_entries() {
        // One 8-way set. Four hot keys, each hit once while on probation,
        // then a 100-key one-shot sweep. S3-FIFO promotes the hot keys and
        // filters the sweep through small; LRU loses them.
        let hot: Vec<u64> = (1000..1004).collect();
        let run = |mut c: MetadataCache| {
            for &k in &hot {
                c.insert(k, false);
            }
            for &k in &hot {
                assert!(c.access(k, false));
            }
            for k in 0..100u64 {
                if !c.access(k, false) {
                    c.insert(k, false);
                }
            }
            c
        };
        let s3c = run(s3(8, 8));
        assert!(hot.iter().all(|&k| s3c.contains(k)), "hot set survives");
        assert!(s3c.stats().scan_evictions > 50, "sweep filtered via small");
        assert_eq!(s3c.stats().small_hits, 4);
        let lru = run(small(8, 8));
        assert!(
            hot.iter().all(|&k| !lru.contains(k)),
            "LRU loses the hot set"
        );
    }

    #[test]
    fn s3fifo_keeps_a_hot_set_through_a_four_capacity_sweep() {
        // 16 Ki entries, 32-way. An 8 Ki hot set is warmed twice (the
        // second pass is the reuse that marks it hot), then a sequential
        // sweep over 4x the capacity runs with one hot touch per four
        // sweep keys. LRU's one-hit-wonder fills ratchet the hot entries
        // out before their next touch; S3-FIFO's small queue evicts the
        // sweep keys at frequency zero and keeps the hot set in main.
        const CAPACITY: usize = 16 * 1024;
        const HOT: u64 = 8 * 1024;
        let hot_key = |j: u64| (1u64 << 40) | j;
        let hot_hits = |replacement: Replacement| {
            let mut c = MetadataCache::new(CacheConfig {
                capacity: CAPACITY,
                associativity: 32,
                replacement,
            });
            for _ in 0..2 {
                for j in 0..HOT {
                    if !c.access(hot_key(j), false) {
                        c.insert(hot_key(j), false);
                    }
                }
            }
            let mut hits = 0u64;
            for i in 0..4 * CAPACITY as u64 {
                if !c.access(i, false) {
                    c.insert(i, false);
                }
                if i % 4 == 0 {
                    let key = hot_key(i / 4 % HOT);
                    if c.access(key, false) {
                        hits += 1;
                    } else {
                        c.insert(key, false);
                    }
                }
            }
            hits
        };
        let (lru, s3fifo) = (hot_hits(Replacement::Lru), hot_hits(Replacement::S3Fifo));
        assert!(s3fifo >= 2 * lru, "S3-FIFO {s3fifo} vs LRU {lru}");
        // Of 16 384 hot touches: hit rates 0.130 and 1.000.
        assert_eq!(lru, 2129);
        assert_eq!(s3fifo, 16_384);
    }

    #[test]
    fn s3fifo_ghost_readmits_to_main() {
        let mut c = s3(8, 8);
        c.insert(42, false);
        // Fill the set and push one more: 42 (small head, never hit) is
        // evicted and only its fingerprint is remembered.
        for k in 0..8u64 {
            c.insert(k, false);
        }
        assert!(!c.contains(42));
        assert_eq!(c.stats().scan_evictions, 1);
        // Re-inserting while the fingerprint is live lands in main…
        c.insert(42, false);
        assert_eq!(c.stats().ghost_hits, 1);
        // …where a long sweep cannot dislodge it, even with zero hits.
        for k in 100..200u64 {
            c.insert(k, false);
        }
        assert!(c.contains(42), "ghost-readmitted entry rides out the sweep");
    }

    #[test]
    fn s3fifo_hits_split_by_queue() {
        let mut c = s3(8, 8);
        c.insert(7, false);
        assert!(c.access(7, false)); // probation hit
        assert_eq!(c.stats().small_hits, 1);
        assert_eq!(c.stats().main_hits, 0);
        // Promote 7 by sweeping, then hit it again in main.
        for k in 100..132u64 {
            c.insert(k, false);
        }
        assert!(c.contains(7));
        assert!(c.access(7, false));
        assert_eq!(c.stats().main_hits, 1);
        assert_eq!(c.stats().hits, c.stats().small_hits + c.stats().main_hits);
    }

    #[test]
    fn s3fifo_dirty_eviction_still_reported() {
        let mut c = s3(2, 2);
        c.insert(1, true);
        let mut dirty_victims = 0;
        for k in 2..50u64 {
            if let Some(v) = c.insert(k, false) {
                if v.dirty {
                    dirty_victims += 1;
                    assert_eq!(v.key, 1);
                }
            }
        }
        assert_eq!(dirty_victims, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    // ---- satellite: policy-aware prefetch touch boundary tests ---------

    #[test]
    fn prefetch_touch_refreshes_lru_residents() {
        let mut c = small(2, 2);
        c.insert(1, false);
        c.insert(2, false);
        // The touch is not an insert (no stats) but must refresh recency.
        c.prefetch_run(1, 1);
        assert_eq!(c.stats().prefetch_inserts, 0);
        let v = c.insert(3, false).expect("full set evicts");
        assert_eq!(v.key, 2, "prefetch touch made 1 the MRU");
        assert!(c.contains(1));
    }

    #[test]
    fn prefetch_touch_bumps_s3fifo_frequency() {
        let mut c = s3(4, 4);
        c.insert(77, false);
        c.prefetch_run(77, 1); // resident: frequency bump, no insert
        assert_eq!(c.stats().prefetch_inserts, 0);
        for k in 0..40u64 {
            c.insert(k, false);
        }
        assert!(c.contains(77), "touched entry was promoted, not swept");
        // The same script without the touch loses the entry.
        let mut c = s3(4, 4);
        c.insert(77, false);
        for k in 0..40u64 {
            c.insert(k, false);
        }
        assert!(!c.contains(77));
    }

    #[test]
    fn set_records_start_on_a_128_byte_boundary_after_new_and_clone() {
        let victims = |mut cache: MetadataCache| -> Vec<_> {
            (200..300).map(|k| cache.insert(k, false)).collect()
        };
        for assoc in [1usize, 2, 8, 16] {
            let mut c = small(assoc, 16 * assoc);
            c.prefetch_run(0, 100);
            c.insert(7, true);
            // Clones land at other addresses, hence at other leads.
            let clones: Vec<MetadataCache> = (0..8).map(|_| c.clone()).collect();
            for cache in std::iter::once(&c).chain(&clones) {
                let records = cache.records.bytes();
                assert_eq!(records.len(), 16 * assoc.div_ceil(8) * RECORD_BYTES);
                for record in records.chunks_exact(RECORD_BYTES) {
                    assert_eq!(record.as_ptr() as usize % 128, 0, "assoc {assoc}");
                }
                for key in 0..120 {
                    assert_eq!(cache.dirty_bit(key), c.dirty_bit(key), "assoc {assoc}");
                }
            }
            let expected = victims(c);
            for clone in clones {
                assert_eq!(victims(clone), expected, "assoc {assoc}");
            }
        }
    }

    // ---- differential proptests vs the seed per-set-Vec oracle ---------

    /// One randomized cache op.
    #[derive(Debug, Clone)]
    enum CacheOp {
        Access(u64, bool),
        Insert(u64, bool),
        Prefetch(u64, usize),
        Flush,
    }

    fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
        // A small key space plus a few near-u64::MAX keys keeps sets
        // contended and exercises the prefetch clamp.
        fn key() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..48, Just(u64::MAX - 1), Just(u64::MAX)]
        }
        prop_oneof![
            (key(), any::<bool>()).prop_map(|(k, w)| CacheOp::Access(k, w)),
            (key(), any::<bool>()).prop_map(|(k, d)| CacheOp::Insert(k, d)),
            (key(), 0usize..12).prop_map(|(k, n)| CacheOp::Prefetch(k, n)),
            Just(CacheOp::Flush),
        ]
    }

    fn assert_caches_agree(
        seed: &crate::seed::SeedMetadataCache,
        flat: &MetadataCache,
        keys: &[u64],
    ) {
        assert_eq!(seed.stats(), flat.stats());
        assert_eq!(seed.len(), flat.len());
        assert_eq!(seed.is_empty(), flat.is_empty());
        assert_eq!(seed.dirty_count(), flat.dirty_count());
        for &k in keys {
            assert_eq!(seed.contains(k), flat.contains(k), "residency of {k}");
        }
    }

    fn run_differential(config: CacheConfig, ops: Vec<CacheOp>) {
        let mut seed = crate::seed::SeedMetadataCache::new(config);
        let mut flat = MetadataCache::new(config);
        let probe: Vec<u64> = (0..48).chain([u64::MAX - 1, u64::MAX]).collect();
        for op in ops {
            match op {
                CacheOp::Access(k, w) => assert_eq!(seed.access(k, w), flat.access(k, w)),
                CacheOp::Insert(k, d) => assert_eq!(seed.insert(k, d), flat.insert(k, d)),
                CacheOp::Prefetch(k, n) => {
                    assert_eq!(seed.prefetch_run(k, n), flat.prefetch_run(k, n));
                }
                CacheOp::Flush => assert_eq!(seed.flush_dirty(), flat.flush_dirty()),
            }
            assert_caches_agree(&seed, &flat, &probe);
        }
    }

    proptest! {
        #[test]
        fn lru_cache_matches_seed_oracle(
            ops in proptest::collection::vec(cache_op_strategy(), 0..250)
        ) {
            run_differential(
                CacheConfig { capacity: 16, associativity: 4, replacement: Replacement::Lru },
                ops,
            );
        }

        // Headers with padding lanes (3, 12) and with two tag groups (12,
        // 16): flush_dirty and dirty_count walk every header lane.
        #[test]
        fn flush_and_dirty_count_match_seed_oracle_on_padded_headers(
            ops in proptest::collection::vec(cache_op_strategy(), 0..250),
            associativity in prop_oneof![Just(3usize), Just(8), Just(12), Just(16)],
        ) {
            run_differential(
                CacheConfig {
                    capacity: 2 * associativity,
                    associativity,
                    replacement: Replacement::Lru,
                },
                ops,
            );
        }

        #[test]
        fn len_never_exceeds_capacity(keys in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut c = small(4, 32);
            for k in keys {
                if !c.access(k, k % 2 == 0) {
                    c.insert(k, k % 2 == 0);
                }
            }
            prop_assert!(c.len() <= 32 + 4); // sets may round capacity up slightly
        }

        #[test]
        fn inserted_key_is_resident(key in any::<u64>()) {
            let mut c = small(4, 32);
            c.insert(key, false);
            prop_assert!(c.contains(key));
            prop_assert!(c.access(key, false));
        }
    }

    // ---- run fill vs the per-key loop ----------------------------------

    /// What a run fill must equal: the seed oracle's `prefetch_run`, which
    /// *is* a per-key find-then-insert loop (LRU, FIFO), or — for S3-FIFO,
    /// which the seed predates — this cache filled one key per call.
    enum PerKeyOracle {
        Seed(crate::seed::SeedMetadataCache),
        OneKeyRuns(MetadataCache),
    }

    /// Run `$body` on whichever cache the oracle holds (the two types share
    /// method names, not a trait).
    macro_rules! on_oracle {
        ($oracle:expr, $c:ident => $body:expr) => {
            match $oracle {
                PerKeyOracle::Seed($c) => $body,
                PerKeyOracle::OneKeyRuns($c) => $body,
            }
        };
    }

    impl PerKeyOracle {
        fn new(config: CacheConfig) -> Self {
            match config.replacement {
                Replacement::S3Fifo => PerKeyOracle::OneKeyRuns(MetadataCache::new(config)),
                _ => PerKeyOracle::Seed(crate::seed::SeedMetadataCache::new(config)),
            }
        }

        fn dirty(&mut self, key: u64, by_access: bool) {
            on_oracle!(self, c => if by_access {
                c.access(key, true);
            } else {
                c.insert(key, true);
            })
        }

        fn run(&mut self, start: u64, count: usize) -> u64 {
            match self {
                PerKeyOracle::Seed(c) => c.prefetch_run(start, count),
                PerKeyOracle::OneKeyRuns(c) => (0..count as u64)
                    .map_while(|k| start.checked_add(k))
                    .map(|key| c.prefetch_run(key, 1))
                    .sum(),
            }
        }

        fn stats_len_dirty(&self) -> (CacheStats, usize, u64) {
            on_oracle!(self, c => (c.stats(), c.len(), c.dirty_count()))
        }

        fn dirty_bit(&self, key: u64) -> Option<bool> {
            on_oracle!(self, c => c.dirty_bit(key))
        }
    }

    impl MetadataCache {
        /// `key`'s dirty bit, or `None` if it is not resident.
        fn dirty_bit(&self, key: u64) -> Option<bool> {
            self.find(key)
                .map(|slot| self.records.bytes().flag(slot) & FLAG_DIRTY != 0)
        }
    }

    /// One step of a run-fill script: dirty a few keys (by write hit or by
    /// dirty demand fill), then fill a run.
    #[derive(Debug, Clone)]
    struct RunStep {
        dirtied: Vec<(u64, bool)>,
        start: u64,
        count: usize,
    }

    fn run_step_strategy() -> impl Strategy<Value = RunStep> {
        // Starts overlap (warm and dirty-resident runs) and the last arm
        // clips the run at the top of the key space.
        let start = prop_oneof![0u64..64, 200u64..520, (0u64..20).prop_map(|k| u64::MAX - k)];
        let count = prop_oneof![Just(1usize), Just(16), Just(256)];
        let dirtied = proptest::collection::vec((0u64..520, any::<bool>()), 0..6);
        (dirtied, start, count).prop_map(|(dirtied, start, count)| RunStep {
            dirtied,
            start,
            count,
        })
    }

    proptest! {
        #[test]
        fn run_fill_matches_seed_oracle(
            steps in proptest::collection::vec(run_step_strategy(), 1..10),
            sets in 1usize..5,
        ) {
            // At most four sets of at most sixteen ways: a 256-key run comes
            // back to every set and evicts keys it filled itself.
            for replacement in Replacement::ALL {
                for associativity in [1usize, 2, 8, 16] {
                    let config = CacheConfig {
                        capacity: sets * associativity,
                        associativity,
                        replacement,
                    };
                    let mut oracle = PerKeyOracle::new(config);
                    let mut flat = MetadataCache::new(config);
                    let mut used = std::collections::BTreeSet::new();
                    for step in &steps {
                        for &(key, by_access) in &step.dirtied {
                            oracle.dirty(key, by_access);
                            if by_access {
                                flat.access(key, true);
                            } else {
                                flat.insert(key, true);
                            }
                            used.insert(key);
                        }
                        prop_assert_eq!(
                            oracle.run(step.start, step.count),
                            flat.prefetch_run(step.start, step.count)
                        );
                        used.extend((0..step.count as u64).map_while(|k| step.start.checked_add(k)));
                        prop_assert_eq!(
                            oracle.stats_len_dirty(),
                            (flat.stats(), flat.len(), flat.dirty_count())
                        );
                        for &key in &used {
                            prop_assert_eq!(
                                oracle.dirty_bit(key),
                                flat.dirty_bit(key),
                                "{:?} key {}", config, key
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- the host prefetch hint and the clock renumbering -------------

    /// Every policy at associativities 1, 2, 8 and 16, `sets` sets each.
    fn configs(sets: usize) -> impl Iterator<Item = CacheConfig> {
        Replacement::ALL.into_iter().flat_map(move |replacement| {
            [1usize, 2, 8, 16].map(|associativity| CacheConfig {
                capacity: sets * associativity,
                associativity,
                replacement,
            })
        })
    }

    /// Apply `op` to `c`: the insert's victim, a run's dirty victims, an
    /// access's hit and a flush's count, as one comparable value.
    fn apply(c: &mut MetadataCache, op: &CacheOp) -> (Option<Evicted>, u64) {
        match *op {
            CacheOp::Access(k, w) => (None, u64::from(c.access(k, w))),
            CacheOp::Insert(k, d) => (c.insert(k, d), 0),
            CacheOp::Prefetch(k, n) => (None, c.prefetch_run(k, n)),
            CacheOp::Flush => (None, c.flush_dirty()),
        }
    }

    impl MetadataCache {
        /// An empty cache whose clock starts at `clock`.
        fn with_clock(config: CacheConfig, clock: u32) -> Self {
            let mut cache = MetadataCache::new(config);
            cache.tally.clock = clock;
            cache
        }
    }

    /// A renumbering script's step: access, insert, dirty insert, or a
    /// prefetch run of 1, 16 or 256 keys, over keys `0..300`.
    fn clock_op_strategy() -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            (0u64..300, any::<bool>()).prop_map(|(k, w)| CacheOp::Access(k, w)),
            (0u64..300, any::<bool>()).prop_map(|(k, d)| CacheOp::Insert(k, d)),
            (0u64..300, prop_oneof![Just(1usize), Just(16), Just(256)])
                .prop_map(|(k, n)| CacheOp::Prefetch(k, n)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prefetch_hint_changes_nothing(
            script in proptest::collection::vec((cache_op_strategy(), 0u64..48), 0..200),
            sets in 1usize..5,
        ) {
            for config in configs(sets) {
                let (mut hinted, mut plain) = (MetadataCache::new(config), MetadataCache::new(config));
                for (op, hint) in &script {
                    hinted.prefetch(*hint);
                    if let CacheOp::Access(k, _) | CacheOp::Insert(k, _) = *op {
                        hinted.prefetch(k);
                    }
                    prop_assert_eq!(apply(&mut hinted, op), apply(&mut plain, op));
                    prop_assert_eq!(
                        (hinted.stats(), hinted.len(), hinted.dirty_count()),
                        (plain.stats(), plain.len(), plain.dirty_count())
                    );
                }
            }
        }

        // A cache whose clock starts just below the renumbering point runs
        // the same script as one starting at 0: the renumbered stamps must
        // pick every victim the unrenumbered ones do.
        #[test]
        fn stamp_renumbering_is_exact(
            script in proptest::collection::vec(clock_op_strategy(), 1..60),
            headroom in prop_oneof![0u32..6_000, 0u32..24_000],
            sets in 1usize..5,
        ) {
            for config in configs(sets) {
                let mut fresh = MetadataCache::new(config);
                let mut late = MetadataCache::with_clock(config, u32::MAX - headroom);
                for op in &script {
                    prop_assert_eq!(apply(&mut fresh, op), apply(&mut late, op), "{:?}", config);
                    prop_assert_eq!(
                        (fresh.stats(), fresh.len(), fresh.dirty_count()),
                        (late.stats(), late.len(), late.dirty_count())
                    );
                    for key in 0..556 {
                        prop_assert_eq!(fresh.dirty_bit(key), late.dirty_bit(key), "key {}", key);
                    }
                }
            }
        }
    }

    // ---- S3-FIFO invariant proptests (no oracle: structural checks) ----

    /// Count (small, main) queue occupancy from the flag bytes.
    fn s3_queue_counts(c: &MetadataCache) -> (usize, usize) {
        let mut small = 0;
        let mut main = 0;
        let records = c.records.bytes().chunks_exact(RECORD_BYTES);
        for &f in records.flat_map(|record| &record[FLAGS_AT..FLAGS_AT + GROUP_WAYS]) {
            if f & FLAG_VALID != 0 {
                if f & FLAG_SMALL != 0 {
                    small += 1;
                } else {
                    main += 1;
                }
            }
        }
        (small, main)
    }

    fn assert_s3_invariants(c: &MetadataCache, accesses: u64) {
        let s = c.stats();
        // Queue-size conservation: every valid way is in exactly one
        // queue, and together they are exactly the resident population.
        let (small, main) = s3_queue_counts(c);
        assert_eq!(small + main, c.len(), "queues partition the residents");
        assert!(c.len() <= c.config().capacity + c.config().associativity);
        // Hit accounting is queue-exact and policy-uniform.
        assert_eq!(s.hits, s.small_hits + s.main_hits);
        assert_eq!(s.hits + s.misses, accesses);
        // Dirty accounting never exceeds the population.
        assert!(c.dirty_count() <= c.len() as u64);
        // The ghost holds fingerprints only (one u16 lane per way, ring
        // cursor in range) — never a payload slot.
        assert_eq!(c.ghosts.len(), c.num_sets * c.config().associativity);
        for &cur in c.ghost_cursor.iter() {
            assert!((cur as usize) < c.config().associativity);
        }
    }

    proptest! {
        #[test]
        fn s3fifo_invariants_hold_under_random_scripts(
            ops in proptest::collection::vec(cache_op_strategy(), 0..300)
        ) {
            let mut c = s3(4, 16);
            let mut accesses = 0u64;
            for op in ops {
                match op {
                    CacheOp::Access(k, w) => {
                        accesses += 1;
                        let hit = c.access(k, w);
                        prop_assert_eq!(hit, c.contains(k));
                    }
                    CacheOp::Insert(k, d) => {
                        c.insert(k, d);
                        prop_assert!(c.contains(k));
                    }
                    CacheOp::Prefetch(k, n) => {
                        let _ = c.prefetch_run(k, n);
                    }
                    CacheOp::Flush => {
                        c.flush_dirty();
                        prop_assert_eq!(c.dirty_count(), 0);
                    }
                }
                assert_s3_invariants(&c, accesses);
            }
        }

        #[test]
        fn s3fifo_single_way_sets_still_work(
            ops in proptest::collection::vec(cache_op_strategy(), 0..150)
        ) {
            // Degenerate geometry: assoc 1 means small_target == assoc, so
            // promotion and main re-queueing must still terminate.
            let mut c = s3(1, 4);
            let mut accesses = 0u64;
            for op in ops {
                match op {
                    CacheOp::Access(k, w) => {
                        accesses += 1;
                        c.access(k, w);
                    }
                    CacheOp::Insert(k, d) => {
                        c.insert(k, d);
                    }
                    CacheOp::Prefetch(k, n) => {
                        let _ = c.prefetch_run(k, n);
                    }
                    CacheOp::Flush => {
                        c.flush_dirty();
                    }
                }
                assert_s3_invariants(&c, accesses);
            }
        }
    }
}
