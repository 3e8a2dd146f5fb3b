//! Hierarchical lock-free free-space manager: the llfree-style successor
//! of the flat [`AtomicBitmap`].
//!
//! The flat bitmap pays two structural costs at engine scale: every claim
//! does a word-by-word scan over one shared map (quadratic-ish as the
//! arena fills), and every claim RMWs one shared `free_count` cache line
//! (the contention wall under concurrent allocators). [`FsmTree`] splits
//! the map into two levels:
//!
//! * a **lower level** of fixed-size *chunks* — [`CHUNK_LINES`] lines (8
//!   `AtomicU64` words, exactly one cache line of bitmap) claimed with the
//!   same `fetch_and` word protocol as [`AtomicBitmap`];
//! * an **upper level** of per-chunk atomic free counters, 16 to a cache
//!   line, so "which region has space" is answered by scanning counters
//!   (512 lines summarized per 4 bytes) instead of bitmap words — and
//!   there is **no global free count**: [`FsmTree::free_lines`] sums the
//!   sharded counters, so no two claims in different chunks ever touch the
//!   same cache line;
//! * a **reservation layer**: each caller (an engine shard, a benchmark
//!   thread) owns a [`Reservation`] pinning one chunk. The common-path
//!   claim is a single uncontended `fetch_and` in the reserved chunk plus
//!   a `fetch_sub` on that chunk's counter. Only when the chunk drains
//!   does the caller go back to the upper tree for a **refill**, and only
//!   when no chunk has a comfortable run of free lines left does it
//!   **steal** the globally fullest (most-free) chunk.
//!
//! # Wear-aware chunk rotation
//!
//! Refill preference cycles through chunks by a coarse per-chunk
//! allocation-count bucket (lifetime claims `>>` [`WEAR_BUCKET_SHIFT`]):
//! a refill prefers the least-worn bucket, breaking ties by a rotating
//! cursor, so steady alloc/free churn walks across the device instead of
//! pinning the same few lines — the line-placement behavior SecPM-style
//! endurance designs assume of this layer. The policy is observable:
//! [`FsmTree::stats`] counts claims, refills, steals and scan steps, and
//! [`FsmTree::chunk_allocs`] exposes the per-chunk wear proxy itself.
//!
//! # Home-preference mode and placement identity
//!
//! [`FsmTree::allocate`] keeps the flat bitmap's contract — prefer a
//! caller-provided *home* line, scan outward with wrap-around — and is
//! **placement-identical** to [`AtomicBitmap::allocate`] on the same
//! occupancy: it visits words in the same order and picks bits with the
//! same in-word preference, using the upper counters only to *skip* chunks
//! with no free line (which can never change which free line is found
//! first). This is what lets the sharded engine swap allocators while its
//! merged simulated `RunReport` stays bit-identical; the differential
//! proptests in `dewrite-core` pin the property.
//!
//! # Shared and owner entry points
//!
//! The `&self` methods are lock-free and safe under any sharing. A caller
//! that owns the tree outright — an engine shard — uses the `&mut self`
//! twins ([`FsmTree::allocate_mut`], [`FsmTree::release_mut`],
//! [`FsmTree::allocate_reserved_mut`]): each operation has one algorithm
//! body, generic over the [`Leaf`] that performs its read-modify-writes,
//! and the owner leaf is a plain load and store where the shared one is a
//! `fetch_*`. Same scan, same placement, same counters; what goes is the
//! seven lock-prefixed instructions of a release + claim, each of which
//! also drains the caller's store buffer.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::fsm_atomic::{AtomicBitmap, Leaf, Owner, Shared};

/// Bits per bitmap word.
const WORD_BITS: u64 = 64;

/// Bitmap words per chunk: one cache line of lower-level bitmap.
pub const CHUNK_WORDS: usize = 8;

/// Lines tracked per chunk.
pub const CHUNK_LINES: u64 = CHUNK_WORDS as u64 * WORD_BITS;

/// A refill wants at least this many free lines in the chosen chunk, so
/// one upper-tree visit buys a run of cheap claims. Chunks below the
/// threshold are only taken by stealing.
pub const REFILL_MIN_FREE: u32 = 64;

/// Coarse wear bucketing: lifetime claims per chunk `>> SHIFT` is the
/// rotation key, so a chunk must absorb [`CHUNK_LINES`] claims before it
/// yields refill priority to its peers.
pub const WEAR_BUCKET_SHIFT: u32 = 9;

/// Live counters for the allocator's observable behavior (monotonic,
/// updated with relaxed ordering; exact once concurrent claims quiesce).
#[derive(Debug, Default)]
struct AtomicStats {
    claims: AtomicU64,
    refills: AtomicU64,
    steals: AtomicU64,
    scan_steps: AtomicU64,
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsmStats {
    /// Lines successfully claimed (any mode).
    pub claims: u64,
    /// Reservation refills served from the upper tree.
    pub refills: u64,
    /// Refills that had to steal a below-threshold chunk because no chunk
    /// had [`REFILL_MIN_FREE`] lines left.
    pub steals: u64,
    /// Upper- and lower-level probe steps (chunk counters consulted plus
    /// bitmap words scanned) across all claims.
    pub scan_steps: u64,
}

impl FsmStats {
    /// Mean probe steps per successful claim — the "how much memory does a
    /// claim touch" figure the hierarchy is supposed to shrink.
    pub fn scan_steps_per_claim(&self) -> f64 {
        if self.claims == 0 {
            0.0
        } else {
            self.scan_steps as f64 / self.claims as f64
        }
    }
}

/// A caller's reserved-chunk handle. One per allocating thread/shard;
/// holding one never blocks other callers (reservations are preferences,
/// not locks — claims stay atomic either way).
///
/// A reservation carries a claim *budget* of one wear bucket
/// (`1 << WEAR_BUCKET_SHIFT` claims): once spent, the handle retires its
/// chunk even if frees have kept it non-empty, so alloc/free churn rotates
/// across the device instead of pinning the same lines.
///
/// It also accumulates the claim/scan-step counters locally — a reserved
/// claim must not touch the tree's shared stats cache line, or the stats
/// would reintroduce the very contention the reservation removes. The
/// pending counts flush into [`FsmTree::stats`] at each refill, at
/// exhaustion, and on [`FsmTree::drain_reservation_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Reservation {
    chunk: Option<usize>,
    budget: u32,
    pending_claims: u64,
    pending_steps: u64,
}

impl Reservation {
    /// A fresh handle with no chunk reserved; the first claim refills.
    pub fn new() -> Self {
        Reservation::default()
    }

    /// The currently reserved chunk, if any (observability/tests).
    pub fn chunk(&self) -> Option<usize> {
        self.chunk
    }
}

/// A hierarchical concurrent free-space map over `lines` slots
/// (`1` bit = free).
#[derive(Debug)]
pub struct FsmTree {
    /// Lower level: one bit per line, `1` = free, chunked [`CHUNK_WORDS`]
    /// words at a time.
    words: Box<[AtomicU64]>,
    /// Upper level: free-line count per chunk.
    chunk_free: Box<[AtomicU32]>,
    /// Lifetime claims per chunk — the coarse wear proxy driving rotation.
    chunk_allocs: Box<[AtomicU32]>,
    /// Rotating refill cursor: ties between equally-worn candidate chunks
    /// break toward the next position, cycling placement over the device.
    rotation: AtomicU64,
    lines: u64,
    stats: AtomicStats,
}

impl FsmTree {
    /// All `lines` start free.
    pub fn new(lines: u64) -> Self {
        let nwords = lines.div_ceil(WORD_BITS).max(1) as usize;
        let nchunks = nwords.div_ceil(CHUNK_WORDS);
        let words: Box<[AtomicU64]> = (0..nchunks * CHUNK_WORDS)
            .map(|wi| {
                let base = wi as u64 * WORD_BITS;
                // Bits past `lines` must never be handed out: occupied.
                let free_in_word = lines.saturating_sub(base).min(WORD_BITS);
                AtomicU64::new(if free_in_word == 64 {
                    !0u64
                } else {
                    (1u64 << free_in_word) - 1
                })
            })
            .collect();
        let chunk_free: Box<[AtomicU32]> = (0..nchunks)
            .map(|ci| {
                let base = ci as u64 * CHUNK_LINES;
                AtomicU32::new(lines.saturating_sub(base).min(CHUNK_LINES) as u32)
            })
            .collect();
        let chunk_allocs = (0..nchunks).map(|_| AtomicU32::new(0)).collect();
        FsmTree {
            words,
            chunk_free,
            chunk_allocs,
            rotation: AtomicU64::new(0),
            lines,
            stats: AtomicStats::default(),
        }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Number of chunks in the upper level.
    pub fn chunks(&self) -> usize {
        self.chunk_free.len()
    }

    /// Number of free lines: the sum of the per-chunk counters (exact once
    /// concurrent operations quiesce; a live gauge while they run). Unlike
    /// the flat bitmap there is no single shared counter to contend on —
    /// this read walks the sharded upper level instead.
    pub fn free_lines(&self) -> u64 {
        self.chunk_free
            .iter()
            .map(|c| u64::from(c.load(Ordering::Acquire)))
            .sum()
    }

    /// Free lines in one chunk (observability/tests).
    pub fn chunk_free_lines(&self, chunk: usize) -> u32 {
        self.chunk_free[chunk].load(Ordering::Acquire)
    }

    /// Lifetime claims served from one chunk — the wear-rotation key is
    /// this value `>>` [`WEAR_BUCKET_SHIFT`].
    pub fn chunk_allocs(&self, chunk: usize) -> u32 {
        self.chunk_allocs[chunk].load(Ordering::Relaxed)
    }

    /// Whether `line` is free right now (racy by nature under concurrency).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn is_free(&self, line: u64) -> bool {
        assert!(line < self.lines, "line {line} out of range {}", self.lines);
        let word = self.words[(line / WORD_BITS) as usize].load(Ordering::Acquire);
        word & (1u64 << (line % WORD_BITS)) != 0
    }

    /// Claim `line` specifically. Returns `false` if it was already
    /// occupied (possibly by a concurrent winner).
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn occupy(&self, line: u64) -> bool {
        assert!(line < self.lines, "line {line} out of range {}", self.lines);
        let mask = 1u64 << (line % WORD_BITS);
        let prev = self.words[(line / WORD_BITS) as usize].fetch_and(!mask, Ordering::AcqRel);
        if prev & mask != 0 {
            self.note_claim::<Shared>((line / CHUNK_LINES) as usize, 1);
            true
        } else {
            false
        }
    }

    /// Return `line` to the free pool. Returns `false` (and changes
    /// nothing) if it was already free — callers treating that as a
    /// double-free bug should assert on the result.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn release(&self, line: u64) -> bool {
        self.release_with::<Shared>(line)
    }

    /// [`release`](Self::release) for an exclusive owner: no atomic RMW.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn release_mut(&mut self, line: u64) -> bool {
        self.release_with::<Owner>(line)
    }

    #[inline(always)]
    fn release_with<L: Leaf>(&self, line: u64) -> bool {
        assert!(line < self.lines, "line {line} out of range {}", self.lines);
        let mask = 1u64 << (line % WORD_BITS);
        let prev = L::or(
            &self.words[(line / WORD_BITS) as usize],
            mask,
            Ordering::AcqRel,
        );
        if prev & mask == 0 {
            L::add32(
                &self.chunk_free[(line / CHUNK_LINES) as usize],
                1,
                Ordering::AcqRel,
            );
            true
        } else {
            false
        }
    }

    /// Book-keeping for one successful word claim in `chunk`.
    #[inline(always)]
    fn note_claim<L: Leaf>(&self, chunk: usize, steps: u64) {
        L::sub32(&self.chunk_free[chunk], 1, Ordering::AcqRel);
        L::add32(&self.chunk_allocs[chunk], 1, Ordering::Relaxed);
        L::add(&self.stats.claims, 1, Ordering::Relaxed);
        L::add(&self.stats.scan_steps, steps, Ordering::Relaxed);
    }

    /// Try to claim the lowest free bit in `words[wi]`, preferring bits at
    /// or after `min_bit` first when `min_bit > 0` (the flat bitmap's
    /// home-word protocol, reproduced exactly). A lost race reloads the
    /// same word; returns `None` once the word is exhausted.
    #[inline(always)]
    fn claim_in_word<L: Leaf>(&self, wi: usize, min_bit: u64) -> Option<u64> {
        let mut word = self.words[wi].load(Ordering::Acquire);
        loop {
            if word == 0 {
                return None;
            }
            let bit = if min_bit > 0 {
                let at_or_after = word & (!0u64 << min_bit);
                if at_or_after != 0 {
                    at_or_after.trailing_zeros()
                } else {
                    word.trailing_zeros()
                }
            } else {
                word.trailing_zeros()
            } as u64;
            let mask = 1u64 << bit;
            let prev = L::and(&self.words[wi], !mask, Ordering::AcqRel);
            if prev & mask != 0 {
                return Some(wi as u64 * WORD_BITS + bit);
            }
            word = prev & !mask;
        }
    }

    /// Allocate a free line, preferring `home`, then scanning outward from
    /// it with wrap-around — **placement-identical** to
    /// [`AtomicBitmap::allocate`] on the same occupancy. The upper
    /// counters only skip chunks with no free line, which cannot change
    /// which free line is reached first in the flat word order.
    ///
    /// Lock-free: a claim is one `fetch_and`; a lost race reloads one word.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn allocate(&self, home: u64) -> Option<u64> {
        self.allocate_with::<Shared>(home)
    }

    /// [`allocate`](Self::allocate) for an exclusive owner: same scan,
    /// same placement, same counters, no atomic RMW.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn allocate_mut(&mut self, home: u64) -> Option<u64> {
        self.allocate_with::<Owner>(home)
    }

    #[inline(always)]
    fn allocate_with<L: Leaf>(&self, home: u64) -> Option<u64> {
        assert!(home < self.lines, "home {home} out of range {}", self.lines);
        let nchunks = self.chunks();
        let home_word = (home / WORD_BITS) as usize;
        let home_bit = home % WORD_BITS;
        let home_chunk = home_word / CHUNK_WORDS;
        let mut steps = 0u64;

        // Home chunk, words from the home word to the chunk's end. The
        // home word itself uses the at-or-after preference with the flat
        // bitmap's fall-back to its lowest free bit.
        if self.chunk_free[home_chunk].load(Ordering::Acquire) > 0 {
            for wi in home_word..(home_chunk + 1) * CHUNK_WORDS {
                steps += 1;
                let min_bit = if wi == home_word { home_bit } else { 0 };
                if let Some(line) = self.claim_in_word::<L>(wi, min_bit) {
                    self.note_claim::<L>(home_chunk, steps + 1);
                    return Some(line);
                }
            }
        }
        steps += 1; // the home-chunk counter consult

        // Every other chunk in wrap order, skipping drained ones by
        // counter. Word order within a chunk is ascending — exactly the
        // order the flat scan visits them.
        for step in 1..nchunks {
            let ci = (home_chunk + step) % nchunks;
            steps += 1;
            if self.chunk_free[ci].load(Ordering::Acquire) == 0 {
                continue;
            }
            for wi in ci * CHUNK_WORDS..(ci + 1) * CHUNK_WORDS {
                steps += 1;
                if let Some(line) = self.claim_in_word::<L>(wi, 0) {
                    self.note_claim::<L>(ci, steps + 1);
                    return Some(line);
                }
            }
        }

        // Finally the home chunk's words before the home word (the flat
        // scan's wrap-around tail).
        if self.chunk_free[home_chunk].load(Ordering::Acquire) > 0 {
            for wi in home_chunk * CHUNK_WORDS..home_word {
                steps += 1;
                if let Some(line) = self.claim_in_word::<L>(wi, 0) {
                    self.note_claim::<L>(home_chunk, steps + 1);
                    return Some(line);
                }
            }
        }
        L::add(&self.stats.scan_steps, steps, Ordering::Relaxed);
        None
    }

    /// Claim the lowest free line of `chunk`, if any.
    #[inline(always)]
    fn claim_in_chunk<L: Leaf>(&self, chunk: usize, steps: &mut u64) -> Option<u64> {
        for wi in chunk * CHUNK_WORDS..(chunk + 1) * CHUNK_WORDS {
            *steps += 1;
            if let Some(line) = self.claim_in_word::<L>(wi, 0) {
                return Some(line);
            }
        }
        None
    }

    /// Pick a refill chunk: the least-worn bucket among chunks with at
    /// least [`REFILL_MIN_FREE`] free lines, ties broken by the rotating
    /// cursor. Falls back to stealing the globally fullest (most-free)
    /// chunk when nothing comfortable is left. Returns
    /// `(chunk, was_steal)`, or `None` when every counter reads zero.
    fn pick_refill<L: Leaf>(&self, steps: &mut u64) -> Option<(usize, bool)> {
        let nchunks = self.chunks();
        let start = (L::add(&self.rotation, 1, Ordering::Relaxed) % nchunks as u64) as usize;
        let mut best: Option<(u32, usize)> = None; // (wear bucket, chunk)
        let mut fullest: Option<(u32, usize)> = None; // (free, chunk)
        for step in 0..nchunks {
            let ci = (start + step) % nchunks;
            *steps += 1;
            let free = self.chunk_free[ci].load(Ordering::Acquire);
            if free == 0 {
                continue;
            }
            match fullest {
                Some((f, _)) if f >= free => {}
                _ => fullest = Some((free, ci)),
            }
            if free >= REFILL_MIN_FREE {
                let bucket = self.chunk_allocs[ci].load(Ordering::Relaxed) >> WEAR_BUCKET_SHIFT;
                // Strictly-less keeps the first (cursor-nearest) chunk of
                // the winning bucket: the rotation tie-break.
                if best.is_none_or(|(b, _)| bucket < b) {
                    best = Some((bucket, ci));
                }
            }
        }
        if let Some((_, ci)) = best {
            return Some((ci, false));
        }
        fullest.map(|(_, ci)| (ci, true))
    }

    /// Allocate through a caller-owned [`Reservation`]: claim from the
    /// reserved chunk with one uncontended `fetch_and`, refilling from the
    /// upper tree (wear-rotated) only when the chunk drains and stealing
    /// the fullest chunk only when no refill candidate is comfortable.
    /// Returns `None` when the map is exhausted.
    ///
    /// Placement is wear-rotation order, **not** home order — callers that
    /// need the flat bitmap's placement use [`FsmTree::allocate`].
    pub fn allocate_reserved(&self, r: &mut Reservation) -> Option<u64> {
        self.allocate_reserved_with::<Shared>(r)
    }

    /// [`allocate_reserved`](Self::allocate_reserved) for an exclusive
    /// owner: same refills, same placement, same counters, no atomic RMW.
    pub fn allocate_reserved_mut(&mut self, r: &mut Reservation) -> Option<u64> {
        self.allocate_reserved_with::<Owner>(r)
    }

    #[inline(always)]
    fn allocate_reserved_with<L: Leaf>(&self, r: &mut Reservation) -> Option<u64> {
        let mut steps = 0u64;
        loop {
            if let Some(ci) = r.chunk {
                if r.budget == 0 {
                    // Budget spent: retire the chunk so churn rotates even
                    // when frees keep it non-empty.
                    r.chunk = None;
                } else if let Some(line) = self.claim_in_chunk::<L>(ci, &mut steps) {
                    r.budget -= 1;
                    // Chunk-local counters only: under a reservation these
                    // cache lines belong to this caller, so the hot claim
                    // touches nothing shared. Global stats accumulate in
                    // the handle and flush at the next (rare) refill.
                    L::sub32(&self.chunk_free[ci], 1, Ordering::AcqRel);
                    L::add32(&self.chunk_allocs[ci], 1, Ordering::Relaxed);
                    r.pending_claims += 1;
                    r.pending_steps += steps + 1;
                    return Some(line);
                } else {
                    r.chunk = None;
                }
            }
            if r.chunk.is_none() {
                self.drain_reservation_stats_with::<L>(r);
                match self.pick_refill::<L>(&mut steps) {
                    Some((ci, stole)) => {
                        r.chunk = Some(ci);
                        r.budget = 1u32 << WEAR_BUCKET_SHIFT;
                        L::add(&self.stats.refills, 1, Ordering::Relaxed);
                        if stole {
                            L::add(&self.stats.steals, 1, Ordering::Relaxed);
                        }
                    }
                    None => {
                        L::add(&self.stats.scan_steps, steps, Ordering::Relaxed);
                        return None;
                    }
                }
            }
        }
    }

    /// Flush a reservation's locally accumulated claim/scan-step counts
    /// into the tree's [`FsmTree::stats`]. Runs automatically at every
    /// refill and at exhaustion; call it when a caller retires its handle
    /// so the final partial batch is counted.
    pub fn drain_reservation_stats(&self, r: &mut Reservation) {
        self.drain_reservation_stats_with::<Shared>(r);
    }

    fn drain_reservation_stats_with<L: Leaf>(&self, r: &mut Reservation) {
        if r.pending_claims > 0 {
            L::add(&self.stats.claims, r.pending_claims, Ordering::Relaxed);
            r.pending_claims = 0;
        }
        if r.pending_steps > 0 {
            L::add(&self.stats.scan_steps, r.pending_steps, Ordering::Relaxed);
            r.pending_steps = 0;
        }
    }

    /// Visit every occupied line, in ascending order. Meaningful once
    /// concurrent operations have quiesced (scrub, reporting); allocates
    /// nothing.
    pub fn for_each_occupied<F: FnMut(u64)>(&self, mut f: F) {
        for (wi, w) in self.words.iter().enumerate() {
            let mut taken = !w.load(Ordering::Acquire);
            while taken != 0 {
                let bit = taken.trailing_zeros() as u64;
                let line = wi as u64 * WORD_BITS + bit;
                if line < self.lines {
                    f(line);
                }
                taken &= taken - 1;
            }
        }
    }

    /// Snapshot of every occupied line, in ascending order (a thin wrapper
    /// over [`FsmTree::for_each_occupied`] for callers that want a `Vec`).
    pub fn occupied(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_occupied(|line| out.push(line));
        out
    }

    /// Point-in-time allocator counters.
    pub fn stats(&self) -> FsmStats {
        FsmStats {
            claims: self.stats.claims.load(Ordering::Relaxed),
            refills: self.stats.refills.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            scan_steps: self.stats.scan_steps.load(Ordering::Relaxed),
        }
    }

    /// Human-readable per-chunk occupancy/wear dump for debugging: one row
    /// per chunk with free lines, lifetime claims, wear bucket, and the
    /// occupied-line count recomputed through
    /// [`FsmTree::for_each_occupied`] as a cross-check.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut per_chunk = vec![0u64; self.chunks()];
        self.for_each_occupied(|line| per_chunk[(line / CHUNK_LINES) as usize] += 1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fsm_tree: {} lines, {} chunks, stats {:?}",
            self.lines,
            self.chunks(),
            self.stats()
        );
        for (ci, occupied) in per_chunk.iter().enumerate() {
            let allocs = self.chunk_allocs(ci);
            let _ = writeln!(
                out,
                "  chunk {ci:>4}: free {:>4} occupied {occupied:>4} allocs {allocs:>8} bucket {}",
                self.chunk_free_lines(ci),
                allocs >> WEAR_BUCKET_SHIFT,
            );
        }
        out
    }

    /// Copy the occupancy of a flat bitmap (test/diagnostic helper for
    /// differential runs): every line free in `src` is free here.
    pub fn from_bitmap(src: &AtomicBitmap) -> Self {
        let tree = FsmTree::new(src.lines());
        src.for_each_occupied(|line| {
            tree.occupy(line);
        });
        tree
    }
}

impl Clone for FsmTree {
    fn clone(&self) -> Self {
        FsmTree {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Acquire)))
                .collect(),
            chunk_free: self
                .chunk_free
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Acquire)))
                .collect(),
            chunk_allocs: self
                .chunk_allocs
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                .collect(),
            rotation: AtomicU64::new(self.rotation.load(Ordering::Relaxed)),
            lines: self.lines,
            stats: AtomicStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_home_first() {
        let t = FsmTree::new(8);
        assert_eq!(t.free_lines(), 8);
        assert_eq!(t.allocate(3), Some(3));
        assert!(!t.is_free(3));
        assert_eq!(t.free_lines(), 7);
        assert_eq!(t.stats().claims, 1);
    }

    #[test]
    fn placement_matches_flat_bitmap_under_churn() {
        // The tree's home mode must pick the exact line the flat bitmap
        // picks, claim for claim, under an interleaved occupy/release/
        // allocate script spanning several chunks — and so must the owner
        // (`&mut`) entry points of both.
        let lines = 3 * CHUNK_LINES + 77;
        let flat = AtomicBitmap::new(lines);
        let tree = FsmTree::new(lines);
        let mut flat_owner = AtomicBitmap::new(lines);
        let mut tree_owner = FsmTree::new(lines);
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut held = Vec::new();
        for round in 0..6_000u64 {
            match rng() % 4 {
                0 | 1 => {
                    let home = rng() % lines;
                    let a = flat.allocate(home);
                    let b = tree.allocate(home);
                    assert_eq!(a, b, "round {round}: home {home} placement diverged");
                    assert_eq!(a, flat_owner.allocate_mut(home), "round {round}");
                    assert_eq!(a, tree_owner.allocate_mut(home), "round {round}");
                    if let Some(line) = a {
                        held.push(line);
                    }
                }
                2 => {
                    if !held.is_empty() {
                        let line = held.swap_remove((rng() % held.len() as u64) as usize);
                        assert!(flat.release(line));
                        assert!(tree.release(line));
                        assert!(flat_owner.release_mut(line));
                        assert!(tree_owner.release_mut(line));
                    }
                }
                _ => {
                    let line = rng() % lines;
                    assert_eq!(flat.occupy(line), tree.occupy(line));
                    assert_eq!(flat_owner.occupy(line), tree_owner.occupy(line));
                    if flat.is_free(line) {
                        // occupy failed on both; nothing to track
                    } else if !held.contains(&line) {
                        held.push(line);
                    }
                }
            }
            assert_eq!(flat.free_lines(), tree.free_lines(), "round {round}");
        }
        assert_eq!(flat.occupied(), tree.occupied());
        assert_eq!(flat.occupied(), flat_owner.occupied());
        assert_eq!(tree.occupied(), tree_owner.occupied());
        assert_eq!(tree.stats(), tree_owner.stats());
    }

    #[test]
    fn counters_skip_drained_chunks() {
        let lines = 4 * CHUNK_LINES;
        let t = FsmTree::new(lines);
        // Drain chunks 0..3 entirely; only chunk 3 keeps a free line.
        for line in 0..(3 * CHUNK_LINES) {
            assert!(t.occupy(line));
        }
        for line in (3 * CHUNK_LINES)..(lines - 1) {
            assert!(t.occupy(line));
        }
        let before = t.stats().scan_steps;
        assert_eq!(t.allocate(0), Some(lines - 1));
        let steps = t.stats().scan_steps - before;
        // 3 skipped chunk counters + the target chunk's counter/words —
        // far fewer than the 24 words a flat scan walks.
        assert!(steps <= 16, "home-mode scan did {steps} steps");
    }

    #[test]
    fn tail_bits_are_never_allocated() {
        let t = FsmTree::new(3);
        let got: Vec<_> = (0..3).map(|_| t.allocate(0).unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(t.allocate(2), None);
        let mut r = Reservation::new();
        assert_eq!(t.allocate_reserved(&mut r), None);
        assert_eq!(t.free_lines(), 0);
    }

    #[test]
    fn tail_chunk_counter_matches_valid_lines() {
        // 2 chunks + 5 lines: the last chunk's counter must start at 5,
        // not CHUNK_LINES.
        let lines = 2 * CHUNK_LINES + 5;
        let t = FsmTree::new(lines);
        assert_eq!(t.chunks(), 3);
        assert_eq!(t.chunk_free_lines(2), 5);
        assert_eq!(t.free_lines(), lines);
    }

    #[test]
    fn reserved_claims_stay_in_the_reserved_chunk() {
        let t = FsmTree::new(4 * CHUNK_LINES);
        let mut r = Reservation::new();
        let first = t.allocate_reserved(&mut r).unwrap();
        let chunk = r.chunk().expect("refilled");
        for _ in 0..(CHUNK_LINES - 1) {
            let line = t.allocate_reserved(&mut r).unwrap();
            assert_eq!(
                (line / CHUNK_LINES) as usize,
                chunk,
                "claim left the reserved chunk while it still had space"
            );
        }
        assert_eq!((first / CHUNK_LINES) as usize, chunk);
        assert_eq!(t.stats().refills, 1, "one refill covers a whole chunk");
        // The chunk is dry now: the next claim refills elsewhere.
        t.allocate_reserved(&mut r).unwrap();
        assert_eq!(t.stats().refills, 2);
        assert_ne!(r.chunk().unwrap(), chunk);
    }

    #[test]
    fn wear_rotation_cycles_chunks_under_churn() {
        // Alloc/free churn through a reservation: once a chunk absorbs a
        // bucket's worth of claims, refills must move on even though the
        // just-freed chunk has the most free space.
        let nchunks = 4u64;
        let t = FsmTree::new(nchunks * CHUNK_LINES);
        let mut r = Reservation::new();
        let mut used = std::collections::BTreeSet::new();
        // Each full drain+free of a chunk is CHUNK_LINES claims = 1 wear
        // bucket; 4 cycles must therefore touch every chunk.
        for _ in 0..(nchunks * CHUNK_LINES) {
            let line = t.allocate_reserved(&mut r).unwrap();
            used.insert(line / CHUNK_LINES);
            assert!(t.release(line));
        }
        assert_eq!(
            used.len() as u64,
            nchunks,
            "churn pinned placement instead of rotating: {used:?}"
        );
        let spread: Vec<u32> = (0..nchunks as usize).map(|c| t.chunk_allocs(c)).collect();
        let (min, max) = (*spread.iter().min().unwrap(), *spread.iter().max().unwrap());
        assert!(
            max - min <= CHUNK_LINES as u32,
            "wear spread {spread:?} exceeds one bucket"
        );
    }

    #[test]
    fn refill_prefers_comfortable_chunks_then_steals() {
        let t = FsmTree::new(3 * CHUNK_LINES);
        // Leave fewer than REFILL_MIN_FREE lines in every chunk: 8 free in
        // chunk 0, 16 free in chunk 1, chunk 2 full.
        for line in 8..CHUNK_LINES {
            assert!(t.occupy(line));
        }
        for line in (CHUNK_LINES + 16)..(2 * CHUNK_LINES) {
            assert!(t.occupy(line));
        }
        for line in (2 * CHUNK_LINES)..(3 * CHUNK_LINES) {
            assert!(t.occupy(line));
        }
        let mut r = Reservation::new();
        let line = t.allocate_reserved(&mut r).unwrap();
        assert_eq!(
            line / CHUNK_LINES,
            1,
            "steal must take the fullest (most-free) chunk"
        );
        let s = t.stats();
        assert_eq!(s.steals, 1);
        assert_eq!(s.refills, 1);
    }

    #[test]
    fn exhaustion_and_release() {
        let t = FsmTree::new(2);
        assert!(t.allocate(0).is_some());
        assert!(t.allocate(0).is_some());
        assert_eq!(t.allocate(0), None);
        assert_eq!(t.free_lines(), 0);
        assert!(t.release(1));
        assert!(!t.release(1), "double release must report");
        assert_eq!(t.free_lines(), 1);
        assert!(!t.occupy(0), "already occupied");
    }

    #[test]
    fn occupied_snapshot_and_visitor_agree() {
        let t = FsmTree::new(CHUNK_LINES + 70);
        t.occupy(0);
        t.occupy(65);
        t.occupy(CHUNK_LINES + 69);
        assert_eq!(t.occupied(), vec![0, 65, CHUNK_LINES + 69]);
        let mut seen = Vec::new();
        t.for_each_occupied(|l| seen.push(l));
        assert_eq!(seen, t.occupied());
        let dump = t.debug_dump();
        assert!(dump.contains("chunk    0"), "dump:\n{dump}");
    }

    #[test]
    fn from_bitmap_copies_occupancy() {
        let b = AtomicBitmap::new(700);
        for line in [0u64, 63, 64, 511, 512, 699] {
            b.occupy(line);
        }
        let t = FsmTree::from_bitmap(&b);
        assert_eq!(t.occupied(), b.occupied());
        assert_eq!(t.free_lines(), b.free_lines());
    }

    #[test]
    fn concurrent_reserved_allocations_are_unique() {
        use std::sync::atomic::AtomicUsize;
        const LINES: u64 = 16 * CHUNK_LINES;
        let t = FsmTree::new(LINES);
        let claimed: Vec<AtomicUsize> = (0..LINES).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = &t;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut r = Reservation::new();
                    while let Some(line) = t.allocate_reserved(&mut r) {
                        let prev = claimed[line as usize].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "line {line} double-allocated");
                    }
                });
            }
        });
        assert_eq!(t.free_lines(), 0);
        assert!(claimed.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(t.stats().claims, LINES);
    }

    #[test]
    fn concurrent_churn_preserves_free_count() {
        const LINES: u64 = 4 * CHUNK_LINES;
        let t = FsmTree::new(LINES);
        std::thread::scope(|s| {
            for id in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut r = Reservation::new();
                    for round in 0..2_000u64 {
                        // Mix reserved and home-mode claims: both paths
                        // must keep the counters conserved.
                        let line = if round % 2 == 0 {
                            t.allocate_reserved(&mut r)
                        } else {
                            t.allocate((id * 512 + round) % LINES)
                        };
                        if let Some(line) = line {
                            assert!(t.release(line), "we owned it");
                        }
                    }
                });
            }
        });
        assert_eq!(t.free_lines(), LINES);
        assert!(t.occupied().is_empty());
    }
}
