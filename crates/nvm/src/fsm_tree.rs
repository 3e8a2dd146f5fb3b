//! Two-level free-space manager: one bit per line under per-chunk free
//! counters, owned by a single caller.
//!
//! The paper's free-space manager is one bit per line. Scanned word by
//! word, a near-full map makes every claim walk thousands of exhausted
//! words before it finds a free bit. [`FsmTree`] splits the map into two
//! levels:
//!
//! * a **lower level** of fixed-size *chunks* — [`CHUNK_LINES`] lines (8
//!   `u64` words, exactly one cache line of bitmap);
//! * an **upper level** of per-chunk free counters, 16 to a cache line,
//!   so "which region has space" is answered by scanning counters (512
//!   lines summarized per 4 bytes) instead of bitmap words.
//!
//! Each tree has one owner (an engine shard, the simulator's dedup index,
//! the benchmark's replay), so every mutation takes `&mut self` and is a
//! plain load and store.
//!
//! # Home-preference mode
//!
//! [`FsmTree::allocate`] prefers a caller-provided *home* line and scans
//! outward with wrap-around in flat word order: the home word (free bits
//! at or after the home bit first, then its lowest free bit), the words
//! after it, then the words before it. The upper counters only *skip*
//! chunks with no free line, which can never change which free line is
//! found first, so placement is exactly a flat word scan's. The
//! differential proptests in `dewrite-core` pin that against a
//! test-local flat oracle.
//!
//! # Line-order mode
//!
//! [`FsmTree::allocate_within`] confines a claim to `lo..hi` and scans it
//! line by line from the home: the first free line of `home..hi`, then of
//! `lo..home`. This is the simulator's placement (per-domain bounds, and
//! a line scan rather than a word scan); counters skip drained chunks
//! here too, so placement is exactly the line scan's.
//!
//! # Wear-aware rotation
//!
//! [`FsmTree::allocate_rotating`] claims from one reserved chunk until it
//! drains or has absorbed one wear bucket of claims
//! (`1 << WEAR_BUCKET_SHIFT`), then refills: the least-worn bucket
//! (lifetime claims `>>` [`WEAR_BUCKET_SHIFT`]) among chunks with at least
//! [`REFILL_MIN_FREE`] free lines, ties broken by a rotating cursor, or —
//! when no chunk is that comfortable — a steal of the fullest (most-free)
//! chunk. Steady alloc/free churn therefore walks across the device
//! instead of pinning the same few lines. [`FsmTree::stats`] counts
//! claims, refills, steals and scan steps, and [`FsmTree::chunk_allocs`]
//! exposes the per-chunk wear proxy.

/// Bits per bitmap word.
const WORD_BITS: u64 = 64;

/// Bitmap words per chunk: one cache line of lower-level bitmap.
pub const CHUNK_WORDS: usize = 8;

/// Lines tracked per chunk.
pub const CHUNK_LINES: u64 = CHUNK_WORDS as u64 * WORD_BITS;

/// A refill wants at least this many free lines in the chosen chunk, so
/// one upper-level visit buys a run of cheap claims. Chunks below the
/// threshold are only taken by stealing.
pub const REFILL_MIN_FREE: u32 = 64;

/// Coarse wear bucketing: lifetime claims per chunk `>> SHIFT` is the
/// rotation key, so a chunk must absorb [`CHUNK_LINES`] claims before it
/// yields refill priority to its peers.
pub const WEAR_BUCKET_SHIFT: u32 = 9;

/// The allocator's observable counters (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsmStats {
    /// Lines successfully claimed (any mode).
    pub claims: u64,
    /// Rotation refills served from the upper level.
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

/// A two-level free-space map over `lines` slots (`1` bit = free).
#[derive(Debug, Clone)]
pub struct FsmTree {
    /// Lower level: one bit per line, `1` = free, chunked [`CHUNK_WORDS`]
    /// words at a time.
    words: Box<[u64]>,
    /// Upper level: free-line count per chunk.
    chunk_free: Box<[u32]>,
    /// Lifetime claims per chunk — the coarse wear proxy driving rotation.
    chunk_allocs: Box<[u32]>,
    /// Rotating refill cursor: ties between equally-worn candidate chunks
    /// break toward the next position, cycling placement over the device.
    rotation: u64,
    /// The chunk [`FsmTree::allocate_rotating`] claims from, if any.
    reserved: Option<usize>,
    /// Claims the reserved chunk may still serve before rotation retires
    /// it, even if frees keep it non-empty.
    budget: u32,
    lines: u64,
    stats: FsmStats,
}

impl FsmTree {
    /// All `lines` start free.
    pub fn new(lines: u64) -> Self {
        let nwords = lines.div_ceil(WORD_BITS).max(1) as usize;
        let nchunks = nwords.div_ceil(CHUNK_WORDS);
        let words = (0..nchunks * CHUNK_WORDS)
            .map(|wi| {
                // Bits past `lines` must never be handed out: occupied.
                let free_in_word = lines.saturating_sub(wi as u64 * WORD_BITS).min(WORD_BITS);
                if free_in_word == WORD_BITS {
                    !0u64
                } else {
                    (1u64 << free_in_word) - 1
                }
            })
            .collect();
        let chunk_free = (0..nchunks)
            .map(|ci| {
                lines
                    .saturating_sub(ci as u64 * CHUNK_LINES)
                    .min(CHUNK_LINES) as u32
            })
            .collect();
        FsmTree {
            words,
            chunk_free,
            chunk_allocs: vec![0; nchunks].into_boxed_slice(),
            rotation: 0,
            reserved: None,
            budget: 0,
            lines,
            stats: FsmStats::default(),
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

    /// Number of free lines: the sum of the per-chunk counters.
    pub fn free_lines(&self) -> u64 {
        self.chunk_free.iter().map(|&c| u64::from(c)).sum()
    }

    /// Free lines in one chunk (observability/tests).
    pub fn chunk_free_lines(&self, chunk: usize) -> u32 {
        self.chunk_free[chunk]
    }

    /// Lifetime claims served from one chunk — the wear-rotation key is
    /// this value `>>` [`WEAR_BUCKET_SHIFT`].
    pub fn chunk_allocs(&self, chunk: usize) -> u32 {
        self.chunk_allocs[chunk]
    }

    /// The word index and bit mask of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    fn locate(&self, line: u64) -> (usize, u64) {
        assert!(line < self.lines, "line {line} out of range {}", self.lines);
        ((line / WORD_BITS) as usize, 1u64 << (line % WORD_BITS))
    }

    /// Whether `line` is free.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn is_free(&self, line: u64) -> bool {
        let (wi, mask) = self.locate(line);
        self.words[wi] & mask != 0
    }

    /// Claim `line` specifically. Returns `false` if it was already
    /// occupied.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn occupy(&mut self, line: u64) -> bool {
        let (wi, mask) = self.locate(line);
        if self.words[wi] & mask == 0 {
            return false;
        }
        self.words[wi] &= !mask;
        self.note_claim((line / CHUNK_LINES) as usize, 1);
        true
    }

    /// Return `line` to the free pool. Returns `false` (and changes
    /// nothing) if it was already free — callers treating that as a
    /// double-free bug should assert on the result.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn release(&mut self, line: u64) -> bool {
        let (wi, mask) = self.locate(line);
        if self.words[wi] & mask != 0 {
            return false;
        }
        self.words[wi] |= mask;
        self.chunk_free[(line / CHUNK_LINES) as usize] += 1;
        true
    }

    /// Book-keeping for one successful claim in `chunk`.
    fn note_claim(&mut self, chunk: usize, steps: u64) {
        self.chunk_free[chunk] -= 1;
        self.chunk_allocs[chunk] = self.chunk_allocs[chunk].wrapping_add(1);
        self.stats.claims += 1;
        self.stats.scan_steps += steps;
    }

    /// Claim a free bit of `words[wi]`: the lowest at or after `min_bit`,
    /// else the lowest. `None` if the word is exhausted.
    fn claim_in_word(&mut self, wi: usize, min_bit: u64) -> Option<u64> {
        let word = self.words[wi];
        if word == 0 {
            return None;
        }
        let at_or_after = word & (!0u64 << min_bit);
        let bit = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            word.trailing_zeros()
        } as u64;
        self.words[wi] = word & !(1u64 << bit);
        Some(wi as u64 * WORD_BITS + bit)
    }

    /// Claim the lowest free bit of the first word in `words` that has
    /// one, counting one step per word visited.
    fn claim_in_words(&mut self, words: std::ops::Range<usize>, steps: &mut u64) -> Option<u64> {
        for wi in words {
            *steps += 1;
            if let Some(line) = self.claim_in_word(wi, 0) {
                return Some(line);
            }
        }
        None
    }

    /// The word range of `chunk`.
    fn chunk_words(chunk: usize) -> std::ops::Range<usize> {
        chunk * CHUNK_WORDS..(chunk + 1) * CHUNK_WORDS
    }

    /// Allocate a free line, preferring `home`, then scanning outward from
    /// it with wrap-around in flat word order (see the module docs).
    /// Returns `None` when no line is free.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    pub fn allocate(&mut self, home: u64) -> Option<u64> {
        assert!(home < self.lines, "home {home} out of range {}", self.lines);
        let nchunks = self.chunks();
        let home_word = (home / WORD_BITS) as usize;
        let home_chunk = home_word / CHUNK_WORDS;
        let mut steps = 0u64;

        // Home chunk, from the home word (with its at-or-after preference)
        // to the chunk's end.
        if self.chunk_free[home_chunk] > 0 {
            steps += 1;
            let rest = home_word + 1..(home_chunk + 1) * CHUNK_WORDS;
            let found = self
                .claim_in_word(home_word, home % WORD_BITS)
                .or_else(|| self.claim_in_words(rest, &mut steps));
            if let Some(line) = found {
                self.note_claim(home_chunk, steps + 1);
                return Some(line);
            }
        }
        steps += 1; // the home-chunk counter consult

        // Every other chunk in wrap order, skipping drained ones by
        // counter. Word order within a chunk is ascending — exactly the
        // order the flat scan visits them.
        for step in 1..nchunks {
            let ci = (home_chunk + step) % nchunks;
            steps += 1;
            if self.chunk_free[ci] == 0 {
                continue;
            }
            if let Some(line) = self.claim_in_words(Self::chunk_words(ci), &mut steps) {
                self.note_claim(ci, steps + 1);
                return Some(line);
            }
        }

        // Finally the home chunk's words before the home word (the flat
        // scan's wrap-around tail).
        if self.chunk_free[home_chunk] > 0 {
            if let Some(line) = self.claim_in_words(home_chunk * CHUNK_WORDS..home_word, &mut steps)
            {
                self.note_claim(home_chunk, steps + 1);
                return Some(line);
            }
        }
        self.stats.scan_steps += steps;
        None
    }

    /// The lowest free line in `lo..hi`, skipping drained chunks by their
    /// counters, counting one step per counter and word consulted.
    fn first_free_in(&self, lo: u64, hi: u64, steps: &mut u64) -> Option<u64> {
        if lo >= hi {
            return None;
        }
        for ci in (lo / CHUNK_LINES) as usize..=((hi - 1) / CHUNK_LINES) as usize {
            *steps += 1;
            if self.chunk_free[ci] == 0 {
                continue;
            }
            let words = Self::chunk_words(ci);
            let first = words.start.max((lo / WORD_BITS) as usize);
            let last = words.end.min(hi.div_ceil(WORD_BITS) as usize);
            for wi in first..last {
                *steps += 1;
                let base = wi as u64 * WORD_BITS;
                let from_lo = !0u64 << lo.saturating_sub(base);
                let below_hi = !0u64 >> WORD_BITS.saturating_sub(hi - base);
                let word = self.words[wi] & from_lo & below_hi;
                if word != 0 {
                    return Some(base + u64::from(word.trailing_zeros()));
                }
            }
        }
        None
    }

    /// Allocate the first free line of `home..hi`, else of `lo..home`:
    /// line order from the home, wrapping inside `lo..hi` (see the module
    /// docs). Returns `None` when the range has no free line.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= home < hi <= lines`.
    pub fn allocate_within(&mut self, home: u64, lo: u64, hi: u64) -> Option<u64> {
        assert!(
            lo <= home && home < hi && hi <= self.lines,
            "home {home} outside range {lo}..{hi} of {}",
            self.lines
        );
        let mut steps = 0u64;
        let found = self
            .first_free_in(home, hi, &mut steps)
            .or_else(|| self.first_free_in(lo, home, &mut steps));
        match found {
            Some(line) => {
                let (wi, mask) = self.locate(line);
                self.words[wi] &= !mask;
                self.note_claim((line / CHUNK_LINES) as usize, steps);
            }
            None => self.stats.scan_steps += steps,
        }
        found
    }

    /// Pick a refill chunk: the least-worn bucket among chunks with at
    /// least [`REFILL_MIN_FREE`] free lines, ties broken by the rotating
    /// cursor. Falls back to stealing the fullest (most-free) chunk when
    /// nothing comfortable is left. Returns `(chunk, was_steal)`, or
    /// `None` when every counter reads zero.
    fn pick_refill(&mut self, steps: &mut u64) -> Option<(usize, bool)> {
        let nchunks = self.chunks();
        let start = (self.rotation % nchunks as u64) as usize;
        self.rotation = self.rotation.wrapping_add(1);
        let mut best: Option<(u32, usize)> = None; // (wear bucket, chunk)
        let mut fullest: Option<(u32, usize)> = None; // (free, chunk)
        for step in 0..nchunks {
            let ci = (start + step) % nchunks;
            *steps += 1;
            let free = self.chunk_free[ci];
            if free == 0 {
                continue;
            }
            if fullest.is_none_or(|(f, _)| free > f) {
                fullest = Some((free, ci));
            }
            if free >= REFILL_MIN_FREE {
                let bucket = self.chunk_allocs[ci] >> WEAR_BUCKET_SHIFT;
                // Strictly-less keeps the first (cursor-nearest) chunk of
                // the winning bucket: the rotation tie-break.
                if best.is_none_or(|(b, _)| bucket < b) {
                    best = Some((bucket, ci));
                }
            }
        }
        match best {
            Some((_, ci)) => Some((ci, false)),
            None => fullest.map(|(_, ci)| (ci, true)),
        }
    }

    /// Allocate in wear-rotation order: claim the lowest free line of the
    /// reserved chunk, refilling from the upper level (wear-rotated) when
    /// the chunk drains or spends its budget, and stealing the fullest
    /// chunk only when no refill candidate is comfortable. Returns `None`
    /// when the map is exhausted.
    ///
    /// Placement is wear-rotation order, **not** home order — callers that
    /// need the flat scan's placement use [`FsmTree::allocate`].
    pub fn allocate_rotating(&mut self) -> Option<u64> {
        let mut steps = 0u64;
        loop {
            if let Some(ci) = self.reserved {
                if self.budget > 0 {
                    if let Some(line) = self.claim_in_words(Self::chunk_words(ci), &mut steps) {
                        self.budget -= 1;
                        self.note_claim(ci, steps + 1);
                        return Some(line);
                    }
                }
                // Drained, or budget spent: retire the chunk so churn
                // rotates even when frees keep it non-empty.
                self.reserved = None;
            }
            let Some((ci, stole)) = self.pick_refill(&mut steps) else {
                self.stats.scan_steps += steps;
                return None;
            };
            self.reserved = Some(ci);
            self.budget = 1u32 << WEAR_BUCKET_SHIFT;
            self.stats.refills += 1;
            if stole {
                self.stats.steals += 1;
            }
        }
    }

    /// Visit every occupied line, in ascending order, without allocating.
    pub fn for_each_occupied<F: FnMut(u64)>(&self, mut f: F) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut taken = !w;
            while taken != 0 {
                let line = wi as u64 * WORD_BITS + u64::from(taken.trailing_zeros());
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

    /// The allocator counters.
    pub fn stats(&self) -> FsmStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat word scan `allocate` must reproduce: the home word's free
    /// bits at or after the home bit, then its lowest free bit, then each
    /// following word's lowest free bit, wrapping.
    fn flat_allocate(words: &mut [u64], lines: u64, home: u64) -> Option<u64> {
        let home_word = (home / WORD_BITS) as usize;
        for step in 0..words.len() {
            let wi = (home_word + step) % words.len();
            let min_bit = if step == 0 { home % WORD_BITS } else { 0 };
            let word = words[wi];
            if word == 0 {
                continue;
            }
            let at_or_after = word & (!0u64 << min_bit);
            let pick = if at_or_after != 0 { at_or_after } else { word };
            let bit = u64::from(pick.trailing_zeros());
            words[wi] &= !(1u64 << bit);
            let line = wi as u64 * WORD_BITS + bit;
            assert!(line < lines, "oracle handed out tail line {line}");
            return Some(line);
        }
        None
    }

    #[test]
    fn allocates_home_first() {
        let mut t = FsmTree::new(8);
        assert_eq!(t.free_lines(), 8);
        assert_eq!(t.allocate(3), Some(3));
        assert!(!t.is_free(3));
        assert_eq!(t.free_lines(), 7);
        assert_eq!(t.stats().claims, 1);
    }

    #[test]
    fn scans_forward_then_wraps() {
        let mut t = FsmTree::new(4);
        assert!(t.occupy(1));
        assert_eq!(t.allocate(1), Some(2));
        let mut t = FsmTree::new(4);
        assert!(t.occupy(3));
        assert!(t.occupy(0));
        // Home word exhausted at/after 3 → falls back to lowest free bit.
        assert_eq!(t.allocate(3), Some(1));
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut t = FsmTree::new(130);
        for i in 0..64 {
            assert!(t.occupy(i));
        }
        assert_eq!(t.allocate(0), Some(64));
        for i in 64..130 {
            t.occupy(i);
        }
        assert_eq!(t.free_lines(), 0);
        assert_eq!(t.allocate(129), None);
        assert!(t.release(127));
        assert_eq!(t.allocate(0), Some(127));
    }

    #[test]
    fn placement_matches_flat_bitmap_under_churn() {
        // Home mode must pick the exact line a flat word scan picks, claim
        // for claim, under an interleaved occupy/release/allocate script
        // spanning several chunks.
        let lines = 3 * CHUNK_LINES + 77;
        let mut tree = FsmTree::new(lines);
        let mut flat = vec![!0u64; lines.div_ceil(WORD_BITS) as usize];
        *flat.last_mut().unwrap() = (1u64 << (lines % WORD_BITS)) - 1;
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
                    let line = tree.allocate(home);
                    assert_eq!(
                        line,
                        flat_allocate(&mut flat, lines, home),
                        "round {round}: home {home} placement diverged"
                    );
                    held.extend(line);
                }
                2 if !held.is_empty() => {
                    let line = held.swap_remove((rng() % held.len() as u64) as usize);
                    assert!(tree.release(line));
                    flat[(line / WORD_BITS) as usize] |= 1u64 << (line % WORD_BITS);
                }
                _ => {
                    let line = rng() % lines;
                    let mask = 1u64 << (line % WORD_BITS);
                    let word = &mut flat[(line / WORD_BITS) as usize];
                    assert_eq!(tree.occupy(line), *word & mask != 0, "round {round}");
                    if *word & mask != 0 {
                        *word &= !mask;
                        held.push(line);
                    }
                }
            }
        }
        let flat_free: u64 = flat.iter().map(|w| u64::from(w.count_ones())).sum();
        assert_eq!(tree.free_lines(), flat_free);
        held.sort_unstable();
        assert_eq!(tree.occupied(), held);
    }

    #[test]
    fn counters_skip_drained_chunks() {
        let lines = 4 * CHUNK_LINES;
        let mut t = FsmTree::new(lines);
        // Drain every line but the last one.
        for line in 0..(lines - 1) {
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
        let mut t = FsmTree::new(3);
        let got: Vec<_> = (0..3).map(|_| t.allocate(0).unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(t.allocate(2), None);
        assert_eq!(t.allocate_rotating(), None);
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
        let mut t = FsmTree::new(4 * CHUNK_LINES);
        let chunk = t.allocate_rotating().unwrap() / CHUNK_LINES;
        for _ in 0..(CHUNK_LINES - 1) {
            let line = t.allocate_rotating().unwrap();
            assert_eq!(
                line / CHUNK_LINES,
                chunk,
                "claim left the reserved chunk while it still had space"
            );
        }
        assert_eq!(t.stats().refills, 1, "one refill covers a whole chunk");
        // The chunk is dry now: the next claim refills elsewhere.
        let line = t.allocate_rotating().unwrap();
        assert_eq!(t.stats().refills, 2);
        assert_ne!(line / CHUNK_LINES, chunk);
    }

    #[test]
    fn wear_rotation_cycles_chunks_under_churn() {
        // Alloc/free churn: once a chunk absorbs a bucket's worth of
        // claims, refills must move on even though the just-freed chunk
        // has the most free space.
        let nchunks = 4u64;
        let mut t = FsmTree::new(nchunks * CHUNK_LINES);
        let mut used = std::collections::BTreeSet::new();
        // Each full drain+free of a chunk is CHUNK_LINES claims = 1 wear
        // bucket; 4 cycles must therefore touch every chunk.
        for _ in 0..(nchunks * CHUNK_LINES) {
            let line = t.allocate_rotating().unwrap();
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
        let mut t = FsmTree::new(3 * CHUNK_LINES);
        // Leave fewer than REFILL_MIN_FREE lines in every chunk: 8 free in
        // chunk 0, 16 free in chunk 1, chunk 2 full.
        for line in 8..CHUNK_LINES {
            assert!(t.occupy(line));
        }
        for line in (CHUNK_LINES + 16)..(3 * CHUNK_LINES) {
            assert!(t.occupy(line));
        }
        let line = t.allocate_rotating().unwrap();
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
    fn rotating_allocations_are_unique() {
        // Drain a multi-chunk map through rotation alone: every line is
        // handed out exactly once, tail bits never, and each claim counts.
        let lines = 16 * CHUNK_LINES + 37;
        let mut t = FsmTree::new(lines);
        let mut seen = vec![false; lines as usize];
        while let Some(line) = t.allocate_rotating() {
            assert!(!seen[line as usize], "line {line} double-allocated");
            seen[line as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(t.free_lines(), 0);
        assert_eq!(t.stats().claims, lines);
    }

    #[test]
    fn mixed_churn_preserves_free_count() {
        // Rotating and home-mode claims interleaved with releases keep
        // the per-chunk counters conserved.
        let lines = 4 * CHUNK_LINES;
        let mut t = FsmTree::new(lines);
        for round in 0..8_000u64 {
            let line = if round % 2 == 0 {
                t.allocate_rotating()
            } else {
                t.allocate((round * 37) % lines)
            };
            assert!(t.release(line.unwrap()), "we owned it");
        }
        assert_eq!(t.free_lines(), lines);
        assert!(t.occupied().is_empty());
        assert_eq!(t.stats().claims, 8_000);
    }

    #[test]
    fn exhaustion_and_release() {
        let mut t = FsmTree::new(2);
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
        let mut t = FsmTree::new(CHUNK_LINES + 70);
        t.occupy(0);
        t.occupy(65);
        t.occupy(CHUNK_LINES + 69);
        assert_eq!(t.occupied(), vec![0, 65, CHUNK_LINES + 69]);
        let mut seen = Vec::new();
        t.for_each_occupied(|l| seen.push(l));
        assert_eq!(seen, t.occupied());
    }

    #[test]
    fn clone_copies_occupancy() {
        let mut t = FsmTree::new(700);
        for line in [0u64, 63, 64, 511, 512, 699] {
            t.occupy(line);
        }
        let mut copy = t.clone();
        assert_eq!(copy.occupied(), t.occupied());
        assert_eq!(copy.stats(), t.stats());
        let line = copy.allocate(0).unwrap();
        assert!(t.is_free(line), "clone shares state with the original");
        assert_eq!(t.free_lines(), copy.free_lines() + 1);
    }
}
