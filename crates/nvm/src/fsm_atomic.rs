//! Lock-free free-space bitmap: the concurrent sibling of the sequential
//! FSM table.
//!
//! One bit per line (`1` = free), packed into `AtomicU64` words. Allocation
//! claims a bit with a `fetch_and` word update and releasing returns it
//! with `fetch_or` — a word-granular scan in the spirit of llfree-rs, with
//! no mutex (and no CAS loop over the whole map) on the allocation hot
//! path. Losing a race on a bit costs one reload of the same word, not a
//! rescan.
//!
//! Like [`FreeSpaceTable`] in `dewrite-core`, allocation prefers a
//! caller-provided *home* line and scans outward (wrapping) from it, so
//! dedup relocation keeps its locality even under concurrency.
//!
//! The map is safe to share across threads through its `&self` methods.
//! An exclusive owner calls the `&mut self` twins ([`AtomicBitmap::allocate_mut`],
//! [`AtomicBitmap::release_mut`]) instead: the same algorithm body, with
//! every lock-prefixed read-modify-write replaced by a plain load and
//! store (see [`Leaf`]). An uncontended `lock` RMW is not free — it also
//! drains the store buffer, so the caller's own still-missing stores
//! become a stall.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bits per bitmap word.
const WORD_BITS: u64 = 64;

/// How a free-space operation performs its read-modify-writes — the one
/// place the shared and the owner entry points of [`AtomicBitmap`] and
/// [`FsmTree`](crate::FsmTree) differ. Every operation has a single body,
/// generic over its leaf; each method returns the previous value, like the
/// `fetch_*` it stands for.
pub(crate) trait Leaf {
    fn and(word: &AtomicU64, mask: u64, order: Ordering) -> u64;
    fn or(word: &AtomicU64, mask: u64, order: Ordering) -> u64;
    fn add(counter: &AtomicU64, n: u64, order: Ordering) -> u64;
    fn sub(counter: &AtomicU64, n: u64, order: Ordering) -> u64;
    fn add32(counter: &AtomicU32, n: u32, order: Ordering) -> u32;
    fn sub32(counter: &AtomicU32, n: u32, order: Ordering) -> u32;
}

/// The `&self` leg: atomic `fetch_*`, correct under any sharing.
pub(crate) struct Shared;

/// The `&mut self` leg: a relaxed load and a relaxed store. Not atomic as
/// a pair, and does not need to be — only `&mut self` methods name this
/// leaf, and a `&mut` borrow proves no other thread can reach the map.
pub(crate) struct Owner;

macro_rules! leaf_ops {
    ($($name:ident($atomic:ty, $int:ty): $fetch:ident, $plain:expr;)*) => {
        impl Leaf for Shared {
            $(#[inline(always)]
            fn $name(a: &$atomic, v: $int, order: Ordering) -> $int {
                a.$fetch(v, order)
            })*
        }
        impl Leaf for Owner {
            $(#[inline(always)]
            fn $name(a: &$atomic, v: $int, _: Ordering) -> $int {
                let prev = a.load(Ordering::Relaxed);
                a.store($plain(prev, v), Ordering::Relaxed);
                prev
            })*
        }
    };
}

leaf_ops! {
    and(AtomicU64, u64): fetch_and, |p, v| p & v;
    or(AtomicU64, u64): fetch_or, |p, v| p | v;
    add(AtomicU64, u64): fetch_add, u64::wrapping_add;
    sub(AtomicU64, u64): fetch_sub, u64::wrapping_sub;
    add32(AtomicU32, u32): fetch_add, u32::wrapping_add;
    sub32(AtomicU32, u32): fetch_sub, u32::wrapping_sub;
}

/// A concurrent free-space bitmap over `lines` slots (`1` bit = free).
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    lines: u64,
    free_count: AtomicU64,
}

impl AtomicBitmap {
    /// All `lines` start free.
    pub fn new(lines: u64) -> Self {
        let nwords = lines.div_ceil(WORD_BITS).max(1) as usize;
        let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(!0u64)).collect();
        // Bits past `lines` must never be handed out: mark them occupied.
        let tail = lines % WORD_BITS;
        if tail != 0 {
            words[nwords - 1].store((1u64 << tail) - 1, Ordering::Relaxed);
        }
        if lines == 0 {
            words[0].store(0, Ordering::Relaxed);
        }
        AtomicBitmap {
            words,
            lines,
            free_count: AtomicU64::new(lines),
        }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Number of free lines (exact once concurrent operations quiesce;
    /// a live lower/upper-bound gauge while they run).
    pub fn free_lines(&self) -> u64 {
        self.free_count.load(Ordering::Acquire)
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
            self.free_count.fetch_sub(1, Ordering::AcqRel);
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
            L::add(&self.free_count, 1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// Allocate a free line, preferring `home`, then scanning words outward
    /// from it with wrap-around. Returns `None` when no line is free.
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
    /// same placement, no atomic RMW.
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
        let nwords = self.words.len();
        let home_word = (home / WORD_BITS) as usize;
        let home_bit = home % WORD_BITS;
        for step in 0..nwords {
            let wi = (home_word + step) % nwords;
            let mut word = self.words[wi].load(Ordering::Acquire);
            loop {
                if word == 0 {
                    break; // word exhausted; move on
                }
                // In the home word, prefer the home bit and its successors
                // so allocation stays near the requested line.
                let bit = if step == 0 {
                    let at_or_after = word & (!0u64 << home_bit);
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
                    L::sub(&self.free_count, 1, Ordering::AcqRel);
                    return Some(wi as u64 * WORD_BITS + bit);
                }
                // Lost the race for this bit; retry on the fresh view.
                word = prev & !mask;
            }
        }
        None
    }

    /// Visit every occupied line, in ascending order, without allocating —
    /// the scrub path iterates millions of residents and must not build an
    /// unbounded `Vec` first. Meaningful once concurrent operations have
    /// quiesced (scrub, reporting).
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
    /// over [`AtomicBitmap::for_each_occupied`] for callers that want a
    /// `Vec`).
    pub fn occupied(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_occupied(|line| out.push(line));
        out
    }
}

impl Clone for AtomicBitmap {
    fn clone(&self) -> Self {
        AtomicBitmap {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Acquire)))
                .collect(),
            lines: self.lines,
            free_count: AtomicU64::new(self.free_count.load(Ordering::Acquire)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_home_first() {
        let b = AtomicBitmap::new(8);
        assert_eq!(b.free_lines(), 8);
        assert_eq!(b.allocate(3), Some(3));
        assert!(!b.is_free(3));
        assert_eq!(b.free_lines(), 7);
    }

    #[test]
    fn scans_forward_then_wraps() {
        let b = AtomicBitmap::new(4);
        assert!(b.occupy(1));
        assert_eq!(b.allocate(1), Some(2));
        let b = AtomicBitmap::new(4);
        assert!(b.occupy(3));
        assert!(b.occupy(0));
        // Home word exhausted at/after 3 → falls back to lowest free bit.
        assert_eq!(b.allocate(3), Some(1));
    }

    #[test]
    fn crosses_word_boundaries() {
        let b = AtomicBitmap::new(130);
        for i in 0..64 {
            assert!(b.occupy(i));
        }
        assert_eq!(b.allocate(0), Some(64));
        for i in 64..130 {
            b.occupy(i);
        }
        assert_eq!(b.free_lines(), 0);
        assert_eq!(b.allocate(129), None);
        assert!(b.release(127));
        assert_eq!(b.allocate(0), Some(127));
    }

    #[test]
    fn exhaustion_and_release() {
        let b = AtomicBitmap::new(2);
        assert!(b.allocate(0).is_some());
        assert!(b.allocate(0).is_some());
        assert_eq!(b.allocate(0), None);
        assert_eq!(b.free_lines(), 0);
        assert!(b.release(1));
        assert!(!b.release(1), "double release must report");
        assert_eq!(b.free_lines(), 1);
        assert!(!b.occupy(0), "already occupied");
    }

    #[test]
    fn tail_bits_are_never_allocated() {
        let b = AtomicBitmap::new(3);
        let got: Vec<_> = (0..3).map(|_| b.allocate(0).unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(b.allocate(2), None);
    }

    #[test]
    fn occupied_snapshot() {
        let b = AtomicBitmap::new(70);
        b.occupy(0);
        b.occupy(65);
        assert_eq!(b.occupied(), vec![0, 65]);
    }

    #[test]
    fn concurrent_allocations_are_unique() {
        use std::sync::atomic::AtomicUsize;
        const LINES: u64 = 4096;
        let b = AtomicBitmap::new(LINES);
        let claimed: Vec<AtomicUsize> = (0..LINES).map(|_| AtomicUsize::new(0)).collect();
        let threads = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = &b;
                let claimed = &claimed;
                s.spawn(move || {
                    // Each thread hammers from its own home region.
                    let home = (t as u64 * LINES / threads as u64) % LINES;
                    while let Some(line) = b.allocate(home) {
                        let prev = claimed[line as usize].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "line {line} double-allocated");
                    }
                });
            }
        });
        assert_eq!(b.free_lines(), 0);
        assert!(claimed.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn concurrent_churn_preserves_free_count() {
        const LINES: u64 = 512;
        let b = AtomicBitmap::new(LINES);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    for round in 0..2_000u64 {
                        if let Some(line) = b.allocate((t * 128 + round) % LINES) {
                            assert!(b.release(line), "we owned it");
                        }
                    }
                });
            }
        });
        assert_eq!(b.free_lines(), LINES);
        assert!(b.occupied().is_empty());
    }
}
