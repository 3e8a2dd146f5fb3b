//! Differential property testing for the free-space manager: under any
//! script of occupy/release/allocate calls the two-level [`FsmTree`] must
//! be indistinguishable from a flat one-bit-per-line word scan — same
//! placement decisions, same occupancy, same free counts.
//!
//! The flat scan is the *placement* oracle of `FsmTree::allocate` (the
//! shard's and the replay's word order) and the *occupancy* oracle of the
//! rotating mode, which mirrors whatever line the tree chose. The
//! simulator's line-order claim, `FsmTree::allocate_within`, is checked
//! call by call against a line-by-line scan of the flat oracle.

use dewrite_nvm::FsmTree;
use proptest::prelude::*;

/// Deliberately not a multiple of `CHUNK_LINES` (512) so every script
/// exercises the masked tail bits of the last chunk.
const LINES: u64 = 2 * 512 + 77;

/// A flat free-space bitmap (`1` bit = free): the placement oracle.
struct FlatOracle {
    words: Vec<u64>,
}

impl FlatOracle {
    fn new() -> Self {
        let mut words = vec![!0u64; LINES.div_ceil(64) as usize];
        *words.last_mut().unwrap() = (1u64 << (LINES % 64)) - 1;
        FlatOracle { words }
    }

    fn bit(line: u64) -> (usize, u64) {
        ((line / 64) as usize, 1u64 << (line % 64))
    }

    fn free_lines(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn is_free(&self, line: u64) -> bool {
        let (wi, mask) = Self::bit(line);
        self.words[wi] & mask != 0
    }

    /// Clear `line`'s bit; whether it was free.
    fn occupy(&mut self, line: u64) -> bool {
        let was_free = self.is_free(line);
        let (wi, mask) = Self::bit(line);
        self.words[wi] &= !mask;
        was_free
    }

    /// Set `line`'s bit; whether it was occupied.
    fn release(&mut self, line: u64) -> bool {
        let (wi, mask) = Self::bit(line);
        let was_taken = self.words[wi] & mask == 0;
        self.words[wi] |= mask;
        was_taken
    }

    /// The home word's free bits at or after the home bit, then its
    /// lowest free bit, then each following word's lowest, wrapping.
    fn allocate(&mut self, home: u64) -> Option<u64> {
        let n = self.words.len();
        let home_word = (home / 64) as usize;
        (0..n).find_map(|step| {
            let wi = (home_word + step) % n;
            let word = self.words[wi];
            let min_bit = if step == 0 { home % 64 } else { 0 };
            let at_or_after = word & (!0u64 << min_bit);
            let pick = if at_or_after != 0 { at_or_after } else { word };
            (pick != 0).then(|| {
                let line = wi as u64 * 64 + u64::from(pick.trailing_zeros());
                self.occupy(line);
                line
            })
        })
    }

    /// The line-scan rule `allocate_within` must reproduce: the first
    /// free line of `home..hi`, then of `lo..home`.
    fn allocate_within(&mut self, home: u64, lo: u64, hi: u64) -> Option<u64> {
        let line = (home..hi).chain(lo..home).find(|&l| self.is_free(l))?;
        self.occupy(line);
        Some(line)
    }
}

#[derive(Debug, Clone)]
enum FsmOp {
    /// Occupy a specific line (idempotent on every structure).
    Occupy(u64),
    /// Release a specific line (idempotent on every structure).
    Release(u64),
    /// Allocate with a home-line preference: over the whole map, or (line
    /// order) within `lo..hi`, `lo <= home < hi`.
    Allocate { home: u64, lo: u64, hi: u64 },
}

fn op_strategy() -> impl Strategy<Value = FsmOp> {
    // The Allocate arm appears twice to weight scripts toward
    // allocation, so they drain regions and hit the chunk-skip path
    // rather than just toggling individual bits. Uniform bounds fall off
    // word and chunk boundaries almost always, and on them now and then.
    let allocate = (0..LINES, 0..LINES, 0..LINES).prop_map(|(home, a, b)| FsmOp::Allocate {
        home,
        lo: a % (home + 1),
        hi: home + 1 + b % (LINES - home),
    });
    prop_oneof![
        (0..LINES).prop_map(FsmOp::Occupy),
        (0..LINES).prop_map(FsmOp::Release),
        allocate.clone(),
        allocate,
    ]
}

/// Assert the tree agrees with the flat oracle line for line and count
/// for count.
fn assert_same_occupancy(tree: &FsmTree, flat: &FlatOracle) {
    let flat_occupied: Vec<u64> = (0..LINES).filter(|&l| !flat.is_free(l)).collect();
    assert_eq!(tree.occupied(), flat_occupied, "occupancy vs flat");
    assert_eq!(tree.free_lines(), flat.free_lines(), "free count vs flat");
}

proptest! {
    // Home-mode allocation: the tree must make the *same placement
    // decision* as the flat scan on every single call, not merely
    // converge to the same occupancy. A clone taken before the script
    // must not see any of it.
    #[test]
    fn tree_matches_flat_placement_and_seed_occupancy(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let mut tree = FsmTree::new(LINES);
        let pristine = tree.clone();
        let mut flat = FlatOracle::new();
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    prop_assert_eq!(tree.occupy(line), flat.occupy(line),
                        "occupy({}) outcome diverged", line);
                }
                FsmOp::Release(line) => {
                    prop_assert_eq!(tree.release(line), flat.release(line),
                        "release({}) outcome diverged", line);
                }
                FsmOp::Allocate { home, .. } => {
                    prop_assert_eq!(tree.allocate(home), flat.allocate(home),
                        "allocate({}) placement diverged", home);
                }
            }
        }
        assert_same_occupancy(&tree, &flat);
        prop_assert_eq!(pristine.free_lines(), LINES, "clone shares state with the original");
        prop_assert!(pristine.occupied().is_empty());
    }

    // Line-order allocation, the simulator's claim: the first free line
    // of `home..hi`, then of `lo..home`, call by call. `drained` empties
    // whole chunks first, so scans cross chunks the counters skip.
    #[test]
    fn line_order_claims_match_a_line_scan(
        drained in proptest::collection::vec(any::<bool>(), 3),
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let mut tree = FsmTree::new(LINES);
        let mut flat = FlatOracle::new();
        for line in (0..LINES).filter(|line| drained[(line / 512) as usize]) {
            tree.occupy(line);
            flat.occupy(line);
        }
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    tree.occupy(line);
                    flat.occupy(line);
                }
                FsmOp::Release(line) => {
                    tree.release(line);
                    flat.release(line);
                }
                FsmOp::Allocate { home, lo, hi } => {
                    prop_assert_eq!(tree.allocate_within(home, lo, hi),
                        flat.allocate_within(home, lo, hi),
                        "allocate_within({}, {}, {}) placement diverged", home, lo, hi);
                }
            }
        }
        assert_same_occupancy(&tree, &flat);
    }

    // Rotating allocation trades placement identity for wear rotation, so
    // the flat scan stops being a placement oracle — but occupancy,
    // conservation and the claim count must still hold exactly, with the
    // flat oracle mirroring every claim.
    #[test]
    fn rotating_mode_preserves_occupancy_and_counts(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let mut tree = FsmTree::new(LINES);
        let mut flat = FlatOracle::new();
        let mut claims = 0u64;
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    if tree.occupy(line) {
                        claims += 1;
                    }
                    flat.occupy(line);
                }
                FsmOp::Release(line) => {
                    tree.release(line);
                    flat.release(line);
                }
                FsmOp::Allocate { .. } => {
                    if let Some(line) = tree.allocate_rotating() {
                        prop_assert!(line < LINES, "claimed tail line {}", line);
                        prop_assert!(flat.occupy(line), "double-claimed line {}", line);
                        claims += 1;
                    } else {
                        prop_assert_eq!(tree.free_lines(), 0,
                            "rotating allocation failed with free lines left");
                    }
                }
            }
            prop_assert_eq!(tree.free_lines(), flat.free_lines());
        }
        assert_same_occupancy(&tree, &flat);
        prop_assert_eq!(tree.stats().claims, claims, "claim stats drifted");
    }
}
