//! Differential property testing for the free-space manager: under any
//! script of occupy/release/allocate calls the two-level [`FsmTree`] must
//! be indistinguishable from a flat one-bit-per-line word scan — same
//! placement decisions, same occupancy, same free counts — and must agree
//! on occupancy with the simulator's sequential [`FreeSpaceTable`].
//!
//! The flat scan is the *placement* oracle: `FsmTree::allocate` visits
//! words in exactly the flat order, so every allocation must land on the
//! identical line. The seed table scans line by line rather than word by
//! word, so its own `allocate` picks different lines; it serves as an
//! *occupancy* oracle instead, mirroring whatever line the tree chose.

use dewrite_core::tables::FreeSpaceTable;
use dewrite_nvm::{FsmTree, LineAddr};
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

    /// Clear `line`'s bit; whether it was free.
    fn occupy(&mut self, line: u64) -> bool {
        let (wi, mask) = Self::bit(line);
        let was_free = self.words[wi] & mask != 0;
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
}

#[derive(Debug, Clone)]
enum FsmOp {
    /// Occupy a specific line (idempotent on every structure).
    Occupy(u64),
    /// Release a specific line (idempotent on every structure).
    Release(u64),
    /// Allocate with a home-line preference.
    Allocate(u64),
}

fn op_strategy() -> impl Strategy<Value = FsmOp> {
    // The Allocate arm appears twice to weight scripts toward
    // allocation, so they drain regions and hit the chunk-skip path
    // rather than just toggling individual bits.
    prop_oneof![
        (0..LINES).prop_map(FsmOp::Occupy),
        (0..LINES).prop_map(FsmOp::Release),
        (0..LINES).prop_map(FsmOp::Allocate),
        (0..LINES).prop_map(FsmOp::Allocate),
    ]
}

/// Assert the tree agrees with the seed table line for line and count for
/// count.
fn assert_same_occupancy(tree: &FsmTree, seed: &FreeSpaceTable) {
    assert_eq!(tree.free_lines(), seed.free_lines(), "free count vs seed");
    for line in 0..LINES {
        assert_eq!(
            tree.is_free(line),
            seed.is_free(LineAddr::new(line)),
            "line {line} occupancy vs seed"
        );
    }
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
        let mut seed = FreeSpaceTable::new(LINES);
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    prop_assert_eq!(tree.occupy(line), flat.occupy(line),
                        "occupy({}) outcome diverged", line);
                    seed.occupy(LineAddr::new(line));
                }
                FsmOp::Release(line) => {
                    prop_assert_eq!(tree.release(line), flat.release(line),
                        "release({}) outcome diverged", line);
                    seed.release(LineAddr::new(line));
                }
                FsmOp::Allocate(home) => {
                    let t = tree.allocate(home);
                    prop_assert_eq!(t, flat.allocate(home), "allocate({}) placement diverged", home);
                    if let Some(line) = t {
                        // Mirror into the seed table: its own scan order
                        // differs, so it only checks occupancy.
                        seed.occupy(LineAddr::new(line));
                    }
                }
            }
        }
        assert_same_occupancy(&tree, &seed);
        prop_assert_eq!(pristine.free_lines(), LINES, "clone shares state with the original");
        prop_assert!(pristine.occupied().is_empty());
    }

    // Rotating allocation trades placement identity for wear rotation, so
    // the flat scan stops being a placement oracle — but occupancy,
    // conservation and the claim count must still hold exactly, with the
    // seed table mirroring every claim.
    #[test]
    fn rotating_mode_preserves_occupancy_and_counts(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let mut tree = FsmTree::new(LINES);
        let mut seed = FreeSpaceTable::new(LINES);
        let mut claims = 0u64;
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    if tree.occupy(line) {
                        claims += 1;
                    }
                    seed.occupy(LineAddr::new(line));
                }
                FsmOp::Release(line) => {
                    tree.release(line);
                    seed.release(LineAddr::new(line));
                }
                FsmOp::Allocate(_) => {
                    if let Some(line) = tree.allocate_rotating() {
                        prop_assert!(line < LINES, "claimed tail line {}", line);
                        prop_assert!(seed.is_free(LineAddr::new(line)),
                            "double-claimed line {}", line);
                        seed.occupy(LineAddr::new(line));
                        claims += 1;
                    } else {
                        prop_assert_eq!(tree.free_lines(), 0,
                            "rotating allocation failed with free lines left");
                    }
                }
            }
            prop_assert_eq!(tree.free_lines(), seed.free_lines());
        }
        assert_same_occupancy(&tree, &seed);
        prop_assert_eq!(tree.stats().claims, claims, "claim stats drifted");
    }
}
