//! Differential property testing for the free-space managers: under any
//! quiesced (single-threaded) script of occupy/release/allocate calls the
//! hierarchical [`FsmTree`] must be indistinguishable from the flat
//! [`AtomicBitmap`] — same placement decisions, same occupancy, same free
//! counts — and both must agree on occupancy with the sequential seed
//! [`FreeSpaceTable`].
//!
//! The bitmap is the *placement* oracle: `FsmTree::allocate` visits words
//! in exactly the flat scan order, so every allocation must land on the
//! identical line. The seed table scans line-by-line rather than
//! word-by-word, so its own `allocate` picks different lines; it serves
//! as an *occupancy* oracle instead, mirroring whatever line the
//! lock-free structures chose.
//!
//! The last property pins the owner (`&mut self`) entry points to the
//! shared (`&self`) ones: one script through both legs of each structure
//! must leave no observable difference.

use dewrite_core::tables::FreeSpaceTable;
use dewrite_nvm::{AtomicBitmap, FsmTree, LineAddr, Reservation};
use proptest::prelude::*;

/// Deliberately not a multiple of `CHUNK_LINES` (512) so every script
/// exercises the masked tail bits of the last chunk.
const LINES: u64 = 2 * 512 + 77;

#[derive(Debug, Clone)]
enum FsmOp {
    /// Occupy a specific line (idempotent on all three structures).
    Occupy(u64),
    /// Release a specific line (idempotent on all three structures).
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

/// Assert the three structures agree bit-for-bit and count-for-count.
fn assert_quiesced_equivalent(tree: &FsmTree, bitmap: &AtomicBitmap, seed: &FreeSpaceTable) {
    assert_eq!(
        tree.free_lines(),
        bitmap.free_lines(),
        "free count vs bitmap"
    );
    assert_eq!(tree.free_lines(), seed.free_lines(), "free count vs seed");
    for line in 0..LINES {
        assert_eq!(
            tree.is_free(line),
            bitmap.is_free(line),
            "line {line} occupancy vs bitmap"
        );
        assert_eq!(
            tree.is_free(line),
            seed.is_free(LineAddr::new(line)),
            "line {line} occupancy vs seed"
        );
    }
    assert_eq!(
        tree.occupied(),
        bitmap.occupied(),
        "occupied snapshots diverge"
    );
}

proptest! {
    // Home-mode allocation: the tree must make the *same placement
    // decision* as the flat bitmap on every single call, not merely
    // converge to the same occupancy.
    #[test]
    fn tree_matches_bitmap_placement_and_seed_occupancy(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let tree = FsmTree::new(LINES);
        let bitmap = AtomicBitmap::new(LINES);
        let mut seed = FreeSpaceTable::new(LINES);
        for op in &ops {
            match *op {
                FsmOp::Occupy(line) => {
                    let t = tree.occupy(line);
                    let b = bitmap.occupy(line);
                    prop_assert_eq!(t, b, "occupy({}) outcome diverged", line);
                    seed.occupy(LineAddr::new(line));
                }
                FsmOp::Release(line) => {
                    let t = tree.release(line);
                    let b = bitmap.release(line);
                    prop_assert_eq!(t, b, "release({}) outcome diverged", line);
                    seed.release(LineAddr::new(line));
                }
                FsmOp::Allocate(home) => {
                    let t = tree.allocate(home);
                    let b = bitmap.allocate(home);
                    prop_assert_eq!(t, b, "allocate({}) placement diverged", home);
                    if let Some(line) = t {
                        // Mirror into the seed table: its own scan order
                        // differs, so it only checks occupancy.
                        seed.occupy(LineAddr::new(line));
                    }
                }
            }
        }
        assert_quiesced_equivalent(&tree, &bitmap, &seed);
    }

    // Reserved-mode allocation trades placement identity for an
    // uncontended fast path, so the bitmap stops being a placement
    // oracle — but occupancy and conservation must still hold exactly,
    // with the seed table mirroring every claim.
    #[test]
    fn reserved_mode_preserves_occupancy_and_counts(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let tree = FsmTree::new(LINES);
        let mut seed = FreeSpaceTable::new(LINES);
        let mut reservation = Reservation::new();
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
                    if let Some(line) = tree.allocate_reserved(&mut reservation) {
                        prop_assert!(line < LINES, "claimed tail line {}", line);
                        prop_assert!(seed.is_free(LineAddr::new(line)),
                            "double-claimed line {}", line);
                        seed.occupy(LineAddr::new(line));
                        claims += 1;
                    } else {
                        prop_assert_eq!(tree.free_lines(), 0,
                            "reserved allocation failed with free lines left");
                    }
                }
            }
            prop_assert_eq!(tree.free_lines(), seed.free_lines());
        }
        for line in 0..LINES {
            prop_assert_eq!(tree.is_free(line), seed.is_free(LineAddr::new(line)));
        }
        tree.drain_reservation_stats(&mut reservation);
        prop_assert_eq!(tree.stats().claims, claims, "claim stats drifted");
    }

    // `from_bitmap` must reproduce the donor's occupancy exactly, and a
    // clone must be an independent copy (mutating one leaves the other
    // untouched).
    #[test]
    fn from_bitmap_and_clone_copy_occupancy(
        occupied in proptest::collection::vec(0..LINES, 0..200)
    ) {
        let bitmap = AtomicBitmap::new(LINES);
        for &line in &occupied {
            bitmap.occupy(line);
        }
        let tree = FsmTree::from_bitmap(&bitmap);
        prop_assert_eq!(tree.free_lines(), bitmap.free_lines());
        prop_assert_eq!(tree.occupied(), bitmap.occupied());

        let copy = tree.clone();
        if let Some(line) = tree.allocate(0) {
            prop_assert!(copy.is_free(line), "clone shares state with original");
            prop_assert_eq!(copy.free_lines(), tree.free_lines() + 1);
        }
    }

    // The owner entry points run the shared ones' algorithm with a plain
    // load + store where those use a `fetch_*`: one script through both
    // legs must claim the same line every time and leave the same
    // occupancy, free counts and allocator counters.
    #[test]
    fn owner_ops_match_shared_ops(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let (shared_home, mut owner_home) = (FsmTree::new(LINES), FsmTree::new(LINES));
        let (shared_wear, mut owner_wear) = (FsmTree::new(LINES), FsmTree::new(LINES));
        let (mut shared_r, mut owner_r) = (Reservation::new(), Reservation::new());
        let (shared_flat, mut owner_flat) = (AtomicBitmap::new(LINES), AtomicBitmap::new(LINES));
        for op in &ops {
            match *op {
                // `occupy` has no owner twin (the shard never claims a
                // named line); it sets up identical occupancy on both.
                FsmOp::Occupy(line) => {
                    for tree in [&shared_home, &owner_home, &shared_wear, &owner_wear] {
                        tree.occupy(line);
                    }
                    shared_flat.occupy(line);
                    owner_flat.occupy(line);
                }
                FsmOp::Release(line) => {
                    prop_assert_eq!(shared_home.release(line), owner_home.release_mut(line));
                    prop_assert_eq!(shared_wear.release(line), owner_wear.release_mut(line));
                    prop_assert_eq!(shared_flat.release(line), owner_flat.release_mut(line));
                }
                FsmOp::Allocate(home) => {
                    prop_assert_eq!(shared_home.allocate(home), owner_home.allocate_mut(home));
                    prop_assert_eq!(
                        shared_wear.allocate_reserved(&mut shared_r),
                        owner_wear.allocate_reserved_mut(&mut owner_r)
                    );
                    prop_assert_eq!(shared_flat.allocate(home), owner_flat.allocate_mut(home));
                }
            }
        }
        shared_wear.drain_reservation_stats(&mut shared_r);
        owner_wear.drain_reservation_stats(&mut owner_r);
        for (shared, owner) in [(&shared_home, &owner_home), (&shared_wear, &owner_wear)] {
            prop_assert_eq!(shared.free_lines(), owner.free_lines());
            prop_assert_eq!(shared.occupied(), owner.occupied());
            prop_assert_eq!(shared.stats(), owner.stats());
            for chunk in 0..shared.chunks() {
                prop_assert_eq!(shared.chunk_free_lines(chunk), owner.chunk_free_lines(chunk));
                prop_assert_eq!(shared.chunk_allocs(chunk), owner.chunk_allocs(chunk));
            }
        }
        prop_assert_eq!(shared_r.chunk(), owner_r.chunk());
        prop_assert_eq!(shared_flat.free_lines(), owner_flat.free_lines());
        prop_assert_eq!(shared_flat.occupied(), owner_flat.occupied());
    }
}
