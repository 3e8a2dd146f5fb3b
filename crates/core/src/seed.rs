//! The seed (pre-flat) map-backed dedup structures, retained verbatim as
//! **oracles**.
//!
//! These are the `HashMap`-based implementations the flat SwissTable-style
//! layer in [`crate::tables`] replaced. They are compiled for tests only,
//! as the oracles of the differential proptests in `tables.rs`, which drive
//! identical op sequences through a seed table and a flat table and assert
//! identical observable state at every step.

use std::collections::HashMap;

use dewrite_nvm::LineAddr;

use crate::tables::{HashEntry, MAX_REFERENCE};

/// Seed digest-indexed duplicate-lookup table: one heap `Vec` bucket per
/// digest, `swap_remove` deletes.
#[derive(Debug, Clone, Default)]
pub struct SeedHashTable {
    buckets: HashMap<u64, Vec<HashEntry>>,
    entries: usize,
    collision_buckets: u64,
    saturated_hits: u64,
}

impl SeedHashTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// All entries whose content hashes to `digest`, in bucket order.
    pub fn candidates(&self, digest: u64) -> &[HashEntry] {
        self.buckets.get(&digest).map_or(&[], Vec::as_slice)
    }

    /// Insert a new resident line with reference count 1.
    ///
    /// # Panics
    ///
    /// Panics if `real` is already present under `digest`.
    pub fn insert(&mut self, digest: u64, real: LineAddr) {
        self.insert_with_reference(digest, real, 1);
    }

    /// Recovery-path insert with an explicit starting reference.
    ///
    /// # Panics
    ///
    /// Panics if `real` is already present under `digest`.
    pub fn insert_with_reference(&mut self, digest: u64, real: LineAddr, reference: u8) {
        let bucket = self.buckets.entry(digest).or_default();
        assert!(
            !bucket.iter().any(|e| e.real == real),
            "line {real} already indexed under digest {digest:#x}"
        );
        bucket.push(HashEntry { real, reference });
        if bucket.len() == 2 {
            self.collision_buckets += 1;
        }
        self.entries += 1;
    }

    /// Increment the reference of `real` under `digest`; `false` when
    /// saturated.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn add_reference(&mut self, digest: u64, real: LineAddr) -> bool {
        let entry = self
            .buckets
            .get_mut(&digest)
            .and_then(|b| b.iter_mut().find(|e| e.real == real))
            .expect("add_reference on missing hash entry");
        if entry.reference == MAX_REFERENCE {
            self.saturated_hits += 1;
            return false;
        }
        entry.reference += 1;
        true
    }

    /// Decrement the reference of `real` under `digest`, removing at zero.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn release_reference(&mut self, digest: u64, real: LineAddr) -> u8 {
        let bucket = self
            .buckets
            .get_mut(&digest)
            .expect("release_reference on missing digest");
        let idx = bucket
            .iter()
            .position(|e| e.real == real)
            .expect("release_reference on missing hash entry");
        let entry = &mut bucket[idx];
        if entry.reference == MAX_REFERENCE {
            return MAX_REFERENCE;
        }
        entry.reference -= 1;
        let remaining = entry.reference;
        if remaining == 0 {
            bucket.swap_remove(idx);
            self.entries -= 1;
            if bucket.is_empty() {
                self.buckets.remove(&digest);
            }
        }
        remaining
    }

    /// Remove the entry for `real` under `digest` regardless of references.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not exist.
    pub fn remove(&mut self, digest: u64, real: LineAddr) {
        let bucket = self
            .buckets
            .get_mut(&digest)
            .expect("remove on missing digest");
        let idx = bucket
            .iter()
            .position(|e| e.real == real)
            .expect("remove on missing hash entry");
        bucket.swap_remove(idx);
        self.entries -= 1;
        if bucket.is_empty() {
            self.buckets.remove(&digest);
        }
    }

    /// The reference count of `real` under `digest`, if present.
    pub fn reference(&self, digest: u64, real: LineAddr) -> Option<u8> {
        self.buckets
            .get(&digest)?
            .iter()
            .find(|e| e.real == real)
            .map(|e| e.reference)
    }

    /// Total entries across all buckets.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Buckets that ever held ≥2 entries.
    pub fn collision_buckets(&self) -> u64 {
        self.collision_buckets
    }

    /// Duplicate detections skipped because the entry was saturated.
    pub fn saturated_hits(&self) -> u64 {
        self.saturated_hits
    }
}

/// Seed realAddr → digest table (std `HashMap`).
#[derive(Debug, Clone, Default)]
pub struct SeedInvertedTable {
    map: HashMap<u64, u64>,
}

impl SeedInvertedTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The digest of the content resident at `real`, if any.
    pub fn digest_of(&self, real: LineAddr) -> Option<u64> {
        self.map.get(&real.index()).copied()
    }

    /// Record that `real` now holds content with `digest`.
    pub fn set(&mut self, real: LineAddr, digest: u64) {
        self.map.insert(real.index(), digest);
    }

    /// Clear the record for `real`. Returns the stale digest.
    pub fn clear(&mut self, real: LineAddr) -> Option<u64> {
        self.map.remove(&real.index())
    }

    /// Number of resident (hash-indexed) lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }
}
