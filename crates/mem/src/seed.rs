//! The seed (pre-flat) metadata cache, retained verbatim as an **oracle**.
//!
//! This is the `Vec<Vec<Way>>` implementation the flat tag/way-array cache
//! in [`crate::cache`] replaced. It is compiled for tests only, as the
//! oracle of the differential proptests in `cache.rs`.

use crate::cache::{CacheConfig, CacheStats, Evicted, Replacement};

#[derive(Debug, Clone)]
struct Way {
    key: u64,
    dirty: bool,
    stamp: u64,
}

/// Seed set-associative write-back metadata cache: one heap `Vec` per set,
/// linearly scanned, `swap_remove` evictions.
#[derive(Debug, Clone)]
pub struct SeedMetadataCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
    stats: CacheStats,
}

impl SeedMetadataCache {
    /// Create an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if capacity or associativity is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be nonzero");
        assert!(config.associativity > 0, "associativity must be nonzero");
        let num_sets = (config.capacity / config.associativity).max(1);
        let sets = vec![Vec::with_capacity(config.associativity); num_sets];
        SeedMetadataCache {
            config,
            sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets.len()
    }

    /// Demand lookup; on a hit refreshes recency (LRU) and ORs the dirty
    /// bit. Returns whether it hit.
    pub fn access(&mut self, key: u64, write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let is_lru = self.config.replacement == Replacement::Lru;
        let set = self.set_of(key);
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.key == key) {
            if is_lru {
                way.stamp = clock;
            }
            way.dirty |= write;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Whether `key` is resident (no statistics side effects).
    pub fn contains(&self, key: u64) -> bool {
        self.dirty_bit(key).is_some()
    }

    /// `key`'s dirty bit, or `None` if it is not resident.
    pub fn dirty_bit(&self, key: u64) -> Option<bool> {
        let set = self.set_of(key);
        self.sets[set]
            .iter()
            .find(|w| w.key == key)
            .map(|w| w.dirty)
    }

    /// Insert `key` (demand fill). Returns the victim if one was evicted.
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<Evicted> {
        self.stats.demand_inserts += 1;
        self.insert_inner(key, dirty)
    }

    /// Insert a run of `count` sequential keys starting at `start`.
    /// Resident keys get the same policy-aware touch as the flat cache
    /// (LRU re-stamp, no accounting). Returns the number of dirty victims
    /// evicted.
    pub fn prefetch_run(&mut self, start: u64, count: usize) -> u64 {
        let mut dirty_victims = 0;
        let is_lru = self.config.replacement == Replacement::Lru;
        for k in 0..count as u64 {
            let Some(key) = start.checked_add(k) else {
                break;
            };
            let set = self.set_of(key);
            if let Some(way) = self.sets[set].iter_mut().find(|w| w.key == key) {
                if is_lru {
                    self.clock += 1;
                    way.stamp = self.clock;
                }
            } else {
                self.stats.prefetch_inserts += 1;
                if let Some(ev) = self.insert_inner(key, false) {
                    if ev.dirty {
                        dirty_victims += 1;
                    }
                }
            }
        }
        dirty_victims
    }

    fn insert_inner(&mut self, key: u64, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(key);
        let assoc = self.config.associativity;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.key == key) {
            way.dirty |= dirty;
            way.stamp = clock;
            return None;
        }

        let victim = if set.len() >= assoc {
            let idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("set is nonempty");
            let w = set.swap_remove(idx);
            if w.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some(Evicted {
                key: w.key,
                dirty: w.dirty,
            })
        } else {
            None
        };

        set.push(Way {
            key,
            dirty,
            stamp: clock,
        });
        victim
    }

    /// Clear every dirty bit, returning how many entries were dirty.
    pub fn flush_dirty(&mut self) -> u64 {
        let mut flushed = 0;
        for set in &mut self.sets {
            for way in set.iter_mut() {
                if way.dirty {
                    way.dirty = false;
                    flushed += 1;
                }
            }
        }
        flushed
    }

    /// Number of currently dirty entries.
    pub fn dirty_count(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .filter(|w| w.dirty)
            .count() as u64
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
