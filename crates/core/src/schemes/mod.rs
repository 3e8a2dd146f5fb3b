//! Secure-NVMM scheme implementations.
//!
//! All schemes implement [`SecureMemory`]: a memory-controller front-end
//! over an [`NvmDevice`] that encrypts data lines and reports, per
//! operation, both the **critical-path latency** the core stalls on and the
//! **full completion time** including bank queueing — the two quantities the
//! paper's latency and IPC figures are built from.
//!
//! * [`CmeBaseline`] — the "traditional secure NVM" baseline: counter-mode
//!   encryption, counter cache, no deduplication.
//! * [`DeWrite`] — the paper's system: light-weight in-line dedup with
//!   prediction-based parallelism, PNA, and colocated metadata.
//! * [`TraditionalDedup`] — in-line dedup with a cryptographic fingerprint
//!   (SHA-1/MD5), the strawman of Table I.

mod cme;
mod dewrite;
mod shredder;
mod traditional;

pub use cme::CmeBaseline;
pub use dewrite::{DeWrite, DeWriteCacheStats, DeWriteMetrics};
pub use shredder::SilentShredder;
pub use traditional::TraditionalDedup;

use dewrite_mem::{CacheConfig, CacheStats, MetadataCache, Replacement};
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

/// Programmed-cell count for writing `new` over `old` under `encoding`.
pub(crate) fn encoded_flips(encoding: crate::config::BitEncoding, old: &[u8], new: &[u8]) -> u64 {
    use crate::config::BitEncoding;
    match encoding {
        BitEncoding::Raw => (new.len() * 8) as u64,
        BitEncoding::Dcw => crate::bitlevel::dcw_flips(old, new),
        BitEncoding::Fnw => crate::bitlevel::fnw_flips(old, new),
    }
}

/// Latency of direct (block-cipher) en/decryption of one metadata line, ns.
/// Direct decryption cannot overlap the NVM read (§III-B1).
pub const DIRECT_CRYPT_NS: u64 = 96;

/// Fraction of bits assumed flipped by a direct-encrypted metadata line
/// write (diffusion flips ~half).
pub const META_WRITE_FLIPS: u64 = 1024;

/// Result of a write operation at the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResult {
    /// Controller critical path: detection/encryption work the core waits
    /// out before the write is accepted (persist ordering then applies to
    /// the NVM write itself — the simulator decides how much of that the
    /// core observes).
    pub critical_ns: u64,
    /// Absolute completion time of the NVM data write, if one was issued.
    pub nvm_finish_ns: Option<u64>,
    /// Whether deduplication eliminated the NVM write.
    pub eliminated: bool,
    /// Full write latency (issue → data durable): for eliminated writes the
    /// detection path, otherwise `nvm_finish − now`.
    pub total_ns: u64,
}

/// Result of a read operation at the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult<'a> {
    /// Decrypted line contents, borrowed from the scheme's scratch line:
    /// valid until the next operation on the scheme.
    pub data: &'a [u8],
    /// Critical-path latency of the read.
    pub latency_ns: u64,
}

/// Common per-scheme counters every implementation reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseMetrics {
    /// Writes accepted.
    pub writes: u64,
    /// Writes whose NVM write was eliminated.
    pub writes_eliminated: u64,
    /// Always 0: no controller here coalesces. Kept because report JSON,
    /// the goldens and `benchmark/src/rep.rs` read it.
    pub coalesced_writes: u64,
    /// Reads served.
    pub reads: u64,
    /// AES line encryptions performed (energy-relevant).
    pub aes_line_ops: u64,
    /// Fingerprint computations performed.
    pub hash_ops: u64,
    /// Candidate-line reads used to confirm duplicates.
    pub verify_reads: u64,
    /// Metadata NVM reads (cache misses).
    pub meta_nvm_reads: u64,
    /// Metadata NVM writes (dirty evictions).
    pub meta_nvm_writes: u64,
}

/// The secure-memory front-end interface all schemes share.
///
/// `Send` is a supertrait: every scheme owns plain data (tables, device,
/// caches) plus `Send` trait objects, so a controller instance can be
/// moved onto a worker thread. Concurrency follows the shard-ownership
/// model (one exclusive controller per shard thread, see `dewrite-engine`)
/// rather than shared mutation — the API deliberately stays `&mut self`.
pub trait SecureMemory: Send {
    /// Human-readable scheme name for reports.
    fn name(&self) -> String;

    /// Write one line of plaintext at `addr`, arriving at `now_ns`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is outside the workload-visible region or `data` is
    /// not one line.
    fn write(&mut self, addr: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError>;

    /// Read one line of plaintext at `addr`, arriving at `now_ns`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is outside the workload-visible region.
    fn read(&mut self, addr: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError>;

    /// The underlying device (energy, wear, bank statistics).
    fn device(&self) -> &NvmDevice;

    /// Common counters.
    fn base_metrics(&self) -> BaseMetrics;

    /// Install an [`EventSink`](crate::trace::EventSink) that observes one
    /// [`WriteEvent`](crate::trace::WriteEvent) per accepted write.
    ///
    /// Schemes without tracing support drop the sink (the default); they
    /// then report an empty stage breakdown rather than a wrong one.
    fn set_event_sink(&mut self, sink: Box<dyn crate::trace::EventSink>) {
        drop(sink);
    }

    /// Remove and return the installed sink, if tracing is supported and a
    /// sink is present.
    fn take_event_sink(&mut self) -> Option<Box<dyn crate::trace::EventSink>> {
        None
    }
}

/// Outcome of one metadata-table access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaAccess {
    /// Absolute time at which the entry is available.
    pub done_ns: u64,
    /// Whether the metadata cache hit.
    pub hit: bool,
}

/// One metadata table: an on-chip cache partition backed by an NVM region.
///
/// A cache hit costs `hit_ns`; a miss reads the backing NVM line(s)
/// (bank-scheduled) and pays direct decryption before the entry is usable.
/// Sequential tables prefetch a run of entries per miss; dirty evictions
/// become asynchronous metadata writes.
#[derive(Debug)]
pub(crate) struct MetaTable {
    cache: MetadataCache,
    base_line: u64,
    region_lines: u64,
    entry_bytes: usize,
    prefetch_entries: usize,
    sequential: bool,
    hit_ns: u64,
    line_size: usize,
    zero_line: Vec<u8>,
    write_through: bool,
}

impl MetaTable {
    #[allow(clippy::too_many_arguments)] // mirrors the hardware parameters
    pub(crate) fn new(
        capacity_entries: usize,
        replacement: Replacement,
        base_line: u64,
        region_lines: u64,
        entry_bytes: usize,
        prefetch_entries: usize,
        sequential: bool,
        hit_ns: u64,
        line_size: usize,
    ) -> Self {
        MetaTable {
            cache: MetadataCache::new(CacheConfig {
                capacity: capacity_entries,
                associativity: 8,
                replacement,
            }),
            base_line,
            region_lines: region_lines.max(1),
            entry_bytes,
            prefetch_entries: prefetch_entries.max(1),
            sequential,
            hit_ns,
            line_size,
            zero_line: vec![0u8; line_size],
            write_through: false,
        }
    }

    /// Switch the table to write-through persistence: updates are never
    /// held dirty in the cache; each one issues an immediate metadata
    /// write instead.
    pub(crate) fn set_write_through(&mut self, on: bool) {
        self.write_through = on;
    }

    fn backing_line(&self, entry: u64) -> LineAddr {
        let entries_per_line = (self.line_size / self.entry_bytes).max(1) as u64;
        let line = if self.sequential {
            (entry / entries_per_line) % self.region_lines
        } else {
            entry % self.region_lines
        };
        LineAddr::new(self.base_line + line)
    }

    /// Cache-only lookup: returns the hit outcome, or `None` on a miss
    /// (recorded in the statistics) *without* fetching from NVM. PNA uses
    /// this to decline the in-NVM hash-table query.
    pub(crate) fn probe(&mut self, entry: u64, write: bool, now_ns: u64) -> Option<MetaAccess> {
        if self.cache.access(entry, write) {
            Some(MetaAccess {
                done_ns: now_ns + self.hit_ns,
                hit: true,
            })
        } else {
            None
        }
    }

    /// Access `entry` at absolute time `now_ns`; `write` marks it dirty.
    /// Misses fetch from NVM (+ direct decryption) and fill the cache,
    /// prefetching the sequential run when configured. Returns when the
    /// entry is ready, and accumulates NVM traffic into `metrics`.
    pub(crate) fn access(
        &mut self,
        entry: u64,
        write: bool,
        device: &mut NvmDevice,
        now_ns: u64,
        metrics: &mut BaseMetrics,
    ) -> MetaAccess {
        let dirty = write && !self.write_through;
        let result = match self.probe(entry, dirty, now_ns) {
            Some(hit) => hit,
            None => self.fetch(entry, dirty, device, now_ns, metrics),
        };
        if write && self.write_through {
            self.writeback(device, now_ns, metrics);
        }
        result
    }

    /// Pure-update access: install or dirty `entry` without fetching its
    /// backing line on a miss (write-allocate, no-fetch — the controller
    /// overwrites the whole entry, so the old value is not needed). Dirty
    /// victims are still written back. Costs only the cache hit latency.
    pub(crate) fn write_insert(
        &mut self,
        entry: u64,
        device: &mut NvmDevice,
        now_ns: u64,
        metrics: &mut BaseMetrics,
    ) -> MetaAccess {
        let dirty = !self.write_through;
        let result = match self.probe(entry, dirty, now_ns) {
            Some(hit) => hit,
            None => {
                if let Some(victim) = self.cache.insert(entry, dirty) {
                    if victim.dirty {
                        self.writeback(device, now_ns, metrics);
                    }
                }
                MetaAccess {
                    done_ns: now_ns + self.hit_ns,
                    hit: false,
                }
            }
        };
        if self.write_through {
            self.writeback(device, now_ns, metrics);
        }
        result
    }

    /// Fetch `entry` from the backing NVM region after a recorded miss,
    /// filling (and prefetching into) the cache.
    pub(crate) fn fetch(
        &mut self,
        entry: u64,
        write: bool,
        device: &mut NvmDevice,
        now_ns: u64,
        metrics: &mut BaseMetrics,
    ) -> MetaAccess {
        // Fetch the backing line(s).
        let fetch_lines = if self.sequential {
            (self.prefetch_entries * self.entry_bytes)
                .div_ceil(self.line_size)
                .max(1)
        } else {
            1
        };
        let mut done = now_ns;
        for i in 0..fetch_lines as u64 {
            let line =
                self.backing_line(entry + i * (self.line_size / self.entry_bytes.max(1)) as u64);
            // The entries themselves live in controller structures: only
            // the fetch's timing and energy are modeled.
            let access = device
                .read_timing(line, now_ns)
                .expect("metadata region line in range");
            metrics.meta_nvm_reads += 1;
            done = done.max(access.slot.finish_ns);
        }
        // Direct decryption serializes after the read.
        done += DIRECT_CRYPT_NS;
        device.charge_aes_pj(dewrite_crypto::aes_line_energy_pj(self.line_size));

        // Fill (and prefetch) the cache; write back dirty victims.
        let dirty_victims = if self.sequential && self.prefetch_entries > 1 {
            let aligned = entry - entry % self.prefetch_entries as u64;
            self.cache.prefetch_run(aligned, self.prefetch_entries)
        } else {
            0
        };
        let mut dirty = dirty_victims;
        if let Some(victim) = self.cache.insert(entry, write) {
            if victim.dirty {
                dirty += 1;
            }
        } else if write {
            // insert() may have updated in place after prefetch; re-mark.
            self.cache.access(entry, true);
        }
        for _ in 0..dirty {
            self.writeback(device, now_ns, metrics);
        }

        MetaAccess {
            done_ns: done,
            hit: false,
        }
    }

    /// Issue one asynchronous metadata write-back (dirty eviction).
    fn writeback(&mut self, device: &mut NvmDevice, now_ns: u64, metrics: &mut BaseMetrics) {
        // Victims map back to some line in the region; the exact line does
        // not matter for timing/energy, so reuse the entry's own line.
        let line = self.backing_line(metrics.meta_nvm_writes);
        device
            .write_line_with_flips(line, &self.zero_line, META_WRITE_FLIPS, now_ns)
            .expect("metadata region line in range");
        device.charge_aes_pj(dewrite_crypto::aes_line_energy_pj(self.line_size));
        metrics.meta_nvm_writes += 1;
    }

    /// Cache statistics for this partition.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of dirty entries currently cached.
    pub(crate) fn dirty_entries(&self) -> u64 {
        self.cache.dirty_count()
    }

    /// Flush all dirty entries to the backing NVM region (epoch
    /// persistence / write-through). Each dirty entry becomes one
    /// asynchronous metadata write. Returns how many were flushed.
    pub(crate) fn flush_all(
        &mut self,
        device: &mut NvmDevice,
        now_ns: u64,
        metrics: &mut BaseMetrics,
    ) -> u64 {
        let dirty = self.cache.flush_dirty();
        for _ in 0..dirty {
            self.writeback(device, now_ns, metrics);
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewrite_nvm::NvmConfig;

    fn device() -> NvmDevice {
        NvmDevice::new(NvmConfig::small()).unwrap()
    }

    fn table(sequential: bool, prefetch: usize) -> MetaTable {
        MetaTable::new(
            64,
            Replacement::Lru,
            1024, // metadata region base
            256,
            4,
            prefetch,
            sequential,
            1,
            256,
        )
    }

    #[test]
    fn hit_costs_hit_latency_only() {
        let mut d = device();
        let mut m = BaseMetrics::default();
        let mut t = table(true, 16);
        let miss = t.access(5, false, &mut d, 0, &mut m);
        assert!(!miss.hit);
        assert!(miss.done_ns >= 75 + DIRECT_CRYPT_NS);
        assert_eq!(m.meta_nvm_reads, 1);

        let hit = t.access(5, false, &mut d, 1_000, &mut m);
        assert!(hit.hit);
        assert_eq!(hit.done_ns, 1_001);
        assert_eq!(m.meta_nvm_reads, 1, "no extra NVM traffic on hit");
    }

    #[test]
    fn sequential_prefetch_makes_neighbors_hit() {
        let mut d = device();
        let mut m = BaseMetrics::default();
        let mut t = table(true, 16);
        t.access(32, false, &mut d, 0, &mut m);
        // Entries 32..48 were prefetched (aligned run).
        let hit = t.access(40, false, &mut d, 100, &mut m);
        assert!(hit.hit);
    }

    #[test]
    fn non_sequential_table_fetches_one_line() {
        let mut d = device();
        let mut m = BaseMetrics::default();
        let mut t = table(false, 16);
        t.access(0xDEAD_BEEF, false, &mut d, 0, &mut m);
        assert_eq!(m.meta_nvm_reads, 1);
        // And no neighbors were prefetched.
        let second = t.access(0xDEAD_BEF0, false, &mut d, 10, &mut m);
        assert!(!second.hit);
    }

    #[test]
    fn dirty_evictions_produce_metadata_writes() {
        let mut d = device();
        let mut m = BaseMetrics::default();
        // Tiny cache: 8 entries, no prefetch.
        let mut t = MetaTable::new(8, Replacement::Lru, 1024, 64, 4, 1, true, 1, 256);
        for k in 0..64 {
            t.access(k * 17, true, &mut d, k * 10, &mut m);
        }
        assert!(m.meta_nvm_writes > 0, "dirty victims must be written back");
        assert!(d.writes() >= m.meta_nvm_writes);
    }

    #[test]
    fn wide_prefetch_reads_multiple_lines() {
        let mut d = device();
        let mut m = BaseMetrics::default();
        // 256 entries × 4 B = 1024 B = 4 NVM lines per miss.
        let mut t = table(true, 256);
        t.access(0, false, &mut d, 0, &mut m);
        assert_eq!(m.meta_nvm_reads, 4);
    }
}
