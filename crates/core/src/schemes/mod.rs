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
//! * [`SilentShredder`] — the CME baseline plus a zero bitmap that
//!   eliminates writes of all-zero lines (§V).
//!
//! All four store and load data lines through one [`CmeArray`]: the range
//! and size checks, counter-mode encryption with encoded bit flips, and
//! the read that overlaps the array access with the pad.

mod cme;
mod dewrite;
mod shredder;
mod traditional;

pub use cme::CmeBaseline;
pub use dewrite::{DeWrite, DeWriteCacheStats, DeWriteMetrics};
pub use shredder::SilentShredder;
pub use traditional::TraditionalDedup;

use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, LineCounter, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_mem::{CacheConfig, CacheStats, MetadataCache, Replacement};
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

use crate::config::{BitEncoding, SystemConfig};

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

    /// Start an empty [`StageBreakdown`](crate::trace::StageBreakdown)
    /// that folds in one [`WriteEvent`](crate::trace::WriteEvent) per
    /// accepted write.
    ///
    /// Schemes without tracing support ignore this (the default); they
    /// then report an empty stage breakdown rather than a wrong one.
    fn start_stage_breakdown(&mut self) {}

    /// Stop and return the started breakdown, if tracing is supported and
    /// one was started.
    fn take_stage_breakdown(&mut self) -> Option<crate::trace::StageBreakdown> {
        None
    }
}

/// The counter-mode data-line path the simulated schemes share: the
/// device, the engine, the common counters and the scratch line a load
/// decrypts into.
///
/// A written line is encrypted under its counter straight over the stored
/// ciphertext, and the device is charged for the cells the configured
/// encoding programs; a read overlaps the array access with the pad and
/// finishes with the XOR. Read-side pads are never charged: the paper's
/// energy accounting is write-dominated (pads for reads are precomputed
/// while counters sit in the cache), and every scheme treats reads alike.
/// Counters, metadata tables and timing decisions stay with the schemes.
pub(crate) struct CmeArray {
    config: SystemConfig,
    device: NvmDevice,
    engine: CounterModeEngine,
    metrics: BaseMetrics,
    /// Scratch plaintext line: what a load decrypts into and a
    /// [`ReadResult`] borrows; a Flip-N-Write store keeps the old
    /// ciphertext here.
    plain_buf: Vec<u8>,
}

impl CmeArray {
    /// The line path over `device` (power-on), or over a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub(crate) fn new(config: SystemConfig, key: &[u8; 16], device: Option<NvmDevice>) -> Self {
        config.validate().expect("invalid system config");
        let device =
            device.unwrap_or_else(|| NvmDevice::new(config.nvm.clone()).expect("validated config"));
        let line_size = config.nvm.line_size;
        CmeArray {
            config,
            device,
            engine: CounterModeEngine::new(key),
            metrics: BaseMetrics::default(),
            plain_buf: vec![0u8; line_size],
        }
    }

    fn check_addr(&self, addr: LineAddr) -> Result<(), NvmError> {
        if addr.index() >= self.config.data_lines {
            Err(NvmError::AddressOutOfRange {
                addr,
                num_lines: self.config.data_lines,
            })
        } else {
            Ok(())
        }
    }

    /// Accept a write of `data` to `addr`: it must be one line inside the
    /// workload-visible region. Counts the write.
    pub(crate) fn begin_write(&mut self, addr: LineAddr, data: &[u8]) -> Result<(), NvmError> {
        self.check_addr(addr)?;
        if data.len() != self.config.nvm.line_size {
            return Err(NvmError::WrongLineSize {
                got: data.len(),
                expected: self.config.nvm.line_size,
            });
        }
        self.metrics.writes += 1;
        Ok(())
    }

    /// Accept a read of `addr`, inside the workload-visible region. Counts
    /// the read.
    pub(crate) fn begin_read(&mut self, addr: LineAddr) -> Result<(), NvmError> {
        self.check_addr(addr)?;
        self.metrics.reads += 1;
        Ok(())
    }

    /// Charge one line encryption: its count and its AES energy.
    pub(crate) fn charge_encryption(&mut self) {
        self.metrics.aes_line_ops += 1;
        let pj = aes_line_energy_pj(self.config.nvm.line_size);
        self.device.charge_aes_pj(pj);
    }

    /// Encrypt `data` for `target` under `counter` and write it over the
    /// stored ciphertext, issued at `ready_ns`, programming the cells the
    /// configured bit encoding flips. Returns when the array write
    /// finishes.
    pub(crate) fn store(
        &mut self,
        target: LineAddr,
        data: &[u8],
        counter: LineCounter,
        ready_ns: u64,
    ) -> Result<u64, NvmError> {
        let (engine, old, addr) = (&self.engine, &mut self.plain_buf, target.index());
        let encoding = self.config.bit_encoding;
        let slot = self
            .device
            .write_with(target, ready_ns, |line| match encoding {
                BitEncoding::Dcw => engine.encrypt_line_over(data, addr, counter, line),
                BitEncoding::Raw => {
                    engine.encrypt_line_into(data, addr, counter, line);
                    (line.len() * 8) as u64
                }
                BitEncoding::Fnw => {
                    old.copy_from_slice(line);
                    engine.encrypt_line_into(data, addr, counter, line);
                    crate::bitlevel::fnw_flips(old, line)
                }
            })?;
        Ok(slot.finish_ns)
    }

    /// Read `real` from the array at `array_ns` and decrypt it under
    /// `counter`, whose pad generation starts at `counter_ns`, into the
    /// scratch line. Returns when the plaintext is ready.
    pub(crate) fn load(
        &mut self,
        real: LineAddr,
        counter: LineCounter,
        array_ns: u64,
        counter_ns: u64,
    ) -> Result<u64, NvmError> {
        let slot = self.device.read_timing(real, array_ns)?;
        self.decrypt(real, counter);
        let pad_done = counter_ns + AES_LINE_LATENCY_NS;
        Ok(slot.finish_ns.max(pad_done) + OTP_XOR_LATENCY_NS)
    }

    /// A read of a line never written: the array access still happens at
    /// `at_ns`, but the scratch line reads zeros (a remapping scheme may
    /// have reused the home line for another address's ciphertext).
    /// Returns when the array read finishes.
    pub(crate) fn load_unwritten(&mut self, init: LineAddr, at_ns: u64) -> Result<u64, NvmError> {
        self.plain_buf.fill(0);
        Ok(self.device.read_timing(init, at_ns)?.finish_ns)
    }

    /// Decrypt `real`'s stored line under `counter` into `out`, modelling
    /// no access.
    pub(crate) fn decrypt_into(&self, real: LineAddr, counter: LineCounter, out: &mut [u8]) {
        let ciphertext = self.device.line(real).expect("data line in range");
        self.engine
            .decrypt_line_into(ciphertext, real.index(), counter, out);
    }

    /// [`decrypt_into`](Self::decrypt_into) the scratch line, borrowed.
    pub(crate) fn decrypt(&mut self, real: LineAddr, counter: LineCounter) -> &[u8] {
        let ciphertext = self.device.line(real).expect("data line in range");
        self.engine
            .decrypt_line_into(ciphertext, real.index(), counter, &mut self.plain_buf);
        &self.plain_buf
    }

    /// The scratch line as the result of a read issued at `now_ns` and
    /// finished at `done_ns`.
    pub(crate) fn read_result(&self, now_ns: u64, done_ns: u64) -> ReadResult<'_> {
        ReadResult {
            data: &self.plain_buf,
            latency_ns: done_ns - now_ns,
        }
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
            let slot = device
                .read_timing(line, now_ns)
                .expect("metadata region line in range");
            metrics.meta_nvm_reads += 1;
            done = done.max(slot.finish_ns);
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
        // A demand insert of an entry the prefetch just brought in updates
        // it in place, dirty bit included: the miss is its only lookup.
        let mut dirty = dirty_victims;
        if let Some(victim) = self.cache.insert(entry, write) {
            if victim.dirty {
                dirty += 1;
            }
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
            .write_with(line, now_ns, |_| META_WRITE_FLIPS)
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
    use crate::bitlevel::fnw_flips;
    use dewrite_nvm::{bit_flips, NvmConfig};

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

    /// Each encoding's store programs the ciphertext and charges what a
    /// copy of the old line says that encoding flips.
    #[test]
    fn store_programs_each_encodings_flips() {
        fn charged(device: &NvmDevice) -> (u64, u64) {
            (
                device.wear().total_bits_flipped(),
                device.energy().nvm_write_pj,
            )
        }
        let key = [9u8; 16];
        let engine = CounterModeEngine::new(&key);
        let content = |seed: u8| -> Vec<u8> { (0..=255u8).map(|i| i.wrapping_mul(seed)).collect() };
        let (a, b) = (LineAddr::new(3), LineAddr::new(40));
        // Over zero cells, new content, the same content under a bumped
        // counter, then a second target.
        let script = [(a, 1, 1), (a, 7, 2), (a, 7, 3), (b, 7, 1)];
        for encoding in [BitEncoding::Raw, BitEncoding::Dcw, BitEncoding::Fnw] {
            let mut config = SystemConfig::for_lines(64);
            config.bit_encoding = encoding;
            let mut array = CmeArray::new(config, &key, None);
            for (step, &(target, seed, ctr)) in script.iter().enumerate() {
                let (data, counter) = (content(seed), LineCounter::from_value(ctr));
                let new = engine.encrypt_line(&data, target.index(), counter);
                let old = array.device.line(target).unwrap().to_vec();
                let flips = match encoding {
                    BitEncoding::Raw => (old.len() * 8) as u64,
                    BitEncoding::Dcw => bit_flips(&old, &new),
                    BitEncoding::Fnw => fnw_flips(&old, &new),
                };
                let (bits, pj) = charged(&array.device);
                array.store(target, &data, counter, 0).unwrap();
                let device = &array.device;
                assert_eq!(device.line(target).unwrap(), new, "{encoding} {step}");
                let (bits_after, pj_after) = charged(device);
                let charge = (flips, device.config().energy.write_energy_pj(flips));
                assert_eq!(
                    (bits_after - bits, pj_after - pj),
                    charge,
                    "{encoding} {step}"
                );
            }
        }
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
    fn write_miss_books_one_miss_and_no_hit() {
        for sequential in [true, false] {
            let mut d = device();
            let mut m = BaseMetrics::default();
            let mut t = table(sequential, 16);
            assert!(t.probe(37, true, 0).is_none());
            let fetched = t.fetch(37, true, &mut d, 0, &mut m);
            assert!(!fetched.hit);
            let stats = t.cache_stats();
            assert_eq!(
                (stats.misses, stats.hits),
                (1, 0),
                "sequential {sequential}"
            );
            assert_eq!(stats.demand_inserts, 1, "sequential {sequential}");
            // Prefetched neighbours arrive clean: the one dirty entry is 37.
            assert!(t.cache.contains(37));
            assert_eq!(t.dirty_entries(), 1, "sequential {sequential}");
        }
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
