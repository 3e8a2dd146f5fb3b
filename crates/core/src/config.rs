//! System configuration (Table II) and metadata-region geometry.

use dewrite_hashes::HashAlgorithm;
use dewrite_mem::{CoreConfig, Replacement};
use dewrite_nvm::{NvmConfig, DEFAULT_LINE_SIZE};

/// How duplicate detection and encryption are ordered on the write path
/// (§III-A, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Detect first; encrypt only non-duplicates (lowest energy, highest
    /// latency for non-duplicates).
    Direct,
    /// Always encrypt in parallel with detection (lowest latency, wasted
    /// encryption energy on duplicates).
    Parallel,
    /// DeWrite: predict with the history window, then run Direct for
    /// predicted duplicates and Parallel for predicted non-duplicates.
    #[default]
    Predictive,
}

impl std::fmt::Display for WriteMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WriteMode::Direct => "direct",
            WriteMode::Parallel => "parallel",
            WriteMode::Predictive => "predictive",
        })
    }
}

/// How a dedup-index digest match is turned into a duplicate verdict.
///
/// CRC-32 plus a verify read is the only mode; the type and its wire byte
/// remain because the `benchmark/` package still passes a mode through
/// `dewrite_engine::EngineConfig::digest_mode`, and the protocol's `Hello`
/// handshake still carries the byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DigestMode {
    /// The paper's scheme: a light CRC-32 fingerprint whose matches are
    /// confirmed with a candidate verify-read plus byte compare (§III-B).
    #[default]
    Crc32Verify,
}

impl DigestMode {
    /// Stable one-byte wire encoding (always 0).
    pub fn to_wire(self) -> u8 {
        match self {
            DigestMode::Crc32Verify => 0,
        }
    }

    /// Decode [`Self::to_wire`]'s byte; `None` for any value but 0.
    pub fn from_wire(v: u8) -> Option<DigestMode> {
        (v == 0).then_some(DigestMode::Crc32Verify)
    }
}

/// Capacities (in entries) of the four metadata-cache partitions plus the
/// prefetch granularity for the sequential tables.
///
/// Defaults follow §IV-E2: 512 KB each for the hash, address-mapping, and
/// inverted-hash caches, 128 KB for the FSM cache (2 MB total within rounding,
/// matching the baseline's counter cache), with 256-entry prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaCacheConfig {
    /// Address-mapping cache capacity, in 4 B entries (512 KB default).
    pub addr_map_entries: usize,
    /// Inverted-hash cache capacity, in 4 B entries (512 KB default).
    pub inverted_entries: usize,
    /// Hash-table cache capacity, in 9 B entries (512 KB default).
    pub hash_entries: usize,
    /// FSM cache capacity, in 2048-flag groups (128 KB default).
    pub fsm_groups: usize,
    /// Sequential entries prefetched per miss in the sequential tables.
    pub prefetch_entries: usize,
    /// Replacement policy for all partitions.
    pub replacement: Replacement,
}

impl MetaCacheConfig {
    /// The paper's configuration (512 KB × 3 + 128 KB, 256-entry prefetch).
    pub fn paper() -> Self {
        MetaCacheConfig {
            addr_map_entries: (512 << 10) / 4,
            inverted_entries: (512 << 10) / 4,
            hash_entries: (512 << 10) / 9,
            fsm_groups: ((128 << 10) * 8) / 2048,
            prefetch_entries: 256,
            replacement: Replacement::Lru,
        }
    }

    /// A uniformly scaled variant: `kb_each` KB for the three big
    /// partitions and `kb_each / 4` KB for the FSM (used by the Fig. 21
    /// sweeps).
    pub fn scaled(kb_each: usize, prefetch_entries: usize) -> Self {
        MetaCacheConfig {
            addr_map_entries: (kb_each << 10) / 4,
            inverted_entries: (kb_each << 10) / 4,
            hash_entries: (kb_each << 10) / 9,
            fsm_groups: (((kb_each / 4).max(1) << 10) * 8) / 2048,
            prefetch_entries,
            replacement: Replacement::Lru,
        }
    }
}

impl Default for MetaCacheConfig {
    fn default() -> Self {
        MetaCacheConfig::paper()
    }
}

/// How cached dedup/encryption metadata survives power failure (§V of the
/// paper surveys these; all are compatible with DeWrite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetadataPersistence {
    /// A battery/supercap flushes the write-back metadata cache on power
    /// loss (Silent Shredder's choice). No runtime overhead.
    #[default]
    BatteryBacked,
    /// Every metadata update is written through to NVM immediately
    /// (SecPM-style): crash-consistent with no battery, at the cost of one
    /// metadata write per update.
    WriteThrough,
    /// Dirty metadata is flushed every `interval` data writes
    /// (`counter_cache_writeback` + ADR): a crash loses at most one epoch.
    EpochFlush {
        /// Data writes between flushes.
        interval: u32,
    },
}

impl std::fmt::Display for MetadataPersistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataPersistence::BatteryBacked => f.write_str("battery-backed"),
            MetadataPersistence::WriteThrough => f.write_str("write-through"),
            MetadataPersistence::EpochFlush { interval } => {
                write!(f, "epoch-flush({interval})")
            }
        }
    }
}

/// DeWrite-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeWriteConfig {
    /// Write-path ordering mode.
    pub mode: WriteMode,
    /// Prediction-based NVM access: skip the in-NVM hash-table query on a
    /// cache miss when the predictor says non-duplicate (§III-B2).
    pub pna: bool,
    /// History-window width in bits (3 in the paper).
    pub history_bits: usize,
    /// Light-weight fingerprint function; a digest match is always
    /// confirmed by a verify read and byte compare.
    pub hasher: HashAlgorithm,
    /// Metadata cache partitioning.
    pub meta_cache: MetaCacheConfig,
    /// How cached metadata survives power failure.
    pub persistence: MetadataPersistence,
    /// Number of dedup domains (contiguous, equal address-space partitions).
    /// Content never deduplicates across domains and relocated lines stay
    /// inside theirs — the standard mitigation for cross-tenant dedup side
    /// channels (`examples/timing_probe.rs`). 1 = the paper's global index.
    pub dedup_domains: u64,
}

impl DeWriteConfig {
    /// Fingerprint of the *semantic* configuration: the fields that change
    /// how durable metadata (snapshots, WAL records) must be interpreted —
    /// write-path mode, PNA, history width, fingerprint function, counter
    /// width, and dedup-domain count. Performance-only knobs (cache sizes,
    /// persistence policy) are excluded: they can change between a
    /// snapshot and its restore without invalidating the state.
    ///
    /// Stamped into every [`Snapshot`](crate::Snapshot) a `DeWrite`
    /// captures; [`DeWrite::power_on`](crate::DeWrite::power_on) rejects
    /// mismatches. (The engine's shard stores are stamped with their own
    /// `ShardController::persist_fingerprint`.)
    pub fn fingerprint(&self) -> u64 {
        let mode = match self.mode {
            WriteMode::Direct => 0u8,
            WriteMode::Parallel => 1,
            WriteMode::Predictive => 2,
        };
        let hasher = match self.hasher {
            HashAlgorithm::Crc32 => 0u8,
            HashAlgorithm::Crc32c => 1,
            HashAlgorithm::Md5 => 2,
            HashAlgorithm::Sha1 => 3,
        };
        durable_fingerprint(&[
            b"dewrite-config-v2",
            &[mode],
            &[u8::from(self.pna)],
            &(self.history_bits as u64).to_le_bytes(),
            &[hasher],
            // Once the digest-mode byte; CRC-32 plus verify wrote 0, so
            // hashing a 0 keeps every durable fingerprint unchanged.
            &[0],
            // Counter width in bits (LineCounter is u32); a future width
            // change must alter the fingerprint.
            &32u64.to_le_bytes(),
            &self.dedup_domains.to_le_bytes(),
        ])
    }

    /// The paper's DeWrite: predictive mode, PNA on, 3-bit history, CRC-32.
    pub fn paper() -> Self {
        DeWriteConfig {
            mode: WriteMode::Predictive,
            pna: true,
            history_bits: 3,
            hasher: HashAlgorithm::Crc32,
            meta_cache: MetaCacheConfig::paper(),
            persistence: MetadataPersistence::BatteryBacked,
            dedup_domains: 1,
        }
    }
}

/// FNV-1a 64 over `parts` in order: the one hash behind every
/// durable-format fingerprint ([`DeWriteConfig::fingerprint`] and the
/// engine shard's persist fingerprint), both stamped into every WAL header
/// and checkpoint. It depends on the bytes alone — not on `Hash` or field
/// layout — so it is stable across runs and platforms.
pub fn durable_fingerprint(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    parts
        .iter()
        .flat_map(|part| part.iter())
        .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

impl Default for DeWriteConfig {
    fn default() -> Self {
        DeWriteConfig::paper()
    }
}

/// Cell-level write encoding applied when a line is programmed (Fig. 13's
/// bit-level schemes, composable with any line-level scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BitEncoding {
    /// Program every cell (no comparison logic).
    Raw,
    /// Data Comparison Write: program only differing cells.
    #[default]
    Dcw,
    /// Flip-N-Write: per 32-bit group, write data or complement, whichever
    /// programs fewer cells.
    Fnw,
}

impl std::fmt::Display for BitEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BitEncoding::Raw => "raw",
            BitEncoding::Dcw => "DCW",
            BitEncoding::Fnw => "FNW",
        })
    }
}

/// Whole-system configuration shared by every scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The NVM device (its capacity covers data + metadata regions).
    pub nvm: NvmConfig,
    /// The core model.
    pub core: CoreConfig,
    /// Number of logical request contexts sharing the memory controller:
    /// hardware threads × outstanding-miss slots per thread. The paper runs
    /// 4-thread PARSEC on out-of-order cores; 4 threads × 2 outstanding
    /// misses ≈ 8 contexts reproduces comparable memory-level parallelism
    /// (single-threaded SPEC on a deep OoO core behaves alike).
    pub cores: usize,
    /// Line addresses `0..data_lines` are workload-visible.
    pub data_lines: u64,
    /// Write-queue depth: outstanding NVM data writes beyond this stall the
    /// core (back-pressure).
    pub write_queue_depth: usize,
    /// Persist barrier period: every N-th write stalls the core until that
    /// write reaches the NVM (epoch persistence). `None` = writes leave the
    /// core as soon as the controller accepts them.
    pub persist_every: Option<u32>,
    /// On-chip metadata-cache hit latency, ns (the `t_Q'` of Table I).
    pub meta_cache_hit_ns: u64,
    /// Fraction of reads that stall their context for the full latency.
    /// The rest are overlapped by the out-of-order window / prefetchers and
    /// only occupy memory-system resources.
    pub read_stall_fraction: f64,
    /// Cell-level write encoding for data-line programming.
    pub bit_encoding: BitEncoding,
}

impl SystemConfig {
    /// Build a configuration exposing `data_lines` workload lines, with a
    /// metadata region sized at 1/8 of the data region appended to the
    /// device address space (the paper's metadata overhead is ≈6.25%; we
    /// round up to a power-of-two-friendly 12.5% for region layout).
    pub fn for_lines(data_lines: u64) -> Self {
        Self::for_lines_with(data_lines, DEFAULT_LINE_SIZE)
    }

    /// Like [`for_lines`](Self::for_lines) with an explicit line size.
    /// The metadata region is sized at 32 B per data line (the four dedup
    /// tables need ≈17 B/line; the rest is slack), which is ≈12.5% for
    /// 256 B lines.
    pub fn for_lines_with(data_lines: u64, line_size: usize) -> Self {
        let meta_lines = (data_lines * 32).div_ceil(line_size as u64).max(16);
        let nvm = NvmConfig {
            capacity_bytes: (data_lines + meta_lines) * line_size as u64,
            line_size,
            ..NvmConfig::paper()
        };
        SystemConfig {
            nvm,
            core: CoreConfig::paper(),
            cores: 16,
            data_lines,
            write_queue_depth: 32,
            persist_every: None,
            meta_cache_hit_ns: 1,
            read_stall_fraction: 0.5,
            bit_encoding: BitEncoding::Dcw,
        }
    }

    /// First line index of the metadata region.
    pub fn meta_base(&self) -> u64 {
        self.data_lines
    }

    /// Number of metadata-region lines.
    pub fn meta_lines(&self) -> u64 {
        self.nvm.num_lines() - self.data_lines
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.nvm.validate()?;
        if self.data_lines == 0 {
            return Err("data_lines must be nonzero".into());
        }
        if self.data_lines >= self.nvm.num_lines() {
            return Err(format!(
                "data_lines {} leaves no metadata region (device has {} lines)",
                self.data_lines,
                self.nvm.num_lines()
            ));
        }
        if self.write_queue_depth == 0 {
            return Err("write_queue_depth must be nonzero".into());
        }
        if self.cores == 0 {
            return Err("cores must be nonzero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_meta_cache_sizes() {
        let m = MetaCacheConfig::paper();
        assert_eq!(m.addr_map_entries, 131_072); // 512 KB / 4 B
        assert_eq!(m.inverted_entries, 131_072);
        assert_eq!(m.hash_entries, 58_254); // 512 KB / 9 B
        assert_eq!(m.fsm_groups, 512); // 128 KB of flags in 2048-bit groups
        assert_eq!(m.prefetch_entries, 256);
    }

    #[test]
    fn scaled_cache_is_monotonic() {
        let small = MetaCacheConfig::scaled(64, 256);
        let big = MetaCacheConfig::scaled(1024, 256);
        assert!(small.addr_map_entries < big.addr_map_entries);
        assert!(small.hash_entries < big.hash_entries);
        assert!(small.fsm_groups < big.fsm_groups);
    }

    #[test]
    fn system_config_regions() {
        let s = SystemConfig::for_lines(1 << 16);
        s.validate().unwrap();
        assert_eq!(s.meta_base(), 1 << 16);
        assert_eq!(s.meta_lines(), 1 << 13);
    }

    #[test]
    fn invalid_system_configs_rejected() {
        let mut s = SystemConfig::for_lines(1 << 10);
        s.data_lines = 0;
        assert!(s.validate().is_err());

        let mut s = SystemConfig::for_lines(1 << 10);
        s.data_lines = s.nvm.num_lines();
        assert!(s.validate().is_err());

        let mut s = SystemConfig::for_lines(1 << 10);
        s.write_queue_depth = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn write_mode_display() {
        assert_eq!(WriteMode::Direct.to_string(), "direct");
        assert_eq!(WriteMode::Parallel.to_string(), "parallel");
        assert_eq!(WriteMode::Predictive.to_string(), "predictive");
        assert_eq!(WriteMode::default(), WriteMode::Predictive);
    }
}
