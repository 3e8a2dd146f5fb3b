//! Traditional in-line deduplication with a cryptographic fingerprint.
//!
//! The strawman of Table I: storage-style deduplication ported to the
//! memory controller. A SHA-1 (or MD5) fingerprint is computed for every
//! written line — 321/312 ns, longer than the 300 ns NVM write itself — and
//! a fingerprint match is *trusted* (no confirmation read), as storage
//! systems do. Detection is serial with encryption; there is no prediction.
//!
//! Functionally, fingerprints are compared at full digest width, so the
//! scheme is as correct as DeWrite; it is the *latency* that disqualifies it
//! (§III-B1), which the `tab1`/latency experiments demonstrate.

use std::collections::HashMap;

use dewrite_crypto::AES_LINE_LATENCY_NS;
use dewrite_hashes::{HashAlgorithm, LineHasher};
use dewrite_mem::Replacement;
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

use crate::config::SystemConfig;
use crate::dedup::{DedupIndex, WriteOutcome};
use crate::digest::IndexDigest;
use crate::schemes::{BaseMetrics, CmeArray, MetaTable, ReadResult, SecureMemory, WriteResult};

/// In-line dedup with a cryptographic fingerprint (Table I's "Traditional").
pub struct TraditionalDedup {
    array: CmeArray,
    hasher: Box<dyn LineHasher>,
    index: DedupIndex,
    /// Full-width fingerprints per resident line — matches are trusted at
    /// fingerprint width, not confirmed by reading data.
    fingerprints: HashMap<u64, u64>,
    meta_table: MetaTable,
}

impl std::fmt::Debug for TraditionalDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraditionalDedup")
            .field("hasher", &self.hasher.algorithm())
            .field("writes", &self.array.metrics.writes)
            .finish_non_exhaustive()
    }
}

impl TraditionalDedup {
    /// Build the scheme with the given cryptographic `algorithm`
    /// (SHA-1 or MD5 make sense here).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: SystemConfig, algorithm: HashAlgorithm, key: &[u8; 16]) -> Self {
        let array = CmeArray::new(config, key, None);
        let config = &array.config;
        // One unified fingerprint-store cache (2 MB of 20 B entries).
        let meta_table = MetaTable::new(
            (2 << 20) / 20,
            Replacement::Lru,
            config.meta_base(),
            config.meta_lines(),
            20,
            1,
            false,
            config.meta_cache_hit_ns,
            config.nvm.line_size,
        );
        TraditionalDedup {
            hasher: algorithm.hasher(),
            index: DedupIndex::new(config.data_lines),
            fingerprints: HashMap::new(),
            meta_table,
            array,
        }
    }

    /// The dedup index (for write-reduction comparisons).
    pub fn index(&self) -> &DedupIndex {
        &self.index
    }
}

impl SecureMemory for TraditionalDedup {
    fn name(&self) -> String {
        format!("traditional dedup ({})", self.hasher.algorithm())
    }

    fn write(&mut self, init: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        self.array.begin_write(init, data)?;

        // Cryptographic fingerprint: the expensive step (≥312 ns).
        let cost = self.hasher.cost();
        let fingerprint = self.hasher.digest(data);
        // The index key stays the folded 32-bit value (zero-extended) so
        // probe sequences are identical to the seed; correctness comes from
        // the full-width fingerprint comparison below.
        let digest = u64::from(IndexDigest::fold(fingerprint));
        let hash_done = now_ns + cost.latency_ns;
        self.array.metrics.hash_ops += 1;
        self.array.device.charge_dedup_pj(cost.energy_pj);

        // Fingerprint-store query (t_Q of Table I).
        let q = self.meta_table.access(
            digest,
            false,
            &mut self.array.device,
            hash_done,
            &mut self.array.metrics,
        );

        // Trust the fingerprint: match at full digest width, no data read.
        let matched = self
            .index
            .candidates_for(digest, init)
            .find(|e| {
                e.reference != crate::tables::MAX_REFERENCE
                    && self.fingerprints.get(&e.real.index()) == Some(&fingerprint)
            })
            .map(|e| e.real);

        let outcome = match matched {
            Some(real) => self.index.apply_duplicate(init, real),
            None => self.index.apply_store(init, digest),
        };
        let (WriteOutcome::Duplicate { freed, .. } | WriteOutcome::Stored { freed, .. }) = outcome;
        if let Some(freed) = freed {
            self.fingerprints.remove(&freed.index());
        }
        let WriteOutcome::Stored {
            target, counter, ..
        } = outcome
        else {
            // A duplicate: the NVM write is eliminated.
            self.array.metrics.writes_eliminated += 1;
            self.meta_table.write_insert(
                init.index(),
                &mut self.array.device,
                q.done_ns,
                &mut self.array.metrics,
            );
            return Ok(WriteResult {
                critical_ns: q.done_ns - now_ns,
                nvm_finish_ns: None,
                eliminated: true,
                total_ns: q.done_ns - now_ns,
            });
        };
        self.fingerprints.insert(target.index(), fingerprint);

        // Serial: detection, then counter + encryption, then write.
        let ctr_acc = self.meta_table.access(
            target.index(),
            true,
            &mut self.array.device,
            q.done_ns,
            &mut self.array.metrics,
        );
        self.array.charge_encryption();
        let enc_done = ctr_acc.done_ns + AES_LINE_LATENCY_NS;
        let finish = self.array.store(target, data, counter, enc_done)?;
        Ok(WriteResult {
            critical_ns: enc_done - now_ns,
            nvm_finish_ns: Some(finish),
            eliminated: false,
            total_ns: finish - now_ns,
        })
    }

    fn read(&mut self, init: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError> {
        self.array.begin_read(init)?;
        let map_acc = self.meta_table.access(
            init.index(),
            false,
            &mut self.array.device,
            now_ns,
            &mut self.array.metrics,
        );
        let done = match self.index.resolve(init) {
            Some(real) => {
                let counter = self
                    .index
                    .counters()
                    .get(real.index())
                    .expect("resident has counter");
                self.array
                    .load(real, counter, map_acc.done_ns, map_acc.done_ns)?
            }
            // Never written: logically zero (the home line may hold a
            // relocated neighbor's ciphertext; never expose it).
            None => self.array.load_unwritten(init, map_acc.done_ns)?,
        };
        Ok(self.array.read_result(now_ns, done))
    }

    fn device(&self) -> &NvmDevice {
        &self.array.device
    }

    fn base_metrics(&self) -> BaseMetrics {
        self.array.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8; 16] = b"traditional key!";

    fn mem() -> TraditionalDedup {
        TraditionalDedup::new(SystemConfig::for_lines(2048), HashAlgorithm::Sha1, KEY)
    }

    fn line(tag: u8) -> Vec<u8> {
        vec![tag; 256]
    }

    #[test]
    fn roundtrip_and_dedup() {
        let mut m = mem();
        let data = line(1);
        let w1 = m.write(LineAddr::new(0), &data, 0).unwrap();
        assert!(!w1.eliminated);
        let w2 = m.write(LineAddr::new(1), &data, 10_000).unwrap();
        assert!(w2.eliminated);
        assert_eq!(m.read(LineAddr::new(1), 20_000).unwrap().data, data);
    }

    #[test]
    fn detection_latency_exceeds_nvm_write_latency() {
        let mut m = mem();
        let data = line(2);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        let w = m.write(LineAddr::new(1), &data, 10_000).unwrap();
        // ≥ 321 ns (SHA-1) + t_Q: slower than the 300 ns write it saves.
        assert!(w.total_ns >= 321, "latency {}", w.total_ns);
    }

    #[test]
    fn no_confirmation_reads_are_issued() {
        let mut m = mem();
        let data = line(3);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        m.write(LineAddr::new(1), &data, 10_000).unwrap();
        assert_eq!(m.base_metrics().verify_reads, 0);
    }

    #[test]
    fn non_duplicates_pay_hash_plus_encrypt_plus_write() {
        let mut m = mem();
        let w = m.write(LineAddr::new(0), &line(4), 0).unwrap();
        assert!(!w.eliminated);
        // Serial: ≥ 321 + 96 + 300.
        assert!(w.total_ns >= 321 + 96 + 300, "latency {}", w.total_ns);
    }

    #[test]
    fn md5_variant_works() {
        let mut m = TraditionalDedup::new(SystemConfig::for_lines(512), HashAlgorithm::Md5, KEY);
        let data = line(5);
        m.write(LineAddr::new(0), &data, 0).unwrap();
        let w = m.write(LineAddr::new(7), &data, 5_000).unwrap();
        assert!(w.eliminated);
        assert!(m.name().contains("MD5"));
    }

    #[test]
    fn duplicate_write_forgets_the_fingerprint_of_the_line_it_frees() {
        let mut m = mem();
        m.write(LineAddr::new(0), &line(1), 0).unwrap();
        m.write(LineAddr::new(1), &line(2), 5_000).unwrap();
        // Line 1's content moves to line 0's: its own line is freed.
        let w = m.write(LineAddr::new(1), &line(1), 10_000).unwrap();
        assert!(w.eliminated);
        assert_eq!(m.fingerprints.len(), m.index().resident_lines());
    }

    #[test]
    fn owner_overwrite_keeps_shared_content() {
        let mut m = mem();
        let shared = line(6);
        m.write(LineAddr::new(0), &shared, 0).unwrap();
        m.write(LineAddr::new(1), &shared, 5_000).unwrap();
        m.write(LineAddr::new(0), &line(7), 10_000).unwrap();
        assert_eq!(m.read(LineAddr::new(1), 20_000).unwrap().data, shared);
        m.index().check_invariants().unwrap();
    }
}
