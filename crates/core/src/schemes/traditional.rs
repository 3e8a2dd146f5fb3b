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

use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_hashes::{HashAlgorithm, LineHasher};
use dewrite_mem::Replacement;
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

use crate::config::SystemConfig;
use crate::counters::CounterTable;
use crate::dedup::{DedupIndex, WriteOutcome};
use crate::schemes::{BaseMetrics, MetaTable, ReadResult, SecureMemory, WriteResult};

/// In-line dedup with a cryptographic fingerprint (Table I's "Traditional").
pub struct TraditionalDedup {
    config: SystemConfig,
    device: NvmDevice,
    engine: CounterModeEngine,
    hasher: Box<dyn LineHasher>,
    index: DedupIndex,
    /// Full-width fingerprints per resident line — matches are trusted at
    /// fingerprint width, not confirmed by reading data.
    fingerprints: HashMap<u64, u64>,
    counters: CounterTable,
    meta_table: MetaTable,
    metrics: BaseMetrics,
    /// Scratch ciphertext buffer reused across writes (no per-write alloc).
    line_buf: Vec<u8>,
    /// Scratch plaintext line a [`ReadResult`] borrows.
    read_buf: Vec<u8>,
}

impl std::fmt::Debug for TraditionalDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraditionalDedup")
            .field("hasher", &self.hasher.algorithm())
            .field("writes", &self.metrics.writes)
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
        config.validate().expect("invalid system config");
        let device = NvmDevice::new(config.nvm.clone()).expect("validated config");
        let line_size = config.nvm.line_size;
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
            line_size,
        );
        TraditionalDedup {
            engine: CounterModeEngine::new(key),
            hasher: algorithm.hasher(),
            index: DedupIndex::new(config.data_lines),
            fingerprints: HashMap::new(),
            counters: CounterTable::new(),
            meta_table,
            metrics: BaseMetrics::default(),
            line_buf: Vec::new(),
            read_buf: vec![0u8; line_size],
            device,
            config,
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

    /// The dedup index (for write-reduction comparisons).
    pub fn index(&self) -> &DedupIndex {
        &self.index
    }

    fn fold(d: u64) -> u32 {
        (d ^ (d >> 32)) as u32
    }
}

impl SecureMemory for TraditionalDedup {
    fn name(&self) -> String {
        format!("traditional dedup ({})", self.hasher.algorithm())
    }

    fn write(&mut self, init: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        self.check_addr(init)?;
        if data.len() != self.config.nvm.line_size {
            return Err(NvmError::WrongLineSize {
                got: data.len(),
                expected: self.config.nvm.line_size,
            });
        }
        self.metrics.writes += 1;

        // Cryptographic fingerprint: the expensive step (≥312 ns).
        let cost = self.hasher.cost();
        let fingerprint = self.hasher.digest(data);
        // The index key stays the folded 32-bit value (zero-extended) so
        // probe sequences are identical to the seed; correctness comes from
        // the full-width fingerprint comparison below.
        let digest = u64::from(Self::fold(fingerprint));
        let hash_done = now_ns + cost.latency_ns;
        self.metrics.hash_ops += 1;
        self.device.charge_dedup_pj(cost.energy_pj);

        // Fingerprint-store query (t_Q of Table I).
        let q = self.meta_table.access(
            digest,
            false,
            &mut self.device,
            hash_done,
            &mut self.metrics,
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

        match matched {
            Some(real) => {
                self.index.apply_duplicate(init, real);
                self.metrics.writes_eliminated += 1;
                self.meta_table.write_insert(
                    init.index(),
                    &mut self.device,
                    q.done_ns,
                    &mut self.metrics,
                );
                Ok(WriteResult {
                    critical_ns: q.done_ns - now_ns,
                    nvm_finish_ns: None,
                    eliminated: true,
                    total_ns: q.done_ns - now_ns,
                })
            }
            None => {
                let outcome = self.index.apply_store(init, digest);
                let WriteOutcome::Stored { target, freed, .. } = outcome else {
                    unreachable!("apply_store returns Stored");
                };
                if let Some(freed) = freed {
                    self.fingerprints.remove(&freed.index());
                }
                self.fingerprints.insert(target.index(), fingerprint);

                // Serial: detection, then counter + encryption, then write.
                let ctr_acc = self.meta_table.access(
                    target.index(),
                    true,
                    &mut self.device,
                    q.done_ns,
                    &mut self.metrics,
                );
                let counter = self.counters.bump(target.index());
                self.metrics.aes_line_ops += 1;
                self.device.charge_aes_pj(aes_line_energy_pj(data.len()));
                let enc_done = ctr_acc.done_ns + AES_LINE_LATENCY_NS;
                self.line_buf.resize(data.len(), 0);
                self.engine
                    .encrypt_line_into(data, target.index(), counter, &mut self.line_buf);
                let old = self.device.line(target)?;
                let flips =
                    crate::schemes::encoded_flips(self.config.bit_encoding, old, &self.line_buf);
                let access =
                    self.device
                        .write_line_with_flips(target, &self.line_buf, flips, enc_done)?;
                Ok(WriteResult {
                    critical_ns: enc_done - now_ns,
                    nvm_finish_ns: Some(access.slot.finish_ns),
                    eliminated: false,
                    total_ns: access.slot.finish_ns - now_ns,
                })
            }
        }
    }

    fn read(&mut self, init: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError> {
        self.check_addr(init)?;
        self.metrics.reads += 1;
        let map_acc = self.meta_table.access(
            init.index(),
            false,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );
        let done = match self.index.resolve(init) {
            Some(real) => {
                let (ciphertext, access) = self.device.read_line(real, map_acc.done_ns)?;
                let counter = self
                    .counters
                    .get(real.index())
                    .expect("resident has counter");
                // Read-side pad energy is not charged (write-dominated
                // accounting; see CmeBaseline::read).
                let pad_done = map_acc.done_ns + AES_LINE_LATENCY_NS;
                self.engine.decrypt_line_into(
                    ciphertext,
                    real.index(),
                    counter,
                    &mut self.read_buf,
                );
                access.slot.finish_ns.max(pad_done) + OTP_XOR_LATENCY_NS
            }
            None => {
                // Never written: logically zero (the home line may hold a
                // relocated neighbor's ciphertext; never expose it).
                self.read_buf.fill(0);
                self.device
                    .read_timing(init, map_acc.done_ns)?
                    .slot
                    .finish_ns
            }
        };
        Ok(ReadResult {
            data: &self.read_buf,
            latency_ns: done - now_ns,
        })
    }

    fn device(&self) -> &NvmDevice {
        &self.device
    }

    fn base_metrics(&self) -> BaseMetrics {
        self.metrics
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
