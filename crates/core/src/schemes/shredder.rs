//! Silent Shredder (Awad et al., ASPLOS'16) as a full scheme.
//!
//! The line-level baseline of §V: eliminate writes of *full-zero* cache
//! lines (data shredding, zeroing on deallocation/initialization) by
//! recording "this line is zero" in metadata instead of writing 256 B of
//! ciphertext. The paper's Fig. 2 shows zero lines average only ~16% of
//! writes, which is why DeWrite's general deduplication wins — this scheme
//! exists to measure exactly that gap through the full system.
//!
//! Implementation: a zero-bitmap rides in the metadata cache (1 bit per
//! line, like the FSM table); zero writes flip the bit and skip both
//! encryption and the array write; reads of zeroed lines return zeros
//! without decryption.

use std::collections::HashSet;

use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_mem::Replacement;
use dewrite_nvm::{is_zero_line, LineAddr, NvmDevice, NvmError};

use crate::config::SystemConfig;
use crate::counters::CounterTable;
use crate::schemes::{BaseMetrics, MetaTable, ReadResult, SecureMemory, WriteResult};

/// Counter-cache sizing shared with [`CmeBaseline`](crate::CmeBaseline).
const COUNTER_CACHE_ENTRIES: usize = (2 << 20) / 4;
const COUNTER_PREFETCH: usize = 64;
/// Zero-bitmap cache: one bit per line, cached in 2048-flag groups.
const ZERO_GROUPS: usize = ((128 << 10) * 8) / 2048;

/// Counter-mode encryption + zero-line write elimination.
#[derive(Debug)]
pub struct SilentShredder {
    config: SystemConfig,
    device: NvmDevice,
    engine: CounterModeEngine,
    counters: CounterTable,
    /// Lines currently "shredded" (logically zero, nothing in the array).
    zeroed: HashSet<u64>,
    counter_table: MetaTable,
    zero_table: MetaTable,
    metrics: BaseMetrics,
    /// Scratch ciphertext buffer reused across writes (no per-write alloc).
    line_buf: Vec<u8>,
    /// Scratch plaintext line a [`ReadResult`] borrows.
    read_buf: Vec<u8>,
}

impl SilentShredder {
    /// Build the scheme over a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: SystemConfig, key: &[u8; 16]) -> Self {
        config.validate().expect("invalid system config");
        let device = NvmDevice::new(config.nvm.clone()).expect("validated config");
        let line_size = config.nvm.line_size;
        let meta_lines = config.meta_lines();
        let counter_table = MetaTable::new(
            COUNTER_CACHE_ENTRIES,
            Replacement::Lru,
            config.meta_base(),
            meta_lines / 2,
            4,
            COUNTER_PREFETCH,
            true,
            config.meta_cache_hit_ns,
            line_size,
        );
        let zero_table = MetaTable::new(
            ZERO_GROUPS,
            Replacement::Lru,
            config.meta_base() + meta_lines / 2,
            (meta_lines - meta_lines / 2).max(1),
            line_size,
            1,
            true,
            config.meta_cache_hit_ns,
            line_size,
        );
        SilentShredder {
            engine: CounterModeEngine::new(key),
            counters: CounterTable::new(config.data_lines),
            zeroed: HashSet::new(),
            counter_table,
            zero_table,
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

    /// Writes eliminated because the line was all zeros.
    pub fn zero_eliminations(&self) -> u64 {
        self.metrics.writes_eliminated
    }
}

impl SecureMemory for SilentShredder {
    fn name(&self) -> String {
        "Silent Shredder (zero-line elimination)".to_string()
    }

    fn write(&mut self, addr: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        self.check_addr(addr)?;
        if data.len() != self.config.nvm.line_size {
            return Err(NvmError::WrongLineSize {
                got: data.len(),
                expected: self.config.nvm.line_size,
            });
        }
        self.metrics.writes += 1;

        // The zero check is free in hardware (wide NOR over the line).
        if is_zero_line(data) {
            let acc = self.zero_table.write_insert(
                addr.index() / 2048,
                &mut self.device,
                now_ns,
                &mut self.metrics,
            );
            self.zeroed.insert(addr.index());
            self.metrics.writes_eliminated += 1;
            return Ok(WriteResult {
                critical_ns: acc.done_ns - now_ns,
                nvm_finish_ns: None,
                eliminated: true,
                total_ns: acc.done_ns - now_ns,
            });
        }

        // Otherwise: plain counter-mode write (as the baseline).
        self.zeroed.remove(&addr.index());
        let ctr = self.counter_table.access(
            addr.index(),
            true,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );
        let counter = self.counters.bump(addr.index());
        let enc_done = ctr.done_ns + AES_LINE_LATENCY_NS;
        self.metrics.aes_line_ops += 1;
        self.device.charge_aes_pj(aes_line_energy_pj(data.len()));
        self.line_buf.resize(data.len(), 0);
        self.engine
            .encrypt_line_into(data, addr.index(), counter, &mut self.line_buf);
        let old = self.device.line(addr)?;
        let flips = crate::schemes::encoded_flips(self.config.bit_encoding, old, &self.line_buf);
        let access = self
            .device
            .write_line_with_flips(addr, &self.line_buf, flips, enc_done)?;
        Ok(WriteResult {
            critical_ns: enc_done - now_ns,
            nvm_finish_ns: Some(access.slot.finish_ns),
            eliminated: false,
            total_ns: access.slot.finish_ns - now_ns,
        })
    }

    fn read(&mut self, addr: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError> {
        self.check_addr(addr)?;
        self.metrics.reads += 1;

        // Zero-bitmap check first: shredded lines short-circuit the array.
        let zacc = self.zero_table.access(
            addr.index() / 2048,
            false,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );
        if self.zeroed.contains(&addr.index()) {
            self.read_buf.fill(0);
            return Ok(ReadResult {
                data: &self.read_buf,
                latency_ns: zacc.done_ns - now_ns,
            });
        }

        let ctr = self.counter_table.access(
            addr.index(),
            false,
            &mut self.device,
            zacc.done_ns,
            &mut self.metrics,
        );
        let (ciphertext, access) = self.device.read_line(addr, zacc.done_ns)?;
        let done = match self.counters.get(addr.index()) {
            Some(counter) => {
                let pad_done = ctr.done_ns + AES_LINE_LATENCY_NS;
                self.engine.decrypt_line_into(
                    ciphertext,
                    addr.index(),
                    counter,
                    &mut self.read_buf,
                );
                access.slot.finish_ns.max(pad_done) + OTP_XOR_LATENCY_NS
            }
            None => {
                self.read_buf.copy_from_slice(ciphertext);
                access.slot.finish_ns.max(ctr.done_ns)
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

    const KEY: &[u8; 16] = b"shredder test k!";

    fn mem() -> SilentShredder {
        SilentShredder::new(SystemConfig::for_lines(2048), KEY)
    }

    #[test]
    fn zero_writes_are_eliminated() {
        let mut m = mem();
        let zero = vec![0u8; 256];
        let w = m.write(LineAddr::new(0), &zero, 0).unwrap();
        assert!(w.eliminated);
        assert!(w.nvm_finish_ns.is_none());
        assert_eq!(m.zero_eliminations(), 1);
        // Reads of shredded lines return zeros fast.
        let r = m.read(LineAddr::new(0), 1_000).unwrap();
        assert_eq!(r.data, zero);
    }

    #[test]
    fn nonzero_writes_behave_like_the_baseline() {
        let mut m = mem();
        let data = vec![0x42u8; 256];
        let w = m.write(LineAddr::new(1), &data, 0).unwrap();
        assert!(!w.eliminated);
        assert_eq!(m.read(LineAddr::new(1), w.total_ns).unwrap().data, data);
        // Stored bytes are ciphertext.
        assert_ne!(m.device().peek_line(LineAddr::new(1)).unwrap(), data);
    }

    #[test]
    fn rezeroing_and_unzeroing_roundtrip() {
        let mut m = mem();
        let zero = vec![0u8; 256];
        let data = vec![7u8; 256];
        m.write(LineAddr::new(5), &data, 0).unwrap();
        m.write(LineAddr::new(5), &zero, 10_000).unwrap(); // shred
        assert_eq!(m.read(LineAddr::new(5), 20_000).unwrap().data, zero);
        m.write(LineAddr::new(5), &data, 30_000).unwrap(); // live again
        assert_eq!(m.read(LineAddr::new(5), 40_000).unwrap().data, data);
    }

    #[test]
    fn only_zero_lines_count_as_eliminated() {
        let mut m = mem();
        let mut t = 0;
        for i in 0..20u64 {
            let data = if i % 4 == 0 {
                vec![0u8; 256]
            } else {
                vec![i as u8; 256]
            };
            m.write(LineAddr::new(i), &data, t).unwrap();
            t += 5_000;
        }
        assert_eq!(m.base_metrics().writes, 20);
        assert_eq!(m.base_metrics().writes_eliminated, 5);
    }

    #[test]
    fn bounds_checks() {
        let mut m = mem();
        assert!(m.write(LineAddr::new(2048), &[0u8; 256], 0).is_err());
        assert!(m.read(LineAddr::new(2048), 0).is_err());
        assert!(m.write(LineAddr::new(0), &[0u8; 64], 0).is_err());
    }
}
