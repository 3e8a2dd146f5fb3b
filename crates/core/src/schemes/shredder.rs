//! Silent Shredder (Awad et al., ASPLOS'16) as a full scheme.
//!
//! The line-level baseline of §V: eliminate writes of *full-zero* cache
//! lines (data shredding, zeroing on deallocation/initialization) by
//! recording "this line is zero" in metadata instead of writing 256 B of
//! ciphertext. The paper's Fig. 2 shows zero lines average only ~16% of
//! writes, which is why DeWrite's general deduplication wins — this scheme
//! exists to measure exactly that gap through the full system.
//!
//! Implementation: the [`CmeBaseline`] plus a zero bitmap that rides in
//! the metadata cache (1 bit per line, like the FSM table). The counter
//! table takes the first half of the metadata region and the bitmap the
//! rest. Zero writes set the bit and skip both encryption and the array
//! write; reads check the bit first, and zeroed lines return zeros without
//! decryption. Every other access is the baseline's, started once the
//! bitmap lookup is done.

use std::collections::HashSet;

use dewrite_mem::Replacement;
use dewrite_nvm::{is_zero_line, LineAddr, NvmDevice, NvmError};

use crate::config::SystemConfig;
use crate::schemes::{BaseMetrics, CmeBaseline, MetaTable, ReadResult, SecureMemory, WriteResult};

/// Zero-bitmap cache: one bit per line, cached in 2048-flag groups.
const ZERO_GROUPS: usize = ((128 << 10) * 8) / 2048;

/// Counter-mode encryption + zero-line write elimination.
#[derive(Debug)]
pub struct SilentShredder {
    cme: CmeBaseline,
    /// Lines currently "shredded" (logically zero, nothing in the array).
    zeroed: HashSet<u64>,
    zero_table: MetaTable,
}

impl SilentShredder {
    /// Build the scheme over a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: SystemConfig, key: &[u8; 16]) -> Self {
        let cme = CmeBaseline::with_counter_region(config, key, |c| c.meta_lines() / 2);
        let config = cme.config();
        let meta_lines = config.meta_lines();
        let zero_table = MetaTable::new(
            ZERO_GROUPS,
            Replacement::Lru,
            config.meta_base() + meta_lines / 2,
            (meta_lines - meta_lines / 2).max(1),
            config.nvm.line_size,
            1,
            true,
            config.meta_cache_hit_ns,
            config.nvm.line_size,
        );
        SilentShredder {
            cme,
            zeroed: HashSet::new(),
            zero_table,
        }
    }

    /// Writes eliminated because the line was all zeros.
    pub fn zero_eliminations(&self) -> u64 {
        self.cme.array.metrics.writes_eliminated
    }
}

impl SecureMemory for SilentShredder {
    fn name(&self) -> String {
        "Silent Shredder (zero-line elimination)".to_string()
    }

    fn write(&mut self, addr: LineAddr, data: &[u8], now_ns: u64) -> Result<WriteResult, NvmError> {
        // The zero check is free in hardware (wide NOR over the line).
        if !is_zero_line(data) {
            // A plain counter-mode write; the line is live once accepted.
            let result = self.cme.write(addr, data, now_ns)?;
            self.zeroed.remove(&addr.index());
            return Ok(result);
        }
        let array = &mut self.cme.array;
        array.begin_write(addr, data)?;
        let acc = self.zero_table.write_insert(
            addr.index() / 2048,
            &mut array.device,
            now_ns,
            &mut array.metrics,
        );
        self.zeroed.insert(addr.index());
        array.metrics.writes_eliminated += 1;
        Ok(WriteResult {
            critical_ns: acc.done_ns - now_ns,
            nvm_finish_ns: None,
            eliminated: true,
            total_ns: acc.done_ns - now_ns,
        })
    }

    fn read(&mut self, addr: LineAddr, now_ns: u64) -> Result<ReadResult<'_>, NvmError> {
        self.cme.array.begin_read(addr)?;
        // Zero-bitmap check first: shredded lines short-circuit the array.
        let zacc = self.zero_table.access(
            addr.index() / 2048,
            false,
            &mut self.cme.array.device,
            now_ns,
            &mut self.cme.array.metrics,
        );
        if self.zeroed.contains(&addr.index()) {
            self.cme.array.plain_buf.fill(0);
            return Ok(self.cme.array.read_result(now_ns, zacc.done_ns));
        }
        self.cme.read_from(addr, now_ns, zacc.done_ns)
    }

    fn device(&self) -> &NvmDevice {
        self.cme.device()
    }

    fn base_metrics(&self) -> BaseMetrics {
        self.cme.base_metrics()
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
