//! The traditional secure-NVM baseline: counter-mode encryption, no dedup.

use dewrite_crypto::{
    aes_line_energy_pj, CounterModeEngine, AES_LINE_LATENCY_NS, OTP_XOR_LATENCY_NS,
};
use dewrite_mem::Replacement;
use dewrite_nvm::{LineAddr, NvmDevice, NvmError};

use crate::config::SystemConfig;
use crate::counters::CounterTable;
use crate::schemes::{BaseMetrics, MetaTable, ReadResult, SecureMemory, WriteResult};
use crate::trace::{EventSink, Stage, WriteEvent, WritePath};

/// Counter-cache capacity of the baseline: the full 2 MB metadata cache
/// holding 4 B counters.
const COUNTER_CACHE_ENTRIES: usize = (2 << 20) / 4;

/// Counters prefetched per miss (one 256 B line holds 64 of them).
const COUNTER_PREFETCH: usize = 64;

/// Traditional secure NVM (§IV-A: "the counter mode encryption without
/// deduplication").
///
/// Every write bumps the line's counter, encrypts the whole line, and
/// writes it to its home location. Every read fetches the counter
/// (usually from the counter cache) and overlaps OTP generation with the
/// NVM array read.
///
/// ```
/// use dewrite_core::{CmeBaseline, SecureMemory, SystemConfig};
/// use dewrite_nvm::LineAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = CmeBaseline::new(SystemConfig::for_lines(1024), b"key material 16b");
/// let line = vec![5u8; 256];
/// let w = mem.write(LineAddr::new(0), &line, 0)?;
/// assert!(!w.eliminated); // the baseline never eliminates writes
/// let r = mem.read(LineAddr::new(0), w.total_ns)?;
/// assert_eq!(r.data, line);
/// # Ok(())
/// # }
/// ```
pub struct CmeBaseline {
    config: SystemConfig,
    device: NvmDevice,
    engine: CounterModeEngine,
    counters: CounterTable,
    counter_table: MetaTable,
    metrics: BaseMetrics,
    sink: Option<Box<dyn EventSink>>,
    /// Scratch ciphertext buffer reused across writes (no per-write alloc).
    line_buf: Vec<u8>,
    /// Scratch plaintext line a [`ReadResult`] borrows.
    read_buf: Vec<u8>,
}

impl std::fmt::Debug for CmeBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmeBaseline")
            .field("writes", &self.metrics.writes)
            .field("reads", &self.metrics.reads)
            .finish_non_exhaustive()
    }
}

impl CmeBaseline {
    /// Build the baseline over a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: SystemConfig, key: &[u8; 16]) -> Self {
        config.validate().expect("invalid system config");
        let device = NvmDevice::new(config.nvm.clone()).expect("validated config");
        let line_size = config.nvm.line_size;
        let counter_table = MetaTable::new(
            COUNTER_CACHE_ENTRIES,
            Replacement::Lru,
            config.meta_base(),
            config.meta_lines(),
            4,
            COUNTER_PREFETCH,
            true,
            config.meta_cache_hit_ns,
            line_size,
        );
        CmeBaseline {
            config,
            device,
            engine: CounterModeEngine::new(key),
            counters: CounterTable::new(),
            counter_table,
            metrics: BaseMetrics::default(),
            sink: None,
            line_buf: Vec::new(),
            read_buf: vec![0u8; line_size],
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

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

impl SecureMemory for CmeBaseline {
    fn name(&self) -> String {
        "traditional secure NVM (CME)".to_string()
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

        // Fetch + bump the counter (dirty in the counter cache).
        let ctr = self.counter_table.access(
            addr.index(),
            true,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );
        let counter = self.counters.bump(addr.index());

        // Encrypt, then write.
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

        if let Some(sink) = self.sink.as_mut() {
            let mut e = WriteEvent::new(WritePath::Stored);
            e.total_ns = access.slot.finish_ns - now_ns;
            // Counter fetch + AES are one serial stage in the baseline.
            e.set_stage(Stage::Encrypt, enc_done - now_ns);
            e.set_stage(Stage::ArrayWrite, access.slot.finish_ns - enc_done);
            e.set_stage(Stage::Metadata, ctr.done_ns - now_ns);
            sink.record(&e);
        }

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

        let ctr = self.counter_table.access(
            addr.index(),
            false,
            &mut self.device,
            now_ns,
            &mut self.metrics,
        );
        let (ciphertext, access) = self.device.read_line(addr, now_ns)?;

        let done = match self.counters.get(addr.index()) {
            Some(counter) => {
                // OTP generation overlaps the array read once the counter is
                // known; the XOR is the only serial step. Pad energy is not
                // charged: the paper's energy accounting is write-dominated
                // (pads for reads are precomputed while counters sit in the
                // cache), and both schemes treat reads identically.
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
                // Never written: fresh cells read as zeros, nothing to
                // decrypt.
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

    fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KEY: &[u8; 16] = b"unit test key 16";

    fn mem() -> CmeBaseline {
        CmeBaseline::new(SystemConfig::for_lines(4096), KEY)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        let line: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        let w = m.write(LineAddr::new(7), &line, 0).unwrap();
        let r = m.read(LineAddr::new(7), w.total_ns + 10).unwrap();
        assert_eq!(r.data, line);
    }

    #[test]
    fn stored_bytes_are_ciphertext() {
        let mut m = mem();
        let line = vec![0xABu8; 256];
        m.write(LineAddr::new(3), &line, 0).unwrap();
        let raw = m.device.peek_line(LineAddr::new(3)).unwrap();
        assert_ne!(raw, line, "plaintext must never reach the array");
    }

    #[test]
    fn rewrites_change_ciphertext_even_for_same_plaintext() {
        let mut m = mem();
        let line = vec![1u8; 256];
        m.write(LineAddr::new(0), &line, 0).unwrap();
        let ct1 = m.device.peek_line(LineAddr::new(0)).unwrap();
        m.write(LineAddr::new(0), &line, 1_000).unwrap();
        let ct2 = m.device.peek_line(LineAddr::new(0)).unwrap();
        assert_ne!(ct1, ct2, "counter bump must re-randomize ciphertext");
        // …and the diffusion flips ~half the bits (the paper's premise).
        let flips = dewrite_nvm::bit_flips(&ct1, &ct2);
        let ratio = flips as f64 / 2048.0;
        assert!((0.4..0.6).contains(&ratio), "flip ratio {ratio}");
    }

    #[test]
    fn write_latency_includes_serial_encryption() {
        let mut m = mem();
        let w = m.write(LineAddr::new(0), &vec![0u8; 256], 0).unwrap();
        // Counter miss (cold) + AES + 300 ns write at minimum.
        assert!(w.critical_ns >= AES_LINE_LATENCY_NS);
        assert!(w.total_ns >= w.critical_ns + 300);
        assert!(!w.eliminated);
    }

    #[test]
    fn warm_counter_read_is_fast() {
        let mut m = mem();
        let line = vec![9u8; 256];
        m.write(LineAddr::new(5), &line, 0).unwrap();
        m.read(LineAddr::new(5), 10_000).unwrap(); // warm the counter cache
        let r = m.read(LineAddr::new(5), 50_000).unwrap();
        // Counter hit: latency ≈ max(read 75, hit+pad 97) + 1.
        assert!(r.latency_ns <= 100, "latency {}", r.latency_ns);
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut m = mem();
        let r = m.read(LineAddr::new(100), 0).unwrap();
        assert!(r.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut m = mem();
        let too_far = LineAddr::new(4096); // metadata region starts here
        assert!(m.write(too_far, &vec![0u8; 256], 0).is_err());
        assert!(m.read(too_far, 0).is_err());
    }

    #[test]
    fn wrong_line_size_rejected() {
        let mut m = mem();
        assert!(matches!(
            m.write(LineAddr::new(0), &[0u8; 64], 0),
            Err(NvmError::WrongLineSize { .. })
        ));
    }

    #[test]
    fn metrics_accumulate() {
        let mut m = mem();
        let line = vec![2u8; 256];
        m.write(LineAddr::new(0), &line, 0).unwrap();
        m.write(LineAddr::new(1), &line, 500).unwrap();
        m.read(LineAddr::new(0), 1_000).unwrap();
        let b = m.base_metrics();
        assert_eq!(b.writes, 2);
        assert_eq!(b.reads, 1);
        assert_eq!(b.writes_eliminated, 0);
        assert_eq!(b.aes_line_ops, 2); // 2 encrypts (read pads are uncharged)
        assert!(b.meta_nvm_reads >= 1); // cold counter miss
    }

    #[test]
    fn event_sink_records_baseline_stages() {
        use crate::trace::{Stage, StageCollector};
        let mut m = mem();
        m.set_event_sink(Box::new(StageCollector::default()));
        m.write(LineAddr::new(0), &vec![1u8; 256], 0).unwrap();
        let mut sink = m.take_event_sink().expect("sink installed");
        let c = sink
            .as_any_mut()
            .downcast_mut::<StageCollector>()
            .expect("collector type");
        assert_eq!(c.breakdown.stored_writes, 1);
        assert_eq!(c.breakdown.duplicate_writes, 0);
        assert_eq!(c.breakdown.stage(Stage::Encrypt).count(), 1);
        assert_eq!(c.breakdown.stage(Stage::ArrayWrite).count(), 1);
        assert_eq!(
            c.breakdown.stage(Stage::Digest).count(),
            0,
            "no fingerprinting in CME"
        );
    }

    proptest! {
        #[test]
        fn roundtrip_any_content(content in proptest::collection::vec(any::<u8>(), 256),
                                 addr in 0u64..4096,
                                 rewrites in 1usize..4) {
            let mut m = mem();
            let mut t = 0u64;
            for _ in 0..rewrites {
                let w = m.write(LineAddr::new(addr), &content, t).unwrap();
                t = w.total_ns + t + 1;
            }
            let r = m.read(LineAddr::new(addr), t).unwrap();
            prop_assert_eq!(r.data, content);
        }
    }
}
