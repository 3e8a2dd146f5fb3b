//! The NVM device model: sparse line store + banks + wear + energy.

use std::collections::HashMap;

use crate::bank::{BankSet, BankSlot};
use crate::config::NvmConfig;
use crate::energy::EnergyBreakdown;
use crate::line::{bit_flips, LineAddr};
use crate::wear::WearTracker;

/// Error type for device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmError {
    /// The line address is beyond the configured capacity.
    AddressOutOfRange {
        /// The offending address.
        addr: LineAddr,
        /// Number of addressable lines.
        num_lines: u64,
    },
    /// The data length does not match the configured line size.
    WrongLineSize {
        /// Bytes supplied by the caller.
        got: usize,
        /// Configured line size.
        expected: usize,
    },
}

impl std::fmt::Display for NvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvmError::AddressOutOfRange { addr, num_lines } => {
                write!(
                    f,
                    "line address {addr} out of range (capacity {num_lines} lines)"
                )
            }
            NvmError::WrongLineSize { got, expected } => {
                write!(
                    f,
                    "line data is {got} bytes, device uses {expected}-byte lines"
                )
            }
        }
    }
}

impl std::error::Error for NvmError {}

/// Timing/energy outcome of one device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Bank scheduling outcome (start / finish / queueing wait).
    pub slot: BankSlot,
    /// Bits actually programmed (0 for reads).
    pub bits_flipped: u64,
    /// Array energy consumed by this access, in pJ.
    pub energy_pj: u64,
}

/// The simulated NVM DIMM.
///
/// Lines are stored sparsely; unwritten lines read as zeros (fresh PCM).
/// Every access is scheduled on the owning bank, so callers observe realistic
/// queueing delays, and every write is charged wear and per-flipped-bit
/// energy.
///
/// ```
/// use dewrite_nvm::{LineAddr, NvmConfig, NvmDevice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nvm = NvmDevice::new(NvmConfig::small())?;
/// let line = vec![7u8; 256];
/// let w = nvm.write_line(LineAddr::new(4), &line, 0)?;
/// assert_eq!(w.slot.finish_ns, 300);
/// // The write installed the row, so this read is a 15 ns row-buffer hit.
/// let (data, r) = nvm.read_line(LineAddr::new(4), w.slot.finish_ns)?;
/// assert_eq!(data, line);
/// assert_eq!(r.slot.finish_ns, 315);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    store: HashMap<u64, Box<[u8]>>,
    /// What a never-written line reads as.
    zero_line: Box<[u8]>,
    banks: BankSet,
    wear: WearTracker,
    energy: EnergyBreakdown,
    reads: u64,
    writes: u64,
}

impl NvmDevice {
    /// Create a device with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's own validation error text wrapped in
    /// [`NvmError::WrongLineSize`]-style diagnostics via `String`; callers
    /// treat any `Err` as a fatal setup problem.
    pub fn new(config: NvmConfig) -> Result<Self, String> {
        config.validate()?;
        let banks = BankSet::new(config.banks);
        Ok(NvmDevice {
            zero_line: vec![0u8; config.line_size].into_boxed_slice(),
            config,
            store: HashMap::new(),
            banks,
            wear: WearTracker::new(),
            energy: EnergyBreakdown::new(),
            reads: 0,
            writes: 0,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    fn check_addr(&self, addr: LineAddr) -> Result<(), NvmError> {
        if addr.index() >= self.config.num_lines() {
            Err(NvmError::AddressOutOfRange {
                addr,
                num_lines: self.config.num_lines(),
            })
        } else {
            Ok(())
        }
    }

    fn check_len(&self, len: usize) -> Result<(), NvmError> {
        if len != self.config.line_size {
            Err(NvmError::WrongLineSize {
                got: len,
                expected: self.config.line_size,
            })
        } else {
            Ok(())
        }
    }

    /// The stored contents of `addr`, borrowed, without modeling an access
    /// (no timing, no energy). Unwritten lines read as zeros.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn line(&self, addr: LineAddr) -> Result<&[u8], NvmError> {
        self.check_addr(addr)?;
        Ok(self.store.get(&addr.index()).unwrap_or(&self.zero_line))
    }

    /// [`line`](Self::line), copied out.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn peek_line(&self, addr: LineAddr) -> Result<Vec<u8>, NvmError> {
        self.line(addr).map(<[u8]>::to_vec)
    }

    /// Read a line, arriving at the controller at `now_ns`.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn read_line(
        &mut self,
        addr: LineAddr,
        now_ns: u64,
    ) -> Result<(Vec<u8>, Access), NvmError> {
        self.check_addr(addr)?;
        let (slot, row_hit) = self.banks.schedule_row(
            addr.index(),
            self.config.lines_per_row,
            now_ns,
            self.config.timing.row_hit_ns,
            self.config.timing.read_ns,
        );
        let energy = if row_hit {
            self.config.energy.row_hit_read_pj
        } else {
            self.config.energy.read_line_pj
        };
        self.energy.nvm_read_pj += energy;
        self.reads += 1;
        let data = self.peek_line(addr)?;
        Ok((
            data,
            Access {
                slot,
                bits_flipped: 0,
                energy_pj: energy,
            },
        ))
    }

    /// Write a full line; bits programmed are computed against the current
    /// contents (Data Comparison Write happens at the cell level on PCM).
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range or `data` is not one line.
    pub fn write_line(
        &mut self,
        addr: LineAddr,
        data: &[u8],
        now_ns: u64,
    ) -> Result<Access, NvmError> {
        self.check_addr(addr)?;
        self.check_len(data.len())?;
        let flips = bit_flips(self.line(addr)?, data);
        self.write_line_with_flips(addr, data, flips, now_ns)
    }

    /// Write a line, charging wear/energy for an explicit `bits_flipped`
    /// count. Used by encoding schemes (e.g. Flip-N-Write) whose effective
    /// programmed-bit count differs from the raw XOR difference.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range or `data` is not one line.
    pub fn write_line_with_flips(
        &mut self,
        addr: LineAddr,
        data: &[u8],
        bits_flipped: u64,
        now_ns: u64,
    ) -> Result<Access, NvmError> {
        self.check_addr(addr)?;
        self.check_len(data.len())?;
        // Writes always program the array (PCM has no write coalescing in
        // the row buffer) but do install the row.
        let (slot, _) = self.banks.schedule_row(
            addr.index(),
            self.config.lines_per_row,
            now_ns,
            self.config.timing.write_ns,
            self.config.timing.write_ns,
        );
        let energy = self.config.energy.write_energy_pj(bits_flipped);
        self.energy.nvm_write_pj += energy;
        self.writes += 1;
        self.wear
            .record_write(addr, bits_flipped, self.config.line_bits());
        // An overwrite reuses the line's allocation.
        self.store
            .entry(addr.index())
            .and_modify(|line| line.copy_from_slice(data))
            .or_insert_with(|| data.into());
        Ok(Access {
            slot,
            bits_flipped,
            energy_pj: energy,
        })
    }

    /// Wear statistics accumulated so far.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Array energy accumulated so far.
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Charge external (controller-side) energy to the device's breakdown so
    /// whole-system totals live in one place.
    pub fn charge_aes_pj(&mut self, pj: u64) {
        self.energy.aes_pj += pj;
    }

    /// Charge dedup-logic energy (hashing, comparison).
    pub fn charge_dedup_pj(&mut self, pj: u64) {
        self.energy.dedup_pj += pj;
    }

    /// Total reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of lines currently backed by storage.
    pub fn lines_in_use(&self) -> usize {
        self.store.len()
    }

    /// Bank set (for utilization reporting).
    pub fn banks(&self) -> &BankSet {
        &self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn device() -> NvmDevice {
        NvmDevice::new(NvmConfig::small()).unwrap()
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut d = device();
        let (data, acc) = d.read_line(LineAddr::new(0), 0).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(acc.bits_flipped, 0);
        assert_eq!(acc.slot.finish_ns, 75);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = device();
        let line: Vec<u8> = (0..256).map(|i| i as u8).collect();
        d.write_line(LineAddr::new(9), &line, 0).unwrap();
        let (data, _) = d.read_line(LineAddr::new(9), 1_000).unwrap();
        assert_eq!(data, line);
    }

    #[test]
    fn write_counts_flips_against_current_content() {
        let mut d = device();
        let a = vec![0xFFu8; 256];
        let w1 = d.write_line(LineAddr::new(1), &a, 0).unwrap();
        assert_eq!(w1.bits_flipped, 2048); // from all-zeros

        let w2 = d.write_line(LineAddr::new(1), &a, 400).unwrap();
        assert_eq!(w2.bits_flipped, 0); // silent write

        let mut b = a.clone();
        b[0] = 0xFE;
        let w3 = d.write_line(LineAddr::new(1), &b, 800).unwrap();
        assert_eq!(w3.bits_flipped, 1);
    }

    #[test]
    fn same_bank_accesses_queue() {
        let mut d = device();
        let banks = d.config().banks as u64;
        let line = vec![1u8; 256];
        let w = d.write_line(LineAddr::new(0), &line, 0).unwrap();
        assert_eq!(w.slot.wait_ns, 0);
        // Same bank: line index 0 and index `banks` collide.
        let w2 = d.write_line(LineAddr::new(banks), &line, 0).unwrap();
        assert_eq!(w2.slot.wait_ns, 300);
        // Different bank: no wait.
        let w3 = d.write_line(LineAddr::new(1), &line, 0).unwrap();
        assert_eq!(w3.slot.wait_ns, 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = device();
        let too_far = LineAddr::new(d.config().num_lines());
        assert!(matches!(
            d.read_line(too_far, 0),
            Err(NvmError::AddressOutOfRange { .. })
        ));
        let line = vec![0u8; 256];
        assert!(d.write_line(too_far, &line, 0).is_err());
    }

    #[test]
    fn wrong_length_rejected() {
        let mut d = device();
        let err = d.write_line(LineAddr::new(0), &[0u8; 64], 0).unwrap_err();
        assert!(matches!(
            err,
            NvmError::WrongLineSize {
                got: 64,
                expected: 256
            }
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn energy_and_wear_accumulate() {
        let mut d = device();
        let line = vec![0xAAu8; 256];
        d.write_line(LineAddr::new(0), &line, 0).unwrap();
        d.read_line(LineAddr::new(0), 500).unwrap();
        assert!(d.energy().nvm_write_pj > 0);
        assert!(d.energy().nvm_read_pj > 0);
        assert_eq!(d.wear().total_line_writes(), 1);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.lines_in_use(), 1);
    }

    #[test]
    fn external_energy_charges() {
        let mut d = device();
        d.charge_aes_pj(100);
        d.charge_dedup_pj(7);
        assert_eq!(d.energy().aes_pj, 100);
        assert_eq!(d.energy().dedup_pj, 7);
    }

    proptest! {
        #[test]
        fn roundtrip_any_content(content in proptest::collection::vec(any::<u8>(), 256),
                                 idx in 0u64..4096) {
            let mut d = device();
            d.write_line(LineAddr::new(idx), &content, 0).unwrap();
            let (data, _) = d.read_line(LineAddr::new(idx), 1_000).unwrap();
            prop_assert_eq!(data, content);
        }

        #[test]
        fn rewriting_same_data_flips_nothing(content in proptest::collection::vec(any::<u8>(), 256)) {
            let mut d = device();
            d.write_line(LineAddr::new(5), &content, 0).unwrap();
            let w = d.write_line(LineAddr::new(5), &content, 1_000).unwrap();
            prop_assert_eq!(w.bits_flipped, 0);
        }
    }
}
