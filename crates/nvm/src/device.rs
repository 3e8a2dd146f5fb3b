//! The NVM device model: paged sparse line store + banks + wear + energy.

use crate::bank::{BankSet, BankSlot};
use crate::config::NvmConfig;
use crate::energy::EnergyBreakdown;
use crate::line::LineAddr;
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

/// Lines per page of the sparse store's index: a page is materialized by
/// the first write to any of its lines.
pub const LINES_PER_PAGE: usize = 64;

/// Lines per chunk of the contents arena (64 KB at 256 B lines).
const LINES_PER_CHUNK: usize = 256;

/// One page of the store's index: where each of its lines' contents live,
/// and each line's write count beside that — a write touches the one page
/// and the one line buffer it fills, and nothing is hashed.
#[derive(Debug, Clone)]
struct Page {
    /// Arena slot of each line's contents, plus one; 0 = no contents yet
    /// (the line reads as zeros).
    slot: [u32; LINES_PER_PAGE],
    /// Writes each line has received.
    writes: [u64; LINES_PER_PAGE],
}

/// The simulated NVM DIMM.
///
/// Lines are stored sparsely. The index is fixed-size pages of
/// [`LINES_PER_PAGE`] lines at `addr / LINES_PER_PAGE`, allocated on first
/// write, under a directory that grows only to the highest page written —
/// a fresh device of any capacity costs no memory. Contents live in an
/// append-only arena of fixed-size chunks, one line buffer handed out per
/// line on its first write, so memory follows the lines actually written,
/// not the span they are scattered over. Unwritten lines read as zeros
/// (fresh PCM). Every access is scheduled on the owning bank, so callers
/// observe realistic queueing delays, and every write is charged wear and
/// per-flipped-bit energy.
///
/// ```
/// use dewrite_nvm::{LineAddr, NvmConfig, NvmDevice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nvm = NvmDevice::new(NvmConfig::small())?;
/// let w = nvm.write_with(LineAddr::new(4), 0, |line| {
///     line.fill(7);
///     3 * 256 // every set bit of a 7, programmed from zero cells
/// })?;
/// assert_eq!(w.finish_ns, 300);
/// // The write installed the row, so this read is a 15 ns row-buffer hit.
/// let r = nvm.read_timing(LineAddr::new(4), w.finish_ns)?;
/// assert_eq!(r.finish_ns, 315);
/// assert_eq!(nvm.line(LineAddr::new(4))?, &[7u8; 256][..]);
/// assert_eq!(nvm.wear().total_bits_flipped(), 768);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    /// Page directory; `None` = no line of the page was ever written.
    pages: Vec<Option<Box<Page>>>,
    /// The contents arena: chunks of `LINES_PER_CHUNK` line buffers.
    chunks: Vec<Box<[u8]>>,
    /// Line buffers handed out so far.
    slots: u32,
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
            pages: Vec::new(),
            chunks: Vec::new(),
            slots: 0,
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

    /// Where `addr` lives: its page's directory index and its line index
    /// within that page.
    #[inline]
    fn locate(addr: LineAddr) -> (usize, usize) {
        let index = addr.index();
        (
            (index / LINES_PER_PAGE as u64) as usize,
            (index % LINES_PER_PAGE as u64) as usize,
        )
    }

    /// The page holding `addr`, if any of its lines was ever written.
    #[inline]
    fn page(&self, addr: LineAddr) -> Option<(&Page, usize)> {
        let (page, line) = Self::locate(addr);
        Some((self.pages.get(page)?.as_deref()?, line))
    }

    /// Where arena slot `slot` lives: its chunk and its byte range there.
    #[inline]
    fn slot_range(slot: u32, line_size: usize) -> (usize, std::ops::Range<usize>) {
        let at = slot as usize % LINES_PER_CHUNK * line_size;
        (slot as usize / LINES_PER_CHUNK, at..at + line_size)
    }

    /// `addr`'s line buffer and write count, both materialized (zero) if
    /// the line never had them.
    fn line_entry_mut(&mut self, addr: LineAddr) -> (&mut [u8], &mut u64) {
        let (page, line) = Self::locate(addr);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(|| {
            Box::new(Page {
                slot: [0; LINES_PER_PAGE],
                writes: [0; LINES_PER_PAGE],
            })
        });
        if page.slot[line] == 0 {
            if self.slots as usize == self.chunks.len() * LINES_PER_CHUNK {
                let chunk = vec![0u8; LINES_PER_CHUNK * self.config.line_size];
                self.chunks.push(chunk.into_boxed_slice());
            }
            self.slots = self
                .slots
                .checked_add(1)
                .expect("fewer than 2^32 lines written");
            page.slot[line] = self.slots;
        }
        let (chunk, range) = Self::slot_range(page.slot[line] - 1, self.config.line_size);
        (&mut self.chunks[chunk][range], &mut page.writes[line])
    }

    /// The stored contents of `addr`, borrowed, without modeling an access
    /// (no timing, no energy). Unwritten lines read as zeros.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    #[inline]
    pub fn line(&self, addr: LineAddr) -> Result<&[u8], NvmError> {
        self.check_addr(addr)?;
        Ok(match self.page(addr) {
            Some((page, line)) if page.slot[line] != 0 => {
                let (chunk, range) = Self::slot_range(page.slot[line] - 1, self.config.line_size);
                &self.chunks[chunk][range]
            }
            _ => &self.zero_line,
        })
    }

    /// The stored contents of `addr`, mutable, without modeling an access:
    /// no timing, no energy, no wear, no write counted. This is the array
    /// changing underneath the controller (fault injection: a stuck cell,
    /// an undetected disturb), not a write the controller issued.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn line_mut(&mut self, addr: LineAddr) -> Result<&mut [u8], NvmError> {
        self.check_addr(addr)?;
        Ok(self.line_entry_mut(addr).0)
    }

    /// [`line`](Self::line), copied out.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn peek_line(&self, addr: LineAddr) -> Result<Vec<u8>, NvmError> {
        self.line(addr).map(<[u8]>::to_vec)
    }

    /// Model a read of `addr` arriving at the controller at `now_ns` —
    /// bank scheduling, row-buffer state, energy, the read count — and
    /// return its bank slot. The contents are not handed out: a data read
    /// borrows them with [`line`](Self::line); a metadata fetch (whose
    /// entries live in controller structures) needs none.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range.
    pub fn read_timing(&mut self, addr: LineAddr, now_ns: u64) -> Result<BankSlot, NvmError> {
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
        Ok(slot)
    }

    /// Write `addr`, arriving at the controller at `now_ns`: `program`
    /// overwrites the stored line in place and returns how many cells it
    /// programmed, and the write is charged bank time, array energy and
    /// wear for that count. The encoding (DCW, Flip-N-Write, …) is the
    /// caller's: it picks the cells, the array charges for them.
    ///
    /// # Errors
    ///
    /// Fails if `addr` is out of range; `program` is then not called.
    #[inline]
    pub fn write_with(
        &mut self,
        addr: LineAddr,
        now_ns: u64,
        program: impl FnOnce(&mut [u8]) -> u64,
    ) -> Result<BankSlot, NvmError> {
        self.check_addr(addr)?;
        let (line, writes) = self.line_entry_mut(addr);
        let bits_flipped = program(line);
        *writes += 1;
        let line_writes = *writes;
        // Writes always program the array (PCM has no write coalescing in
        // the row buffer) but do install the row.
        let (slot, _) = self.banks.schedule_row(
            addr.index(),
            self.config.lines_per_row,
            now_ns,
            self.config.timing.write_ns,
            self.config.timing.write_ns,
        );
        self.energy.nvm_write_pj += self.config.energy.write_energy_pj(bits_flipped);
        self.writes += 1;
        self.wear
            .record_write(line_writes, bits_flipped, self.config.line_bits());
        Ok(slot)
    }

    /// Wear statistics accumulated so far.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Writes `addr` has received.
    pub fn line_writes(&self, addr: LineAddr) -> u64 {
        self.page(addr).map_or(0, |(page, line)| page.writes[line])
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

    /// Number of lines holding written contents (distinct lines ever
    /// written; an exact counter, not a walk).
    pub fn lines_in_use(&self) -> usize {
        self.wear.distinct_lines_written()
    }

    /// Bank set (for utilization reporting).
    pub fn banks(&self) -> &BankSet {
        &self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::bit_flips;
    use proptest::prelude::*;

    fn device() -> NvmDevice {
        NvmDevice::new(NvmConfig::small()).unwrap()
    }

    /// Program `data` into `addr` as a data-comparison write: the count
    /// handed back is `bit_flips(old, new)`.
    fn write(d: &mut NvmDevice, addr: u64, data: &[u8], now_ns: u64) -> (BankSlot, u64) {
        let addr = LineAddr::new(addr);
        let flips = bit_flips(d.line(addr).unwrap(), data);
        let slot = d
            .write_with(addr, now_ns, |line| {
                line.copy_from_slice(data);
                flips
            })
            .unwrap();
        (slot, flips)
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut d = device();
        let slot = d.read_timing(LineAddr::new(0), 0).unwrap();
        assert_eq!(slot.finish_ns, 75);
        assert!(d.line(LineAddr::new(0)).unwrap().iter().all(|&b| b == 0));
        assert_eq!(d.wear().total_bits_flipped(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = device();
        let line: Vec<u8> = (0..256).map(|i| i as u8).collect();
        write(&mut d, 9, &line, 0);
        d.read_timing(LineAddr::new(9), 1_000).unwrap();
        assert_eq!(d.line(LineAddr::new(9)).unwrap(), line);
    }

    #[test]
    fn write_counts_flips_against_current_content() {
        let mut d = device();
        let pcm = d.config().energy;
        let a = vec![0xFFu8; 256];
        let mut b = a.clone();
        b[0] = 0xFE;
        // From all-zeros, then a silent write, then one bit.
        for (data, now, expected) in [(&a, 0, 2048), (&a, 400, 0), (&b, 800, 1)] {
            let (bits0, pj0) = (d.wear().total_bits_flipped(), d.energy().nvm_write_pj);
            let (_, flips) = write(&mut d, 1, data, now);
            assert_eq!(flips, expected);
            assert_eq!(d.wear().total_bits_flipped() - bits0, flips);
            assert_eq!(d.energy().nvm_write_pj - pj0, pcm.write_energy_pj(flips));
        }
    }

    #[test]
    fn same_bank_accesses_queue() {
        let mut d = device();
        let banks = d.config().banks as u64;
        let line = vec![1u8; 256];
        assert_eq!(write(&mut d, 0, &line, 0).0.wait_ns, 0);
        // Same bank: line index 0 and index `banks` collide.
        assert_eq!(write(&mut d, banks, &line, 0).0.wait_ns, 300);
        // Different bank: no wait.
        assert_eq!(write(&mut d, 1, &line, 0).0.wait_ns, 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = device();
        let too_far = LineAddr::new(d.config().num_lines());
        assert!(matches!(
            d.read_timing(too_far, 0),
            Err(NvmError::AddressOutOfRange { .. })
        ));
        let err = d
            .write_with(too_far, 0, |_| panic!("program called out of range"))
            .unwrap_err();
        assert!(matches!(err, NvmError::AddressOutOfRange { .. }));
        assert!(!err.to_string().is_empty());
        assert_eq!((d.writes(), d.lines_in_use()), (0, 0));
    }

    #[test]
    fn energy_and_wear_accumulate() {
        let mut d = device();
        let line = vec![0xAAu8; 256];
        write(&mut d, 0, &line, 0);
        d.read_timing(LineAddr::new(0), 500).unwrap();
        assert!(d.energy().nvm_write_pj > 0);
        assert!(d.energy().nvm_read_pj > 0);
        assert_eq!(d.wear().total_line_writes(), 1);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.lines_in_use(), 1);
    }

    #[test]
    fn paper_sized_device_is_sparse_end_to_end() {
        // 64 Mi lines: construction allocates nothing per line, and the
        // first and last line can both be written.
        let mut d = NvmDevice::new(NvmConfig::paper()).unwrap();
        assert_eq!(d.lines_in_use(), 0);
        let last = LineAddr::new(d.config().num_lines() - 1);
        let line = vec![0x5Au8; 256];
        write(&mut d, 0, &line, 0);
        write(&mut d, last.index(), &line, 0);
        write(&mut d, last.index(), &line, 1_000);
        assert_eq!(d.lines_in_use(), 2);
        assert_eq!(d.wear().distinct_lines_written(), 2);
        assert_eq!(d.wear().max_line_writes(), 2);
        assert_eq!(d.wear().total_line_writes(), 3);
        assert_eq!(d.line_writes(LineAddr::new(0)), 1);
        assert_eq!(d.line_writes(last), 2);
        assert_eq!(d.line(last).unwrap(), line);
        // Zeros everywhere else: page neighbours, a page never touched,
        // and the line just below the last page.
        for other in [1, LINES_PER_PAGE as u64, 1 << 20, last.index() - 1] {
            let other = LineAddr::new(other);
            assert!(d.line(other).unwrap().iter().all(|&b| b == 0), "{other}");
            assert_eq!(d.line_writes(other), 0, "{other}");
        }
    }

    #[test]
    fn line_mut_changes_contents_and_nothing_else() {
        let mut d = device();
        let line = vec![0x11u8; 256];
        write(&mut d, 3, &line, 0);
        let (writes, reads, energy) = (d.writes(), d.reads(), *d.energy());
        d.line_mut(LineAddr::new(3)).unwrap()[0] ^= 0xFF;
        // A never-written line can be disturbed too; it stays "not in use".
        d.line_mut(LineAddr::new(700)).unwrap()[5] = 9;
        assert_eq!(d.line(LineAddr::new(3)).unwrap()[0], 0xEE);
        assert_eq!(d.line(LineAddr::new(700)).unwrap()[5], 9);
        assert_eq!(
            (d.writes(), d.reads(), *d.energy()),
            (writes, reads, energy)
        );
        assert_eq!(d.wear().total_line_writes(), 1);
        assert_eq!(d.lines_in_use(), 1);
        assert_eq!(d.line_writes(LineAddr::new(700)), 0);
        assert!(d.line_mut(LineAddr::new(d.config().num_lines())).is_err());
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
            write(&mut d, idx, &content, 0);
            d.read_timing(LineAddr::new(idx), 1_000).unwrap();
            prop_assert_eq!(d.line(LineAddr::new(idx)).unwrap(), &content[..]);
        }

        #[test]
        fn rewriting_same_data_flips_nothing(content in proptest::collection::vec(any::<u8>(), 256)) {
            let mut d = device();
            write(&mut d, 5, &content, 0);
            let (bits, pj) = (d.wear().total_bits_flipped(), d.energy().nvm_write_pj);
            let (_, flips) = write(&mut d, 5, &content, 1_000);
            prop_assert_eq!(flips, 0);
            prop_assert_eq!(d.wear().total_bits_flipped(), bits);
            prop_assert_eq!(d.energy().nvm_write_pj - pj, d.config().energy.write_energy_pj(0));
        }
    }
}
