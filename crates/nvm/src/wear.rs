//! Endurance (wear) tracking.
//!
//! PCM cells endure 10^7–10^8 programming cycles (§I). The tracker keeps the
//! aggregate write and programmed-bit counts experiments report — write
//! reduction (Fig. 12), bit-flip rates (Fig. 13), derived lifetime
//! estimates — as running values: nothing here walks the written lines.
//! The per-line write counts themselves live beside the lines, in the
//! device's pages ([`NvmDevice::line_writes`](crate::NvmDevice::line_writes)).

/// Aggregate wear statistics.
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    total_line_writes: u64,
    total_bits_flipped: u64,
    total_bits_written: u64,
    max_line_writes: u64,
    distinct_lines_written: usize,
}

impl WearTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write to a line that has now been written `line_writes`
    /// times (this write included) and flipped `bits_flipped` of its
    /// `line_bits` cells.
    pub(crate) fn record_write(&mut self, line_writes: u64, bits_flipped: u64, line_bits: u64) {
        self.total_line_writes += 1;
        self.total_bits_flipped += bits_flipped;
        self.total_bits_written += line_bits;
        self.max_line_writes = self.max_line_writes.max(line_writes);
        self.distinct_lines_written += usize::from(line_writes == 1);
    }

    /// Total whole-line writes observed.
    pub fn total_line_writes(&self) -> u64 {
        self.total_line_writes
    }

    /// Total programmed (flipped) bits.
    pub fn total_bits_flipped(&self) -> u64 {
        self.total_bits_flipped
    }

    /// Average fraction of bits flipped per write (Fig. 13's y-axis).
    pub fn bit_flip_ratio(&self) -> f64 {
        if self.total_bits_written == 0 {
            0.0
        } else {
            self.total_bits_flipped as f64 / self.total_bits_written as f64
        }
    }

    /// Write count of the single most-written line (wear hot spot).
    pub fn max_line_writes(&self) -> u64 {
        self.max_line_writes
    }

    /// Number of distinct lines ever written.
    pub fn distinct_lines_written(&self) -> usize {
        self.distinct_lines_written
    }

    /// Relative lifetime versus a baseline tracker processing the same
    /// workload: `baseline max-wear / our max-wear` (>1 means we last
    /// longer). Returns `None` if either tracker saw no writes.
    pub fn relative_lifetime_vs(&self, baseline: &WearTracker) -> Option<f64> {
        let ours = self.max_line_writes();
        let theirs = baseline.max_line_writes();
        if ours == 0 || theirs == 0 {
            None
        } else {
            Some(theirs as f64 / ours as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut w = WearTracker::new();
        // Line A written twice, line B once.
        w.record_write(1, 100, 2048);
        w.record_write(2, 50, 2048);
        w.record_write(1, 10, 2048);
        assert_eq!(w.total_line_writes(), 3);
        assert_eq!(w.total_bits_flipped(), 160);
        assert_eq!(w.max_line_writes(), 2);
        assert_eq!(w.distinct_lines_written(), 2);
    }

    #[test]
    fn flip_ratio() {
        let mut w = WearTracker::new();
        assert_eq!(w.bit_flip_ratio(), 0.0);
        w.record_write(1, 1024, 2048);
        assert!((w.bit_flip_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_lifetime() {
        let mut dedup = WearTracker::new();
        let mut base = WearTracker::new();
        for n in 1..=10 {
            base.record_write(n, 1024, 2048);
        }
        for n in 1..=5 {
            dedup.record_write(n, 1024, 2048);
        }
        assert_eq!(dedup.relative_lifetime_vs(&base), Some(2.0));
        assert_eq!(WearTracker::new().relative_lifetime_vs(&base), None);
    }
}
