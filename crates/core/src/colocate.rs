//! The colocated metadata layout of §III-C (Figs. 8 and 9), counted.
//!
//! Per memory line the layout keeps two 33-bit slots (4 B payload + 1 flag
//! bit): the **address-mapping slot** (a real address when the line's
//! initial address is deduplicated away from home) and the **inverted-hash
//! slot** (the digest of the content resident in the line). The paper's
//! observation: for every line, at least one of the two is null — so the
//! line's 28-bit encryption counter is embedded in the null slot, and the
//! dedicated counter table disappears. The flag bit says whether a slot
//! holds its payload or a counter.
//!
//! The corner the paper does not discuss: an address whose own home line
//! still holds *shared* content (referenced by others) after the address
//! was remapped elsewhere has **both** slots occupied — mapping for itself,
//! hash for the content squatting in its home. Such counters spill to a
//! small overflow table. [`DedupIndex::colocation`](crate::DedupIndex::colocation)
//! places every counter of an end state and returns the [`ColocationStats`]
//! (validating the paper's ≥1-null-slot claim on real end states), and
//! [`ColocationStats::storage_overhead`] reproduces the 6.25% arithmetic.

/// Where the counters of one end state sit under the colocated layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColocationStats {
    /// Lines tracked.
    pub lines: u64,
    /// Rows whose counter is embedded in the address-mapping slot.
    pub counters_in_addr_map: u64,
    /// Rows whose counter is embedded in the inverted-hash slot.
    pub counters_in_inverted: u64,
    /// Counters that had to spill to the overflow table (both slots busy).
    pub overflow_counters: u64,
    /// Lines that have no counter (never encrypted).
    pub no_counter: u64,
}

impl ColocationStats {
    /// Fraction of counters that fit in a null slot (the paper's claim is
    /// that this is effectively all of them).
    pub fn embedded_fraction(&self) -> f64 {
        let total = self.counters_in_addr_map + self.counters_in_inverted + self.overflow_counters;
        if total == 0 {
            1.0
        } else {
            (total - self.overflow_counters) as f64 / total as f64
        }
    }

    /// Metadata bytes per line under this layout: two 4 B+flag slots
    /// (address map + inverted hash, counters embedded) + the hash-table
    /// entry (9 B amortized upper bound) + the FSM bit — the paper's
    /// ≈6.25%-of-capacity arithmetic (§IV-E1).
    pub fn storage_overhead(line_size: usize) -> f64 {
        let per_line_bits = (4 * 8 + 1) + (4 * 8 + 1) + 8 * 8 + 1; // §IV-E1: 4B+4B+8B+3bit
        per_line_bits as f64 / (line_size * 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_paper_arithmetic() {
        // §IV-E1: (4B + 4B + 8B + 3 bit) / 256 B ≈ 6.4%.
        let overhead = ColocationStats::storage_overhead(256);
        assert!((0.06..0.07).contains(&overhead), "{overhead}");
    }
}
