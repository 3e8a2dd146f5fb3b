//! A reference kernel: how fast is this host *right now*?
//!
//! The reference host is a 2-vCPU guest on a shared machine whose memory
//! system alternates, for minutes at a time, between a quiet phase and a
//! contended one in which every workload here runs 30–50% slower (pure
//! arithmetic is unaffected; cache capacity and memory latency are what
//! the neighbours take). A 12 s run sits wholly inside one phase, so no
//! amount of repetition inside the run averages the phase out, and two
//! runs of one commit differ by more than any bound the benchmark may set.
//!
//! So every repetition is bracketed by a pass of this kernel — a fixed
//! piece of the benchmark's own code that touches nothing of the system
//! under test — and the repetition's host-time readings are scaled by how
//! long the kernel took against its nominal time. The kernel copies the
//! memory behaviour of a store-path write (which is why its sensitivity to
//! the phases matches the workloads'): stream a 256 B payload out of a
//! buffer too large to cache and fold it, overwrite a random 256 B line of
//! a 16 MiB arena counting the bits that flip, bump a random slot of a
//! 2 MiB table. Over ten back-to-back runs per workload (a different seed
//! each), three of which fell into a contended phase, the unscaled
//! `ops_per_s`, `lat_p50_us` and `cpu_us_per_op` spread by 19–24% of their
//! median; scaled, a survey of the same kind spread them by 2–7%.
//!
//! A change to the system cannot move the kernel, so parent and change
//! are scaled by the same yardstick and a real regression still shows.

use std::time::Instant;

/// What one pass takes on the reference host in a quiet phase, ns. Only
/// ratios of scaled readings mean anything, so this merely puts them in
/// the same range as the raw ones.
pub const NOMINAL_NS: f64 = 13.5e6;

/// Operations per pass.
const OPS: usize = 60_000;
/// `u64` words per 256 B line.
const LINE_WORDS: usize = 32;

/// The kernel's buffers (50 MiB, allocated once per process).
#[derive(Debug)]
pub struct Reference {
    stream: Vec<u64>,
    arena: Vec<u64>,
    table: Vec<u64>,
    cursor: usize,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocate and fill the buffers.
    pub fn new() -> Reference {
        let filled = |words: usize| -> Vec<u64> {
            (0..words as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
                .collect()
        };
        Reference {
            stream: filled(32 << 17), // 32 MiB: never cache-resident
            arena: filled(16 << 17),  // 16 MiB: the size of a shard's store
            table: filled(2 << 17),   // 2 MiB: index-sized
            cursor: 0,
        }
    }

    /// One pass; returns how long it took, ns.
    pub fn pass(&mut self) -> u64 {
        let start = Instant::now();
        let lines = self.arena.len() / LINE_WORDS;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..OPS {
            let at = self.cursor;
            self.cursor = (at + LINE_WORDS) % (self.stream.len() - LINE_WORDS);
            let payload = &self.stream[at..at + LINE_WORDS];
            let fold = payload.iter().fold(0u64, |s, &w| s.rotate_left(5) ^ w);
            x = (x ^ fold).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 31;
            let line = (x as usize % lines) * LINE_WORDS;
            let mut flips = 0u32;
            for (old, &new) in self.arena[line..line + LINE_WORDS].iter_mut().zip(payload) {
                flips += (*old ^ new ^ x).count_ones();
                *old = new ^ x;
            }
            let slot = (x >> 20) as usize % self.table.len();
            self.table[slot] = self.table[slot].wrapping_add(u64::from(flips));
        }
        std::hint::black_box(x);
        start.elapsed().as_nanos() as u64
    }

    /// How much slower than nominal the host ran a repetition bracketed
    /// by passes that took `before_ns` and `after_ns` (1.0 = nominal).
    pub fn slowdown(before_ns: u64, after_ns: u64) -> f64 {
        (before_ns + after_ns) as f64 / 2.0 / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_take_time_and_do_not_depend_on_each_other() {
        let mut reference = Reference::new();
        let first = reference.pass();
        let second = reference.pass();
        assert!(first > 0 && second > 0);
        assert!(Reference::slowdown(first, second) > 0.0);
        assert_eq!(Reference::slowdown(13_500_000, 13_500_000), 1.0);
        assert_eq!(Reference::slowdown(27_000_000, 27_000_000), 2.0);
    }
}
