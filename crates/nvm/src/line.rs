//! Line addressing and line-content helpers.

/// Default cache-line / memory-line size in bytes.
///
/// The paper uses 256 B lines throughout (§III-B1): "We consider the 256B of
/// deduplication granularity to reduce the metadata overheads … the
/// commercial processors, e.g., IBM z systems processors, also use the 256B
/// cache line size."
pub const DEFAULT_LINE_SIZE: usize = 256;

/// The index of a memory line (not a byte address).
///
/// A `LineAddr` is what the paper calls the *initial address number*: the
/// line-granular address the CPU issues. Under deduplication it may map to a
/// different *real* storage location; both sides of that mapping use this
/// type.
///
/// ```
/// use dewrite_nvm::LineAddr;
/// let a = LineAddr::new(42);
/// assert_eq!(a.index(), 42);
/// assert_eq!(a.byte_offset(256), 42 * 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wrap a line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The raw line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The byte offset of this line for a given line size.
    pub const fn byte_offset(self, line_size: usize) -> u64 {
        self.0 * line_size as u64
    }

    /// The next line.
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }
}

impl From<u64> for LineAddr {
    fn from(index: u64) -> Self {
        LineAddr(index)
    }
}

impl From<LineAddr> for u64 {
    fn from(addr: LineAddr) -> Self {
        addr.0
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Count the differing bits between two equal-length buffers.
///
/// This is the quantity PCM cell-level write-reduction schemes (DCW) care
/// about: only differing bits must be programmed.
///
/// # Panics
///
/// Panics if the buffers have different lengths.
///
/// ```
/// use dewrite_nvm::bit_flips;
/// assert_eq!(bit_flips(&[0x0F], &[0xF0]), 8);
/// assert_eq!(bit_flips(&[0xFF], &[0xFF]), 0);
/// ```
pub fn bit_flips(old: &[u8], new: &[u8]) -> u64 {
    assert_eq!(old.len(), new.len(), "bit_flips requires equal lengths");
    let (old_words, old_tail) = le_words(old);
    let (new_words, new_tail) = le_words(new);
    let words: u64 = old_words
        .zip(new_words)
        .map(|(a, b)| u64::from((a ^ b).count_ones()))
        .sum();
    let tail: u64 = old_tail
        .iter()
        .zip(new_tail)
        .map(|(a, b)| u64::from((a ^ b).count_ones()))
        .sum();
    words + tail
}

/// `bytes` as `u64` words plus the ragged tail (under 8 bytes): one XOR +
/// popcount per eight bytes instead of per byte. (`chunks_exact`, not a
/// zero-padded `chunks`: the fixed-size load is what lets the loop run
/// from registers.)
fn le_words(bytes: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let words = chunks.map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8")));
    (words, tail)
}

/// Whether every byte of `data` is zero (a "shredded"/zero line, the case
/// Silent Shredder optimizes).
///
/// ```
/// use dewrite_nvm::is_zero_line;
/// assert!(is_zero_line(&[0u8; 256]));
/// assert!(!is_zero_line(&[1u8]));
/// ```
pub fn is_zero_line(data: &[u8]) -> bool {
    data.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addr_conversions() {
        let a: LineAddr = 7u64.into();
        assert_eq!(u64::from(a), 7);
        assert_eq!(a.next().index(), 8);
        assert_eq!(a.to_string(), "L0x7");
    }

    #[test]
    fn byte_offset_scales_with_line_size() {
        assert_eq!(LineAddr::new(3).byte_offset(64), 192);
        assert_eq!(LineAddr::new(3).byte_offset(256), 768);
    }

    #[test]
    fn bit_flips_counts_symmetric_difference() {
        assert_eq!(bit_flips(&[0b1010_1010], &[0b0101_0101]), 8);
        assert_eq!(bit_flips(&[0xFF, 0x00], &[0x00, 0xFF]), 16);
        assert_eq!(bit_flips(&[], &[]), 0);
    }

    /// The byte-at-a-time loop the word-wise count replaced, kept as its
    /// oracle.
    fn bit_flips_bytewise(old: &[u8], new: &[u8]) -> u64 {
        old.iter()
            .zip(new.iter())
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }

    // Differential: word-wise vs byte loop on every ragged length around
    // the 8-byte word, at shifted (unaligned) starts.
    #[test]
    fn bit_flips_words_match_bytewise() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        let a: Vec<u8> = (0..308).map(|_| next()).collect();
        let b: Vec<u8> = (0..308).map(|_| next()).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let (old, new) = (&a[start..start + len], &b[start..start + len]);
                assert_eq!(
                    bit_flips(old, new),
                    bit_flips_bytewise(old, new),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn bit_flips_rejects_ragged() {
        let _ = bit_flips(&[0], &[0, 0]);
    }

    proptest! {
        #[test]
        fn bit_flips_is_symmetric(a in proptest::collection::vec(any::<u8>(), 0..64),
                                  b_seed in any::<u64>()) {
            let b: Vec<u8> = a.iter().enumerate()
                .map(|(i, &x)| x ^ (b_seed.rotate_left(i as u32) as u8))
                .collect();
            prop_assert_eq!(bit_flips(&a, &b), bit_flips(&b, &a));
        }

        #[test]
        fn bit_flips_zero_iff_equal(a in proptest::collection::vec(any::<u8>(), 1..64)) {
            prop_assert_eq!(bit_flips(&a, &a), 0);
            let mut b = a.clone();
            b[0] ^= 1;
            prop_assert_eq!(bit_flips(&a, &b), 1);
        }

        #[test]
        fn zero_line_detection(len in 0usize..512) {
            prop_assert!(is_zero_line(&vec![0u8; len]));
        }
    }
}
