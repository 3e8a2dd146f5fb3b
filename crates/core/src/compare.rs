//! The verify-compare kernel: full-line equality for duplicate
//! confirmation.
//!
//! Every candidate a digest probe surfaces must be byte-compared against
//! the incoming line before the write can be declared a duplicate
//! (§III-B2) — on the host this runs once per verify read, so with dup-rich
//! workloads it sits squarely on the hot path. [`lines_equal`] compares in
//! 32-byte blocks of four `u64` lanes, XOR-combined and tested once per
//! block: on x86_64 (where SSE2 is baseline) LLVM lowers the block loop to
//! 128-bit vector compares, and on other targets it degrades gracefully to
//! scalar `u64`s. The crate stays `forbid(unsafe_code)` — no intrinsics,
//! just an autovectorization-friendly shape.
//!
//! Equality is equality: the kernel can never change a simulated report,
//! so it needs no oracle beyond the differential tests against `==` below.

/// Whether two lines hold identical bytes.
///
/// Lines of different lengths are never equal. Compares 32-byte blocks as
/// four `u64` XOR lanes, one branch per block; then an 8-byte tail loop;
/// then a byte tail. A 256 B line is eight block iterations and zero tail
/// work.
#[inline]
pub fn lines_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a = a;
    let mut b = b;
    while a.len() >= 32 {
        let mut diff = 0u64;
        for lane in 0..4 {
            let x = u64::from_le_bytes(a[lane * 8..lane * 8 + 8].try_into().expect("8 bytes"));
            let y = u64::from_le_bytes(b[lane * 8..lane * 8 + 8].try_into().expect("8 bytes"));
            diff |= x ^ y;
        }
        if diff != 0 {
            return false;
        }
        a = &a[32..];
        b = &b[32..];
    }
    while a.len() >= 8 {
        let x = u64::from_le_bytes(a[..8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        if x != y {
            return false;
        }
        a = &a[8..];
        b = &b[8..];
    }
    for i in 0..a.len() {
        if a[i] != b[i] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_agree(a: &[u8], b: &[u8]) {
        assert_eq!(lines_equal(a, b), a == b, "chunked vs ==");
    }

    #[test]
    fn empty_and_length_mismatch() {
        all_agree(&[], &[]);
        assert!(!lines_equal(&[1], &[]));
        assert!(!lines_equal(&[1, 2, 3], &[1, 2]));
        assert!(!lines_equal(&[0u8; 256], &[0u8; 255]));
    }

    #[test]
    fn odd_lengths_hit_every_tail_path() {
        for len in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65, 255, 256, 257] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut b = a.clone();
            all_agree(&a, &b);
            if len > 0 {
                b[len - 1] ^= 0x01;
                all_agree(&a, &b);
                b[len - 1] ^= 0x01;
                b[0] ^= 0x80;
                all_agree(&a, &b);
            }
        }
    }

    proptest! {
        // Differential: the kernel must agree with `==` on arbitrary 256 B
        // pairs.
        #[test]
        fn differential_arbitrary_pairs(
            a in proptest::collection::vec(any::<u8>(), 256),
            b in proptest::collection::vec(any::<u8>(), 256),
        ) {
            all_agree(&a, &b);
        }

        // Equal lines are always reported equal.
        #[test]
        fn differential_equal_lines(a in proptest::collection::vec(any::<u8>(), 256)) {
            all_agree(&a, &a.clone());
        }

        // A single flipped bit anywhere is always detected.
        #[test]
        fn differential_single_bit_diff(
            a in proptest::collection::vec(any::<u8>(), 256),
            byte in 0usize..256,
            bit in 0u8..8,
        ) {
            let mut b = a.clone();
            b[byte] ^= 1 << bit;
            prop_assert!(!lines_equal(&a, &b));
        }

        // A difference in the last byte only shows in the last block: the
        // kernel must still catch it.
        #[test]
        fn differential_last_byte_diff(a in proptest::collection::vec(any::<u8>(), 256)) {
            let mut b = a.clone();
            b[255] = b[255].wrapping_add(1);
            prop_assert!(!lines_equal(&a, &b));
        }
    }
}
