//! The counter-mode encryption engine over cache lines.

use crate::counter::LineCounter;
use crate::Aes128;

/// Latency of encrypting one 256 B line through the AES pipeline, in ns
/// (§IV-A of the paper: "we set the latency of AES encryption to 96 ns per
/// line").
pub const AES_LINE_LATENCY_NS: u64 = 96;

/// Energy of one 128-bit AES block operation, in picojoules (§IV-A: 5.9 nJ
/// per 128-bit block).
pub const AES_BLOCK_ENERGY_PJ: u64 = 5_900;

/// Latency added to a read's critical path by the final XOR of counter-mode
/// decryption when the pad was precomputed (≈1 cycle; negligible but modeled).
pub const OTP_XOR_LATENCY_NS: u64 = 1;

/// Energy of encrypting one line of `len` bytes (`len`/16 AES blocks).
pub fn aes_line_energy_pj(line_len: usize) -> u64 {
    (line_len as u64).div_ceil(16) * AES_BLOCK_ENERGY_PJ
}

/// Counter-mode encryption engine (Fig. 1 of the paper).
///
/// The one-time pad for block *i* of the line at address *a* with counter *c*
/// is `AES_K(a ‖ c ‖ i)`; encryption and decryption XOR the data with the
/// pad. Distinct addresses and incrementing per-line counters guarantee pad
/// uniqueness.
///
/// ```
/// use dewrite_crypto::{CounterModeEngine, LineCounter};
/// let engine = CounterModeEngine::new(&[7u8; 16]);
/// let plaintext = vec![0xABu8; 256];
/// let ctr = LineCounter::from_value(3);
/// let ct = engine.encrypt_line(&plaintext, 0x1000, ctr);
/// assert_ne!(ct, plaintext);
/// assert_eq!(engine.decrypt_line(&ct, 0x1000, ctr), plaintext);
/// ```
#[derive(Debug, Clone)]
pub struct CounterModeEngine {
    aes: Aes128,
}

impl CounterModeEngine {
    /// Create an engine keyed with the processor's secret `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        CounterModeEngine {
            aes: Aes128::new(key),
        }
    }

    /// Generate the full one-time pad for a line of `len` bytes: the
    /// ciphertext of a zero line.
    ///
    /// Allocating; for inspecting pads. Every product path XORs the pad
    /// straight from source to destination through the `_into` and
    /// [`Self::encrypt_line_over`] forms instead.
    pub fn one_time_pad(&self, addr: u64, counter: LineCounter, len: usize) -> Vec<u8> {
        self.encrypt_line(&vec![0u8; len], addr, counter)
    }

    /// Encrypt `plaintext` for storage at `addr` under `counter`, writing the
    /// ciphertext into `out` in one pass, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != plaintext.len()`.
    pub fn encrypt_line_into(
        &self,
        plaintext: &[u8],
        addr: u64,
        counter: LineCounter,
        out: &mut [u8],
    ) {
        self.aes.ctr_xor(addr, counter.value(), plaintext, out);
    }

    /// Encrypt `plaintext` for storage at `addr` under `counter` over
    /// `line`, the ciphertext stored there now, and return how many bits
    /// the store flipped: exactly `dewrite_nvm::bit_flips(old, new)`, the
    /// count a data-comparison write programs, made in the same single pass
    /// that writes the ciphertext.
    ///
    /// ```
    /// use dewrite_crypto::{CounterModeEngine, LineCounter};
    /// let engine = CounterModeEngine::new(&[7u8; 16]);
    /// let ctr = LineCounter::from_value(1);
    /// let mut line = vec![0u8; 256];
    /// let flips = engine.encrypt_line_over(&[0xAB; 256], 0x1000, ctr, &mut line);
    /// assert_eq!(line, engine.encrypt_line(&[0xAB; 256], 0x1000, ctr));
    /// let set: u32 = line.iter().map(|b| b.count_ones()).sum();
    /// assert_eq!(flips, u64::from(set)); // a zero line flips every set bit
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `line.len() != plaintext.len()`.
    pub fn encrypt_line_over(
        &self,
        plaintext: &[u8],
        addr: u64,
        counter: LineCounter,
        line: &mut [u8],
    ) -> u64 {
        self.aes
            .ctr_xor_over(addr, counter.value(), plaintext, line)
    }

    /// Decrypt `ciphertext` read from `addr` under `counter` into `out`.
    ///
    /// XOR is an involution, so this is the same operation as encryption.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != ciphertext.len()`.
    pub fn decrypt_line_into(
        &self,
        ciphertext: &[u8],
        addr: u64,
        counter: LineCounter,
        out: &mut [u8],
    ) {
        self.encrypt_line_into(ciphertext, addr, counter, out);
    }

    /// Encrypt `plaintext` for storage at `addr` under `counter`.
    ///
    /// Allocating convenience wrapper over [`Self::encrypt_line_into`].
    pub fn encrypt_line(&self, plaintext: &[u8], addr: u64, counter: LineCounter) -> Vec<u8> {
        let mut out = vec![0u8; plaintext.len()];
        self.encrypt_line_into(plaintext, addr, counter, &mut out);
        out
    }

    /// Decrypt `ciphertext` read from `addr` under `counter`.
    ///
    /// XOR is an involution, so this is the same operation as encryption.
    pub fn decrypt_line(&self, ciphertext: &[u8], addr: u64, counter: LineCounter) -> Vec<u8> {
        self.encrypt_line(ciphertext, addr, counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> CounterModeEngine {
        CounterModeEngine::new(b"0123456789abcdef")
    }

    #[test]
    fn ctr_roundtrip_256b() {
        let e = engine();
        let pt: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
        let ct = e.encrypt_line(&pt, 0xDEAD_BEEF, LineCounter::from_value(5));
        assert_eq!(
            e.decrypt_line(&ct, 0xDEAD_BEEF, LineCounter::from_value(5)),
            pt
        );
    }

    #[test]
    fn pads_differ_across_addresses() {
        let e = engine();
        let c = LineCounter::from_value(1);
        assert_ne!(e.one_time_pad(0, c, 64), e.one_time_pad(256, c, 64));
    }

    #[test]
    fn pads_differ_across_counters() {
        let e = engine();
        assert_ne!(
            e.one_time_pad(0, LineCounter::from_value(1), 64),
            e.one_time_pad(0, LineCounter::from_value(2), 64)
        );
    }

    #[test]
    fn wrong_counter_garbles_decryption() {
        let e = engine();
        let pt = vec![0x55u8; 256];
        let ct = e.encrypt_line(&pt, 0x100, LineCounter::from_value(9));
        assert_ne!(e.decrypt_line(&ct, 0x100, LineCounter::from_value(10)), pt);
    }

    #[test]
    fn diffusion_rewrite_flips_about_half_the_bits() {
        // The core premise of the paper: rewriting the *same* plaintext with
        // an incremented counter flips ~50% of the ciphertext bits.
        let e = engine();
        let pt = vec![0u8; 256];
        let c1 = e.encrypt_line(&pt, 0x2000, LineCounter::from_value(1));
        let c2 = e.encrypt_line(&pt, 0x2000, LineCounter::from_value(2));
        let flipped: u32 = c1
            .iter()
            .zip(c2.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let ratio = f64::from(flipped) / 2048.0;
        assert!((0.40..0.60).contains(&ratio), "flip ratio {ratio}");
    }

    #[test]
    fn energy_model() {
        assert_eq!(aes_line_energy_pj(256), 16 * AES_BLOCK_ENERGY_PJ);
        assert_eq!(aes_line_energy_pj(64), 4 * AES_BLOCK_ENERGY_PJ);
        assert_eq!(aes_line_energy_pj(1), AES_BLOCK_ENERGY_PJ);
    }

    #[test]
    fn into_buffer_forms_match_allocating_forms() {
        let e = engine();
        let pt: Vec<u8> = (0..256).map(|i| (i * 13 % 251) as u8).collect();
        let c = LineCounter::from_value(7);

        let mut ct_buf = [0u8; 256];
        e.encrypt_line_into(&pt, 0xF00, c, &mut ct_buf);
        assert_eq!(ct_buf.to_vec(), e.encrypt_line(&pt, 0xF00, c));

        let mut rt = [0u8; 256];
        e.decrypt_line_into(&ct_buf, 0xF00, c, &mut rt);
        assert_eq!(rt.to_vec(), pt);
    }

    // Pin the one-pass kernel to the definition
    // `ct[i] = pt[i] ^ AES_K(addr ‖ ctr ‖ i/16)[i % 16]`.
    #[test]
    fn ciphertext_is_plaintext_xor_per_block_pad() {
        let e = engine();
        let c = LineCounter::from_value(crate::counter::COUNTER_MAX);
        let addr = (1u64 << 32) + 0x40;
        for len in [0, 1, 16, 64, 255, 256, 257] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 29 % 253) as u8).collect();
            let expected: Vec<u8> = pt
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let seed = crate::dispatch::ctr_seed(addr, c.value(), (i / 16) as u32);
                    p ^ e.aes.encrypt_block(&seed)[i % 16]
                })
                .collect();
            assert_eq!(e.encrypt_line(&pt, addr, c), expected, "len {len}");
            assert_eq!(e.decrypt_line(&expected, addr, c), pt, "len {len}");
        }
    }

    #[test]
    fn otp_handles_ragged_tail() {
        let e = engine();
        let c = LineCounter::from_value(2);
        let pad = e.one_time_pad(0x40, c, 37);
        assert_eq!(pad[..], e.one_time_pad(0x40, c, 64)[..37]);
    }

    // Storing over a line equals encrypting into a fresh buffer, and counts
    // the bits that differ from what the line held.
    #[test]
    fn encrypt_over_matches_encrypt_and_counts_flips() {
        let e = engine();
        for len in [0, 1, 37, 64, 256, 257] {
            let old: Vec<u8> = (0..len).map(|i| (i * 91 % 255) as u8).collect();
            let pt: Vec<u8> = (0..len).map(|i| (i * 29 % 253) as u8).collect();
            let c = LineCounter::from_value(3);
            let new = e.encrypt_line(&pt, 0x80, c);
            let expected: u32 = old
                .iter()
                .zip(&new)
                .map(|(o, n)| (o ^ n).count_ones())
                .sum();
            let mut line = old.clone();
            assert_eq!(
                e.encrypt_line_over(&pt, 0x80, c, &mut line),
                u64::from(expected),
                "len {len}"
            );
            assert_eq!(line, new, "len {len}");
        }
    }

    proptest! {
        #[test]
        fn ctr_roundtrip_any(
            key in any::<[u8; 16]>(),
            pt in proptest::collection::vec(any::<u8>(), 1..300),
            addr in any::<u64>(),
            ctr in 0u32..=crate::counter::COUNTER_MAX,
        ) {
            let e = CounterModeEngine::new(&key);
            let c = LineCounter::from_value(ctr);
            let ct = e.encrypt_line(&pt, addr, c);
            prop_assert_eq!(e.decrypt_line(&ct, addr, c), pt);
        }
    }
}
