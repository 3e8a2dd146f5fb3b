//! CRC-32 (IEEE 802.3) and CRC-32C (Castagnoli): slice-by-8 tables, with
//! a hardware leg each on x86-64.
//!
//! Both are reflected CRCs with initial value `0xFFFF_FFFF` and final XOR
//! `0xFFFF_FFFF`. The eight 256-entry lookup tables are generated at
//! *compile time* (`const fn`), so [`Crc32::new`] / [`Crc32c::new`] are
//! free — they just borrow a `'static` table set. The portable hot loop
//! consumes eight bytes per iteration (slice-by-8). On x86-64 CRC-32C
//! dispatches to the SSE4.2 `crc32` instruction (the Castagnoli polynomial
//! is the one it implements), and plain CRC-32 folds inputs of 64 bytes
//! and up 512 bits per step with PCLMULQDQ (`crc32_hw.rs`), leaving only
//! the sub-16-byte tail and short inputs to the tables.
//!
//! Backend choice never changes the checksum — the hardware and slice-by-8
//! paths are differentially tested against the byte-at-a-time loop the
//! repo started with (now a test-only oracle) and a bitwise (table-free)
//! reference. `DEWRITE_PORTABLE=1` pins both CRCs to slice-by-8;
//! [`Crc32::portable`] / [`Crc32c::portable`] do the same for one instance.

use crate::portable::portable_only;
use crate::traits::{HashAlgorithm, LineHasher};

/// Reflected polynomial for CRC-32 (IEEE 802.3 / zlib / PNG).
pub(crate) const POLY_IEEE: u32 = 0xEDB8_8320;
/// Reflected polynomial for CRC-32C (Castagnoli / iSCSI / SSE4.2).
const POLY_CASTAGNOLI: u32 = 0x82F6_3B78;

/// Build the slice-by-8 table set for a reflected polynomial at compile
/// time. `tables[0]` is the classic byte-at-a-time table; `tables[k]`
/// advances a byte `k` positions further through the shift register.
const fn build_tables(reflected_poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ reflected_poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES_IEEE: [[u32; 256]; 8] = build_tables(POLY_IEEE);
static TABLES_CASTAGNOLI: [[u32; 256]; 8] = build_tables(POLY_CASTAGNOLI);

/// Shared slice-by-8 engine for reflected 32-bit CRCs. Construction is free:
/// the tables are `'static`, baked in at compile time.
#[derive(Clone, Copy)]
struct CrcEngine {
    tables: &'static [[u32; 256]; 8],
}

impl CrcEngine {
    const fn new(tables: &'static [[u32; 256]; 8]) -> Self {
        CrcEngine { tables }
    }

    fn checksum(&self, data: &[u8]) -> u32 {
        self.update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Slice-by-8 over the raw (un-inverted) register: fold eight bytes
    /// into the CRC per iteration.
    fn update(&self, mut crc: u32, data: &[u8]) -> u32 {
        let t = self.tables;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// The seed-era byte-at-a-time loop: the tests' oracle for the
    /// slice-by-8 and hardware legs.
    #[cfg(test)]
    fn checksum_bytewise(&self, data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = (crc >> 8) ^ self.tables[0][idx];
        }
        crc ^ 0xFFFF_FFFF
    }
}

impl std::fmt::Debug for CrcEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrcEngine")
            .field("table[0][1]", &format_args!("{:#010x}", self.tables[0][1]))
            .finish()
    }
}

/// CRC-32 (IEEE 802.3) — the light-weight fingerprint used by DeWrite.
///
/// ```
/// use dewrite_hashes::Crc32;
/// let crc = Crc32::new();
/// // The canonical "123456789" check value.
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    engine: CrcEngine,
    /// Whether `checksum` may take the PCLMULQDQ folding leg.
    fold: bool,
}

impl Crc32 {
    /// Create a CRC-32 hasher. Free: the tables are compile-time constants
    /// and the backend is picked per call from cached flags.
    pub const fn new() -> Self {
        Crc32 {
            engine: CrcEngine::new(&TABLES_IEEE),
            fold: true,
        }
    }

    /// Create a hasher pinned to the portable slice-by-8 path.
    pub const fn portable() -> Self {
        Crc32 {
            engine: CrcEngine::new(&TABLES_IEEE),
            fold: false,
        }
    }

    /// The backend [`checksum`](Self::checksum) takes right now for inputs
    /// long enough to fold: [`CrcBackend::Pclmul`] when the CPU has
    /// PCLMULQDQ, `DEWRITE_PORTABLE` is off and this instance is not
    /// [`portable`](Self::portable); slice-by-8 otherwise. Both inputs are
    /// cached flags, so asking per call is free.
    pub fn backend_kind(&self) -> CrcBackend {
        #[cfg(target_arch = "x86_64")]
        if self.fold && std::arch::is_x86_feature_detected!("pclmulqdq") && !portable_only() {
            return CrcBackend::Pclmul;
        }
        CrcBackend::Slice8
    }

    /// Compute the CRC-32 checksum of `data`: PCLMULQDQ folding for the
    /// 16-byte-multiple prefix of inputs of 64 bytes and up on the
    /// [`CrcBackend::Pclmul`] backend, slice-by-8 for the rest.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= crate::crc32_hw::FOLD_MIN_BYTES
            && self.backend_kind() == CrcBackend::Pclmul
        {
            // SAFETY: a `Pclmul` answer means `pclmulqdq` was detected.
            #[allow(unsafe_code)]
            let (state, tail) = unsafe { crate::crc32_hw::crc32_ieee_fold(0xFFFF_FFFF, data) };
            return self.engine.update(state, tail) ^ 0xFFFF_FFFF;
        }
        self.engine.checksum(data)
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl LineHasher for Crc32 {
    fn algorithm(&self) -> HashAlgorithm {
        HashAlgorithm::Crc32
    }

    fn digest(&self, data: &[u8]) -> u64 {
        u64::from(self.checksum(data))
    }
}

/// Which implementation a [`Crc32`] or [`Crc32c`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrcBackend {
    /// Portable slice-by-8 over compile-time tables.
    Slice8,
    /// x86 SSE4.2 `crc32` instruction (CRC-32C only).
    Sse42,
    /// x86 PCLMULQDQ folding (CRC-32 only).
    Pclmul,
}

impl std::fmt::Display for CrcBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrcBackend::Slice8 => "slice-by-8",
            CrcBackend::Sse42 => "sse4.2",
            CrcBackend::Pclmul => "pclmul",
        })
    }
}

/// CRC-32C (Castagnoli) — same circuit cost, different polynomial; used in
/// the hash-function ablation experiment. Dispatches to the SSE4.2 `crc32`
/// instruction when the host CPU has it (this is the polynomial that
/// instruction implements).
///
/// ```
/// use dewrite_hashes::Crc32c;
/// let crc = Crc32c::new();
/// assert_eq!(crc.checksum(b"123456789"), 0xE306_9283);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    engine: CrcEngine,
    backend: CrcBackend,
}

impl Crc32c {
    /// Create a CRC-32C hasher on the fastest available backend. Free: no
    /// tables are built at runtime, and feature detection is a cached flag.
    pub fn new() -> Self {
        let backend = if !portable_only() && hw_available() {
            CrcBackend::Sse42
        } else {
            CrcBackend::Slice8
        };
        Crc32c {
            engine: CrcEngine::new(&TABLES_CASTAGNOLI),
            backend,
        }
    }

    /// Create a hasher pinned to the portable slice-by-8 path.
    pub const fn portable() -> Self {
        Crc32c {
            engine: CrcEngine::new(&TABLES_CASTAGNOLI),
            backend: CrcBackend::Slice8,
        }
    }

    /// The backend this instance dispatches to.
    pub fn backend_kind(&self) -> CrcBackend {
        self.backend
    }

    /// Compute the CRC-32C checksum of `data`.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            CrcBackend::Sse42 => {
                // SAFETY: an `Sse42` backend is only constructed after
                // `is_x86_feature_detected!("sse4.2")` succeeded.
                #[allow(unsafe_code)]
                unsafe {
                    crate::crc32_hw::crc32c_sse42(data)
                }
            }
            _ => self.engine.checksum(data),
        }
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

fn hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl LineHasher for Crc32c {
    fn algorithm(&self) -> HashAlgorithm {
        HashAlgorithm::Crc32c
    }

    fn digest(&self, data: &[u8]) -> u64 {
        u64::from(self.checksum(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bitwise (table-free) reference implementation.
    fn crc32_bitwise(poly: u32, data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ poly
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn ieee_check_vectors() {
        let crc = Crc32::new();
        assert_eq!(crc.checksum(b""), 0x0000_0000);
        assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc.checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(crc.checksum(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc.checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn castagnoli_check_vectors() {
        for crc in [Crc32c::new(), Crc32c::portable()] {
            assert_eq!(crc.checksum(b""), 0x0000_0000);
            assert_eq!(crc.checksum(b"123456789"), 0xE306_9283);
            // RFC 3720 B.4: 32 bytes of zeros.
            assert_eq!(crc.checksum(&[0u8; 32]), 0x8A91_36AA);
            // RFC 3720 B.4: 32 bytes of 0xFF.
            assert_eq!(crc.checksum(&[0xFFu8; 32]), 0x62A8_AB43);
        }
    }

    #[test]
    fn digest_matches_checksum() {
        let crc = Crc32::new();
        assert_eq!(crc.digest(b"xyz"), u64::from(crc.checksum(b"xyz")));
    }

    #[test]
    fn zero_line_has_stable_digest() {
        // The hash table keys zero lines like any other content; make sure
        // the digest of a 256 B zero line is fixed across instances.
        let a = Crc32::new().digest(&[0u8; 256]);
        let b = Crc32::new().digest(&[0u8; 256]);
        assert_eq!(a, b);
    }

    // Differential: the dispatched CRC-32 (PCLMULQDQ fold from 64 bytes up
    // unless DEWRITE_PORTABLE pins slice-by-8) and the pinned-portable
    // instance vs the byte-at-a-time loop, at every length around the
    // fold's 16- and 64-byte steps and at every load alignment.
    #[test]
    fn crc32_fold_matches_bytewise() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1024 + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for crc in [Crc32::new(), Crc32::portable()] {
            for start in 0..16 {
                for len in 0..=1024 {
                    let slice = &data[start..start + len];
                    assert_eq!(
                        crc.checksum(slice),
                        crc.engine.checksum_bytewise(slice),
                        "start {start} len {len}"
                    );
                }
            }
        }
    }

    // Known answers long enough to reach the fold (the "123456789" check
    // is 9 bytes): values from zlib's `crc32()`.
    #[test]
    fn crc32_fold_known_answers() {
        let ramp: Vec<u8> = (0..=255u8).collect();
        for crc in [Crc32::new(), Crc32::portable()] {
            assert_eq!(crc.checksum(&ramp[..64]), 0x100E_CE8C);
            assert_eq!(crc.checksum(&ramp), 0x2905_8C73);
            assert_eq!(crc.checksum(&[0u8; 256]), 0x0D96_8558);
            assert_eq!(crc.checksum(&[0xFFu8; 100]), 0x03D2_8681);
        }
    }

    #[test]
    fn bytewise_baseline_matches_slice8() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let crc = Crc32::portable();
        assert_eq!(crc.checksum(&data), crc.engine.checksum_bytewise(&data));
        let crcc = Crc32c::portable();
        assert_eq!(crcc.checksum(&data), crcc.engine.checksum_bytewise(&data));
    }

    proptest! {
        // Differential: slice-by-8 must agree with the bitwise reference on
        // every random input, at every length (covers ragged tails 0..8).
        #[test]
        fn slice8_matches_bitwise_ieee(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let crc = Crc32::portable();
            prop_assert_eq!(crc.checksum(&data), crc32_bitwise(POLY_IEEE, &data));
        }

        // Whatever leg `new()` lands on (the PCLMULQDQ fold when the host
        // has it) must agree with the bitwise reference.
        #[test]
        fn dispatched_crc32_matches_bitwise(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let crc = Crc32::new();
            prop_assert_eq!(crc.checksum(&data), crc32_bitwise(POLY_IEEE, &data));
        }

        #[test]
        fn slice8_matches_bitwise_castagnoli(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let crc = Crc32c::portable();
            prop_assert_eq!(crc.checksum(&data), crc32_bitwise(POLY_CASTAGNOLI, &data));
        }

        // Differential: whatever backend `new()` lands on (including SSE4.2
        // when the host has it) must agree with the bitwise reference.
        #[test]
        fn dispatched_crc32c_matches_bitwise(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let crc = Crc32c::new();
            prop_assert_eq!(crc.checksum(&data), crc32_bitwise(POLY_CASTAGNOLI, &data));
        }

        #[test]
        fn single_bit_flip_changes_checksum(
            mut data in proptest::collection::vec(any::<u8>(), 1..256),
            idx in any::<usize>(),
            bit in 0u8..8,
        ) {
            let crc = Crc32::new();
            let before = crc.checksum(&data);
            let i = idx % data.len();
            data[i] ^= 1 << bit;
            // CRC-32 detects all single-bit errors.
            prop_assert_ne!(crc.checksum(&data), before);
        }
    }
}
