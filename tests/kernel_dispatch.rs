//! Every dispatched kernel lands on the leg the CPU and `DEWRITE_PORTABLE`
//! allow: AES-NI, the PCLMULQDQ CRC-32 fold and SSE4.2 CRC-32C where the
//! host has the instructions and the override is off; the T-table and
//! slice-by-8 legs otherwise.
//!
//! The expected leg comes from `is_x86_feature_detected!` and the
//! environment directly, not from the libraries' own detection, so a
//! constructor that stops selecting a hardware leg fails here. This file
//! is its own test binary: nothing else in the process toggles the
//! process-wide portable override under it.

use dewrite::crypto::{Aes128, AesBackend};
use dewrite::hashes::{Crc32, Crc32c, CrcBackend};

/// What `DEWRITE_PORTABLE` asks for: any non-empty value other than `0`
/// forces the portable legs.
fn portable_forced() -> bool {
    std::env::var_os("DEWRITE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The CPU features each hardware leg needs.
struct HostFeatures {
    /// `aes` and `popcnt`: the AES-NI leg's store kernel counts flipped
    /// bits with `POPCNT`.
    aes: bool,
    pclmulqdq: bool,
    sse42: bool,
}

#[cfg(target_arch = "x86_64")]
fn host_features() -> HostFeatures {
    use std::arch::is_x86_feature_detected as has;
    HostFeatures {
        aes: has!("aes") && has!("popcnt"),
        pclmulqdq: has!("pclmulqdq"),
        sse42: has!("sse4.2"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn host_features() -> HostFeatures {
    HostFeatures {
        aes: false,
        pclmulqdq: false,
        sse42: false,
    }
}

#[test]
fn dispatched_kernels_take_the_legs_the_host_allows() {
    let hardware = !portable_forced();
    let host = host_features();

    let aes = Aes128::new(b"kernel-dispatch!").backend_kind();
    let expect_aes = if hardware && host.aes {
        AesBackend::AesNi
    } else {
        AesBackend::TTable
    };
    assert_eq!(aes, expect_aes, "AES-128 backend");

    let crc = Crc32::new().backend_kind();
    let expect_crc = if hardware && host.pclmulqdq {
        CrcBackend::Pclmul
    } else {
        CrcBackend::Slice8
    };
    assert_eq!(crc, expect_crc, "CRC-32 backend");

    let crc32c = Crc32c::new().backend_kind();
    let expect_crc32c = if hardware && host.sse42 {
        CrcBackend::Sse42
    } else {
        CrcBackend::Slice8
    };
    assert_eq!(crc32c, expect_crc32c, "CRC-32C backend");
}
