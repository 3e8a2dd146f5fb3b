//! Forced-portable switch for hash backends.
//!
//! Mirrors the switch in `dewrite-crypto` (this crate has no dependency on
//! it, so the few lines are duplicated rather than coupled): `Crc32c`
//! chooses its backend at construction, `Crc32` (whose `new` is `const`)
//! consults the switch on every `checksum` call, and
//! CI's determinism leg forces the portable path via `DEWRITE_PORTABLE=1`
//! to prove reports are bit-identical across backends.

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state: 2 = unset (consult the environment), 1 = portable only,
/// 0 = hardware allowed.
static PORTABLE_ONLY: AtomicU8 = AtomicU8::new(2);

/// Should hashers refuse hardware backends?
///
/// Lazily seeded from the `DEWRITE_PORTABLE` environment variable (any
/// non-empty value other than `0` forces portable engines).
pub fn portable_only() -> bool {
    match PORTABLE_ONLY.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => {
            let forced =
                std::env::var_os("DEWRITE_PORTABLE").is_some_and(|v| !v.is_empty() && v != "0");
            PORTABLE_ONLY.store(u8::from(forced), Ordering::Relaxed);
            forced
        }
    }
}

/// Override backend selection: `true` forces portable paths, `false`
/// re-enables hardware dispatch. Takes effect for `Crc32c` hashers
/// constructed *after* this call and for every later
/// `Crc32::checksum` call, existing instances included (same result
/// either way). Intended for tests and determinism checks.
pub fn set_portable_only(portable: bool) {
    PORTABLE_ONLY.store(u8::from(portable), Ordering::Relaxed);
}
