//! Cache-line prefetch hints.
//!
//! A hint asks the core to start fetching a line it is about to need; it
//! reads nothing, writes nothing, cannot fault and changes no program
//! state, so any caller may issue one for any reference it holds. Hints
//! pay off where the address is known a long stretch of independent work
//! (a digest, an encryption) before the access; a hint issued right before
//! its access buys nothing.
//!
//! This module is the only `unsafe` code in the crate.

/// Hint that the cache line holding `*at` will be read soon. A no-op off
/// x86-64.
#[inline(always)]
pub fn prefetch_read<T>(at: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` is in the x86-64 baseline (SSE), performs
        // no architectural access — it cannot fault even on an unmapped
        // address — and `at` is a live reference anyway.
        #[allow(unsafe_code)]
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(at).cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// [`prefetch_read`] for every 64-byte line `bytes` touches.
#[inline(always)]
pub fn prefetch_read_bytes(bytes: &[u8]) {
    for line in bytes.chunks(64) {
        prefetch_read(&line[0]);
    }
    if let Some(last) = bytes.last() {
        prefetch_read(last);
    }
}
