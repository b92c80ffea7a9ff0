//! Software-prefetch primitive used by the batched lookup pipeline.
//!
//! The batched probe engine (see [`crate::meta`]) overlaps the DRAM miss
//! chains of many independent lookups by issuing a prefetch for the next
//! hash bucket of every in-flight probe before executing any of them — the
//! memory-level-parallelism technique the Cuckoo Trie paper builds its whole
//! design around. A prefetch is purely a performance hint: it never faults,
//! never changes observable behaviour, and may be dropped by the CPU.
//!
//! # Fallback semantics
//!
//! On `x86_64` this compiles to a `prefetcht0` instruction (fetch into all
//! cache levels). On `aarch64` it compiles to `prfm pldl1keep`. On every
//! other target [`prefetch_read`] is a no-op — the batched code path stays
//! correct everywhere and simply loses the overlap benefit where the
//! intrinsic is unavailable.

/// Hints the CPU to fetch the cache line containing `p` into L1 for a read.
///
/// Safe for any pointer value, including dangling or null: prefetch
/// instructions do not fault and do not access memory architecturally.
/// Callers still pass references in practice; the raw-pointer signature only
/// exists so no borrow is held across the hint.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it performs no architectural memory
    // access and cannot fault, whatever the pointer value.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint; it performs no architectural memory access
    // and cannot fault, whatever the pointer value.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{ptr}]",
            ptr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// [`prefetch_read`] for every cache line of `s`: one hint per 64 bytes
/// plus one for the last byte, which covers a slice that does not start on
/// a line boundary. An empty slice asks for the line its pointer names.
#[inline(always)]
pub fn prefetch_slice<T>(s: &[T]) {
    let base = s.as_ptr().cast::<u8>();
    let size = std::mem::size_of_val(s);
    for offset in (0..size).step_by(64) {
        prefetch_read(base.wrapping_add(offset));
    }
    prefetch_read(base.wrapping_add(size.saturating_sub(1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless_for_any_pointer() {
        let on_stack = 42u64;
        prefetch_read(&on_stack as *const u64);
        let heap = vec![1u8; 4096];
        prefetch_read(heap.as_ptr());
        // Dangling and null pointers must not fault either — prefetches are
        // hints, not loads.
        prefetch_read(std::ptr::null::<u64>());
        prefetch_read(0xdead_beef_usize as *const u64);
        assert_eq!(on_stack, 42);
    }
}
