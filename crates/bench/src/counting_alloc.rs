//! The counting global allocator the bench binaries share: each bench bin
//! includes this file with `#[path = "../counting_alloc.rs"] mod
//! counting_alloc;` and calls [`install`] first thing in `main`.
//!
//! The library crates are `forbid(unsafe_code)`, so the allocator lives in
//! the binaries and feeds the pipeline's report through the safe
//! `xborder_faults::install_alloc_probe` hook, which the profile's spans
//! read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls and requested bytes since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts every allocation and reallocation.
struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counters are
// relaxed atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_probe() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Points the profile's spans at this allocator's counters.
pub fn install() {
    xborder_faults::install_alloc_probe(alloc_probe);
}
