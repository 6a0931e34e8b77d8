//! Counting global allocator. The library crates forbid `unsafe`, so the
//! allocator lives in the benchmark binary; spans read its counters at
//! their boundaries.
//!
//! Counts are kept per thread, which makes them cheap and exact for the
//! benchmark's single-threaded pipeline calls. Memory freed by another
//! thread than the one that allocated it is not subtracted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[derive(Clone, Copy)]
struct Counts {
    allocs: u64,
    bytes: u64,
    live: u64,
    peak: u64,
}

const ZERO: Counts = Counts {
    allocs: 0,
    bytes: 0,
    live: 0,
    peak: 0,
};

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(ZERO) };
}

/// Applies `f` to this thread's counts. The const-initialised cell needs no
/// lazy set-up or destructor, so this never allocates; access during
/// thread teardown is skipped rather than allowed to panic.
fn update(f: impl FnOnce(&mut Counts)) {
    let _ = COUNTS.try_with(|cell| {
        let mut c = cell.get();
        f(&mut c);
        cell.set(c);
    });
}

fn read() -> Counts {
    COUNTS.try_with(Cell::get).unwrap_or(ZERO)
}

/// System-allocator wrapper that counts every allocation and reallocation.
pub struct CountingAlloc;

// SAFETY: every operation is delegated unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are thread-local statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.bytes += layout.size() as u64;
            c.live += layout.size() as u64;
            c.peak = c.peak.max(c.live);
        });
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|c| c.live = c.live.saturating_sub(layout.size() as u64));
        // SAFETY: `ptr` was allocated by `System` with `layout` (all
        // allocations go through this wrapper).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.bytes += new_size as u64;
            c.live = c.live.saturating_sub(layout.size() as u64) + new_size as u64;
            c.peak = c.peak.max(c.live);
        });
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes on this thread so far.
pub fn snapshot() -> (u64, u64) {
    let c = read();
    (c.allocs, c.bytes)
}

/// Restarts the high-water mark of live heap bytes at the current level
/// and returns that level.
pub fn reset_peak() -> u64 {
    update(|c| c.peak = c.live);
    read().live
}

/// Most heap bytes live at once on this thread since the last reset.
pub fn peak_bytes() -> u64 {
    read().peak
}
