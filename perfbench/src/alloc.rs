//! A counting global allocator for per-layer peak heap.
//!
//! Counting is off by default, so the end-to-end run pays one relaxed
//! load per allocation. The traced run switches it on and reads, around
//! each layer call, how far live heap rose above its level at the start
//! of the call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator plus live and peak byte counters.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed while counting was on. Signed: a
/// block allocated before counting started may be freed after.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    // A plain load first: most allocations set no new peak, and skipping
    // the read-modify-write keeps the peak's cache line shared.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics that never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Starts a peak window: returns the live-byte level the window is
/// measured from.
pub fn mark() -> isize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    base
}

/// Bytes the live heap rose above `base` since [`mark`] returned it.
pub fn peak_since(base: isize) -> usize {
    (PEAK.load(Relaxed) - base).max(0) as usize
}
