//! Counting global allocator, installed in this benchmark binary only.
//!
//! Every allocation (including the allocating half of a `realloc`) bumps one
//! counter while counting is on. The simulated system never looks at host
//! memory, so counting cannot move a simulated metric; the benchmark shows
//! this by running its first round with counting off and asserting that the
//! later, counted rounds reproduce that round's simulated metrics exactly.
//!
//! [`fix_mmap_threshold`] also holds the system allocator's mmap threshold
//! fixed, so the process's memory does not depend on the order of frees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn bump() {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

extern "C" {
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;

/// Hold the system allocator's mmap threshold at its initial 128 KiB for
/// the whole run.
///
/// By default glibc raises the threshold each time a block it had mapped is
/// freed, so whether a large block is mapped or carved from the heap, and
/// with it the process's resident memory and the cost of the allocation,
/// depends on the order of earlier frees, which varies from run to run.
/// Setting the threshold turns that adjustment off: every block of 128 KiB
/// or more is mapped, and returned when it is freed.
pub fn fix_mmap_threshold() {
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before the benchmark starts any work.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) } == 1;
    assert!(ok, "mallopt rejected the mmap threshold");
}
