//! Live heap accounting: the benchmark binary's global allocator counts the
//! bytes it holds, so a workload can report the memory the system under
//! test used in its window. Resident set size cannot show this: memory an
//! earlier set-up round freed is reused without growing it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and never affect allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Bytes currently allocated.
fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live bytes and returns
/// them: the baseline a window's peak is measured against.
pub fn reset_peak() -> u64 {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Peak minus `baseline`, in MiB.
pub fn mib_above(baseline: u64) -> f64 {
    peak().saturating_sub(baseline) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_sees_a_freed_allocation() {
        reset_peak();
        let block = vec![1u8; 8 << 20];
        let held = live();
        drop(std::hint::black_box(block));
        // Other test threads allocate and free concurrently (and may not
        // have folded their latest allocation into the peak yet), so
        // compare with the live bytes observed while the block was held,
        // less a margin far smaller than the block.
        assert!(held >= 8 << 20);
        assert!(peak() + (1 << 20) >= held, "the peak remembers the freed block");
    }
}
