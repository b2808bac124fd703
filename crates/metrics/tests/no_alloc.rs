//! Once the window is full, recording an instance allocates nothing:
//! `WindowedMultiClassAuc::record` overwrites a ring-buffer slot, and
//! `PrequentialEvaluator::record` allocates only at window boundaries,
//! where it samples the windowed metrics. A counting global allocator
//! measures this directly; this file holds a single test so no concurrent
//! test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rbm_im_metrics::{PrequentialEvaluator, WindowedMultiClassAuc};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread's allocations are counted while this is set —
    /// libtest's harness threads allocate concurrently.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const CLASSES: usize = 5;
const WINDOW: usize = 200;

/// Deterministic scores and class for instance `i`, into a caller buffer.
fn fill(i: usize, scores: &mut [f64; CLASSES]) -> usize {
    for (c, s) in scores.iter_mut().enumerate() {
        *s = ((i * 31 + c * 17) % 23) as f64 / 23.0;
    }
    (i * 7) % CLASSES
}

#[test]
fn full_window_records_do_not_allocate() {
    let mut scores = [0.0; CLASSES];

    let mut auc = WindowedMultiClassAuc::new(CLASSES, WINDOW);
    for i in 0..WINDOW {
        let class = fill(i, &mut scores);
        auc.record(&scores, class);
    }
    let allocs = allocations_in(|| {
        for i in WINDOW..4 * WINDOW + 17 {
            let class = fill(i, &mut scores);
            auc.record(&scores, class);
        }
    });
    assert_eq!(allocs, 0, "WindowedMultiClassAuc::record allocated on a full window");
    assert_eq!(auc.len(), WINDOW);

    let mut ev = PrequentialEvaluator::new(CLASSES, WINDOW);
    for i in 0..WINDOW {
        let class = fill(i, &mut scores);
        ev.record(class, (class + i % 2) % CLASSES, &scores);
    }
    for window in 1..4 {
        // Instances strictly between two window boundaries.
        let allocs = allocations_in(|| {
            for i in window * WINDOW..(window + 1) * WINDOW - 1 {
                let class = fill(i, &mut scores);
                ev.record(class, (class + i % 2) % CLASSES, &scores);
            }
        });
        assert_eq!(allocs, 0, "PrequentialEvaluator::record allocated inside window {window}");
        // The boundary instance samples the windowed metrics.
        let i = (window + 1) * WINDOW - 1;
        let class = fill(i, &mut scores);
        ev.record(class, (class + i % 2) % CLASSES, &scores);
        assert_eq!(ev.snapshots().len(), window + 1);
    }
}
