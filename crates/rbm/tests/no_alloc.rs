//! Enforces the workspace contract: once the [`Workspace`] buffers have
//! grown to the working shape, steady-state `train_flat` /
//! `reconstruction_errors_flat_with` calls perform **zero** heap
//! allocations. A counting global allocator measures the hot path
//! directly; this file holds a single test so no concurrent test can
//! pollute the counter. The kernels run on the calling thread (there is no
//! worker pool), so counting that thread's allocations covers every kernel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rbm_im::network::{RbmNetwork, RbmNetworkConfig, Workspace};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread's allocations are counted while this is set —
    /// libtest's harness threads (result reporting, timers) allocate
    /// concurrently and must not pollute the measurement.
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

/// Deterministic batch content without touching the allocator during
/// regeneration: the caller provides the buffers.
fn fill_batch(features: &mut [f64], classes: &mut [usize], num_classes: usize, seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for f in features.iter_mut() {
        *f = (next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0;
    }
    for c in classes.iter_mut() {
        *c = (next() % num_classes as u64) as usize;
    }
}

/// Runs the steady-state measurement for one network configuration and
/// returns the number of allocations observed on the test thread.
fn measure_steady_state(config: RbmNetworkConfig, label: &str) {
    const BATCH: usize = 50; // the paper's default mini-batch size
    const FEATURES: usize = 12;
    const CLASSES: usize = 4;
    let mut net = RbmNetwork::new(FEATURES, CLASSES, config);

    let mut features = vec![0.0; BATCH * FEATURES];
    let mut classes = vec![0usize; BATCH];
    let mut errors = Vec::with_capacity(CLASSES);
    let mut ws = Workspace::default();

    // Warm-up: the first batches grow every workspace buffer to shape.
    for round in 0..3 {
        fill_batch(&mut features, &mut classes, CLASSES, round);
        net.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errors);
        net.train_flat(&features, &classes);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|flag| flag.set(true));
    for round in 3..10 {
        fill_batch(&mut features, &mut classes, CLASSES, round);
        net.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errors);
        net.train_flat(&features, &classes);
    }
    COUNTING.with(|flag| flag.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "{label}: steady-state detect+train must not touch the allocator \
         ({} allocations observed)",
        after - before
    );
    assert_eq!(net.batches_trained(), 10);
    assert_eq!(errors.len(), CLASSES);
}

#[test]
fn steady_state_training_does_not_allocate() {
    measure_steady_state(RbmNetworkConfig { gibbs_steps: 2, ..Default::default() }, "sequential");
}
