//! A leaf's retained state must not grow with the length of its run.  A
//! Heracles controller acts on the current SLO window only, so once a runner
//! is warm it keeps a fixed amount of heap however many windows follow, on
//! the full path and the fast path alike.
//!
//! The binary holds this single test so the counting allocator below sees
//! no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

/// Live heap bytes: allocations minus deallocations.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Retained-heap growth allowed over the measured windows.  Bounded state
/// may still shift by a few buffers' capacity; state kept per window costs
/// hundreds of bytes a window, far past this bound over 4,000 windows.
const BOUND_BYTES: i64 = 64 * 1024;

#[test]
fn a_warm_leaf_retains_no_heap_per_window() {
    let server = ServerConfig::default_haswell();
    let lc = LcWorkload::websearch();
    let model = OfflineDramModel::profile(&lc, &server);
    let policy = Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), model));
    let mut runner =
        ColoRunner::new(server, lc, Some(BeWorkload::brain()), policy, ColoConfig::fast_test());
    // Warm up: fill the SLO deque and let the controller settle.
    drop(runner.run_steady(0.4, 200));

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        runner.step(0.4);
    }
    let fast_before = runner.window_counts().1;
    runner.advance(0.4, 2_000, true);
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - before;

    assert!(runner.window_counts().1 > fast_before, "the fast path never ran");
    assert!(
        growth < BOUND_BYTES,
        "a warm leaf retained {growth} heap bytes over 4,000 windows (bound {BOUND_BYTES})"
    );
}
