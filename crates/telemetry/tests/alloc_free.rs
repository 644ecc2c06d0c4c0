//! Recording the fleet's bulk events allocates nothing.
//!
//! A counting global allocator wraps the system one and counts the calls
//! made by the test's own thread.  Events of at most four fields whose
//! strings are `'static` live inline in the [`TraceEvent`], so building
//! one, recording it into a full flight recorder and evicting the oldest
//! event touch no allocator.  The shapes below are the ones the fleet
//! records thousands of times per step: `fleet/unplaced`, `fleet/wake` and
//! `energy/cap`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heracles_sim::SimTime;
use heracles_telemetry::{FlightRecorder, TelemetryConfig, TraceEvent};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread while counting, if counting.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; counting is a side
// effect on a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    CALLS.with(|calls| calls.set(Some(0)));
    let out = f();
    let calls = CALLS.with(|calls| calls.replace(None)).expect("counting");
    (calls, out)
}

/// The `i`-th event of the fleet's per-step mix.
fn bulk_event(i: u64) -> TraceEvent {
    let now = SimTime::from_secs(2 * (i / 1_000));
    match i % 3 {
        0 => TraceEvent::new(now, "fleet", "unplaced").u64("job", i),
        1 => TraceEvent::new(now, "fleet", "wake")
            .u64("server", i % 1_500)
            .str("reasons", "load-delta+controller-poll")
            .u64("full_windows", 2)
            .u64("fast_windows", 0),
        _ => TraceEvent::new(now, "energy", "cap")
            .u64("server", i % 1_500)
            .bool("capped", true)
            .f64("cap_w", 96.5)
            .f64("budget_w", 145_000.0),
    }
}

#[test]
fn bulk_events_build_record_and_evict_without_allocating() {
    let capacity = TelemetryConfig::default().trace_capacity;
    let mut ring = FlightRecorder::new(capacity);
    for i in 0..capacity as u64 {
        ring.record(bulk_event(i));
    }
    assert_eq!(ring.len(), capacity);

    let (calls, ()) = allocations(|| {
        for i in 0..10_000 {
            ring.record(bulk_event(i));
        }
    });
    assert_eq!(calls, 0, "building, recording and evicting 10k bulk events allocated");
    assert_eq!(ring.dropped(), 10_000);
    let newest = ring.iter().last().expect("a full ring");
    assert_eq!(newest, &bulk_event(9_999));

    // The counter does see the allocations it is meant to rule out.
    let (calls, _) = allocations(|| {
        TraceEvent::new(SimTime::ZERO, "t", "owned").str("name", format!("leaf-{}", 7))
    });
    assert!(calls > 0, "an owned string must allocate");
    let (calls, _) = allocations(|| {
        (0..5).fold(TraceEvent::new(SimTime::ZERO, "t", "wide"), |e, i| e.u64("k", i))
    });
    assert!(calls > 0, "a fifth field must spill to the heap");
}
