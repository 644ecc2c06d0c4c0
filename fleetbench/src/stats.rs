//! Order statistics and process memory readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the conventional tail percentiles that still has at least
/// ten samples beyond it, as a quantile (`None` below 20 samples).
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|p| samples * (100 - p) / 100 >= 10)
        .map(|p| p as f64 / 100.0)
}

/// A `/proc/self/status` field in kibibytes (0 where unavailable).
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// The system allocator, optionally counting net heap growth.
///
/// Page-level RSS cannot resolve one runner's growth once earlier episodes
/// have freed memory the allocator reuses, so the per-window memory arm
/// counts bytes retained instead.  Counting is off (one relaxed load per
/// call) except while [`heap_growth`] runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if COUNTING.load(Ordering::Relaxed) {
        NET_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Net heap bytes `f` leaves allocated (allocations minus frees while it
/// runs, on any thread).
pub fn heap_growth(f: impl FnOnce()) -> f64 {
    NET_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    NET_BYTES.load(Ordering::Relaxed) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn heap_growth_counts_retained_bytes() {
        // The count is process-wide and tests run on parallel threads, so
        // allow for a little concurrent allocation.
        const MIB: f64 = (1 << 20) as f64;
        let near = |bytes: f64, expected: f64| (bytes - expected).abs() < 64.0 * 1024.0;
        let mut keep = Vec::new();
        let grown = heap_growth(|| keep = vec![0u8; 1 << 20]);
        assert!(near(grown, MIB), "{grown}");
        let freed = heap_growth(|| drop(std::mem::take(&mut keep)));
        assert!(near(freed, -MIB), "{freed}");
    }
}
