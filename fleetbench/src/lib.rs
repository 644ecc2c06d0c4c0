//! The fleet simulator's benchmark, as a library so the self-test can drive
//! the same code the `fleetbench` binary runs.

pub mod bench;
pub mod digest;
pub mod episode;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// The seed the workloads were sized and tuned on.
pub const DEV_SEED: u64 = 1;

/// A seed never used while tuning: `--check` runs every workload on it, so
/// a claim can be shown to hold beyond the tuned seed.
pub const HELD_OUT_SEED: u64 = 7_919;
