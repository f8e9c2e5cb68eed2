//! Multi-threaded campaign execution for random limited-scan testing.
//!
//! Procedure 2 fault-simulates one derived test set per `(I, D1)` trial;
//! on large circuits that inner loop dominates the wall clock. This crate
//! shards those simulations across a persistent pool of worker threads —
//! std-only (`std::thread`, mutex/condvar, atomics), no external
//! dependencies — while keeping the result *bit-identical* to the
//! sequential oracle.
//!
//! # Architecture
//!
//! - [`pool`]: the [`WorkerPool`] — scoped persistent workers with
//!   per-worker queues, job stealing, and per-worker atomic counters
//!   (jobs, batches, faults dropped, sim time, steals) exposed through a
//!   non-blocking [`PoolSnapshot`];
//! - [`bitset`]: the [`AtomicBitset`] shared fault-drop state — workers
//!   publish detections with `fetch_or`, so a fault detected anywhere is
//!   dropped everywhere mid-test-set;
//! - [`executor`]: [`SimContext`] (read-only per-campaign simulation
//!   state) and [`SetRunner`], which fans one test set out as
//!   `(test, 64-fault chunk)` jobs and reduces detections in live-list
//!   order at the set barrier;
//! - [`campaign`]: [`Campaign`] JSONL records — header, per-trial lines,
//!   checkpoints, per-worker counters, summary — appended crash-safely
//!   under `results/` and read back by [`CampaignLog`];
//! - [`shared`]: the persistent [`SharedPool`] — owned worker threads
//!   that outlive any single campaign, multiplexing concurrent campaigns
//!   with fair round-robin budgets for the `rls-serve` campaign server,
//!   plus [`SharedSetRunner`], the batch-for-batch bit-identical
//!   shared-pool analogue of [`SetRunner`];
//! - [`jsonl`]: a re-export of [`rls_obs::jsonl`], the JSON rendering,
//!   parsing, and crash-safe file protocol underneath (kept for external
//!   callers that import it from here);
//! - [`error`]: structured [`DispatchError`] for persistence and parsing;
//! - [`inject`]: deterministic fault injection behind the `fault-inject`
//!   feature (no-op inlines otherwise), driving `tests/resilience.rs`.
//!
//! # Resilience
//!
//! Workers are supervised: a panicking job is caught at the thread's top
//! level, recorded as a classified [`JobFailure`] under the tag it was
//! submitted with, and the worker loop is respawned. [`SetRunner`] retries
//! failed chunks for a bounded number of waves; if a chunk keeps failing,
//! the campaign degrades to the sequential executor — the bit-identical
//! oracle — rather than aborting.
//!
//! # Determinism guarantee
//!
//! Within a set, detection of a fault by a test is independent of batch
//! composition and scheduling (64-lane batches are lane-independent), and
//! the shared bitset is monotone, so the detected *set* at a barrier is
//! the same union a sequential run computes. Reductions merge in live-list
//! order; across sets the campaign is driven sequentially (the paper's
//! greedy selection is order-sensitive by design). Hence `threads = N`
//! yields byte-for-byte the same outcome as `threads = 1` — the
//! sequential path is preserved as the oracle and CI asserts equality.
//!
//! # Example
//!
//! ```
//! use rls_dispatch::{SetRunner, SimContext, WorkerPool};
//! use rls_fsim::{ScanTest, SimOptions};
//!
//! let circuit = rls_benchmarks::s27();
//! let ctx = SimContext::new(&circuit, SimOptions::default());
//! let test = ScanTest::from_strings("001", &["0111", "1001"]).unwrap();
//! let newly = WorkerPool::new(2).scope(|dispatcher| {
//!     let mut runner = SetRunner::new(&ctx, dispatcher);
//!     runner.run_set(&[test])
//! });
//! assert!(!newly.is_empty());
//! ```

pub mod bitset;
pub mod campaign;
pub mod error;
pub mod executor;
pub mod inject;
pub mod pool;
pub mod shared;

pub use rls_obs::jsonl;

pub use bitset::AtomicBitset;
pub use campaign::{Campaign, CampaignLog, CampaignSummary, TrialRecord};
pub use error::DispatchError;
pub use executor::{chunk_size, SetFailure, SetRunner, SimContext};
pub use pool::{
    Dispatcher, FailureClass, JobFailure, PoolSnapshot, WorkerCounters, WorkerPool, WorkerSnapshot,
};
pub use shared::{
    CampaignHandle, CompiledCircuit, SharedPool, SharedSetRunner, SharedSimContext,
};
