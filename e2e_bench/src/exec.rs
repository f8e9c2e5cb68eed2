//! A harness-owned `TrialExecutor` that times every test-set simulation.
//!
//! `Procedure2::run_on` drives the selection loop on this executor, so the
//! loop is exactly the one `Procedure2::run` executes. The executor wraps
//! the same set simulator `run` would build — a `FaultSimulator` at one
//! thread, an `rls-dispatch` `SetRunner` above that — and puts an
//! `fsim.apply` (or `dispatch.apply`) span around each call. With a good
//! simulator attached it also re-simulates each set's good-machine traces
//! in an `overhead.good_trace` span: work the set simulation already did
//! internally, timed on its own.

use rls_core::cycles::nsh;
use rls_core::TrialExecutor;
use rls_dispatch::SetRunner;
use rls_fsim::{FaultId, FaultSimulator, GoodSim, LaneStats, ScanTest};

use crate::tracer::Tracer;

/// A set simulator with fault dropping.
pub trait SetApplier {
    /// Undetected target faults.
    fn live_count(&self) -> usize;
    /// Simulates a set, drops and counts newly detected faults.
    fn apply(&mut self, tests: &[ScanTest]) -> Result<usize, String>;
    /// The undetected faults in live-list order.
    fn undetected(&self) -> Vec<FaultId>;
    /// Restricts the live list.
    fn restrict(&mut self, live: &[FaultId]);
}

impl SetApplier for FaultSimulator<'_> {
    fn live_count(&self) -> usize {
        FaultSimulator::live_count(self)
    }
    fn apply(&mut self, tests: &[ScanTest]) -> Result<usize, String> {
        Ok(self.run_tests(tests))
    }
    fn undetected(&self) -> Vec<FaultId> {
        self.live().to_vec()
    }
    fn restrict(&mut self, live: &[FaultId]) {
        self.set_targets(live);
    }
}

impl SetApplier for SetRunner<'_, '_> {
    fn live_count(&self) -> usize {
        SetRunner::live_count(self)
    }
    fn apply(&mut self, tests: &[ScanTest]) -> Result<usize, String> {
        self.try_run_set(tests)
            .map(|newly| newly.len())
            .map_err(|e| e.to_string())
    }
    fn undetected(&self) -> Vec<FaultId> {
        self.live().to_vec()
    }
    fn restrict(&mut self, live: &[FaultId]) {
        self.set_targets(live);
    }
}

/// What the executor saw and timed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyStats {
    /// Sets applied (`TS0` first, then one per trial).
    pub sets: u64,
    /// Tests applied.
    pub tests: u64,
    /// Seconds inside the set simulator.
    pub apply_s: f64,
    /// Seconds of the side-measured good-machine traces.
    pub good_trace_s: f64,
    /// Modelled BIST cycles of the applied sets (`N_cyc0 + N_SH` each).
    pub sim_cycles: u64,
    /// `(tests, N_SH)` of every applied set, to check a replay against.
    pub shapes: Vec<(usize, u64)>,
    /// The first set-simulation failure, if any.
    pub error: Option<String>,
}

/// The timing executor.
pub struct Timed<'t, 'g, A> {
    /// The wrapped set simulator.
    pub inner: A,
    tracer: &'t Tracer,
    parent: u64,
    span: &'static str,
    good: Option<GoodSim<'g>>,
    base_cycles: u64,
    /// Everything timed so far.
    pub stats: ApplyStats,
}

impl<'t, 'g, A: SetApplier> Timed<'t, 'g, A> {
    /// Wraps `inner`; spans named `span` nest under `parent`. `base_cycles`
    /// is the campaign's `N_cyc0`. With `good`, each set's good traces are
    /// side-measured.
    pub fn new(
        inner: A,
        tracer: &'t Tracer,
        parent: u64,
        span: &'static str,
        good: Option<GoodSim<'g>>,
        base_cycles: u64,
    ) -> Self {
        Timed {
            inner,
            tracer,
            parent,
            span,
            good,
            base_cycles,
            stats: ApplyStats::default(),
        }
    }
}

impl<A: SetApplier> TrialExecutor for Timed<'_, '_, A> {
    fn live_count(&self) -> usize {
        self.inner.live_count()
    }

    fn apply_set(&mut self, tests: &[ScanTest]) -> usize {
        let shift = nsh(tests);
        self.stats.sets += 1;
        self.stats.tests += tests.len() as u64;
        self.stats.sim_cycles += self.base_cycles + shift;
        self.stats.shapes.push((tests.len(), shift));
        if let Some(good) = &self.good {
            let side = self.tracer.open("overhead.good_trace", Some(self.parent));
            for t in tests {
                std::hint::black_box(good.simulate_test(t));
            }
            self.stats.good_trace_s += self.tracer.close(side);
        }
        let span = self.tracer.open(self.span, Some(self.parent));
        let result = self.inner.apply(tests);
        self.stats.apply_s += self.tracer.close(span);
        match result {
            Ok(newly) => newly,
            Err(e) => {
                self.stats.error.get_or_insert(e);
                0
            }
        }
    }

    fn undetected(&self) -> Vec<FaultId> {
        self.inner.undetected()
    }

    fn restrict(&mut self, live: &[FaultId]) {
        self.inner.restrict(live);
    }
}

/// Lane utilisation `used / capacity`; `0.0` with no capacity.
pub fn lane_util(stats: LaneStats) -> f64 {
    if stats.lanes_capacity == 0 {
        0.0
    } else {
        stats.lanes_used as f64 / stats.lanes_capacity as f64
    }
}
