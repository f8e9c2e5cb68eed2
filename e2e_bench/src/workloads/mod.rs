//! The three workloads and what they share: set-up, the timed loop, and
//! the per-run result.

pub mod ladder;
pub mod served;
pub mod table6;

use std::collections::BTreeMap;
use std::time::Instant;

use rls_core::{CoverageTarget, RlsConfig};
use rls_fsim::FaultSimulator;
use rls_netlist::{Circuit, LevelizedCircuit};

use crate::mix::circuit;
use crate::procinfo::{cpu_seconds, peak_rss_mib};
use crate::reference::References;
use crate::stats::{median, Tally};
use crate::tracer::{Open, Tracer};

/// Times set-up is repeated in a run; `setup_s` is their median.
pub const SETUP_REPS: usize = 201;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table6_cold", "campaign_ladder", "served_mix"];

/// Everything a workload run receives.
pub struct Ctx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// How long the timed region runs (whole operations: at least one).
    pub seconds: f64,
    /// Spans are recorded only in the traced mode.
    pub tracer: Option<&'a Tracer>,
    /// Stored reference outcomes.
    pub refs: &'a References,
}

/// One workload run: timings, output checks, and per-layer figures.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of the netlist part of each set-up repetition.
    pub netlist_s: Vec<f64>,
    /// Wall seconds of each whole pass over the operation list.
    pub pass_s: Vec<f64>,
    /// Wall seconds of the timed region.
    pub measured_s: f64,
    /// CPU seconds of the process over the timed region.
    pub cpu_s: f64,
    /// Peak resident MiB of the process at the end of the timed region,
    /// before the output checks run.
    pub peak_rss_mb: f64,
    /// Seconds per campaign (served: request write to `done`).
    pub latencies: Vec<f64>,
    /// `N_cyc` summed over one pass (every pass is checked to agree).
    pub bist_cycles: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Per-layer metrics (traced mode).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Median wall seconds of a pass.
    pub fn wall_s(&self) -> f64 {
        median(&self.pass_s)
    }
}

/// Builds the circuits as every entry point does — registry synthesis,
/// levelization, SoA lowering — and returns them.
pub fn build_netlists(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|name| {
            let c = circuit(name);
            let lev = c.levelize().expect("registry circuits are acyclic");
            std::hint::black_box(LevelizedCircuit::build(&c, &lev));
            c
        })
        .collect()
}

/// Runs set-up [`SETUP_REPS`] times: the netlists of `names`, then
/// `extra(rep)` (e.g. a server bind). Returns per-rep total and netlist
/// seconds, and what the last `extra` returned. A rep's circuits and the
/// previous rep's `extra` value are dropped after its timing ends, so
/// teardown is not set-up time and only one set-up is alive at a time.
pub fn setup_reps<T>(
    names: &[&str],
    mut extra: impl FnMut(usize) -> T,
) -> (Vec<f64>, Vec<f64>, Option<T>) {
    let mut total = Vec::new();
    let mut netlist = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = std::hint::black_box(build_netlists(names));
        netlist.push(t0.elapsed().as_secs_f64());
        let value = extra(rep);
        total.push(t0.elapsed().as_secs_f64());
        drop(built);
        last = Some(value);
    }
    (total, netlist, last)
}

/// Whether another pass fits in a timed region of `seconds`: after
/// `passes` passes in `elapsed` seconds, a further pass of their mean
/// length would end within it. The first pass always runs. Not starting a
/// pass that would overshoot keeps a run near `seconds` and its pass count
/// steady when passes are long: a Table 6 row takes 20–30 s, and on a
/// 20 s budget it ran once or twice depending on the host's speed.
pub fn another_pass_fits(elapsed: f64, passes: usize, seconds: f64) -> bool {
    passes == 0 || elapsed * (passes as f64 + 1.0) / passes as f64 <= seconds
}

/// Runs `pass` while [`another_pass_fits`] (at least once), recording
/// each pass's wall time, the region's wall and CPU time, and the peak
/// resident memory at its end in `r`.
pub fn timed_loop(seconds: f64, r: &mut RunResult, mut pass: impl FnMut()) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while another_pass_fits(t0.elapsed().as_secs_f64(), r.pass_s.len(), seconds) {
        let p0 = Instant::now();
        pass();
        r.pass_s.push(p0.elapsed().as_secs_f64());
    }
    r.measured_s = t0.elapsed().as_secs_f64();
    r.cpu_s = cpu_seconds() - cpu0;
    r.peak_rss_mb = peak_rss_mib();
}

/// Opens a span when tracing.
pub fn open(tracer: Option<&Tracer>, name: &'static str, parent: Option<u64>) -> Option<Open> {
    tracer.map(|t| t.open(name, parent))
}

/// Closes a span opened with [`open`]; returns its seconds (0 untraced).
pub fn close(tracer: Option<&Tracer>, span: Option<Open>) -> f64 {
    match (tracer, span) {
        (Some(t), Some(s)) => t.close(s),
        _ => 0.0,
    }
}

/// The sequential fault simulator `Procedure2::run` builds at one thread.
pub fn sequential_sim<'c>(c: &'c Circuit, cfg: &RlsConfig) -> FaultSimulator<'c> {
    let mut sim = FaultSimulator::new(c);
    sim.set_options(cfg.observe);
    sim.set_lane_width(cfg.lane_width);
    sim.set_pattern_lanes(cfg.pattern_lanes);
    if let CoverageTarget::Faults(targets) = &cfg.target {
        sim.set_targets(targets);
    }
    sim
}

/// Runs one workload by name.
pub fn run(workload: &str, ctx: &Ctx) -> Result<RunResult, String> {
    match workload {
        "table6_cold" => Ok(table6::run(ctx)),
        "campaign_ladder" => Ok(ladder::run(ctx)),
        "served_mix" => served::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
