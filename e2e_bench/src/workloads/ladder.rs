//! `campaign_ladder`: a fixed list of Procedure 2 campaigns at one thread.
//!
//! The first Table 5 combinations on s953 and s1196, targeting every
//! collapsed fault (as `rls-serve` does). No ATPG runs, so fault
//! simulation is almost all of the work: the good-machine traces and the
//! SoA fault kernel.
//!
//! Traced, each campaign runs through `Procedure2::run_on` on a timed
//! sequential `FaultSimulator` (the one `Procedure2::run` builds at one
//! thread), with its good traces side-measured; afterwards `generate_ts0`
//! and `derive_test_set` are replayed for every applied set and timed.

use std::time::Instant;

use rls_core::{derive_test_set, generate_ts0, ncyc0, CoverageTarget, Procedure2, RlsConfig};
use rls_fsim::{GoodSim, LaneStats, ScanTest};
use rls_netlist::Circuit;

use super::{close, open, sequential_sim, setup_reps, timed_loop, Ctx, RunResult};
use crate::exec::{lane_util, ApplyStats, Timed};
use crate::mix::{circuit, ladder, CampaignSpec, LADDER};
use crate::reference::{oracle, Outcome};
use crate::tracer::Tracer;

/// One campaign run.
struct Ran {
    spec: CampaignSpec,
    outcome: Outcome,
    iterations: u64,
    secs: f64,
    build_s: f64,
    apply: Option<ApplyStats>,
    lanes: LaneStats,
    replay_ok: bool,
}

/// Totals of the traced side measurements.
#[derive(Default)]
struct Side {
    ts0_s: f64,
    derive_s: f64,
}

/// Replays `generate_ts0` and `derive_test_set` for every set the
/// campaign applied, timing each, and checks the replayed sets have the
/// applied sets' shapes.
fn replay(
    c: &Circuit,
    cfg: &RlsConfig,
    shapes: &[(usize, u64)],
    t: &Tracer,
    parent: Option<u64>,
    side: &mut Side,
) -> bool {
    let span = t.open("overhead.replay", parent);
    let t0 = Instant::now();
    let ts0 = generate_ts0(c, cfg);
    side.ts0_s += t0.elapsed().as_secs_f64();
    let shape = |set: &[ScanTest]| (set.len(), rls_core::cycles::nsh(set));
    let mut ok = shapes.first() == Some(&shape(&ts0));
    let d1_values = cfg.d1_order.values(cfg.d1_max);
    let d2 = cfg.d2(c.num_dffs());
    for (k, want) in shapes.iter().enumerate().skip(1) {
        let i = (k as u64 - 1) / d1_values.len() as u64 + 1;
        let d1 = d1_values[(k - 1) % d1_values.len()];
        let t0 = Instant::now();
        let set = derive_test_set(&ts0, cfg, i, d1, d2);
        side.derive_s += t0.elapsed().as_secs_f64();
        ok &= shape(&set) == *want;
    }
    t.close(span);
    ok
}

fn run_campaign(
    c: &Circuit,
    spec: CampaignSpec,
    seed: u64,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    side: &mut Side,
) -> Ran {
    let cfg = spec.config(seed, 1, &CoverageTarget::AllCollapsed);
    let t0 = Instant::now();
    let Some(t) = tracer else {
        let out = Procedure2::new(c, cfg).run();
        return Ran {
            spec,
            outcome: Outcome::of(&out),
            iterations: out.iterations,
            secs: t0.elapsed().as_secs_f64(),
            build_s: 0.0,
            apply: None,
            lanes: LaneStats::default(),
            replay_ok: true,
        };
    };
    let g = t.open("overhead.good_trace", parent);
    let good = GoodSim::new(c);
    t.close(g);
    let span = t.open("core.procedure2", parent);
    let t0 = Instant::now();
    let b = t.open("fsim.build", Some(span.id()));
    let sim = sequential_sim(c, &cfg);
    let build_s = t.close(b);
    let base = ncyc0(c.num_dffs(), cfg.la, cfg.lb, cfg.n);
    let mut exec = Timed::new(sim, t, span.id(), "fsim.apply", Some(good), base);
    let out = Procedure2::new(c, cfg.clone()).run_on(&mut exec, None, None);
    // The side-measured good traces ran inside this span; they are not
    // campaign time.
    let secs = t0.elapsed().as_secs_f64() - exec.stats.good_trace_s;
    t.close(span);
    let replay_ok = replay(c, &cfg, &exec.stats.shapes, t, parent, side);
    Ran {
        spec,
        outcome: Outcome::of(&out),
        iterations: out.iterations,
        secs,
        build_s,
        lanes: exec.inner.lane_stats(),
        apply: Some(exec.stats),
        replay_ok,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> RunResult {
    let names: Vec<&str> = {
        let mut v: Vec<&str> = LADDER.iter().map(|&(n, _)| n).collect();
        v.dedup();
        v
    };
    let (setup_s, netlist_s, _) = setup_reps(&names, |_| {});
    let mut r = RunResult {
        setup_s,
        netlist_s,
        ..RunResult::default()
    };
    let specs = ladder();
    let root = open(ctx.tracer, "bench.run", None);
    let root_id = root.as_ref().map(|s| s.id());
    let mut side = Side::default();
    let mut passes: Vec<Vec<Ran>> = Vec::new();
    timed_loop(ctx.seconds, &mut r, || {
        let pass = open(ctx.tracer, "bench.pass", root_id);
        let pass_id = pass.as_ref().map(|s| s.id());
        let mut ran = Vec::new();
        let mut built: Option<(&str, Circuit)> = None;
        for spec in &specs {
            if built.as_ref().map(|(n, _)| *n) != Some(spec.circuit) {
                let s = open(ctx.tracer, "netlist.build", pass_id);
                built = Some((spec.circuit, circuit(spec.circuit)));
                close(ctx.tracer, s);
            }
            let (_, c) = built.as_ref().expect("built above");
            ran.push(run_campaign(
                c,
                spec.clone(),
                ctx.seed,
                ctx.tracer,
                pass_id,
                &mut side,
            ));
        }
        close(ctx.tracer, pass);
        passes.push(ran);
    });
    close(ctx.tracer, root);

    // Checks, outside the timed region.
    let expected: Vec<Outcome> = specs
        .iter()
        .map(|spec| match ctx.refs.campaign(ctx.seed, &spec.key()) {
            Some(o) => o,
            None => oracle(
                &circuit(spec.circuit),
                spec.config(ctx.seed, 1, &CoverageTarget::AllCollapsed),
            ),
        })
        .collect();
    for ran in passes.iter().flatten() {
        let want = expected[specs
            .iter()
            .position(|s| *s == ran.spec)
            .expect("ladder spec")];
        let error = ran.apply.as_ref().and_then(|a| a.error.clone());
        let ok = ran.outcome == want && ran.replay_ok && error.is_none();
        if !ok {
            r.notes.push(format!(
                "MISMATCH {}: got {:?}, want {:?}, replay ok {}, error {:?}",
                ran.spec.key(),
                ran.outcome,
                want,
                ran.replay_ok,
                error
            ));
        }
        r.tally.record(ok);
        r.latencies.push(ran.secs);
    }
    r.bist_cycles = expected.iter().map(|o| o.cycles).sum();
    r.notes.push(format!(
        "ladder: {} campaigns per pass; campaign seconds {:.3?}",
        specs.len(),
        r.latencies
    ));
    if ctx.tracer.is_some() {
        layers(&mut r, &passes, &side);
    }
    r
}

fn layers(r: &mut RunResult, passes: &[Vec<Ran>], side: &Side) {
    let all: Vec<&Ran> = passes.iter().flatten().collect();
    let sum = |f: &dyn Fn(&ApplyStats) -> f64| {
        all.iter()
            .filter_map(|x| x.apply.as_ref())
            .map(f)
            .sum::<f64>()
    };
    let apply_s = sum(&|a| a.apply_s);
    let good_s = sum(&|a| a.good_trace_s);
    let sim_cycles = sum(&|a| a.sim_cycles as f64);
    let mut lanes = LaneStats::default();
    for x in &all {
        lanes.batches += x.lanes.batches;
        lanes.lanes_used += x.lanes.lanes_used;
        lanes.lanes_capacity += x.lanes.lanes_capacity;
    }
    let p2: f64 = all.iter().map(|x| x.secs).sum();
    let l = &mut r.layers;
    let build_s: f64 = all.iter().map(|x| x.build_s).sum();
    l.insert("core.procedure2_s", p2);
    l.insert("core.loop_other_s", p2 - apply_s - build_s);
    l.insert("fsim.build_s", build_s);
    l.insert("core.ts0_s", side.ts0_s);
    l.insert("core.derive_s", side.derive_s);
    l.insert(
        "core.iterations",
        all.iter().map(|x| x.iterations).sum::<u64>() as f64,
    );
    l.insert(
        "core.pairs_kept",
        all.iter().map(|x| x.outcome.app).sum::<usize>() as f64,
    );
    l.insert("core.trials", sum(&|a| a.sets.saturating_sub(1) as f64));
    l.insert("fsim.apply_s", apply_s);
    l.insert("fsim.good_trace_s", good_s);
    l.insert("fsim.fault_sim_s", apply_s - good_s);
    l.insert("fsim.lane_util", lane_util(lanes));
    l.insert("fsim.batches", lanes.batches as f64);
    l.insert("fsim.sets_applied", sum(&|a| a.sets as f64));
    l.insert("fsim.tests_applied", sum(&|a| a.tests as f64));
    l.insert(
        "fsim.sim_cycles_per_s",
        sim_cycles / apply_s.max(f64::MIN_POSITIVE),
    );
}
