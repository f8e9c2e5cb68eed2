//! `table6_cold`: one Table 6 row on s953, cold.
//!
//! The row makes the `table6` binary's public calls: the PODEM-proven
//! detectable target (`detectable_target`), then Procedure 2 over the
//! Table 5 ranking at two threads until the first complete combination.
//! Every row builds its circuit, target and simulators from nothing.
//!
//! Traced, the target is computed by the loop `DetectableSet::compute_for`
//! runs — `Podem::generate` over the collapsed representatives — with
//! each call timed by outcome, and each campaign runs through
//! `Procedure2::run_on` on the same scoped pool `Procedure2::run` builds,
//! with every set timed.

use std::time::Instant;

use rls_atpg::{DetectableSet, Podem, PodemOutcome};
use rls_core::experiment::detectable_target;
use rls_core::{ncyc0, rank_combinations, CoverageTarget, Procedure2};
use rls_dispatch::{PoolSnapshot, SetRunner, SimContext, WorkerPool};
use rls_fsim::{CollapsedFaults, FaultUniverse};
use rls_netlist::Circuit;

use super::served::{worker_layers, WorkerFigs};
use super::{close, open, setup_reps, timed_loop, Ctx, RunResult};
use crate::exec::{ApplyStats, Timed};
use crate::mix::{
    backtrack_limit, circuit, CampaignSpec, TargetKind, TABLE6_CIRCUIT, TABLE6_MAX_ITERATIONS,
    TABLE6_MAX_TRIES, TABLE6_THREADS,
};
use crate::reference::{oracle, AtpgCounts, Outcome};
use crate::tracer::Tracer;

/// Per-outcome PODEM figures: index 0 detected, 1 redundant, 2 aborted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Classify {
    /// Faults per outcome.
    pub count: [usize; 3],
    /// Seconds in `Podem::generate` per outcome.
    pub secs: [f64; 3],
    /// Seconds of the whole classification loop.
    pub total_s: f64,
}

impl Classify {
    /// The counts as [`AtpgCounts`].
    pub fn counts(&self) -> AtpgCounts {
        AtpgCounts {
            detected: self.count[0],
            redundant: self.count[1],
            aborted: self.count[2],
        }
    }
}

/// Classifies every collapsed fault of `c` as `DetectableSet::compute`
/// does, timing each `Podem::generate` call. Returns the detectable
/// target (in `DetectableSet` order) and the per-outcome figures.
pub fn classify(
    c: &Circuit,
    limit: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (CoverageTarget, Classify) {
    let prep = tracer.open("atpg.prepare", parent);
    let universe = FaultUniverse::enumerate(c);
    let collapsed = CollapsedFaults::build(c, &universe);
    let podem = Podem::new(c, limit);
    tracer.close(prep);
    let span = tracer.open("atpg.classify", parent);
    let mut k = Classify::default();
    let mut detectable = Vec::new();
    for &id in collapsed.representatives() {
        let t0 = Instant::now();
        let outcome = podem.generate(universe.fault(id));
        let dt = t0.elapsed().as_secs_f64();
        let class = match outcome {
            PodemOutcome::Detected(_) => {
                detectable.push(id);
                0
            }
            PodemOutcome::Redundant => 1,
            PodemOutcome::Aborted => 2,
        };
        k.count[class] += 1;
        k.secs[class] += dt;
    }
    k.total_s = tracer.close(span);
    (CoverageTarget::Faults(detectable), k)
}

/// One campaign of a row.
struct Tried {
    spec: CampaignSpec,
    outcome: Outcome,
    iterations: u64,
    secs: f64,
}

/// Traced-only figures of a row.
#[derive(Default)]
struct RowTrace {
    classify: Classify,
    apply: ApplyStats,
    workers: Vec<PoolSnapshot>,
}

struct Row {
    /// Wall seconds of the whole row.
    wall: f64,
    circuit: Circuit,
    limit: usize,
    counts: AtpgCounts,
    target: CoverageTarget,
    tried: Vec<Tried>,
    trace: Option<RowTrace>,
}

fn run_row(seed: u64, tracer: Option<&Tracer>, parent: Option<u64>) -> Row {
    let start = Instant::now();
    let row_span = open(tracer, "bench.row", parent);
    let row_id = row_span.as_ref().map(|s| s.id());
    let s = open(tracer, "netlist.build", row_id);
    let c = circuit(TABLE6_CIRCUIT);
    close(tracer, s);
    let limit = backtrack_limit(&c);
    let (target, counts, mut trace) = match tracer {
        None => {
            let info = detectable_target(&c, limit);
            let counts = AtpgCounts {
                detected: info.detectable,
                redundant: info.redundant,
                aborted: info.aborted,
            };
            (info.target, counts, None)
        }
        Some(t) => {
            let (target, k) = classify(&c, limit, t, row_id);
            let trace = RowTrace {
                classify: k,
                ..RowTrace::default()
            };
            (target, k.counts(), Some(trace))
        }
    };
    let mut tried = Vec::new();
    for combo in rank_combinations(c.num_dffs())
        .into_iter()
        .take(TABLE6_MAX_TRIES)
    {
        let spec = CampaignSpec::new(
            TABLE6_CIRCUIT,
            combo,
            TargetKind::Detectable,
            TABLE6_MAX_ITERATIONS,
        );
        let cfg = spec.config(seed, TABLE6_THREADS, &target);
        let t0 = Instant::now();
        let out = match (tracer, trace.as_mut()) {
            (Some(t), Some(tr)) => {
                let span = t.open("core.procedure2", row_id);
                let base = ncyc0(c.num_dffs(), cfg.la, cfg.lb, cfg.n);
                let ctx = SimContext::new(&c, cfg.observe)
                    .with_lane_width(cfg.lane_width)
                    .with_pattern_lanes(cfg.pattern_lanes);
                let (out, snap, stats) = WorkerPool::new(TABLE6_THREADS).scope(|d| {
                    let mut runner = SetRunner::new(&ctx, d);
                    if let CoverageTarget::Faults(targets) = &cfg.target {
                        runner.set_targets(targets);
                    }
                    let mut exec = Timed::new(runner, t, span.id(), "dispatch.apply", None, base);
                    let out = Procedure2::new(&c, cfg.clone()).run_on(&mut exec, None, None);
                    (out, d.snapshot(), exec.stats)
                });
                t.close(span);
                tr.apply.apply_s += stats.apply_s;
                tr.apply.sets += stats.sets;
                tr.apply.tests += stats.tests;
                tr.apply.sim_cycles += stats.sim_cycles;
                if let Some(e) = stats.error {
                    tr.apply.error.get_or_insert(e);
                }
                tr.workers.push(snap);
                out
            }
            _ => Procedure2::new(&c, cfg).run(),
        };
        let complete = out.complete;
        tried.push(Tried {
            spec,
            outcome: Outcome::of(&out),
            iterations: out.iterations,
            secs: t0.elapsed().as_secs_f64(),
        });
        if complete {
            break;
        }
    }
    close(tracer, row_span);
    Row {
        wall: start.elapsed().as_secs_f64(),
        circuit: c,
        limit,
        counts,
        target,
        tried,
        trace,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> RunResult {
    let (setup_s, netlist_s, _) = setup_reps(&[TABLE6_CIRCUIT], |_| {});
    let mut r = RunResult {
        setup_s,
        netlist_s,
        ..RunResult::default()
    };
    let root = open(ctx.tracer, "bench.run", None);
    let root_id = root.as_ref().map(|s| s.id());
    let mut rows = Vec::new();
    timed_loop(ctx.seconds, &mut r, || {
        rows.push(run_row(ctx.seed, ctx.tracer, root_id))
    });
    close(ctx.tracer, root);

    // Checks, outside the timed region. ATPG counts do not depend on the
    // seed; campaigns are checked against the stored reference or, for a
    // seed without one, the sequential oracle. Traced runs always run the
    // oracle, which times the same campaigns at one thread.
    let first = &rows[0];
    let atpg_ref = ctx
        .refs
        .atpg(TABLE6_CIRCUIT, first.limit)
        .unwrap_or_else(|| {
            let set = DetectableSet::compute(&first.circuit, first.limit);
            AtpgCounts {
                detected: set.detectable().len(),
                redundant: set.redundant().len(),
                aborted: set.aborted().len(),
            }
        });
    let mut oracle_s = 0.0;
    let mut expected = Vec::new();
    for t in &first.tried {
        let cfg = t.spec.config(ctx.seed, 1, &first.target);
        let stored = ctx.refs.campaign(ctx.seed, &t.spec.key());
        let want = match (stored, ctx.tracer) {
            (Some(o), None) => o,
            _ => {
                let t0 = Instant::now();
                let o = oracle(&first.circuit, cfg);
                oracle_s += t0.elapsed().as_secs_f64();
                stored.unwrap_or(o)
            }
        };
        expected.push((t.spec.key(), want));
    }
    for row in &rows {
        let got: Vec<(String, Outcome)> = row
            .tried
            .iter()
            .map(|t| (t.spec.key(), t.outcome))
            .collect();
        let error = row.trace.as_ref().and_then(|tr| tr.apply.error.clone());
        let ok = row.counts == atpg_ref && got == expected && error.is_none();
        if !ok {
            r.notes.push(format!(
                "MISMATCH row: atpg {:?} vs {:?}, campaigns {:?} vs {:?}, error {:?}",
                row.counts, atpg_ref, got, expected, error
            ));
        }
        r.tally.record(ok);
        // The row is this workload's operation: its latency is the row's.
        r.latencies.push(row.wall);
    }
    r.bist_cycles = expected.iter().map(|(_, o)| o.cycles).sum();
    r.notes.push(format!(
        "row: {} faults {} detected / {} redundant / {} aborted; {} combination(s) tried, last {}; campaign seconds {:.3?}",
        TABLE6_CIRCUIT,
        first.counts.detected,
        first.counts.redundant,
        first.counts.aborted,
        first.tried.len(),
        first.tried.last().map_or("-".into(), |t| t.spec.key()),
        first.tried.iter().map(|t| t.secs).collect::<Vec<_>>(),
    ));
    if let Some(tr) = &first.trace {
        layers(&mut r, first, tr, oracle_s);
    }
    r
}

fn layers(r: &mut RunResult, row: &Row, tr: &RowTrace, oracle_s: f64) {
    let k = &tr.classify;
    let l = &mut r.layers;
    l.insert("atpg.classify_s", k.total_s);
    let per_fault = [
        "atpg.us_per_fault.detected",
        "atpg.us_per_fault.redundant",
        "atpg.us_per_fault.aborted",
    ];
    for (i, name) in per_fault.into_iter().enumerate() {
        let us = if k.count[i] > 0 {
            k.secs[i] * 1e6 / k.count[i] as f64
        } else {
            0.0
        };
        l.insert(name, us);
    }
    l.insert("atpg.faults.detected", k.count[0] as f64);
    l.insert("atpg.faults.redundant", k.count[1] as f64);
    l.insert("atpg.faults.aborted", k.count[2] as f64);
    l.insert("atpg.aborted_s", k.secs[2]);
    l.insert(
        "atpg.aborted_share",
        k.secs[2] / k.total_s.max(f64::MIN_POSITIVE),
    );
    let p2: f64 = row.tried.iter().map(|t| t.secs).sum();
    l.insert("core.procedure2_s", p2);
    l.insert("core.procedure2_t1_s", oracle_s);
    l.insert(
        "dispatch.thread_speedup",
        oracle_s / p2.max(f64::MIN_POSITIVE),
    );
    l.insert("dispatch.apply_s", tr.apply.apply_s);
    l.insert(
        "core.trials",
        tr.apply.sets.saturating_sub(row.tried.len() as u64) as f64,
    );
    l.insert("fsim.sets_applied", tr.apply.sets as f64);
    l.insert("fsim.tests_applied", tr.apply.tests as f64);
    l.insert(
        "core.iterations",
        row.tried.iter().map(|t| t.iterations).sum::<u64>() as f64,
    );
    l.insert(
        "core.pairs_kept",
        row.tried.iter().map(|t| t.outcome.app).sum::<usize>() as f64,
    );
    let figs: Vec<WorkerFigs> = tr.workers.iter().map(WorkerFigs::from_snapshot).collect();
    worker_layers(l, &figs, TABLE6_THREADS, p2);
}
