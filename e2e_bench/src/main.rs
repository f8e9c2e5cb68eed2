//! `e2e-bench`: one measured run of one workload.
//!
//! ```text
//! e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --reference <file> [--untraced-wall <s>] [--spans-out <file>]
//! e2e-bench --write-reference <file> --seeds <first>-<last>
//! ```
//!
//! A run works inside its working directory (sockets, campaign files),
//! prints a report, and ends with one JSON line: the end-to-end metrics
//! untraced, the per-layer metrics traced. `run.py` in this directory builds the
//! binary and gives every run a fresh process and directory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use rls_atpg::DetectableSet;
use rls_core::{rank_combinations, CoverageTarget};
use rls_e2e_bench::mix::{
    self, backtrack_limit, circuit, CampaignSpec, TargetKind, TABLE6_CIRCUIT, TABLE6_MAX_TRIES,
};
use rls_e2e_bench::reference::{oracle, AtpgCounts, References};
use rls_e2e_bench::report::{end_to_end, json_line, metric_lines, per_layer, summary_lines};
use rls_e2e_bench::tracer::{Attribution, Tracer};
use rls_e2e_bench::workloads::{self, Ctx};
use rls_e2e_bench::{END_TO_END, PER_LAYER};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    untraced_wall: Option<f64>,
    spans_out: Option<PathBuf>,
    write_reference: Option<PathBuf>,
    seeds: (u64, u64),
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        reference: None,
        untraced_wall: None,
        spans_out: None,
        write_reference: None,
        seeds: (0, 0),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            "--untraced-wall" => {
                let v = value()?;
                a.untraced_wall = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--spans-out" => a.spans_out = Some(PathBuf::from(value()?)),
            "--write-reference" => a.write_reference = Some(PathBuf::from(value()?)),
            "--seeds" => {
                let v = value()?;
                let (lo, hi) = v.split_once('-').ok_or_else(|| bad(&v))?;
                a.seeds = (
                    lo.parse().map_err(|_| bad(&v))?,
                    hi.parse().map_err(|_| bad(&v))?,
                );
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.write_reference {
        Some(path) => write_reference(path, args.seeds),
        None => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let refs = match &args.reference {
        Some(path) => References::load(path)?,
        None => References::default(),
    };
    let tracer = args
        .trace
        .then(|| Tracer::new(std::process::id() as u64 ^ args.seed << 32));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: tracer.as_ref(),
        refs: &refs,
    };
    let r = workloads::run(workload, &ctx)?;

    println!(
        "== {workload} seed {} ({}) ==",
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    r.notes.iter().for_each(|n| println!("  {n}"));
    for line in summary_lines(&r) {
        println!("{line}");
    }
    let line = match &tracer {
        None => {
            let values = end_to_end(&r);
            metric_lines(&END_TO_END, &values)
                .iter()
                .for_each(|l| println!("{l}"));
            json_line(r.tally, &END_TO_END, &values)
        }
        Some(t) => {
            let spans = t.spans();
            let a = Attribution::of(&spans);
            println!(
                "  self time by layer (run {:#x}, {} spans):",
                t.run_id(),
                spans.len()
            );
            a.render().iter().for_each(|l| println!("    {l}"));
            let values = per_layer(&r, &a, args.untraced_wall);
            println!(
                "  tracing overhead: traced wall_s {:.4} - untraced wall_s {} = {:.4} s; side measurements {:.4} s",
                r.wall_s(),
                args.untraced_wall.map_or("?".into(), |u| format!("{u:.4}")),
                values["trace.overhead_s"],
                a.overhead_s
            );
            metric_lines(&PER_LAYER, &values)
                .iter()
                .for_each(|l| println!("{l}"));
            if let Some(path) = &args.spans_out {
                std::fs::write(path, t.to_jsonl())
                    .map_err(|e| format!("cannot write spans: {e}"))?;
            }
            json_line(r.tally, &PER_LAYER, &values)
        }
    };
    println!("{line}");
    Ok(())
}

/// Recomputes the reference file for a seed range from the sequential
/// oracle: ATPG counts of the Table 6 circuit, the Table 6 row's
/// campaigns, the ladder, and every served request.
fn write_reference(path: &PathBuf, (lo, hi): (u64, u64)) -> Result<(), String> {
    let mut refs = References::default();
    let c6 = circuit(TABLE6_CIRCUIT);
    let limit = backtrack_limit(&c6);
    let set = DetectableSet::compute(&c6, limit);
    refs.insert_atpg(
        TABLE6_CIRCUIT,
        limit,
        AtpgCounts {
            detected: set.detectable().len(),
            redundant: set.redundant().len(),
            aborted: set.aborted().len(),
        },
    );
    let target = CoverageTarget::Faults(set.detectable().to_vec());
    let mut jobs: Vec<CampaignSpec> = mix::ladder();
    jobs.extend(mix::served_pool());
    let refs = Mutex::new(refs);
    let next = Mutex::new(lo);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let seed = {
                    let mut n = next.lock().expect("seed counter poisoned");
                    if *n > hi {
                        return;
                    }
                    *n += 1;
                    *n - 1
                };
                let mut found = Vec::new();
                for combo in rank_combinations(c6.num_dffs())
                    .into_iter()
                    .take(TABLE6_MAX_TRIES)
                {
                    let spec = CampaignSpec::new(
                        TABLE6_CIRCUIT,
                        combo,
                        TargetKind::Detectable,
                        mix::TABLE6_MAX_ITERATIONS,
                    );
                    let o = oracle(&c6, spec.config(seed, 1, &target));
                    found.push((spec.key(), o));
                    if o.complete {
                        break;
                    }
                }
                for spec in &jobs {
                    let o = oracle(
                        &circuit(spec.circuit),
                        spec.config(seed, 1, &CoverageTarget::AllCollapsed),
                    );
                    found.push((spec.key(), o));
                }
                eprintln!("seed {seed}: {} campaigns", found.len());
                let mut r = refs.lock().expect("references poisoned");
                for (key, o) in found {
                    r.insert_campaign(seed, key, o);
                }
            });
        }
    });
    let refs = refs.into_inner().expect("references poisoned");
    std::fs::write(path, refs.render()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
