//! Self-tests of the benchmark harness: statistics, failure accounting,
//! seed determinism, ATPG mirroring, span attribution, and layer sums.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rls_atpg::DetectableSet;
use rls_core::{ncyc0, CoverageTarget, Procedure2};
use rls_e2e_bench::exec::Timed;
use rls_e2e_bench::mix::{self, served_order, CampaignSpec, TargetKind};
use rls_e2e_bench::reference::{oracle, Outcome, References};
use rls_e2e_bench::report::json_line;
use rls_e2e_bench::stats::{median, tail, Tally};
use rls_e2e_bench::tracer::{Attribution, Span, Tracer};
use rls_e2e_bench::workloads::table6::classify;
use rls_e2e_bench::workloads::{another_pass_fits, sequential_sim};
use rls_e2e_bench::{END_TO_END, PER_LAYER};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (90.0, 90.0, 10, 100)
    );

    let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (99.0, 990.0, 10, 1000)
    );

    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
}

#[test]
fn tail_of_a_small_sample_reports_the_median_rank_and_its_shortfall() {
    let v: Vec<f64> = (1..=19).map(f64::from).collect();
    let t = tail(&v).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (50.0, 10.0, 9, 19)
    );
    let t = tail(&[4.0, 1.0]).unwrap();
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (50.0, 2.5, 1, 2),
        "the median, not a rank"
    );
    assert!(tail(&[]).is_none());
}

#[test]
fn median_handles_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn a_pass_starts_only_when_it_is_expected_to_end_within_the_budget() {
    assert!(
        another_pass_fits(0.0, 0, 25.0),
        "the first pass always runs"
    );
    assert!(another_pass_fits(40.0, 0, 25.0), "even past the budget");
    assert!(
        another_pass_fits(11.0, 1, 25.0),
        "a second 11 s pass ends at 22 s"
    );
    assert!(
        !another_pass_fits(20.0, 1, 25.0),
        "a second 20 s row would end at 40 s"
    );
    assert!(
        another_pass_fits(18.0, 4, 25.0),
        "a fifth 4.5 s pass ends at 22.5 s"
    );
    assert!(
        !another_pass_fits(22.5, 5, 25.0),
        "a sixth would end at 27 s"
    );
}

#[test]
fn failed_share_counts_every_failed_operation() {
    let mut t = Tally::default();
    assert_eq!(
        t.failed_share(),
        1.0,
        "a run that attempted nothing is not a success"
    );
    for ok in [true, true, false, true] {
        t.record(ok);
    }
    assert_eq!((t.attempted, t.failed), (4, 1));
    assert_eq!(t.failed_share(), 0.25);
}

#[test]
fn json_line_is_correct_only_with_work_and_no_failures() {
    let values = BTreeMap::from([("wall_s", 1.5)]);
    let ok = Tally {
        attempted: 3,
        failed: 0,
    };
    let bad = Tally {
        attempted: 3,
        failed: 1,
    };
    let line = json_line(ok, &END_TO_END, &values);
    assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
    assert!(line.contains("\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    for d in END_TO_END {
        assert!(
            line.contains(&format!("\"{}\":", d.name)),
            "{} missing",
            d.name
        );
    }
    assert!(json_line(bad, &END_TO_END, &values).starts_with("{\"correct\":false"));
    assert!(json_line(Tally::default(), &END_TO_END, &values).starts_with("{\"correct\":false"));
}

#[test]
fn request_mix_is_a_deterministic_function_of_the_seed() {
    let pool = mix::served_pool();
    assert_eq!(pool.len(), mix::SERVED_CIRCUITS.len() * mix::SERVED_RANKS);
    assert_eq!(pool, mix::served_pool());
    for seed in [0, 1, 7, u64::MAX] {
        for pass in 0..3 {
            let order = served_order(seed, pass, pool.len());
            assert_eq!(order, served_order(seed, pass, pool.len()));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..pool.len()).collect::<Vec<_>>(),
                "a pass runs each request once"
            );
        }
    }
    assert_ne!(
        served_order(1, 0, pool.len()),
        served_order(2, 0, pool.len())
    );
    assert_ne!(
        served_order(1, 0, pool.len()),
        served_order(1, 1, pool.len())
    );
    let line = pool[0].request_line(42);
    assert!(
        line.contains("\"seed\":42") && line.contains("\"threads\":2"),
        "{line}"
    );
    assert!(
        line.contains(&format!(
            "\"max_iterations\":{}",
            mix::SERVED_MAX_ITERATIONS
        )),
        "{line}"
    );
}

#[test]
fn campaign_configs_follow_the_seed_and_the_entry_point() {
    let c = mix::circuit("s27");
    let combo = mix::combo(&c, 0);
    let all = CampaignSpec::new("s27", combo, TargetKind::AllCollapsed, 3);
    let det = CampaignSpec::new(
        "s27",
        combo,
        TargetKind::Detectable,
        mix::TABLE6_MAX_ITERATIONS,
    );
    let target = CoverageTarget::Faults(vec![]);
    assert_eq!(all.config(5, 1, &target).seeds.base(), 5);
    assert_eq!(
        all.config(5, 1, &target).target,
        CoverageTarget::AllCollapsed
    );
    assert_eq!(all.config(5, 1, &target).max_iterations, 3);
    assert_eq!(det.config(5, 2, &target).target, target);
    assert_eq!(
        det.config(5, 2, &target).max_iterations,
        mix::TABLE6_MAX_ITERATIONS
    );
    assert_ne!(all.key(), det.key());
}

#[test]
fn classification_counts_match_detectable_set_on_s27_and_s208() {
    for name in ["s27", "s208"] {
        let c = mix::circuit(name);
        let limit = mix::backtrack_limit(&c);
        let set = DetectableSet::compute(&c, limit);
        let tracer = Tracer::new(1);
        let (target, k) = classify(&c, limit, &tracer, None);
        assert_eq!(
            k.count,
            [
                set.detectable().len(),
                set.redundant().len(),
                set.aborted().len()
            ],
            "{name}"
        );
        assert_eq!(
            target,
            CoverageTarget::Faults(set.detectable().to_vec()),
            "{name}"
        );
        // Layer-sum sanity: the per-outcome times add up to the loop.
        let sum: f64 = k.secs.iter().sum();
        assert!(
            sum <= k.total_s,
            "{name}: outcomes {sum} > classify {}",
            k.total_s
        );
        assert!(
            k.total_s - sum <= (0.05 * k.total_s).max(0.002),
            "{name}: {sum} vs {}",
            k.total_s
        );
    }
}

#[test]
fn timed_executor_matches_the_oracle_and_apply_fits_in_the_campaign() {
    let c = mix::circuit("s208");
    let spec = CampaignSpec::new("s208", mix::combo(&c, 0), TargetKind::AllCollapsed, 2);
    let cfg = spec.config(3, 1, &CoverageTarget::AllCollapsed);
    let tracer = Tracer::new(2);
    let span = tracer.open("core.procedure2", None);
    let base = ncyc0(c.num_dffs(), cfg.la, cfg.lb, cfg.n);
    let mut exec = Timed::new(
        sequential_sim(&c, &cfg),
        &tracer,
        span.id(),
        "fsim.apply",
        None,
        base,
    );
    let out = Procedure2::new(&c, cfg.clone()).run_on(&mut exec, None, None);
    let p2 = tracer.close(span);
    assert_eq!(Outcome::of(&out), oracle(&c, cfg));
    assert!(
        exec.stats.apply_s <= p2,
        "fsim.apply_s {} > core.procedure2_s {p2}",
        exec.stats.apply_s
    );
    assert_eq!(exec.stats.sets as usize, exec.stats.shapes.len());
    assert!(exec.stats.error.is_none());
}

fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start,
        end,
    }
}

#[test]
fn attribution_subtracts_overlapping_children_once_and_sets_overhead_aside() {
    let spans = vec![
        span(1, None, "bench.run", 0, 100),
        span(2, Some(1), "bench.client", 0, 100),
        span(3, Some(1), "bench.client", 0, 90),
        span(4, Some(2), "serve.request", 10, 60),
        span(5, Some(3), "serve.request", 20, 90),
        span(6, Some(1), "overhead.replay", 95, 100),
        span(7, Some(6), "core.ts0", 95, 97),
    ];
    let a = Attribution::of(&spans);
    // Root: 100 minus the union of its children [0,100] → 0.
    // Clients: 100 - 50 and 90 - 70; requests 50 and 70.
    assert!((a.by_name["serve.request"] - 120e-9).abs() < 1e-15);
    assert!((a.unattributed_s - 70e-9).abs() < 1e-15);
    assert!(
        (a.overhead_s - 5e-9).abs() < 1e-15,
        "overhead includes its children"
    );
    assert!((a.traced_s - 190e-9).abs() < 1e-15);
    assert!((a.attributed_share() - 120.0 / 190.0).abs() < 1e-12);
}

#[test]
fn tracer_records_spans_with_parents_and_one_run_id() {
    let t = Tracer::new(9);
    let outer = t.open("bench.run", None);
    let inner = t.open("atpg.classify", Some(outer.id()));
    std::thread::sleep(Duration::from_millis(2));
    let inner_s = t.close(inner);
    let now = Instant::now();
    t.record(
        "serve.accept",
        Some(outer.id()),
        now,
        now + Duration::from_millis(1),
    );
    let outer_s = t.close(outer);
    assert!(inner_s <= outer_s);
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().skip(1).all(|s| s.parent == Some(spans[0].id)));
    let jsonl = t.to_jsonl();
    assert_eq!(jsonl.lines().count(), 3);
    assert!(jsonl.lines().all(|l| l.starts_with("{\"run\":9,")));
}

#[test]
fn references_round_trip() {
    let text = "{\"atpg\":\"s953\",\"limit\":1000,\"detected\":5,\"redundant\":1,\"aborted\":2}\n\
                {\"seed\":3,\"campaign\":\"s27/8,16,64/all\",\"det\":32,\"target\":32,\"app\":0,\"cycles\":1923,\"complete\":true}\n";
    let refs = References::parse(text).unwrap();
    assert_eq!(refs.render(), text);
    assert_eq!(
        refs.campaign(3, "s27/8,16,64/all").map(|o| o.cycles),
        Some(1923)
    );
    assert!(refs.campaign(4, "s27/8,16,64/all").is_none());
    assert!(References::parse("{\"seed\":1}").is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = rls_dispatch::jsonl::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let f = |k: &str| m.str_field(k).expect("metric field").to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    };
    let defs = |d: &[rls_e2e_bench::MetricDef]| -> Vec<(String, String, String)> {
        d.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(names("end_to_end"), defs(&END_TO_END));
    assert_eq!(names("per_layer"), defs(&PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(|a| a.as_array())
        .expect("workloads")
        .iter()
        .map(|w| w.str_field("name").expect("name").to_string())
        .collect();
    assert_eq!(workloads, rls_e2e_bench::workloads::WORKLOADS);
}
