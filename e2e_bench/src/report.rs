//! Turning a run into metrics: the human-readable report and the final
//! JSON line.

use std::collections::BTreeMap;

use crate::stats::{median, tail, Tally};
use crate::tracer::Attribution;
use crate::workloads::RunResult;
use crate::{MetricDef, PER_LAYER};

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &RunResult) -> BTreeMap<&'static str, f64> {
    let t = tail(&r.latencies);
    BTreeMap::from([
        ("wall_s", r.wall_s()),
        ("setup_s", median(&r.setup_s)),
        (
            "campaigns_per_s",
            r.latencies.len() as f64 / r.measured_s.max(f64::MIN_POSITIVE),
        ),
        ("campaign_latency_p50_s", median(&r.latencies)),
        ("campaign_latency_tail_s", t.map_or(0.0, |t| t.value)),
    ])
}

/// The per-layer metrics of a traced run. `untraced_wall_s` is the
/// `wall_s` of an untraced run of the same workload and seed, when known.
pub fn per_layer(
    r: &RunResult,
    a: &Attribution,
    untraced_wall_s: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let mut l: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    l.extend(r.layers.iter().map(|(k, v)| (*k, *v)));
    l.insert("netlist.build_s", median(&r.netlist_s));
    l.insert("core.bist_cycles", r.bist_cycles as f64);
    if !r.layers.contains_key("core.loop_other_s") {
        l.insert(
            "core.loop_other_s",
            a.by_name.get("core.procedure2").copied().unwrap_or(0.0),
        );
    }
    l.insert("process.cpu_s", r.cpu_s);
    l.insert("process.peak_rss_mb", r.peak_rss_mb);
    l.insert(
        "process.cpu_util",
        r.cpu_s / r.measured_s.max(f64::MIN_POSITIVE),
    );
    l.insert("trace.wall_s", r.wall_s());
    l.insert(
        "trace.overhead_s",
        untraced_wall_s.map_or(0.0, |u| r.wall_s() - u),
    );
    l.insert("trace.side_s", a.overhead_s);
    l.insert("trace.attributed_share", a.attributed_share());
    l.insert("trace.unattributed_s", a.unattributed_s);
    l
}

/// Renders a finite number for JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, and `metrics`
/// (exactly the metrics of `defs`).
pub fn json_line(tally: Tally, defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(values.get(d.name).copied().unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted > 0 && tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(",")
    )
}

/// Human-readable lines for a metric set.
pub fn metric_lines(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> Vec<String> {
    defs.iter()
        .map(|d| {
            format!(
                "  {:<28} {:>16.6} {}",
                d.name,
                values.get(d.name).copied().unwrap_or(0.0),
                d.unit
            )
        })
        .collect()
}

/// The report lines every run prints: the exactly-checked metrics
/// (`bist_cycles`, `failed_share`), the peak resident memory, and the
/// tail percentile's basis.
pub fn summary_lines(r: &RunResult) -> Vec<String> {
    let mut lines = vec![
        format!(
            "  {:<28} {:>16} cycles (per pass; checked against the reference)",
            "bist_cycles", r.bist_cycles
        ),
        format!(
            "  {:<28} {:>16.6} ratio ({} of {} operations failed)",
            "failed_share",
            r.tally.failed_share(),
            r.tally.failed,
            r.tally.attempted
        ),
        format!(
            "  {:<28} {:>16.6} MiB (end of the timed region)",
            "peak_rss_mb", r.peak_rss_mb
        ),
    ];
    if let Some(t) = tail(&r.latencies) {
        lines.push(format!(
            "  campaign_latency_tail_s is p{} of {} samples ({} beyond{})",
            t.percentile,
            t.samples,
            t.beyond,
            if t.beyond < crate::stats::TAIL_MIN_BEYOND {
                "; too few samples for a tail, the median is reported"
            } else {
                ""
            }
        ));
    }
    lines.push(format!(
        "  passes {} ({:.3?} s), timed region {:.3} s ({:.3} CPU s), setup reps {}",
        r.pass_s.len(),
        r.pass_s,
        r.measured_s,
        r.cpu_s,
        r.setup_s.len(),
    ));
    lines
}
