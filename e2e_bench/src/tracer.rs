//! Harness-owned spans around calls into the library's public functions.
//!
//! A span records its name, start, end and parent; every span of one run
//! carries the run's id. Spans are kept in memory and written when the
//! run ends. Span names start with their layer (`atpg.classify` belongs to
//! `atpg`); two prefixes are not layers:
//!
//! - `bench.*` — the harness's own structure (the run, a pass, a client).
//!   Their self time is the unattributed remainder.
//! - `overhead.*` — side measurements that repeat work the workload already
//!   did (good-machine traces, `TS0`/derivation replays). They are
//!   reported as tracing overhead and left out of the attributed total.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.what`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span is recorded only when closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug, Default)]
struct Store {
    next_id: u64,
    spans: Vec<Span>,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    store: Mutex<Store>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            store: Mutex::new(Store::default()),
        }
    }

    /// The id every span of this run shares.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn alloc(&self) -> u64 {
        let mut s = self.store();
        s.next_id += 1;
        s.next_id
    }

    /// Starts a span now.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            id: self.alloc(),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span now and stores it; returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.saturating_duration_since(open.start).as_secs_f64();
        self.push(open.id, open.parent, open.name, open.start, end);
        secs
    }

    /// Stores a span measured elsewhere (e.g. from a client's frame
    /// timestamps); returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.alloc();
        self.push(id, parent, name, start, end);
        id
    }

    fn push(&self, id: u64, parent: Option<u64>, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            name,
            start: self.offset(start),
            end: self.offset(end),
        };
        self.store().spans.push(span);
    }

    /// All spans recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.store().spans.clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        self.spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                    self.run_id, s.id, parent, s.name, s.start, s.end
                )
            })
            .collect()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap (concurrent clients); the union
/// is subtracted, so no time is removed twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.nanos() - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Whether `s` or one of its ancestors is an `overhead.*` span.
fn in_overhead<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> bool {
    loop {
        if s.layer() == "overhead" {
            return true;
        }
        match s.parent.and_then(|p| by_id.get(&p)) {
            Some(p) => s = p,
            None => return false,
        }
    }
}

/// Where a traced run's time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Self seconds per span name (layer spans only).
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self seconds per layer.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Self seconds of `bench.*` spans: time no layer accounts for.
    pub unattributed_s: f64,
    /// Seconds inside `overhead.*` spans (and their children).
    pub overhead_s: f64,
    /// Traced time: the self time of every non-overhead span. With one
    /// thread of spans this is the root's wall time minus the overhead;
    /// with concurrent clients it sums each client's time.
    pub traced_s: f64,
}

impl Attribution {
    /// Computes the attribution of a span set.
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut a = Attribution::default();
        for s in spans {
            let secs = selfs[&s.id] as f64 * 1e-9;
            if in_overhead(&by_id, s) {
                a.overhead_s += secs;
                continue;
            }
            a.traced_s += secs;
            if s.layer() == "bench" {
                a.unattributed_s += secs;
            } else {
                *a.by_name.entry(s.name).or_default() += secs;
                *a.by_layer.entry(s.layer()).or_default() += secs;
            }
        }
        a
    }

    /// Share of the traced time that named layer spans account for.
    pub fn attributed_share(&self) -> f64 {
        if self.traced_s > 0.0 {
            1.0 - self.unattributed_s / self.traced_s
        } else {
            0.0
        }
    }

    /// The per-layer self-time table, one line per layer and span name.
    pub fn render(&self) -> Vec<String> {
        let share = |x: f64| 100.0 * x / self.traced_s.max(f64::MIN_POSITIVE);
        let mut lines = vec![format!(
            "{:<26} {:>10} {:>7}",
            "layer / span", "self_s", "share"
        )];
        for (layer, secs) in &self.by_layer {
            lines.push(format!("{layer:<26} {secs:>10.4} {:>6.1}%", share(*secs)));
            for (name, s) in self
                .by_name
                .iter()
                .filter(|(n, _)| n.starts_with(&format!("{layer}.")))
            {
                lines.push(format!("  {name:<24} {s:>10.4} {:>6.1}%", share(*s)));
            }
        }
        lines.push(format!(
            "{:<26} {:>10.4} {:>6.1}%",
            "(unattributed)",
            self.unattributed_s,
            share(self.unattributed_s)
        ));
        lines.push(format!("{:<26} {:>10.4}", "traced total", self.traced_s));
        lines.push(format!(
            "{:<26} {:>10.4}",
            "side measurements", self.overhead_s
        ));
        lines
    }
}
