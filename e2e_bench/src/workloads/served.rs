//! `served_mix`: many short campaigns through an in-process `rls-serve`.
//!
//! A `Server` with a two-thread `SharedPool` and two in-flight slots
//! listens on a socket in the run's directory. Two client connections run
//! a closed loop over a seed-ordered request list, each sending its next
//! `run` request when the previous stream ends. Circuits repeat across
//! requests, so the server's compile cache is exercised.
//!
//! Every request is timed from outside at its frame boundaries: write →
//! `accepted` (admission, compile cache, journal), `accepted` → first
//! campaign record (`TS0` simulated), first record → `done`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rls_core::CoverageTarget;
use rls_dispatch::jsonl::{parse, JsonValue};
use rls_dispatch::PoolSnapshot;
use rls_serve::{ServeConfig, Server};

use super::{another_pass_fits, setup_reps, Ctx, RunResult, SETUP_REPS};
use crate::mix::{
    circuit, served_order, served_pool, CampaignSpec, SERVED_CIRCUITS, SERVED_CLIENTS,
    SERVED_THREADS,
};
use crate::procinfo::{cpu_seconds, peak_rss_mib};
use crate::reference::{oracle, Outcome};
use crate::stats::median;
use crate::tracer::Tracer;

/// Longest a client waits for any one frame before it gives up.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);

/// Summed per-worker counters of one or more campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFigs {
    /// Jobs executed.
    pub jobs: u64,
    /// Jobs stolen.
    pub steals: u64,
    /// Worker respawns after a panic.
    pub respawns: u64,
    /// Nanoseconds of simulation work.
    pub sim_nanos: u64,
    /// Occupied kernel lanes.
    pub lanes_used: u64,
    /// Available kernel lanes.
    pub lanes_capacity: u64,
}

impl WorkerFigs {
    /// Sums a pool snapshot's workers.
    pub fn from_snapshot(snap: &PoolSnapshot) -> Self {
        let mut f = WorkerFigs::default();
        for w in &snap.workers {
            f.add(&WorkerFigs {
                jobs: w.jobs,
                steals: w.steals,
                respawns: w.respawns,
                sim_nanos: w.sim_nanos,
                lanes_used: w.lanes_used,
                lanes_capacity: w.lanes_capacity,
            });
        }
        f
    }

    /// Sums the workers of a campaign `workers` record.
    pub fn from_record(v: &JsonValue) -> Self {
        let mut f = WorkerFigs::default();
        for w in v
            .get("workers")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let n = |k: &str| w.u64_field(k).unwrap_or(0);
            f.add(&WorkerFigs {
                jobs: n("jobs"),
                steals: n("steals"),
                respawns: n("respawns"),
                sim_nanos: n("sim_nanos"),
                lanes_used: n("lanes_used"),
                lanes_capacity: n("lanes_capacity"),
            });
        }
        f
    }

    fn add(&mut self, o: &WorkerFigs) {
        self.jobs += o.jobs;
        self.steals += o.steals;
        self.respawns += o.respawns;
        self.sim_nanos += o.sim_nanos;
        self.lanes_used += o.lanes_used;
        self.lanes_capacity += o.lanes_capacity;
    }
}

/// Inserts the `dispatch.*` layer metrics: counter sums, busy share
/// (`Σ sim_nanos / (threads × campaign wall)`) and lane utilisation.
pub fn worker_layers(
    l: &mut std::collections::BTreeMap<&'static str, f64>,
    figs: &[WorkerFigs],
    threads: usize,
    campaign_wall_s: f64,
) {
    let mut t = WorkerFigs::default();
    figs.iter().for_each(|f| t.add(f));
    l.insert("dispatch.jobs", t.jobs as f64);
    l.insert("dispatch.steals", t.steals as f64);
    l.insert("dispatch.respawns", t.respawns as f64);
    l.insert(
        "dispatch.worker_busy_share",
        t.sim_nanos as f64 * 1e-9 / (threads as f64 * campaign_wall_s).max(f64::MIN_POSITIVE),
    );
    l.insert(
        "dispatch.lane_util",
        if t.lanes_capacity == 0 {
            0.0
        } else {
            t.lanes_used as f64 / t.lanes_capacity as f64
        },
    );
}

/// One request as the client saw it.
#[derive(Debug)]
struct Sent {
    /// Position in the run's request sequence.
    seq: usize,
    /// Index into the request pool.
    pool: usize,
    client: usize,
    /// Whether an earlier request of the run named the same circuit.
    repeat: bool,
    write: Instant,
    accepted: Option<Instant>,
    first_record: Option<Instant>,
    done: Option<Instant>,
    outcome: Option<Outcome>,
    iterations: u64,
    trials: u64,
    shed: bool,
    error: Option<String>,
    workers: WorkerFigs,
    /// The server's own wall time of the campaign (`summary` record).
    campaign_nanos: u64,
}

/// Hands out requests in seed order and stops at the first pass boundary
/// where another pass does not fit ([`another_pass_fits`]), so every run
/// issues whole passes.
struct Issuer {
    next: usize,
    stopped: bool,
    seen: BTreeSet<&'static str>,
}

fn connect(socket: &Path) -> std::io::Result<UnixStream> {
    let s = UnixStream::connect(socket)?;
    s.set_read_timeout(Some(FRAME_TIMEOUT))?;
    s.set_write_timeout(Some(FRAME_TIMEOUT))?;
    Ok(s)
}

/// Sends one `run` request and reads its stream to the end.
fn request(socket: &Path, line: &str, sent: &mut Sent) -> Result<(), String> {
    sent.write = Instant::now();
    let mut s = connect(socket).map_err(|e| format!("connect: {e}"))?;
    s.write_all(line.as_bytes())
        .and_then(|()| s.write_all(b"\n"))
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(s);
    let mut buf = String::new();
    let mut summary_cycles = None;
    let mut done: Option<JsonValue> = None;
    loop {
        buf.clear();
        if reader
            .read_line(&mut buf)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            break;
        }
        let now = Instant::now();
        let v = parse(buf.trim()).map_err(|e| format!("bad frame: {e}"))?;
        match v.str_field("type").unwrap_or("") {
            "accepted" => sent.accepted = Some(now),
            "rejected" => sent.shed = true,
            "error" | "interrupted" => return Err(buf.trim().to_string()),
            "done" => {
                sent.done = Some(now);
                done = Some(v);
            }
            "campaign" => {}
            kind => {
                sent.first_record.get_or_insert(now);
                match kind {
                    "trial" => sent.trials += 1,
                    "workers" => sent.workers = WorkerFigs::from_record(&v),
                    "summary" => {
                        summary_cycles = v.u64_field("total_cycles");
                        sent.campaign_nanos = v.u64_field("wall_nanos").unwrap_or(0);
                    }
                    _ => {}
                }
            }
        }
    }
    if sent.shed {
        return Ok(());
    }
    let done = done.ok_or("stream ended without a `done` frame")?;
    let n = |k: &str| {
        done.u64_field(k)
            .ok_or_else(|| format!("`done` frame lacks `{k}`"))
    };
    sent.iterations = n("iterations")?;
    sent.outcome = Some(Outcome {
        det: n("detected")? as usize,
        target: n("target_faults")? as usize,
        app: n("pairs")? as usize,
        cycles: summary_cycles.ok_or("stream had no `summary` record")?,
        complete: done
            .bool_field("complete")
            .ok_or("`done` frame lacks `complete`")?,
    });
    Ok(())
}

/// One client's closed loop.
fn client(
    id: usize,
    socket: &Path,
    pool: &[CampaignSpec],
    seed: u64,
    (start, seconds): (Instant, f64),
    issuer: &Mutex<Issuer>,
) -> Vec<Sent> {
    let mut out = Vec::new();
    loop {
        let (seq, index, repeat) = {
            let mut is = issuer
                .lock()
                .expect("issuer poisoned by a panicking client");
            let seq = is.next;
            let passes = seq / pool.len();
            if is.stopped
                || (seq.is_multiple_of(pool.len())
                    && !another_pass_fits(start.elapsed().as_secs_f64(), passes, seconds))
            {
                is.stopped = true;
                break;
            }
            is.next += 1;
            let index = served_order(seed, (seq / pool.len()) as u64, pool.len())[seq % pool.len()];
            let repeat = !is.seen.insert(pool[index].circuit);
            (seq, index, repeat)
        };
        let mut sent = Sent {
            seq,
            pool: index,
            client: id,
            repeat,
            write: Instant::now(),
            accepted: None,
            first_record: None,
            done: None,
            outcome: None,
            iterations: 0,
            trials: 0,
            shed: false,
            error: None,
            workers: WorkerFigs::default(),
            campaign_nanos: 0,
        };
        if let Err(e) = request(socket, &pool[index].request_line(seed), &mut sent) {
            sent.error = Some(e);
        }
        out.push(sent);
    }
    out
}

fn bind(rep: usize) -> std::io::Result<Server> {
    let mut cfg = ServeConfig::new(
        PathBuf::from(format!("serve{rep}.sock")),
        PathBuf::from(format!("serve{rep}")),
    );
    cfg.threads = SERVED_THREADS;
    cfg.max_inflight = SERVED_CLIENTS;
    Server::bind(cfg)
}

fn shutdown(socket: &Path) -> Result<(), String> {
    let mut s = connect(socket).map_err(|e| format!("connect: {e}"))?;
    s.write_all(b"{\"type\":\"shutdown\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(s)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Runs the workload. Paths are relative to the run directory, which is
/// the working directory.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let pool = served_pool();
    let mut bind_error = None;
    // Each repetition binds a server; the previous one is dropped after
    // the repetition's timing ends. The last one serves.
    let (setup_s, netlist_s, last) = setup_reps(&SERVED_CIRCUITS, |rep| match bind(rep) {
        Ok(server) => Some(server),
        Err(e) => {
            bind_error.get_or_insert(e.to_string());
            None
        }
    });
    let server = last
        .flatten()
        .filter(|_| bind_error.is_none())
        .ok_or_else(|| format!("cannot bind the server: {}", bind_error.unwrap_or_default()))?;
    for rep in 0..SETUP_REPS - 1 {
        let _ = std::fs::remove_file(format!("serve{rep}.sock"));
    }
    let socket = PathBuf::from(format!("serve{}.sock", SETUP_REPS - 1));
    let mut r = RunResult {
        setup_s,
        netlist_s,
        ..RunResult::default()
    };

    let tracer = ctx.tracer;
    let handle = std::thread::spawn(move || server.run());
    let issuer = Mutex::new(Issuer {
        next: 0,
        stopped: false,
        seen: BTreeSet::new(),
    });
    let root = tracer.map(|t| t.open("bench.run", None));
    let root_id = root.as_ref().map(|s| s.id());
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let per_client: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVED_CLIENTS)
            .map(|id| {
                let (socket, pool, issuer) = (&socket, &pool, &issuer);
                s.spawn(move || {
                    let span = tracer.map(|t| t.open("bench.client", root_id));
                    let sent = client(id, socket, pool, ctx.seed, (t0, ctx.seconds), issuer);
                    if let (Some(t), Some(span)) = (tracer, span) {
                        let parent = Some(span.id());
                        for x in sent.iter().filter(|x| x.done.is_some()) {
                            record_request(t, parent, x);
                        }
                        t.close(span);
                    }
                    sent
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    r.measured_s = t0.elapsed().as_secs_f64();
    r.cpu_s = cpu_seconds() - cpu0;
    r.peak_rss_mb = peak_rss_mib();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    let mut sent: Vec<Sent> = per_client.into_iter().flatten().collect();
    sent.sort_by_key(|x| x.seq);
    // A pass ends when its last request ends; its wall time runs from the
    // end of the pass before (the start of the region for the first).
    let mut pass_start = t0;
    for pass in sent.chunks(pool.len()) {
        let end = pass
            .iter()
            .filter_map(|x| x.done)
            .max()
            .unwrap_or(pass_start);
        r.pass_s
            .push(end.saturating_duration_since(pass_start).as_secs_f64());
        pass_start = end;
    }

    // A server that did not take the shutdown would never end: fail the
    // run instead of joining it (process exit then stops its threads).
    shutdown(&socket).map_err(|e| format!("shutdown: {e}"))?;
    let served = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(format!("serve{rep}"));
    }
    served.map_err(|e| format!("server: {e}"))?;

    // Checks, outside the timed region: stored references, else the
    // sequential oracle on every pool entry (a pass runs each once).
    let all_faults = CoverageTarget::AllCollapsed;
    let expected: Vec<Outcome> = pool
        .iter()
        .map(|spec| {
            ctx.refs.campaign(ctx.seed, &spec.key()).unwrap_or_else(|| {
                oracle(
                    &circuit(spec.circuit),
                    spec.config(ctx.seed, 1, &all_faults),
                )
            })
        })
        .collect();
    for x in &sent {
        let ok = !x.shed && x.error.is_none() && x.outcome == Some(expected[x.pool]);
        if !ok {
            r.notes.push(format!(
                "FAILED {} (client {}): shed {}, error {:?}, got {:?}, want {:?}",
                pool[x.pool].key(),
                x.client,
                x.shed,
                x.error,
                x.outcome,
                expected[x.pool]
            ));
        }
        r.tally.record(ok);
        if let (Some(done), true) = (x.done, ok) {
            r.latencies.push(done.duration_since(x.write).as_secs_f64());
        }
    }
    r.bist_cycles = expected.iter().map(|o| o.cycles).sum();
    let repeat_share = sent.iter().filter(|x| x.repeat).count() as f64 / sent.len().max(1) as f64;
    let shed = sent.iter().filter(|x| x.shed).count();
    r.notes.push(format!(
        "served: {} requests in {} pass(es) of {}, {} client(s), repeat share {repeat_share:.3}, shed {shed}",
        sent.len(),
        r.pass_s.len(),
        pool.len(),
        SERVED_CLIENTS
    ));
    if tracer.is_some() {
        layers(&mut r, &sent, repeat_share, shed);
    }
    Ok(r)
}

/// Records a finished request's frame-boundary spans.
fn record_request(t: &Tracer, parent: Option<u64>, x: &Sent) {
    let (Some(acc), Some(first), Some(done)) = (x.accepted, x.first_record, x.done) else {
        return;
    };
    let req = Some(t.record("serve.request", parent, x.write, done));
    t.record("serve.accept", req, x.write, acc);
    t.record("serve.first_record", req, acc, first);
    t.record("serve.campaign", req, first, done);
}

fn layers(r: &mut RunResult, sent: &[Sent], repeat_share: f64, shed: usize) {
    let secs = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => Some(b.duration_since(a).as_secs_f64()),
        _ => None,
    };
    let accept: Vec<f64> = sent
        .iter()
        .filter_map(|x| secs(Some(x.write), x.accepted))
        .collect();
    let first: Vec<f64> = sent
        .iter()
        .filter_map(|x| secs(x.accepted, x.first_record))
        .collect();
    let campaign: Vec<f64> = sent
        .iter()
        .filter_map(|x| secs(x.first_record, x.done))
        .collect();
    let l = &mut r.layers;
    l.insert("serve.accept_s", median(&accept));
    l.insert("serve.first_record_s", median(&first));
    l.insert("serve.campaign_s", median(&campaign));
    l.insert("serve.repeat_share", repeat_share);
    l.insert("serve.shed", shed as f64);
    l.insert(
        "core.iterations",
        sent.iter().map(|x| x.iterations).sum::<u64>() as f64,
    );
    l.insert(
        "core.trials",
        sent.iter().map(|x| x.trials).sum::<u64>() as f64,
    );
    l.insert(
        "core.pairs_kept",
        sent.iter()
            .filter_map(|x| x.outcome)
            .map(|o| o.app)
            .sum::<usize>() as f64,
    );
    let figs: Vec<WorkerFigs> = sent.iter().map(|x| x.workers).collect();
    let wall = sent.iter().map(|x| x.campaign_nanos).sum::<u64>() as f64 * 1e-9;
    worker_layers(l, &figs, SERVED_THREADS, wall);
}
