//! Reference outcomes: what every operation must produce.
//!
//! The committed reference file holds, one JSON object per line, the ATPG
//! class counts of the Table 6 circuit and the outcome of every campaign
//! of every workload for a range of committed seeds. For any other seed
//! the reference is derived once from the sequential oracle (`threads =
//! 1`, a direct `Procedure2::run`), outside the timed region.

use std::collections::BTreeMap;
use std::path::Path;

use rls_core::{Procedure2, Procedure2Outcome, RlsConfig};
use rls_dispatch::jsonl::{parse, JsonObject};
use rls_netlist::Circuit;

/// The figures a campaign is checked on: the paper's `det`, the target
/// size, `app` (selected pairs), `N_cyc`, and whether it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Detected target faults.
    pub det: usize,
    /// Target faults.
    pub target: usize,
    /// Selected `(I, D1)` pairs.
    pub app: usize,
    /// Total BIST session cycles `N_cyc`.
    pub cycles: u64,
    /// Whether the target was fully covered.
    pub complete: bool,
}

impl Outcome {
    /// The checked figures of a Procedure 2 outcome.
    pub fn of(out: &Procedure2Outcome) -> Self {
        Outcome {
            det: out.total_detected,
            target: out.target_faults,
            app: out.pairs.len(),
            cycles: out.total_cycles,
            complete: out.complete,
        }
    }
}

/// PODEM classification counts of one circuit's collapsed faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgCounts {
    /// Faults proven detectable.
    pub detected: usize,
    /// Faults proven redundant.
    pub redundant: usize,
    /// Faults whose search hit the backtrack limit.
    pub aborted: usize,
}

/// The sequential oracle: a direct `Procedure2::run` at one thread.
pub fn oracle(circuit: &Circuit, cfg: RlsConfig) -> Outcome {
    Outcome::of(&Procedure2::new(circuit, cfg.with_threads(1)).run())
}

/// Stored references, keyed by seed and campaign key (see
/// [`crate::mix::CampaignSpec::key`]), plus ATPG counts keyed by circuit
/// and backtrack limit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References {
    campaigns: BTreeMap<(u64, String), Outcome>,
    atpg: BTreeMap<(String, usize), AtpgCounts>,
}

impl References {
    /// Loads a reference file. A missing file yields no references (every
    /// check then falls back to the oracle); a malformed line is an error.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Parses reference lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut refs = References::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("reference line {}: {what}", i + 1);
            let v = parse(line).map_err(|e| bad(&e))?;
            let num = |k: &str| v.u64_field(k).ok_or_else(|| bad(&format!("missing `{k}`")));
            if let Some(circuit) = v.str_field("atpg") {
                let counts = AtpgCounts {
                    detected: num("detected")? as usize,
                    redundant: num("redundant")? as usize,
                    aborted: num("aborted")? as usize,
                };
                refs.atpg
                    .insert((circuit.to_string(), num("limit")? as usize), counts);
            } else {
                let key = v
                    .str_field("campaign")
                    .ok_or_else(|| bad("no `campaign` or `atpg`"))?;
                let outcome = Outcome {
                    det: num("det")? as usize,
                    target: num("target")? as usize,
                    app: num("app")? as usize,
                    cycles: num("cycles")?,
                    complete: v
                        .bool_field("complete")
                        .ok_or_else(|| bad("missing `complete`"))?,
                };
                refs.campaigns
                    .insert((num("seed")?, key.to_string()), outcome);
            }
        }
        Ok(refs)
    }

    /// Renders every reference, one line each, in key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ((circuit, limit), c) in &self.atpg {
            out += &JsonObject::new()
                .str("atpg", circuit)
                .num("limit", *limit as u64)
                .num("detected", c.detected as u64)
                .num("redundant", c.redundant as u64)
                .num("aborted", c.aborted as u64)
                .render();
            out.push('\n');
        }
        for ((seed, key), o) in &self.campaigns {
            out += &JsonObject::new()
                .num("seed", *seed)
                .str("campaign", key)
                .num("det", o.det as u64)
                .num("target", o.target as u64)
                .num("app", o.app as u64)
                .num("cycles", o.cycles)
                .bool("complete", o.complete)
                .render();
            out.push('\n');
        }
        out
    }

    /// The stored outcome of a campaign, if any.
    pub fn campaign(&self, seed: u64, key: &str) -> Option<Outcome> {
        self.campaigns.get(&(seed, key.to_string())).copied()
    }

    /// Stores a campaign outcome.
    pub fn insert_campaign(&mut self, seed: u64, key: String, outcome: Outcome) {
        self.campaigns.insert((seed, key), outcome);
    }

    /// The stored ATPG counts of a circuit at a backtrack limit, if any.
    pub fn atpg(&self, circuit: &str, limit: usize) -> Option<AtpgCounts> {
        self.atpg.get(&(circuit.to_string(), limit)).copied()
    }

    /// Stores ATPG counts.
    pub fn insert_atpg(&mut self, circuit: &str, limit: usize, counts: AtpgCounts) {
        self.atpg.insert((circuit.to_string(), limit), counts);
    }
}
