//! The workloads' operation lists, generated from the workload seed.
//!
//! The seed is the campaign seed family of every campaign (the served
//! `seed` field, `RlsConfig::with_seeds` elsewhere) and, for the served
//! mix, the request order. Nothing else about the inputs depends on it.

use rls_core::{rank_combinations, Combo, CoverageTarget, D1Order, RlsConfig};
use rls_lfsr::{SeedSequence, SplitMix64};
use rls_netlist::Circuit;

/// The Table 6 row the `table6_cold` workload runs.
pub const TABLE6_CIRCUIT: &str = "s953";
/// Combinations a Table 6 row tries before giving up (`RLS_MAX_TRIES`
/// default of the `table6` binary).
pub const TABLE6_MAX_TRIES: usize = 20;
/// Worker threads of the Table 6 row.
pub const TABLE6_THREADS: usize = 2;
/// Iteration cap `rls_core::experiment::run_combo` puts on each combination.
pub const TABLE6_MAX_ITERATIONS: u32 = 40;

/// Iteration cap of the ladder's campaigns. A campaign stops after
/// `N_SAME_FC = 5` iterations without improvement, so at this cap every
/// campaign that does not complete runs exactly five iterations of ten
/// trials: the work per campaign is the same for every seed.
pub const LADDER_MAX_ITERATIONS: u32 = 5;

/// The `campaign_ladder` list: circuit and Table 5 rank, run in order.
pub const LADDER: [(&str, usize); 6] = [
    ("s953", 0),
    ("s953", 1),
    ("s953", 2),
    ("s1196", 0),
    ("s1196", 1),
    ("s1196", 2),
];

/// Circuits of the served mix.
pub const SERVED_CIRCUITS: [&str; 9] = [
    "s27", "b01", "s208", "s298", "b03", "s400", "s420", "s344", "s382",
];
/// Table 5 ranks requested for each served circuit.
pub const SERVED_RANKS: usize = 3;
/// Worker threads of the served pool (and of every served request).
pub const SERVED_THREADS: usize = 2;
/// Concurrent client connections, each a closed loop.
pub const SERVED_CLIENTS: usize = 2;
/// Iteration cap of served requests (their `max_iterations` field): two
/// iterations keep each campaign short, so per-request cost is a large
/// share of the run, and fixed, so the work per pass does not depend on
/// the seed.
pub const SERVED_MAX_ITERATIONS: u32 = 2;

/// The PODEM backtrack limit the `table6` binary uses for a circuit
/// (mirrors `rls_bench::target_for`).
pub fn backtrack_limit(c: &Circuit) -> usize {
    if c.num_gates() > 5000 {
        200
    } else if c.num_gates() > 600 {
        1000
    } else {
        10_000
    }
}

/// Builds a registry circuit.
///
/// # Panics
///
/// Panics on a name the registry does not know; every name here is a
/// constant of this module.
pub fn circuit(name: &str) -> Circuit {
    rls_benchmarks::by_name(name).unwrap_or_else(|| panic!("unknown circuit `{name}`"))
}

/// The `rank`-th combination of Table 5 order for a circuit.
pub fn combo(c: &Circuit, rank: usize) -> Combo {
    rank_combinations(c.num_dffs())[rank]
}

/// What a campaign covers: the ATPG-detectable target of a Table 6 row,
/// or every collapsed fault (the target `rls-serve` uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The detectable set (`table6_cold`).
    Detectable,
    /// All collapsed faults (`campaign_ladder`, `served_mix`).
    AllCollapsed,
}

/// One campaign of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Registry circuit name.
    pub circuit: &'static str,
    /// `(L_A, L_B, N)`.
    pub la: usize,
    /// Longer test length.
    pub lb: usize,
    /// Tests per length.
    pub n: usize,
    /// Coverage target kind.
    pub target: TargetKind,
    /// Iteration cap (`RlsConfig::max_iterations`).
    pub max_iterations: u32,
}

impl CampaignSpec {
    /// A campaign on `circuit` under a ranked combination.
    pub fn new(
        circuit: &'static str,
        combo: Combo,
        target: TargetKind,
        max_iterations: u32,
    ) -> Self {
        CampaignSpec {
            circuit,
            la: combo.la,
            lb: combo.lb,
            n: combo.n,
            target,
            max_iterations,
        }
    }

    /// The reference key: `circuit/la,lb,n/det|all/i<iteration cap>`.
    pub fn key(&self) -> String {
        let t = match self.target {
            TargetKind::Detectable => "det",
            TargetKind::AllCollapsed => "all",
        };
        format!(
            "{}/{},{},{}/{t}/i{}",
            self.circuit, self.la, self.lb, self.n, self.max_iterations
        )
    }

    /// The configuration the workload runs: that of
    /// `rls_core::experiment::run_combo` for a detectable target, the
    /// server's for all faults (`build_config` of a request carrying
    /// `max_iterations`). `detectable` is the target list for the former.
    pub fn config(&self, seed: u64, threads: usize, detectable: &CoverageTarget) -> RlsConfig {
        let cfg = RlsConfig::new(self.la, self.lb, self.n)
            .with_seeds(SeedSequence::new(seed))
            .with_threads(threads);
        let mut cfg = match self.target {
            TargetKind::AllCollapsed => cfg,
            TargetKind::Detectable => cfg
                .with_d1_order(D1Order::Increasing)
                .with_target(detectable.clone()),
        };
        cfg.max_iterations = self.max_iterations;
        cfg
    }

    /// The served `run` request line for this campaign.
    pub fn request_line(&self, seed: u64) -> String {
        format!(
            "{{\"type\":\"run\",\"circuit\":\"{}\",\"la\":{},\"lb\":{},\"n\":{},\"seed\":{seed},\"threads\":{SERVED_THREADS},\"max_iterations\":{}}}",
            self.circuit, self.la, self.lb, self.n, self.max_iterations
        )
    }
}

/// The ladder's campaigns, in order.
pub fn ladder() -> Vec<CampaignSpec> {
    LADDER
        .iter()
        .map(|&(name, rank)| {
            CampaignSpec::new(
                name,
                combo(&circuit(name), rank),
                TargetKind::AllCollapsed,
                LADDER_MAX_ITERATIONS,
            )
        })
        .collect()
}

/// Every distinct served request: each served circuit at each of its
/// first [`SERVED_RANKS`] Table 5 combinations.
pub fn served_pool() -> Vec<CampaignSpec> {
    SERVED_CIRCUITS
        .iter()
        .flat_map(|&name| {
            let c = circuit(name);
            (0..SERVED_RANKS).map(move |r| {
                CampaignSpec::new(
                    name,
                    combo(&c, r),
                    TargetKind::AllCollapsed,
                    SERVED_MAX_ITERATIONS,
                )
            })
        })
        .collect()
}

/// The request order of pass `pass` of the served mix: a seed-drawn
/// permutation of `0..len`. Every pass holds each pool entry once, so the
/// work per pass is the same for every seed and only its order (and the
/// campaign seed family) varies.
pub fn served_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(rls_lfsr::derive_seed(seed, pass));
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (rng.next_word() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
