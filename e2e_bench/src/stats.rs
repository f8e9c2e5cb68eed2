//! Summary statistics: medians, the tail-percentile rule, and failure
//! accounting.

/// Median of a sample (mean of the two middle values for an even count).
/// `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule considers, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the value at `percentile` (nearest rank), with the
/// sample count and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked strictly above it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. A sample too small for any
/// (fewer than 20 values) reports the median, and `beyond` then shows that
/// the rule was not met. `None` for an empty sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let r = rank(p, n);
    let beyond = n - r;
    Some(Tail {
        percentile: p,
        value: if beyond < TAIL_MIN_BEYOND {
            median(&v)
        } else {
            v[r - 1]
        },
        beyond,
        samples: n,
    })
}

/// Operations attempted and failed. An operation is a table row, a
/// campaign or a served request; it fails when it errors, is refused, or
/// its outcome differs from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`; `1.0` when nothing was attempted, since a run
    /// that did no work cannot be counted as a success.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
