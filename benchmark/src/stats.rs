//! Order statistics used by every timing metric.
//!
//! All quantiles are nearest-rank on the sorted sample (no interpolation),
//! so a reported value is always a time that was actually measured.

/// Nearest-rank quantile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample (a workload that measured nothing is a bug in
/// the benchmark, not a result).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its nearest-rank `q` quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// Median by the same nearest-rank rule (the lower middle for even `n`).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The value of a per-round statistic in a quiet round: the second best of
/// the rounds (from below when `lower_is_better`, else from above; the best
/// when there is only one).
///
/// The reference host shares its cores: a neighbour on the sibling
/// hyperthread slows this program by 1.5–2× in bursts that last from a
/// tenth of a second to half a minute, so a run's mean, median or tail
/// measures the neighbour. That noise is one-sided — nothing makes a round
/// faster than the program is — so the program's own cost is what the
/// least disturbed rounds read, and the second best is taken so that one
/// fluke round cannot set a metric. A regression in the program moves every
/// round, and this value with them.
pub fn quiet(per_round: &mut [f64], lower_is_better: bool) -> f64 {
    assert!(!per_round.is_empty(), "a phase without a single round");
    per_round.sort_by(f64::total_cmp);
    if !lower_is_better {
        per_round.reverse();
    }
    per_round[1.min(per_round.len() - 1)]
}

/// The highest of the conventional tail percentiles that still has at
/// least ten samples beyond it, or `None` below 100 samples (where not
/// even p90 has).
pub fn supported_tail(n: usize) -> Option<f64> {
    // (percentile, samples needed for ten beyond it): whole numbers, so
    // `1.0 - 0.9` falling short of a tenth cannot cost p90 its hundredth
    // sample.
    [(0.999, 10_000), (0.99, 1_000), (0.95, 200), (0.9, 100)]
        .into_iter()
        .find(|&(_, needed)| n >= needed)
        .map(|(q, _)| q)
}

/// The ungated row that accompanies a timing metric: uncontended cost
/// (p10), median, the highest supported tail percentile and the sample
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// 10th percentile: the cost when nothing else had the core.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// `(q, value)` of the highest percentile with ≥ 10 samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample (sorted in place).
    pub fn of(values: &mut [f64]) -> Self {
        values.sort_by(f64::total_cmp);
        Self {
            n: values.len(),
            p10: quantile_sorted(values, 0.10),
            p50: quantile_sorted(values, 0.50),
            tail: supported_tail(values.len()).map(|q| (q, quantile_sorted(values, q))),
        }
    }
}

/// Relative spread of a set of repeated measurements, `(max − min) / min`.
/// Used by `--repeat` to compare whole runs against a metric's bound.
pub fn relative_range(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min == 0.0 {
        return if max == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (max - min) / min.abs()
}
