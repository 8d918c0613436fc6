//! Timing summaries: median, range, sample count, and the highest
//! percentile the sample count supports.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    median_of_sorted(&sorted(values))
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Percentiles the benchmark is willing to report above the median, as
/// `(label, fraction)`, highest first.
const PERCENTILES: [(&str, f64); 5] = [
    ("p99.9", 0.999),
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
    ("p75", 0.75),
];

/// The highest percentile that still has at least ten of `n` samples
/// beyond it, or `None` when no percentile above the median does — with
/// the ten or so timed runs of one invocation a "p95" would be the maximum
/// under another name, so it is not reported.
pub fn highest_supported_percentile(n: usize) -> Option<(&'static str, f64)> {
    PERCENTILES
        .into_iter()
        .find(|&(_, p)| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// The `p`-quantile of ascending `sorted` by nearest rank.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method) — the driver's acceptance check uses
/// that function, so `compare` reports spreads the same way.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Summary of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
    /// Highest supported percentile, when the count supports one.
    pub high: Option<(&'static str, f64)>,
    /// The samples, in the order measured (drift shows in a result file).
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            median: median_of_sorted(&s),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
            high: highest_supported_percentile(s.len())
                .map(|(label, p)| (label, percentile_of_sorted(&s, p))),
            samples: values.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn no_percentile_is_reported_without_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(("p75", 0.75)));
        assert_eq!(highest_supported_percentile(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported_percentile(200), Some(("p95", 0.95)));
        assert_eq!(highest_supported_percentile(1000), Some(("p99", 0.99)));
        assert_eq!(highest_supported_percentile(10_000), Some(("p99.9", 0.999)));
        let five = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (five.median, five.min, five.max, five.n),
            (3.0, 1.0, 5.0, 5)
        );
        assert_eq!(five.high, None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&hundred).high, Some(("p90", 90.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(spread(&ten), 1.0);
    }
}
