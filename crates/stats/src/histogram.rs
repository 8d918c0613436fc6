//! Fixed-range streaming histogram.
//!
//! StochSimGPU (related work in the paper) "allows computation of averages
//! and histograms of the molecular populations across the sampled
//! realisations"; the CWC analysis pipeline offers the same estimator as a
//! statistical engine.

/// Streaming histogram over a fixed `[lo, hi)` range with equal-width bins.
///
/// Out-of-range observations are counted in saturating edge bins so no
/// observation is silently lost.
///
/// # Examples
///
/// ```
/// use streamstat::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 7.0, 9.9, -3.0] {
///     h.push(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.bin_count(0), 3); // 1.0, 1.5 and the clamped -3.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Bin width, `(hi - lo) / bins`, computed once.
    width: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics when `bins` is zero or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Adds one observation (clamped into the edge bins when out of range).
    pub fn push(&mut self, x: f64) {
        self.push_n(x, 1);
    }

    /// Adds `n` observations of the value `x` — what `n` calls of
    /// [`Histogram::push`] do, in one bin update (a sorted column bins
    /// its runs of equal values this way).
    pub fn push_n(&mut self, x: f64, n: u64) {
        let nbins = self.bins.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            nbins - 1
        } else {
            (((x - self.lo) / self.width) as usize).min(nbins - 1)
        };
        self.bins[idx] += n;
        self.count += n;
    }

    /// Forgets every observation, keeping the geometry and the bins'
    /// allocation.
    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.count = 0;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Lower bound of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `(low_edge, high_edge)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = self.width;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Normalised frequencies (sum to 1 when non-empty).
    pub fn frequencies(&self) -> Vec<f64> {
        if self.count == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins
            .iter()
            .map(|&c| c as f64 / self.count as f64)
            .collect()
    }

    /// Index of the fullest bin (`None` when empty).
    pub fn mode_bin(&self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        self.bins
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 1, "bin {i}");
        }
        assert_eq!(h.bin_edges(3), (3.0, 4.0));
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-100.0);
        h.push(100.0);
        h.push(1.0); // hi edge is exclusive -> last bin
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(3), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for x in [0.5, 1.5, 1.6, 3.2] {
            h.push(x);
        }
        let f = h.frequencies();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[1], 0.5);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mode_bin(), None);
        assert_eq!(h.frequencies(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn mode_bin_finds_peak() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for x in [0.1, 1.1, 1.2, 1.3, 2.5] {
            h.push(x);
        }
        assert_eq!(h.mode_bin(), Some(1));
    }

    #[test]
    fn push_n_is_n_pushes() {
        let mut one_by_one = Histogram::new(0.0, 4.0, 4);
        let mut runs = Histogram::new(0.0, 4.0, 4);
        for (x, n) in [(-1.0, 2), (0.0, 3), (1.0, 1), (2.5, 4), (4.0, 2), (9.0, 5)] {
            for _ in 0..n {
                one_by_one.push(x);
            }
            runs.push_n(x, n);
        }
        assert_eq!(runs, one_by_one);
        assert_eq!(runs.count(), 17);
        assert_eq!(runs.bin_count(0), 5, "below lo and on the lo edge");
        assert_eq!(runs.bin_count(3), 7, "at and above hi");
        runs.push_n(1.5, 0);
        assert_eq!(runs, one_by_one, "a run of none adds nothing");
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
