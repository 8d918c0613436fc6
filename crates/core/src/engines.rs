//! Statistical engines: the analysis farm's workers.
//!
//! Fig. 2 of the paper shows a farm of "stat eng" boxes — mean, variance,
//! k-means — fed by sliding windows and followed by a gather that restores
//! stream order. A [`StatEngineSet`] evaluates a configured set of
//! estimators over each window's fresh cuts and produces one [`StatRow`]
//! per cut; rows travel as a [`StatBlock`] tagged with the window sequence
//! number so the ordered collector can re-order them.
//!
//! A cut is in memory whole, so no engine needs a streaming sketch: each
//! observable's counts are gathered once and sorted once, by an LSD radix
//! sort over just the bytes in which they differ. The k-means engine
//! ([`streamstat::kmeans::kmeans1d_counts`], `kmeans1d`'s centroids bit
//! for bit) and the exact nearest-rank quantile read that sorted copy,
//! and the histogram bins its runs of equal counts, one
//! [`Histogram::push_n`] a run. Mean/variance reads the counts in
//! instance order, which its Welford bits depend on.

use gillespie::trajectory::Cut;
use streamstat::histogram::Histogram;
use streamstat::kmeans::{kmeans1d, kmeans1d_counts, KMeansScratch};
use streamstat::welford::Running;

use crate::config::ConfigError;
use crate::windows::Window;

/// Lloyd iteration cap of the k-means engine.
const KMEANS_ITERATIONS: usize = 50;

/// Selection of statistical engines to run on every window.
#[derive(Debug, Clone, PartialEq)]
pub enum StatEngineKind {
    /// Per-observable mean, variance, min, max across trajectories.
    MeanVariance,
    /// Per-observable k-means clustering across trajectories (reports the
    /// centroids); the paper's engine for multi-stable systems.
    KMeans {
        /// Number of clusters.
        k: usize,
    },
    /// Per-observable `p`-quantile across the cut's trajectories: the
    /// exact nearest-rank value `sorted[⌈p·n⌉ − 1]` (rank clamped to
    /// `1..=n`), not an estimate.
    Quantile {
        /// Quantile in (0, 1).
        p: f64,
    },
    /// Per-observable histogram over `[lo, hi)` with `bins` bins, reported
    /// as the mode bin's midpoint (a cheap on-line density summary).
    Histogram {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Bin count.
        bins: usize,
    },
}

impl StatEngineKind {
    /// Checks the kind's parameters: `k ≥ 1`, `p` in (0, 1), and a
    /// histogram with at least one bin over a finite `lo < hi`. The one
    /// owner of these rules; [`SimConfig::validate`] calls it for every
    /// configured engine, so a bad parameter fails before anything runs.
    ///
    /// [`SimConfig::validate`]: crate::config::SimConfig::validate
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on field `engines` naming the rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reason = match *self {
            StatEngineKind::KMeans { k: 0 } => "k-means needs k >= 1, got 0".to_owned(),
            StatEngineKind::Quantile { p } if !(p > 0.0 && p < 1.0) => {
                format!("quantile p must be in (0, 1), got {p}")
            }
            StatEngineKind::Histogram { bins: 0, .. } => "histogram needs bins >= 1, got 0".into(),
            StatEngineKind::Histogram { lo, hi, .. }
                if !(lo < hi && lo.is_finite() && hi.is_finite()) =>
            {
                format!("histogram range must be finite with lo < hi, got [{lo}, {hi})")
            }
            _ => return Ok(()),
        };
        Err(ConfigError::new("engines", reason))
    }
}

/// Statistics of one observable at one cut time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsStats {
    /// Mean across trajectories.
    pub mean: f64,
    /// Population variance across trajectories.
    pub variance: f64,
    /// Minimum across trajectories.
    pub min: f64,
    /// Maximum across trajectories.
    pub max: f64,
    /// K-means centroids (empty unless the k-means engine is enabled).
    pub centroids: Vec<f64>,
    /// Nearest-rank quantile (`None` unless the quantile engine is enabled).
    pub quantile: Option<f64>,
    /// Histogram mode-bin midpoint (`None` unless enabled).
    pub mode: Option<f64>,
}

/// One output row of the analysis pipeline: all observables at one time.
#[derive(Debug, Clone, PartialEq)]
pub struct StatRow {
    /// Cut time.
    pub time: f64,
    /// Number of trajectories aggregated.
    pub instances: usize,
    /// Per-observable statistics, in model observable order.
    pub observables: Vec<ObsStats>,
}

/// A window's worth of rows, tagged for reordering.
#[derive(Debug, Clone, PartialEq)]
pub struct StatBlock {
    /// Sequence number of the originating window.
    pub seq: u64,
    /// One row per fresh cut of the window.
    pub rows: Vec<StatRow>,
}

/// A configured set of statistical engines.
#[derive(Debug, Clone)]
pub struct StatEngineSet {
    engines: Vec<StatEngineKind>,
}

impl StatEngineSet {
    /// Creates the engine set.
    pub fn new(engines: Vec<StatEngineKind>) -> Self {
        StatEngineSet { engines }
    }

    /// Analyses one window: one row per fresh cut.
    pub fn analyse(&self, window: &Window) -> StatBlock {
        let rows = window
            .fresh_cuts()
            .iter()
            .map(|cut| self.analyse_cut(cut))
            .collect();
        StatBlock {
            seq: window.seq,
            rows,
        }
    }

    /// Analyses a single cut across all configured engines.
    ///
    /// One pass per observable: its counts are gathered once, in instance
    /// order, and — when k-means, the quantile or the histogram engine
    /// runs — sorted once into a copy they all read. Every buffer of the
    /// call is allocated once, whatever the cut's width; only the row's
    /// own vectors outlive it.
    pub fn analyse_cut(&self, cut: &Cut) -> StatRow {
        let width = cut.width();
        let n_obs = cut.values.first().map(|v| v.len()).unwrap_or(0);
        let mut observables = vec![ObsStats::default(); n_obs];
        if width == 0 {
            return StatRow {
                time: cut.time,
                instances: 0,
                observables,
            };
        }
        // Observable-major copy of the cut: chunk `k` is observable `k`
        // across the trajectories, in instance order.
        let mut series = Vec::with_capacity(n_obs * width);
        for k in 0..n_obs {
            series.extend(cut.values.iter().map(|v| v[k]));
        }
        let mut sorted = Vec::new();
        if self.engines.iter().any(|e| {
            matches!(
                e,
                StatEngineKind::KMeans { .. }
                    | StatEngineKind::Quantile { .. }
                    | StatEngineKind::Histogram { .. }
            )
        }) {
            sorted.extend_from_slice(&series);
            let mut buf = Vec::with_capacity(width);
            for obs in sorted.chunks_exact_mut(width) {
                radix_sort(obs, &mut buf);
            }
        }
        let columns = series.chunks_exact(width);
        let sorted_columns = sorted.chunks_exact(width);

        for engine in &self.engines {
            match engine {
                StatEngineKind::MeanVariance => {
                    for (stats, xs) in observables.iter_mut().zip(columns.clone()) {
                        let r: Running = xs.iter().map(|&x| x as f64).collect();
                        stats.mean = r.mean();
                        stats.variance = r.population_variance();
                        stats.min = r.min();
                        stats.max = r.max();
                    }
                }
                StatEngineKind::KMeans { k } => {
                    let mut scratch = KMeansScratch::default();
                    let pairs = columns.clone().zip(sorted_columns.clone());
                    for (stats, (xs, sorted)) in observables.iter_mut().zip(pairs) {
                        stats.centroids =
                            kmeans1d_counts(sorted, *k, KMEANS_ITERATIONS, &mut scratch)
                                .unwrap_or_else(|| {
                                    // Not vouched for bit for bit: the
                                    // reference, in instance order.
                                    let points: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
                                    kmeans1d(&points, *k, KMEANS_ITERATIONS)
                                        .map(|c| c.centroids)
                                        .unwrap_or_default()
                                });
                    }
                }
                StatEngineKind::Quantile { p } => {
                    let rank = ((p * width as f64).ceil() as usize).clamp(1, width);
                    for (stats, sorted) in observables.iter_mut().zip(sorted_columns.clone()) {
                        stats.quantile = Some(sorted[rank - 1] as f64);
                    }
                }
                StatEngineKind::Histogram { lo, hi, bins } => {
                    let mut h = Histogram::new(*lo, *hi, *bins);
                    for (stats, sorted) in observables.iter_mut().zip(sorted_columns.clone()) {
                        h.clear();
                        bin_runs(&mut h, sorted);
                        stats.mode = h.mode_bin().map(|b| {
                            let (l, r) = h.bin_edges(b);
                            (l + r) / 2.0
                        });
                    }
                }
            }
        }
        StatRow {
            time: cut.time,
            instances: width,
            observables,
        }
    }
}

/// Bins sorted counts one run of equal values at a time: equal counts
/// share a bin, and a bin's count does not depend on the order its
/// values came in.
fn bin_runs(h: &mut Histogram, sorted: &[u64]) {
    let mut rest = sorted;
    while let Some(&x) = rest.first() {
        let run = rest.iter().take_while(|&&y| y == x).count();
        h.push_n(x as f64, run as u64);
        rest = &rest[run..];
    }
}

/// Sorts `xs` ascending through `buf`: an LSD radix sort with one
/// counting pass per byte in which `xs`'s values differ (an OR/AND pass
/// finds them), so a column of counts below 2^16 takes two passes, and a
/// constant one none.
fn radix_sort(xs: &mut [u64], buf: &mut Vec<u64>) {
    let (or, and) = xs
        .iter()
        .fold((0, u64::MAX), |(or, and), &x| (or | x, and & x));
    let varying = or ^ and;
    buf.clear();
    buf.resize(xs.len(), 0);
    let mut in_buf = false;
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let (src, dst): (&[u64], &mut [u64]) = if in_buf { (buf, xs) } else { (xs, buf) };
        let digit = |x: u64| (x >> shift) as usize & 0xff;
        let mut offsets = [0usize; 256];
        for &x in src.iter() {
            offsets[digit(x)] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets {
            (*slot, start) = (start, start + *slot);
        }
        for &x in src.iter() {
            let d = digit(x);
            dst[offsets[d]] = x;
            offsets[d] += 1;
        }
        in_buf = !in_buf;
    }
    if in_buf {
        xs.copy_from_slice(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillespie::trajectory::Row;

    fn cut(time: f64, values: Vec<u64>) -> Cut {
        Cut {
            time,
            values: values.into_iter().map(|v| Row::from_slice(&[v])).collect(),
        }
    }

    fn window(cuts: Vec<Cut>) -> Window {
        let fresh = cuts.len();
        Window {
            seq: 0,
            cuts,
            fresh,
        }
    }

    #[test]
    fn mean_variance_engine_reports_moments() {
        let set = StatEngineSet::new(vec![StatEngineKind::MeanVariance]);
        let row = set.analyse_cut(&cut(1.0, vec![2, 4, 6]));
        let s = &row.observables[0];
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.variance - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(row.instances, 3);
    }

    #[test]
    fn kmeans_engine_reports_centroids() {
        let set = StatEngineSet::new(vec![StatEngineKind::KMeans { k: 2 }]);
        let row = set.analyse_cut(&cut(0.0, vec![1, 1, 1, 100, 100, 100]));
        let c = &row.observables[0].centroids;
        assert_eq!(c.len(), 2);
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_engine_reports_median() {
        let set = StatEngineSet::new(vec![StatEngineKind::Quantile { p: 0.5 }]);
        let row = set.analyse_cut(&cut(0.0, vec![1, 2, 3]));
        assert_eq!(row.observables[0].quantile, Some(2.0));
    }

    #[test]
    fn quantile_engine_is_exact_nearest_rank() {
        // Two modes, 61 low and 40 high values: a five-marker streaming
        // sketch (P²) only approximates the order statistics of a cut
        // like this.
        let values: Vec<u64> = (0..101)
            .map(|i| if i % 5 < 3 { i % 7 } else { 500 + i })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (p, rank) in [(0.01, 2), (0.5, 51), (0.6, 61), (0.9, 91), (0.999, 101)] {
            let set = StatEngineSet::new(vec![StatEngineKind::Quantile { p }]);
            let row = set.analyse_cut(&cut(0.0, values.clone()));
            assert_eq!(
                row.observables[0].quantile,
                Some(sorted[rank - 1] as f64),
                "p = {p}"
            );
        }
    }

    #[test]
    fn histogram_engine_reports_mode_midpoint() {
        let set = StatEngineSet::new(vec![StatEngineKind::Histogram {
            lo: 0.0,
            hi: 10.0,
            bins: 10,
        }]);
        let row = set.analyse_cut(&cut(0.0, vec![5, 5, 5, 1]));
        assert_eq!(row.observables[0].mode, Some(5.5));
    }

    #[test]
    fn engines_compose() {
        let set = StatEngineSet::new(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 1 },
        ]);
        let row = set.analyse_cut(&cut(0.0, vec![10, 20]));
        let s = &row.observables[0];
        assert_eq!(s.mean, 15.0);
        assert_eq!(s.centroids, vec![15.0]);
    }

    #[test]
    fn kmeans_engine_falls_back_past_the_exact_sum_limit() {
        // Sums from 2^51 up are not exact in every order: the engine runs
        // `kmeans1d` on the counts in instance order.
        let values = vec![1 << 50, 3, (1 << 50) + 5, 7, 1 << 49];
        let points: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        let set = StatEngineSet::new(vec![StatEngineKind::KMeans { k: 2 }]);
        let row = set.analyse_cut(&cut(0.0, values));
        let want = kmeans1d(&points, 2, KMEANS_ITERATIONS).unwrap().centroids;
        assert_eq!(row.observables[0].centroids, want);
    }

    #[test]
    fn each_observable_is_analysed_on_its_own_column() {
        let set = StatEngineSet::new(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
            StatEngineKind::Quantile { p: 0.25 },
            StatEngineKind::Histogram {
                lo: 0.0,
                hi: 100.0,
                bins: 10,
            },
        ]);
        let rows: Vec<[u64; 3]> = (0..40).map(|i| [i % 7, 90 - i, (i * 37) % 23]).collect();
        let whole = set.analyse_cut(&Cut {
            time: 1.0,
            values: rows.iter().map(|r| Row::from_slice(r)).collect(),
        });
        for k in 0..3 {
            let column = set.analyse_cut(&cut(1.0, rows.iter().map(|r| r[k]).collect()));
            assert_eq!(
                whole.observables[k], column.observables[0],
                "observable {k}"
            );
        }
    }

    #[test]
    fn radix_sort_equals_sort_unstable() {
        let mut state = 0x2014u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut buf = Vec::new();
        for len in [0usize, 1, 2, 3, 17, 256, 1000] {
            // (offset, span): constant, small spans, spans crossing one
            // and several byte boundaries, and the top of the range.
            for (offset, span) in [
                (0, 1),
                (7, 1),
                (0, 10),
                (250, 10),
                (65_530, 12),
                (0, 70_000),
                (1 << 40, 1 << 33),
                (0, u64::MAX),
                (u64::MAX - 300, 301),
                (u64::MAX - 5, 6),
            ] {
                let mut xs: Vec<u64> = (0..len).map(|_| offset + next() % span).collect();
                let mut want = xs.clone();
                want.sort_unstable();
                radix_sort(&mut xs, &mut buf);
                assert_eq!(xs, want, "len {len}, offset {offset}, span {span}");
            }
        }
    }

    #[test]
    fn binning_runs_equals_a_push_per_value() {
        // Below lo, on the lo edge, on inner bin edges, inside bins, on
        // the hi edge and above it, each repeated a few times.
        let values: Vec<u64> = [0u64, 2, 3, 4, 5, 6, 9, 10, 12, 13, 14, 15, 20, 40]
            .iter()
            .flat_map(|&v| std::iter::repeat(v).take(1 + (v % 3) as usize))
            .collect();
        for (lo, hi, bins) in [
            (3.0, 15.0, 4),
            (4.0, 14.0, 5),
            (0.0, 40.0, 7),
            (10.0, 11.0, 1),
        ] {
            let mut one_by_one = Histogram::new(lo, hi, bins);
            for &v in &values {
                one_by_one.push(v as f64);
            }
            let mut runs = Histogram::new(lo, hi, bins);
            bin_runs(&mut runs, &values);
            assert_eq!(runs, one_by_one, "[{lo}, {hi}) in {bins} bins");
        }
    }

    #[test]
    fn histogram_engine_on_a_wide_column_keeps_its_mode() {
        // Counts spread over three bytes, most of them in one bin.
        let values: Vec<u64> = (0..500u64)
            .map(|i| {
                if i % 3 == 0 {
                    70_000 + i
                } else {
                    1_000 + i % 50
                }
            })
            .collect();
        let set = StatEngineSet::new(vec![StatEngineKind::Histogram {
            lo: 0.0,
            hi: 100_000.0,
            bins: 100,
        }]);
        let row = set.analyse_cut(&cut(0.0, values));
        assert_eq!(row.observables[0].mode, Some(1_500.0));
    }

    #[test]
    fn analyse_covers_only_fresh_cuts() {
        let set = StatEngineSet::new(vec![StatEngineKind::MeanVariance]);
        let mut w = window(vec![
            cut(0.0, vec![1]),
            cut(1.0, vec![2]),
            cut(2.0, vec![3]),
        ]);
        w.fresh = 1;
        let block = set.analyse(&w);
        assert_eq!(block.rows.len(), 1);
        assert_eq!(block.rows[0].time, 2.0);
    }

    #[test]
    fn empty_cut_produces_empty_row() {
        let set = StatEngineSet::new(vec![StatEngineKind::MeanVariance]);
        let row = set.analyse_cut(&Cut {
            time: 0.0,
            values: vec![],
        });
        assert!(row.observables.is_empty());
        assert_eq!(row.instances, 0);
    }
}
