//! Statistical engines: the analysis farm's workers.
//!
//! Fig. 2 of the paper shows a farm of "stat eng" boxes — mean, variance,
//! k-means — fed by sliding windows and followed by a gather that restores
//! stream order. A [`StatEngineSet`] evaluates a configured set of
//! estimators over each window's fresh cuts and produces one [`StatRow`]
//! per cut; rows travel as a [`StatBlock`] tagged with the window sequence
//! number so the ordered collector can re-order them.

use gillespie::trajectory::Cut;
use streamstat::histogram::Histogram;
use streamstat::kmeans::kmeans1d;
use streamstat::quantile::P2Quantile;
use streamstat::welford::Running;

use crate::windows::Window;

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
    /// Per-observable quantile estimate across the window's population.
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
    /// Quantile estimate (`None` unless the quantile engine is enabled).
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
    pub fn analyse_cut(&self, cut: &Cut) -> StatRow {
        let n_obs = cut.values.first().map(|v| v.len()).unwrap_or(0);
        let mut observables = Vec::with_capacity(n_obs);
        for k in 0..n_obs {
            let series = cut.observable(k);
            let mut stats = ObsStats::default();
            for engine in &self.engines {
                match engine {
                    StatEngineKind::MeanVariance => {
                        let r: Running = series.iter().copied().collect();
                        stats.mean = r.mean();
                        stats.variance = r.population_variance();
                        stats.min = r.min();
                        stats.max = r.max();
                    }
                    StatEngineKind::KMeans { k } => {
                        if let Some(c) = kmeans1d(&series, *k, 50) {
                            stats.centroids = c.centroids;
                        }
                    }
                    StatEngineKind::Quantile { p } => {
                        let mut q = P2Quantile::new(*p);
                        for &x in &series {
                            q.push(x);
                        }
                        stats.quantile = q.estimate();
                    }
                    StatEngineKind::Histogram { lo, hi, bins } => {
                        let mut h = Histogram::new(*lo, *hi, *bins);
                        for &x in &series {
                            h.push(x);
                        }
                        stats.mode = h.mode_bin().map(|b| {
                            let (l, r) = h.bin_edges(b);
                            (l + r) / 2.0
                        });
                    }
                }
            }
            observables.push(stats);
        }
        StatRow {
            time: cut.time,
            instances: cut.width(),
            observables,
        }
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
