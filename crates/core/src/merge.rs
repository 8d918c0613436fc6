//! Merging per-shard cut streams back into one stream, and the
//! whole-run summary computed on it.
//!
//! - [`CutMerger`] zips the per-shard partial-cut streams (each shard's
//!   slice of the trajectories at each grid time, already aligned and
//!   time-ordered by the shard's own alignment stage) back into full
//!   [`Cut`]s by concatenating slices in shard order — which *is*
//!   instance order, because the [`ShardPlan`](crate::plan::ShardPlan)
//!   is contiguous. A merged cut is therefore byte-identical to the cut
//!   the single-process alignment stage would have produced, which is
//!   what makes the downstream summary/window/analysis stages oblivious
//!   to sharding.
//! - [`RunSummary`] is the whole-run streaming statistic: per-observable
//!   accumulators fed by every sample of every full cut, in the
//!   `run-summary` stage every runner shares. Its accumulators are
//!   [`Mergeable`], so summaries of disjoint runs can be pooled.

use gillespie::trajectory::Cut;
use std::collections::VecDeque;
use streamstat::histogram::Histogram;
use streamstat::merge::Mergeable;
use streamstat::quantile::P2Quantile;
use streamstat::welford::Running;

use crate::engines::StatEngineKind;

/// Zips per-shard partial-cut streams into full cuts.
///
/// Every shard emits one partial cut per grid time, in time order; the
/// merger holds a queue per shard and emits a full cut as soon as every
/// shard has delivered its slice of the current grid time.
///
/// The queues themselves are unbounded, but the skew a shard can buffer
/// here is bounded upstream: the supervisor gives every shard its *own*
/// bounded channel and drains them round-robin, one cut per live shard
/// per grid time, so a fast shard blocks (back-pressure, which cannot
/// trip the watchdog: its full channel always has a feed to take) once
/// it is `channel_capacity` cuts ahead of the merge frontier rather than
/// buffering an arbitrary lead.
#[derive(Debug)]
pub struct CutMerger {
    queues: Vec<VecDeque<Cut>>,
}

impl CutMerger {
    /// Creates a merger for `shards` input streams.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "cut merger needs at least one input stream");
        CutMerger {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Feeds one partial cut from `shard`, appending any cuts completed
    /// by it to `out`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn push(&mut self, shard: usize, cut: Cut, out: &mut Vec<Cut>) {
        self.queues[shard].push_back(cut);
        while self.queues.iter().all(|q| !q.is_empty()) {
            let mut merged: Option<Cut> = None;
            for q in &mut self.queues {
                let part = q.pop_front().expect("checked non-empty");
                match &mut merged {
                    None => merged = Some(part),
                    Some(m) => {
                        // Shards sample the same τ grid with the same
                        // arithmetic, so the times agree exactly.
                        debug_assert_eq!(m.time, part.time, "shard grids diverged");
                        m.values.extend(part.values);
                    }
                }
            }
            out.push(merged.expect("at least one shard"));
        }
    }

    /// Partial cuts still queued (shards whose peers have not caught up).
    pub fn buffered(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Per-observable whole-run accumulators of a [`RunSummary`].
///
/// Which fields are populated follows the run's configured
/// [`StatEngineKind`]s: moments are always kept (they also serve the
/// k-means kind, which has no mergeable streaming state of its own);
/// histogram and quantile states exist only when the corresponding
/// engines are enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSummary {
    /// Welford moments plus min/max over every sample of the run.
    pub running: Running,
    /// Population histogram (when a histogram engine is configured).
    pub histogram: Option<Histogram>,
    /// Streaming quantile sketch (when a quantile engine is configured).
    pub quantile: Option<P2Quantile>,
}

impl Mergeable for ObsSummary {
    fn merge_from(&mut self, other: &Self) {
        self.running.merge_from(&other.running);
        match (&mut self.histogram, &other.histogram) {
            (Some(a), Some(b)) => a.merge_from(b),
            (None, None) => {}
            _ => panic!("cannot merge summaries with different histogram configs"),
        }
        match (&mut self.quantile, &other.quantile) {
            (Some(a), Some(b)) => a.merge_from(b),
            (None, None) => {}
            _ => panic!("cannot merge summaries with different quantile configs"),
        }
    }
}

/// Whole-run streaming statistics over every sample of every trajectory
/// — the paper's "computed while simulations are still running" promise
/// at run granularity.
///
/// Every runner folds it cut by cut over the full cut stream (the
/// `run-summary` stage; `run_sequential` by hand), so a sharded run's
/// summary is bit-for-bit a single-process run's, and a drained run's
/// covers exactly the cuts it has rows for. Summaries of disjoint runs
/// pool with [`Mergeable::merge_from`]: counts, minima/maxima and
/// histogram bins merge exactly; means/variances merge up to `f64`
/// reassociation; quantiles merge approximately (see `streamstat::merge`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    engines: Vec<StatEngineKind>,
    /// Per-observable accumulators (empty until the first cut arrives).
    obs: Vec<ObsSummary>,
    cuts: u64,
}

impl RunSummary {
    /// Creates an empty summary for a run configured with `engines`.
    pub fn new(engines: Vec<StatEngineKind>) -> Self {
        RunSummary {
            engines,
            obs: Vec::new(),
            cuts: 0,
        }
    }

    fn blank_obs(&self) -> ObsSummary {
        let mut histogram = None;
        let mut quantile = None;
        for e in &self.engines {
            match e {
                StatEngineKind::Histogram { lo, hi, bins } => {
                    histogram = Some(Histogram::new(*lo, *hi, *bins));
                }
                StatEngineKind::Quantile { p } => quantile = Some(P2Quantile::new(*p)),
                StatEngineKind::MeanVariance | StatEngineKind::KMeans { .. } => {}
            }
        }
        ObsSummary {
            running: Running::new(),
            histogram,
            quantile,
        }
    }

    /// Folds one (full or partial) cut into the summary.
    pub fn push_cut(&mut self, cut: &Cut) {
        let n_obs = cut.values.first().map(|v| v.len()).unwrap_or(0);
        if self.obs.is_empty() {
            self.obs = (0..n_obs).map(|_| self.blank_obs()).collect();
        }
        // One row-major pass: every observable's accumulators still see
        // their values in instance order, so the bits are those of a pass
        // per observable.
        for row in &cut.values {
            for (s, &v) in self.obs.iter_mut().zip(row.iter()) {
                let x = v as f64;
                s.running.push(x);
                if let Some(h) = &mut s.histogram {
                    h.push(x);
                }
                if let Some(q) = &mut s.quantile {
                    q.push(x);
                }
            }
        }
        self.cuts += 1;
    }

    /// Per-observable accumulators, in model observable order (empty
    /// before any cut was folded in).
    pub fn observables(&self) -> &[ObsSummary] {
        &self.obs
    }

    /// Cuts folded in so far (a merged summary counts both sides').
    pub fn cuts(&self) -> u64 {
        self.cuts
    }
}

impl Mergeable for RunSummary {
    /// Folds another run's summary in, observable by observable.
    ///
    /// # Panics
    ///
    /// Panics when the two summaries were built for different engine
    /// configurations or observable counts.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.engines, other.engines,
            "cannot merge summaries of differently-configured runs"
        );
        if other.obs.is_empty() {
            return;
        }
        if self.obs.is_empty() {
            self.obs = other.obs.clone();
        } else {
            assert_eq!(
                self.obs.len(),
                other.obs.len(),
                "cannot merge summaries with different observable counts"
            );
            for (a, b) in self.obs.iter_mut().zip(&other.obs) {
                a.merge_from(b);
            }
        }
        self.cuts += other.cuts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillespie::trajectory::Row;

    fn cut(time: f64, values: &[&[u64]]) -> Cut {
        Cut {
            time,
            values: values.iter().map(|v| Row::from_slice(v)).collect(),
        }
    }

    #[test]
    fn merger_concatenates_in_shard_order() {
        let mut m = CutMerger::new(2);
        let mut out = Vec::new();
        m.push(1, cut(0.0, &[&[30], &[40]]), &mut out);
        assert!(out.is_empty());
        assert_eq!(m.buffered(), 1);
        m.push(0, cut(0.0, &[&[10], &[20]]), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].values,
            vec![vec![10], vec![20], vec![30], vec![40]],
            "shard 0's instances must come first"
        );
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn merger_emits_in_time_order_despite_skew() {
        let mut m = CutMerger::new(2);
        let mut out = Vec::new();
        // Shard 0 races three grid points ahead.
        for k in 0..3 {
            m.push(0, cut(k as f64, &[&[k]]), &mut out);
        }
        assert!(out.is_empty());
        for k in 0..3 {
            m.push(1, cut(k as f64, &[&[10 + k]]), &mut out);
        }
        let times: Vec<f64> = out.iter().map(|c| c.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn single_stream_passes_straight_through() {
        let mut m = CutMerger::new(1);
        let mut out = Vec::new();
        m.push(0, cut(0.5, &[&[7]]), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![vec![7]]);
    }

    #[test]
    fn summary_merge_matches_pooled_accumulation() {
        let engines = vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::Histogram {
                lo: 0.0,
                hi: 100.0,
                bins: 10,
            },
        ];
        // One "run" over full cuts...
        let mut pooled = RunSummary::new(engines.clone());
        pooled.push_cut(&cut(0.0, &[&[10], &[20], &[30], &[40]]));
        pooled.push_cut(&cut(1.0, &[&[11], &[21], &[31], &[41]]));
        // ...vs two shards over the halves, merged.
        let mut left = RunSummary::new(engines.clone());
        left.push_cut(&cut(0.0, &[&[10], &[20]]));
        left.push_cut(&cut(1.0, &[&[11], &[21]]));
        let mut right = RunSummary::new(engines);
        right.push_cut(&cut(0.0, &[&[30], &[40]]));
        right.push_cut(&cut(1.0, &[&[31], &[41]]));
        left.merge_from(&right);

        let (p, m) = (&pooled.observables()[0], &left.observables()[0]);
        assert_eq!(p.running.count(), m.running.count());
        assert_eq!(p.running.min(), m.running.min());
        assert_eq!(p.running.max(), m.running.max());
        assert!((p.running.mean() - m.running.mean()).abs() < 1e-12);
        let (ph, mh) = (p.histogram.as_ref().unwrap(), m.histogram.as_ref().unwrap());
        for b in 0..ph.bins() {
            assert_eq!(ph.bin_count(b), mh.bin_count(b));
        }
        assert_eq!(pooled.cuts(), 2);
        assert_eq!(left.cuts(), 4, "merged summaries count every shard's cuts");
    }

    #[test]
    fn merging_into_empty_summary_adopts_the_other() {
        let mut empty = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        let mut full = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        full.push_cut(&cut(0.0, &[&[5]]));
        empty.merge_from(&full);
        assert_eq!(empty.observables()[0].running.count(), 1);
        // And the other way round is a no-op.
        let before = full.observables()[0].running;
        full.merge_from(&RunSummary::new(vec![StatEngineKind::MeanVariance]));
        assert_eq!(full.observables()[0].running, before);
    }

    #[test]
    #[should_panic(expected = "differently-configured")]
    fn merging_different_engine_sets_panics() {
        let mut a = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        let b = RunSummary::new(vec![StatEngineKind::Quantile { p: 0.5 }]);
        a.merge_from(&b);
    }
}
