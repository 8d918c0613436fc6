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
//! - [`RunSummary`] is the whole-run streaming statistic: per observable
//!   the Welford moments, minimum and maximum ([`Running`]) of every
//!   sample of every full cut, folded in the `run-summary` stage every
//!   runner shares. It is [`Mergeable`], so summaries of disjoint runs
//!   can be pooled.

use gillespie::trajectory::Cut;
use std::collections::VecDeque;
use streamstat::merge::Mergeable;
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

/// Whole-run streaming statistics over every sample of every trajectory
/// — the paper's "computed while simulations are still running" promise
/// at run granularity.
///
/// Every runner folds it cut by cut over the full cut stream (the
/// `run-summary` stage; `run_sequential` by hand), so a sharded run's
/// summary is bit-for-bit a single-process run's, and a drained run's
/// covers exactly the cuts it has rows for. It keeps moments only: the
/// per-cut engines already read every distribution the run reports.
/// Summaries of disjoint runs pool with [`Mergeable::merge_from`]: counts
/// and minima/maxima merge exactly, means/variances up to `f64`
/// reassociation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The run's engine configuration; only equal ones merge.
    engines: Vec<StatEngineKind>,
    /// Per-observable moments (empty until the first cut arrives).
    obs: Vec<Running>,
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

    /// Folds one (full or partial) cut into the summary.
    pub fn push_cut(&mut self, cut: &Cut) {
        let n_obs = cut.values.first().map(|v| v.len()).unwrap_or(0);
        if self.obs.is_empty() {
            self.obs = vec![Running::new(); n_obs];
        }
        // One row-major pass: every observable's moments still see their
        // values in instance order, so the bits are those of a pass per
        // observable.
        for row in &cut.values {
            for (r, &v) in self.obs.iter_mut().zip(row.iter()) {
                r.push(v as f64);
            }
        }
        self.cuts += 1;
    }

    /// Per-observable moments, in model observable order (empty before
    /// any cut was folded in).
    pub fn observables(&self) -> &[Running] {
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
        // One "run" over full cuts of two observables...
        let mut pooled = RunSummary::new(engines.clone());
        pooled.push_cut(&cut(0.0, &[&[10, 1], &[20, 2], &[30, 3], &[40, 4]]));
        pooled.push_cut(&cut(1.0, &[&[11, 5], &[21, 6], &[31, 7], &[41, 8]]));
        // ...vs two shards over the halves, merged.
        let mut left = RunSummary::new(engines.clone());
        left.push_cut(&cut(0.0, &[&[10, 1], &[20, 2]]));
        left.push_cut(&cut(1.0, &[&[11, 5], &[21, 6]]));
        let mut right = RunSummary::new(engines);
        right.push_cut(&cut(0.0, &[&[30, 3], &[40, 4]]));
        right.push_cut(&cut(1.0, &[&[31, 7], &[41, 8]]));
        left.merge_from(&right);

        assert_eq!(pooled.observables().len(), 2);
        for (p, m) in pooled.observables().iter().zip(left.observables()) {
            assert_eq!(p.count(), 8);
            assert_eq!(p.count(), m.count());
            assert_eq!(p.min(), m.min());
            assert_eq!(p.max(), m.max());
            assert!((p.mean() - m.mean()).abs() < 1e-12);
            assert!((p.population_variance() - m.population_variance()).abs() < 1e-9);
        }
        assert_eq!(pooled.observables()[1].min(), 1.0);
        assert_eq!(pooled.observables()[1].max(), 8.0);
        assert_eq!(pooled.cuts(), 2);
        assert_eq!(left.cuts(), 4, "merged summaries count every shard's cuts");
    }

    #[test]
    fn summary_moments_are_a_pass_per_observable() {
        let c = cut(0.0, &[&[3, 900], &[7, 2], &[5, 41]]);
        let mut s = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        s.push_cut(&c);
        for (k, got) in s.observables().iter().enumerate() {
            let want: Running = c.values.iter().map(|row| row[k] as f64).collect();
            assert_eq!(*got, want, "observable {k}");
        }
    }

    #[test]
    fn merging_into_empty_summary_adopts_the_other() {
        let mut empty = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        let mut full = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        full.push_cut(&cut(0.0, &[&[5]]));
        empty.merge_from(&full);
        assert_eq!(empty.observables()[0].count(), 1);
        // And the other way round is a no-op.
        let before = full.observables()[0];
        full.merge_from(&RunSummary::new(vec![StatEngineKind::MeanVariance]));
        assert_eq!(full.observables()[0], before);
    }

    #[test]
    #[should_panic(expected = "differently-configured")]
    fn merging_different_engine_sets_panics() {
        let mut a = RunSummary::new(vec![StatEngineKind::MeanVariance]);
        let b = RunSummary::new(vec![StatEngineKind::Quantile { p: 0.5 }]);
        a.merge_from(&b);
    }
}
