//! The [`Mergeable`] contract: combine partial statistics.
//!
//! A farm that does not ship its raw samples can still summarise them
//! by merging partial accumulator states (the StochKit-FF design:
//! "mergeable online statistics instead of trajectory shipping"). Every
//! estimator that supports it implements `Mergeable`, the one seam a
//! tree reduction programs against. (The CWC simulation pipeline ships
//! every sample to its coordinator and summarises the full stream once,
//! so it does not merge partials in a run.)
//!
//! Implementations in this crate:
//!
//! - [`Running`](crate::welford::Running) — the exact Chan et al.
//!   parallel combination of Welford moments (count, mean, M2, min, max);
//! - [`Histogram`](crate::histogram::Histogram) — exact bin-wise sum
//!   (geometries must match);
//! - [`P2Quantile`](crate::quantile::P2Quantile) — *approximate*: the P²
//!   marker invariant cannot be combined exactly, so both estimators are
//!   downsampled to a bounded set of representative pseudo-samples
//!   (inverse-CDF points of their marker curves, split proportionally to
//!   the two counts) and replayed into a fresh estimator — see
//!   [`P2_DOWNSAMPLE`].
//!
//! Downstream crates implement `Mergeable` for their own aggregate state
//! (e.g. the simulation pipeline's per-run summary, which is a vector of
//! the accumulators above).

/// A statistic whose partial states can be combined.
///
/// `a.merge_from(&b)` must make `a` summarise the union of the
/// observations fed to `a` and `b`. Exactness is per-implementation:
/// counts, minima/maxima and histogram bins merge exactly; floating-point
/// moments merge up to the usual non-associativity of `f64` addition;
/// quantile sketches merge approximately (documented on the impl).
///
/// Merging must be independent of shard placement in the following sense:
/// feeding the same observations in the same order, however they are
/// partitioned into accumulators, must change count/min/max results not
/// at all and moment results only by floating-point reassociation.
pub trait Mergeable {
    /// Folds `other`'s observations into `self`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the two accumulators are structurally
    /// incompatible (e.g. histograms over different ranges): merging
    /// partials of *different* statistics is a programming error, not a
    /// recoverable condition.
    fn merge_from(&mut self, other: &Self);
}

/// Per-side budget of representative pseudo-samples a [`P2Quantile`]
/// merge replays (the two sides share `2 × P2_DOWNSAMPLE` points,
/// split proportionally to their counts). Bounds merge cost regardless
/// of how many observations either shard saw.
///
/// [`P2Quantile`]: crate::quantile::P2Quantile
pub const P2_DOWNSAMPLE: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::quantile::P2Quantile;
    use crate::welford::Running;

    #[test]
    fn running_merges_through_the_trait() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64).cos() * 5.0).collect();
        let whole: Running = xs.iter().copied().collect();
        let mut left: Running = xs[..20].iter().copied().collect();
        let right: Running = xs[20..].iter().copied().collect();
        Mergeable::merge_from(&mut left, &right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn histogram_merges_exactly() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        for x in [1.0, 2.0, 9.0] {
            a.push(x);
        }
        for x in [3.0, 9.5] {
            b.push(x);
        }
        Mergeable::merge_from(&mut a, &b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.bin_count(1), 2); // 2.0 and 3.0
        assert_eq!(a.bin_count(4), 2); // 9.0 and 9.5
    }

    #[test]
    fn quantile_merge_is_close_to_pooled() {
        // Two disjoint uniform halves: the pooled median is the boundary.
        let mut left = P2Quantile::new(0.5);
        let mut right = P2Quantile::new(0.5);
        for i in 0..500 {
            left.push(i as f64);
            right.push(500.0 + i as f64);
        }
        Mergeable::merge_from(&mut left, &right);
        let est = left.estimate().unwrap();
        assert!(
            (est - 500.0).abs() < 60.0,
            "merged median {est} too far from 500"
        );
    }

    #[test]
    fn quantile_merge_with_tiny_other_replays_exact_values() {
        let mut a = P2Quantile::new(0.5);
        for x in [1.0, 2.0, 3.0] {
            a.push(x);
        }
        let mut b = P2Quantile::new(0.5);
        b.push(100.0);
        Mergeable::merge_from(&mut a, &b);
        assert_eq!(a.count(), 4);
        // Small-sample estimates stay exact (nearest-rank over raw values).
        assert_eq!(a.estimate(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_merge_rejects_different_targets() {
        let mut a = P2Quantile::new(0.5);
        let b = P2Quantile::new(0.9);
        Mergeable::merge_from(&mut a, &b);
    }
}
