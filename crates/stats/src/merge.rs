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
//! In this crate [`Running`](crate::welford::Running) implements it:
//! the exact Chan et al. parallel combination of Welford moments (count,
//! mean, M2, min, max). Downstream crates implement `Mergeable` for their
//! own aggregate state (e.g. the simulation pipeline's per-run summary, a
//! vector of `Running`s).

/// A statistic whose partial states can be combined.
///
/// `a.merge_from(&b)` must make `a` summarise the union of the
/// observations fed to `a` and `b`. Exactness is per-implementation:
/// counts and minima/maxima merge exactly; floating-point moments merge
/// up to the usual non-associativity of `f64` addition.
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

#[cfg(test)]
mod tests {
    use super::*;
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
}
