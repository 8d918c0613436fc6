//! Online mean/variance (Welford) with parallel merging.
//!
//! The paper's analysis pipeline computes "statistical estimators [...] on
//! streams, thus [...] computed while simulation are still running". The
//! mean/variance statistical engine is a Welford accumulator: numerically
//! stable one-pass updates plus a Chan merge so per-worker partials can be
//! gathered.

/// One-pass mean/variance/min/max accumulator.
///
/// # Examples
///
/// ```
/// use streamstat::welford::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.mean(), 5.0);
/// assert_eq!(r.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every value of `xs`.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by n; 0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n-1; 0 when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl crate::merge::Mergeable for Running {
    /// Exact Chan et al. combination (same as [`Running::merge`]): counts,
    /// minima and maxima are preserved exactly; mean/variance agree with
    /// the pooled computation up to `f64` reassociation.
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl FromIterator<f64> for Running {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut r = Running::new();
        r.extend(iter);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pass_variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
    }

    #[test]
    fn matches_two_pass_formulas() {
        let xs = [1.5, -2.0, 3.25, 0.0, 10.0, -7.5, 2.2];
        let r: Running = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((r.mean() - mean).abs() < 1e-12);
        assert!((r.population_variance() - two_pass_variance(&xs)).abs() < 1e-12);
        assert_eq!(r.min(), -7.5);
        assert_eq!(r.max(), 10.0);
        assert_eq!(r.count(), 7);
    }

    #[test]
    fn empty_accumulator_is_sane() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.population_variance(), 0.0);
        assert_eq!(r.sample_variance(), 0.0);
    }

    #[test]
    fn single_value_has_zero_variance() {
        let mut r = Running::new();
        r.push(42.0);
        assert_eq!(r.mean(), 42.0);
        assert_eq!(r.population_variance(), 0.0);
        assert_eq!(r.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Running = xs.iter().copied().collect();
        let mut merged: Running = xs[..37].iter().copied().collect();
        let part2: Running = xs[37..].iter().copied().collect();
        merged.merge(&part2);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-10);
        assert!((merged.population_variance() - whole.population_variance()).abs() < 1e-10);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut r: Running = xs.iter().copied().collect();
        let before = r;
        r.merge(&Running::new());
        assert_eq!(r, before);
        let mut e = Running::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn catastrophic_cancellation_resistance() {
        // Large offset + small variance: naive sum-of-squares would lose it.
        let offset = 1e9;
        let mut r = Running::new();
        for i in 0..1000 {
            r.push(offset + (i % 2) as f64);
        }
        assert!((r.population_variance() - 0.25).abs() < 1e-6);
    }
}
