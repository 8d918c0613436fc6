//! Online quantile estimation (the P² algorithm).
//!
//! Jain & Chlamtac's P² estimator maintains a target quantile with five
//! markers and O(1) memory — the right shape for an on-line statistical
//! engine that cannot buffer whole trajectories ("high-quality results
//! might turn into big data", as the paper puts it).

/// Streaming estimator of a single quantile via the P² algorithm.
///
/// # Examples
///
/// ```
/// use streamstat::quantile::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5);
/// for i in 1..=1001 {
///     q.push(i as f64);
/// }
/// let median = q.estimate().unwrap();
/// assert!((median - 501.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (q0..q4).
    heights: [f64; 5],
    /// Marker positions (1-based, n0..n4).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    seen: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` (0 < p < 1).
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside (0, 1).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            seen: 0,
        }
    }

    /// The target quantile.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations fed so far.
    pub fn count(&self) -> usize {
        self.seen
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        if self.seen < 5 {
            self.heights[self.seen] = x;
            self.seen += 1;
            if self.seen == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
            }
            return;
        }
        self.seen += 1;
        // Find the cell containing x and clamp the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // Adjust the interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.heights[i] = new_height;
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + sign / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        let j = if sign > 0.0 { i + 1 } else { i - 1 };
        q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])
    }

    /// Current estimate (`None` with no data; exact for ≤ 5 observations).
    pub fn estimate(&self) -> Option<f64> {
        match self.seen {
            0 => None,
            n if n < 5 => {
                // Exact small-sample quantile (nearest-rank).
                let mut v = self.heights[..n].to_vec();
                v.sort_by(|a, b| a.partial_cmp(b).expect("values are not NaN"));
                let rank = ((self.p * n as f64).ceil() as usize).clamp(1, n);
                Some(v[rank - 1])
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Representative pseudo-samples of everything seen so far: `k`
    /// inverse-CDF points of the marker curve — except while five or
    /// fewer observations exist, where the raw values are returned
    /// verbatim (possibly more than `k`) so small samples stay exact.
    /// This is the "downsample" half of the
    /// [`Mergeable`](crate::merge::Mergeable) merge.
    pub fn downsample(&self, k: usize) -> Vec<f64> {
        let n = self.seen;
        if n == 0 || k == 0 {
            return Vec::new();
        }
        if n <= 5 {
            return self.heights[..n].to_vec();
        }
        let k = k.min(n);
        (0..k)
            .map(|j| {
                // Mid-point ranks over [1, n] (1-based, like the P² marker
                // positions), linearly interpolated through the markers.
                let r = 1.0 + (j as f64 + 0.5) / k as f64 * (n as f64 - 1.0);
                self.height_at_rank(r)
            })
            .collect()
    }

    /// Linear interpolation of the marker curve at 1-based rank `r`.
    fn height_at_rank(&self, r: f64) -> f64 {
        for i in 0..4 {
            if r <= self.positions[i + 1] {
                let (n0, n1) = (self.positions[i], self.positions[i + 1]);
                let (q0, q1) = (self.heights[i], self.heights[i + 1]);
                if n1 <= n0 {
                    return q1;
                }
                let t = ((r - n0) / (n1 - n0)).clamp(0.0, 1.0);
                return q0 + t * (q1 - q0);
            }
        }
        self.heights[4]
    }
}

impl crate::merge::Mergeable for P2Quantile {
    /// *Approximate* merge: the P² marker invariant cannot be combined
    /// exactly, so both estimators are downsampled to pseudo-samples —
    /// [`2 × P2_DOWNSAMPLE`](crate::merge::P2_DOWNSAMPLE) in total, split
    /// proportionally to the two observation counts — which are replayed,
    /// sorted, into a fresh estimator. The proportional split keeps the
    /// merge sensible for any size ratio of the two sides;
    /// [`P2Quantile::count`] consequently reports replayed pseudo-samples,
    /// not the exact union count.
    ///
    /// # Panics
    ///
    /// Panics when the two estimators target different quantiles.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "cannot merge estimators of different quantile targets ({} vs {})",
            self.p,
            other.p
        );
        if other.seen == 0 {
            return;
        }
        if self.seen == 0 {
            *self = other.clone();
            return;
        }
        let budget = 2 * crate::merge::P2_DOWNSAMPLE;
        let k_self =
            ((budget * self.seen) as f64 / (self.seen + other.seen) as f64).round() as usize;
        let k_self = k_self.clamp(1, budget - 1);
        let mut pts = self.downsample(k_self);
        pts.extend(other.downsample(budget - k_self));
        pts.sort_by(|a, b| a.partial_cmp(b).expect("marker heights are not NaN"));
        let mut merged = P2Quantile::new(self.p);
        for x in pts {
            merged.push(x);
        }
        *self = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so tests need no rand dependency here.
    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn median_of_uniform_stream() {
        let xs = lcg_stream(42, 50_000);
        let mut q = P2Quantile::new(0.5);
        for &x in &xs {
            q.push(x);
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p90_of_uniform_stream() {
        let xs = lcg_stream(7, 50_000);
        let mut q = P2Quantile::new(0.9);
        for &x in &xs {
            q.push(x);
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.9).abs() < 0.02, "p90 estimate {est}");
    }

    #[test]
    fn small_samples_are_exact() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        q.push(3.0);
        assert_eq!(q.estimate(), Some(3.0));
        q.push(1.0);
        q.push(2.0);
        // Nearest-rank median of {1,2,3} = 2.
        assert_eq!(q.estimate(), Some(2.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn handles_sorted_and_reversed_input() {
        for reversed in [false, true] {
            let mut xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
            if reversed {
                xs.reverse();
            }
            let mut q = P2Quantile::new(0.25);
            for &x in &xs {
                q.push(x);
            }
            let est = q.estimate().unwrap();
            assert!(
                (est - 2_500.0).abs() < 150.0,
                "p25 of 0..10000 ({reversed}): {est}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_out_of_range_p() {
        let _ = P2Quantile::new(1.0);
    }
}
