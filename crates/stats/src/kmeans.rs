//! K-means clustering of trajectory cuts.
//!
//! The paper's Fig. 2 names three statistical engines: mean, variance and
//! **k-means** — the latter classifies the population of trajectories at a
//! given instant (or window) into clusters, which is how multi-stable
//! systems (two or more distinct stable states across trajectories) are
//! summarised on-line.
//!
//! Deterministic by construction: initial centroids are spread over the
//! data's range (no RNG), and Lloyd iterations stop on convergence or an
//! iteration cap, so repeated runs of the pipeline report identical
//! clusterings.

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Final centroids, sorted ascending for 1-D stability.
    pub centroids: Vec<f64>,
    /// `assignment[i]` is the centroid index of point `i`.
    pub assignment: Vec<usize>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs 1-D k-means with deterministic quantile-spread initialisation.
///
/// Returns `None` when `k` is zero or there are fewer points than `k`.
///
/// # Examples
///
/// ```
/// use streamstat::kmeans::kmeans1d;
///
/// let points = [1.0, 1.2, 0.8, 10.0, 10.3, 9.7];
/// let c = kmeans1d(&points, 2, 100).unwrap();
/// assert_eq!(c.sizes, vec![3, 3]);
/// assert!((c.centroids[0] - 1.0).abs() < 0.1);
/// assert!((c.centroids[1] - 10.0).abs() < 0.2);
/// ```
pub fn kmeans1d(points: &[f64], k: usize, max_iterations: usize) -> Option<Clustering> {
    if k == 0 || points.len() < k {
        return None;
    }
    // Quantile-based initialisation: centroids at the (2i+1)/2k order
    // statistics. They are selected in place rather than read off a full
    // sort — the same values, so the same clustering bit for bit: the
    // indices ascend, and after each selection everything left of it is
    // no larger than everything right of it, so the next order statistic
    // is a selection in the right-hand part alone.
    let mut order_stats = points.to_vec();
    let n = order_stats.len();
    let mut selected_below = 0;
    let mut centroids: Vec<f64> = Vec::with_capacity(k);
    for i in 0..k {
        let q = (2 * i + 1) as f64 / (2 * k) as f64;
        let idx = ((n as f64 * q) as usize).min(n - 1);
        if idx >= selected_below {
            order_stats[selected_below..].select_nth_unstable_by(idx - selected_below, |a, b| {
                a.partial_cmp(b).expect("points are not NaN")
            });
            selected_below = idx + 1;
        }
        centroids.push(order_stats[idx]);
    }
    centroids.dedup();
    while centroids.len() < k {
        // Degenerate data (many ties): pad with slight offsets to keep k
        // clusters; empty ones collapse during iteration.
        let last = *centroids.last().expect("non-empty");
        centroids.push(last + 1.0 + centroids.len() as f64);
    }

    let mut assignment = vec![0usize; points.len()];
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        // Assignment step.
        let mut changed = false;
        for (i, &p) in points.iter().enumerate() {
            let nearest = nearest_centroid(&centroids, p);
            if assignment[i] != nearest {
                assignment[i] = nearest;
                changed = true;
            }
        }
        // Update step.
        sums.fill(0.0);
        counts.fill(0);
        for (i, &p) in points.iter().enumerate() {
            sums[assignment[i]] += p;
            counts[assignment[i]] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        if !changed && iterations > 1 {
            break;
        }
    }
    // Sort centroids and remap assignments for deterministic output.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| centroids[a].partial_cmp(&centroids[b]).expect("not NaN"));
    let mut remap = vec![0usize; k];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        remap[old_idx] = new_idx;
    }
    let centroids: Vec<f64> = order.iter().map(|&i| centroids[i]).collect();
    let assignment: Vec<usize> = assignment.into_iter().map(|a| remap[a]).collect();
    let mut sizes = vec![0usize; k];
    let mut inertia = 0.0;
    for (i, &p) in points.iter().enumerate() {
        sizes[assignment[i]] += 1;
        inertia += (p - centroids[assignment[i]]).powi(2);
    }
    Some(Clustering {
        centroids,
        assignment,
        sizes,
        inertia,
        iterations,
    })
}

/// Reusable buffers of [`kmeans1d_counts`]: the prefix sums and the
/// cluster boundaries, grown once and kept across calls.
#[derive(Debug, Default)]
pub struct KMeansScratch {
    /// `prefix[i]` is the sum of the first `i` sorted points.
    prefix: Vec<u64>,
    /// Cluster `c` is `sorted[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<usize>,
}

/// A cut whose sum stays below this has every `f64` partial sum exact,
/// and every `p − c` of its points and centroids rounds by at most 1/8.
const EXACT_SUM_LIMIT: u64 = 1 << 51;

/// [`kmeans1d`]'s centroids, bit for bit, for integer points given sorted
/// ascending — `O(k² log n)` per Lloyd step instead of `O(n·k)`.
///
/// Empty when [`kmeans1d`] returns `None`. Returns `None` itself when it
/// cannot vouch for the bits; the caller then runs [`kmeans1d`] on the
/// points in their own order, whose inexact sums depend on that order.
///
/// The initial centroids read straight off the sorted points. Each Lloyd
/// step is exact on two conditions, checked as it runs:
///
/// - the sum stays below 2^51, so every partial sum is an exact integer
///   in any order (a centroid is a prefix-sum difference over a count)
///   and every `p − c` rounds by at most 1/8;
/// - before each assignment step the centroids ascend with gaps ≥ 1,
///   which every step that leaves no cluster empty restores (its clusters
///   are runs of distinct integers).
///
/// Under both, the first nearest centroid of an integer point cannot
/// decrease as the point grows, so each cluster is a contiguous range of
/// the sorted points and its boundary is a binary search with the same
/// predicate [`kmeans1d`] assigns by. A step "changes" when a boundary
/// moves; the iteration cap, break rule and final sort are
/// [`kmeans1d`]'s.
///
/// # Examples
///
/// ```
/// use streamstat::kmeans::{kmeans1d, kmeans1d_counts, KMeansScratch};
///
/// let sorted = [1, 1, 2, 9, 10, 10];
/// let mut scratch = KMeansScratch::default();
/// let fast = kmeans1d_counts(&sorted, 2, 50, &mut scratch).unwrap();
/// let points: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
/// assert_eq!(fast, kmeans1d(&points, 2, 50).unwrap().centroids);
/// ```
pub fn kmeans1d_counts(
    sorted: &[u64],
    k: usize,
    max_iterations: usize,
    scratch: &mut KMeansScratch,
) -> Option<Vec<f64>> {
    let n = sorted.len();
    if k == 0 || n < k {
        return Some(Vec::new());
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "points are sorted");
    let KMeansScratch { prefix, bounds } = scratch;
    prefix.clear();
    prefix.reserve(n + 1);
    prefix.push(0);
    let mut sum = 0u64;
    for &p in sorted {
        sum = sum.saturating_add(p);
        prefix.push(sum);
    }
    if sum >= EXACT_SUM_LIMIT {
        return None;
    }

    let mut centroids: Vec<f64> = Vec::with_capacity(k);
    for i in 0..k {
        let q = (2 * i + 1) as f64 / (2 * k) as f64;
        let idx = ((n as f64 * q) as usize).min(n - 1);
        centroids.push(sorted[idx] as f64);
    }
    centroids.dedup();
    while centroids.len() < k {
        let last = *centroids.last().expect("non-empty");
        centroids.push(last + 1.0 + centroids.len() as f64);
    }

    // Every point starts in cluster 0, like `kmeans1d`'s assignment.
    bounds.clear();
    bounds.resize(k + 1, n);
    bounds[0] = 0;
    for iteration in 1..=max_iterations {
        if !centroids.windows(2).all(|w| w[1] - w[0] >= 1.0) {
            return None;
        }
        let mut changed = false;
        for c in 1..k {
            let from = bounds[c - 1];
            let b = from
                + sorted[from..].partition_point(|&p| nearest_centroid(&centroids, p as f64) < c);
            if b != bounds[c] {
                bounds[c] = b;
                changed = true;
            }
        }
        for c in 0..k {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            if hi > lo {
                centroids[c] = (prefix[hi] - prefix[lo]) as f64 / (hi - lo) as f64;
            }
        }
        if !changed && iteration > 1 {
            break;
        }
    }
    centroids.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
    Some(centroids)
}

fn nearest_centroid(centroids: &[f64], p: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &c) in centroids.iter().enumerate() {
        let d = (p - c).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Convenience: detects whether a population is plausibly bimodal by
/// comparing k=2 inertia against k=1 inertia.
///
/// Returns the inertia ratio `k2/k1` (low means strongly bimodal) or
/// `None` for degenerate inputs. Uniform data yields ≈ 0.25; strongly
/// bimodal data falls well below 0.1.
pub fn bimodality_ratio(points: &[f64]) -> Option<f64> {
    let k1 = kmeans1d(points, 1, 50)?;
    let k2 = kmeans1d(points, 2, 50)?;
    if k1.inertia <= f64::EPSILON {
        return Some(1.0); // constant data: unimodal by definition
    }
    Some(k2.inertia / k1.inertia)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_clusters() {
        let pts = [0.9, 1.0, 1.1, 5.0, 5.1, 4.9, 5.05];
        let c = kmeans1d(&pts, 2, 100).unwrap();
        assert_eq!(c.sizes, vec![3, 4]);
        assert!((c.centroids[0] - 1.0).abs() < 0.05);
        assert!((c.centroids[1] - 5.0).abs() < 0.06);
        // All low points to cluster 0, high to cluster 1.
        assert_eq!(&c.assignment[..3], &[0, 0, 0]);
        assert_eq!(&c.assignment[3..], &[1, 1, 1, 1]);
    }

    #[test]
    fn k1_centroid_is_mean() {
        let pts = [1.0, 2.0, 3.0, 4.0];
        let c = kmeans1d(&pts, 1, 10).unwrap();
        assert!((c.centroids[0] - 2.5).abs() < 1e-12);
        assert_eq!(c.sizes, vec![4]);
    }

    #[test]
    fn rejects_degenerate_requests() {
        assert!(kmeans1d(&[1.0, 2.0], 3, 10).is_none());
        assert!(kmeans1d(&[1.0], 0, 10).is_none());
        assert!(kmeans1d(&[], 1, 10).is_none());
    }

    #[test]
    fn constant_data_converges() {
        let pts = [2.0; 10];
        let c = kmeans1d(&pts, 2, 50).unwrap();
        assert_eq!(c.sizes.iter().sum::<usize>(), 10);
        assert!(c.inertia < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts: Vec<f64> = (0..50).map(|i| ((i * 37) % 17) as f64).collect();
        let a = kmeans1d(&pts, 3, 100).unwrap();
        let b = kmeans1d(&pts, 3, 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn centroids_are_sorted() {
        let pts = [10.0, 1.0, 5.0, 10.2, 0.9, 5.1];
        let c = kmeans1d(&pts, 3, 100).unwrap();
        assert!(c.centroids.windows(2).all(|w| w[0] <= w[1]));
    }

    /// `kmeans1d` as it was before the order-statistic selection and the
    /// hoisted accumulators, verbatim: the reference the proptest pins.
    fn kmeans1d_sorted(points: &[f64], k: usize, max_iterations: usize) -> Option<Clustering> {
        if k == 0 || points.len() < k {
            return None;
        }
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("points are not NaN"));
        let mut centroids: Vec<f64> = (0..k)
            .map(|i| {
                let q = (2 * i + 1) as f64 / (2 * k) as f64;
                let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
                sorted[idx]
            })
            .collect();
        centroids.dedup();
        while centroids.len() < k {
            let last = *centroids.last().expect("non-empty");
            centroids.push(last + 1.0 + centroids.len() as f64);
        }
        let mut assignment = vec![0usize; points.len()];
        let mut iterations = 0;
        for _ in 0..max_iterations {
            iterations += 1;
            let mut changed = false;
            for (i, &p) in points.iter().enumerate() {
                let nearest = nearest_centroid(&centroids, p);
                if assignment[i] != nearest {
                    assignment[i] = nearest;
                    changed = true;
                }
            }
            let mut sums = vec![0.0f64; k];
            let mut counts = vec![0usize; k];
            for (i, &p) in points.iter().enumerate() {
                sums[assignment[i]] += p;
                counts[assignment[i]] += 1;
            }
            for c in 0..k {
                if counts[c] > 0 {
                    centroids[c] = sums[c] / counts[c] as f64;
                }
            }
            if !changed && iterations > 1 {
                break;
            }
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| centroids[a].partial_cmp(&centroids[b]).expect("not NaN"));
        let mut remap = vec![0usize; k];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        let centroids: Vec<f64> = order.iter().map(|&i| centroids[i]).collect();
        let assignment: Vec<usize> = assignment.into_iter().map(|a| remap[a]).collect();
        let mut sizes = vec![0usize; k];
        let mut inertia = 0.0;
        for (i, &p) in points.iter().enumerate() {
            sizes[assignment[i]] += 1;
            inertia += (p - centroids[assignment[i]]).powi(2);
        }
        Some(Clustering {
            centroids,
            assignment,
            sizes,
            inertia,
            iterations,
        })
    }

    /// Every float of a clustering as raw bits, for bit-for-bit equality.
    fn bits(c: &Clustering) -> (Vec<u64>, u64) {
        (
            c.centroids.iter().map(|v| v.to_bits()).collect(),
            c.inertia.to_bits(),
        )
    }

    proptest::proptest! {
        #[test]
        fn order_statistic_init_clusters_like_the_sorted_reference(
            pool in proptest::collection::vec(0u32..12, 1..160),
            spread in proptest::collection::vec(-50.0f64..50.0, 160),
            mix in 0u32..3,
            k in 1usize..5,
        ) {
            // Ties and duplicates from a small integer pool, continuous
            // values, or a blend of both (never a signed zero).
            let points: Vec<f64> = pool
                .iter()
                .zip(&spread)
                .enumerate()
                .map(|(i, (&v, &x))| match mix {
                    0 => f64::from(v) * 0.75 - 3.0,
                    1 => x,
                    _ if i % 2 == 0 => f64::from(v),
                    _ => x,
                })
                .collect();
            let got = kmeans1d(&points, k, 100);
            let want = kmeans1d_sorted(&points, k, 100);
            proptest::prop_assert_eq!(&got, &want);
            if let (Some(got), Some(want)) = (&got, &want) {
                proptest::prop_assert_eq!(bits(got), bits(want));
            }
        }
    }

    /// `kmeans1d`'s centroids as raw bits, empty when it returns `None`.
    fn oracle_bits(points: &[u64], k: usize) -> Vec<u64> {
        let points: Vec<f64> = points.iter().map(|&v| v as f64).collect();
        kmeans1d(&points, k, 50)
            .map(|c| c.centroids.iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default()
    }

    fn sorted_copy(points: &[u64]) -> Vec<u64> {
        let mut sorted = points.to_vec();
        sorted.sort_unstable();
        sorted
    }

    proptest::proptest! {
        #[test]
        fn sorted_counts_cluster_like_kmeans1d_bit_for_bit(
            draws in proptest::collection::vec(0u64..1 << 20, 1..200),
            shape in 0u32..6,
            short in 0u32..4,
            k in 1usize..7,
        ) {
            let n = if short == 0 { draws.len().min(8) } else { draws.len() };
            let draws = &draws[..n];
            // A 2^51 / n base: a spread of ±8 around it lands the sum on
            // either side of the fast path's limit.
            let near_limit = (1u64 << 51) / n as u64;
            let points: Vec<u64> = draws
                .iter()
                .map(|&d| match shape {
                    // Ties from a small pool.
                    0 => d % 12,
                    // A single distinct value: every centroid past the
                    // first is padding, its cluster empty.
                    1 => 7,
                    // Two far modes with a few outliers between them:
                    // clusters empty out and keep stale centroids.
                    2 => match d % 16 {
                        0 => 500 + d % 400,
                        1..=7 => d % 40,
                        _ => 1000 + d % 40,
                    },
                    // Wide integers.
                    3 => d,
                    // Near-2^51 sums, about half of them past the limit.
                    4 => near_limit - 8 + d % 17,
                    // Mostly one value with a far outlier.
                    _ => if d % 50 == 0 { d } else { 3 },
                })
                .collect();
            let sorted = sorted_copy(&points);
            let sum: u128 = points.iter().map(|&v| u128::from(v)).sum();
            let mut scratch = KMeansScratch::default();
            let want = oracle_bits(&points, k);
            match kmeans1d_counts(&sorted, k, 50, &mut scratch) {
                Some(got) => {
                    proptest::prop_assert!(sum < 1 << 51 || k > n);
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    proptest::prop_assert_eq!(got, want);
                }
                // Not vouched for: the engine falls back to `kmeans1d`.
                None => proptest::prop_assert!(k <= n),
            }
            if sum >= 1 << 51 && k <= n {
                proptest::prop_assert!(kmeans1d_counts(&sorted, k, 50, &mut scratch).is_none());
            }
        }
    }

    #[test]
    fn sorted_counts_take_the_fast_path_on_a_bimodal_cut() {
        // 1024 integer counts in two noisy modes, like a multi-stable
        // cut: the fast path answers, so the proptest compares something.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let points: Vec<u64> = (0..1024)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let base = if i % 3 == 0 { 40 } else { 900 };
                base + state % 120
            })
            .collect();
        let sorted = sorted_copy(&points);
        let mut scratch = KMeansScratch::default();
        for k in 1..=6 {
            let got = kmeans1d_counts(&sorted, k, 50, &mut scratch)
                .unwrap_or_else(|| panic!("k = {k} fell back"));
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, oracle_bits(&points, k), "k = {k}");
        }
    }

    #[test]
    fn sorted_counts_handle_degenerate_requests() {
        let mut scratch = KMeansScratch::default();
        assert_eq!(kmeans1d_counts(&[1, 2], 3, 10, &mut scratch), Some(vec![]));
        assert_eq!(kmeans1d_counts(&[1], 0, 10, &mut scratch), Some(vec![]));
        assert_eq!(kmeans1d_counts(&[], 1, 10, &mut scratch), Some(vec![]));
        assert_eq!(kmeans1d_counts(&[1 << 51], 1, 10, &mut scratch), None);
    }

    #[test]
    fn bimodality_ratio_distinguishes_shapes() {
        let bimodal: Vec<f64> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + (i as f64) * 0.01
                } else {
                    9.0 + (i as f64) * 0.01
                }
            })
            .collect();
        let unimodal: Vec<f64> = (0..20).map(|i| 5.0 + ((i * 13) % 7) as f64 * 0.1).collect();
        let rb = bimodality_ratio(&bimodal).unwrap();
        let ru = bimodality_ratio(&unimodal).unwrap();
        assert!(rb < 0.05, "bimodal ratio {rb}");
        // Uniformly spread data: k=2 cuts inertia to ~1/4, no further.
        assert!(ru > 0.2, "unimodal ratio {ru}");
        assert_eq!(bimodality_ratio(&[3.3; 8]), Some(1.0));
    }
}
