//! Partitioning a run's instances across shards.
//!
//! The sharded farm splits `cfg.instances` trajectories into contiguous
//! ranges, one per shard; each shard runs the standard farm + alignment
//! pipeline on its slice. Because every instance's RNG stream is derived
//! from `(base_seed, instance)` alone, the partition does not influence
//! any trajectory — which is the determinism argument behind the
//! bit-for-bit agreement of the sharded and single-process runners (see
//! `docs/ARCHITECTURE.md`, "Sharding").

/// One shard's contiguous slice of the instance range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard index (0-based, dense).
    pub shard: usize,
    /// First instance id of the slice (inclusive).
    pub first_instance: u64,
    /// Number of consecutive instances in the slice (always > 0).
    pub count: u64,
}

impl ShardRange {
    /// One past the last instance id of the slice.
    ///
    /// # Panics
    ///
    /// Panics if that id overflows `u64`, which a planned range never
    /// does and `ShardSpec::validate` refuses in a decoded one.
    pub fn end(&self) -> u64 {
        self.first_instance
            .checked_add(self.count)
            .expect("a shard's slice ends below u64::MAX")
    }
}

/// The partition of a run's instances into shards.
///
/// Contiguous, in instance order, remainder spread over the leading
/// shards — and never an empty shard: asking for more shards than
/// instances yields one shard per instance.
///
/// # Examples
///
/// ```
/// use cwcsim::plan::ShardPlan;
///
/// let plan = ShardPlan::new(10, 3);
/// let counts: Vec<u64> = plan.ranges().iter().map(|r| r.count).collect();
/// assert_eq!(counts, vec![4, 3, 3]);
/// assert_eq!(plan.ranges()[1].first_instance, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    instances: u64,
    ranges: Vec<ShardRange>,
}

impl ShardPlan {
    /// Plans `instances` trajectories over (at most) `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when either argument is zero (`SimConfig::validate` rejects
    /// both before a run starts).
    pub fn new(instances: u64, shards: usize) -> Self {
        assert!(instances > 0, "cannot plan zero instances");
        assert!(shards > 0, "cannot plan zero shards");
        let shards = (shards as u64).min(instances);
        let per_shard = instances / shards;
        let remainder = instances % shards;
        let mut ranges = Vec::with_capacity(shards as usize);
        let mut first = 0;
        for s in 0..shards {
            let count = per_shard + u64::from(s < remainder);
            ranges.push(ShardRange {
                shard: s as usize,
                first_instance: first,
                count,
            });
            first += count;
        }
        ShardPlan { instances, ranges }
    }

    /// Total instances across all shards.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// The planned shard ranges, in shard (= instance) order.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Number of shards actually planned (≤ the requested count).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Never true: a plan always holds at least one shard.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_complete() {
        for instances in [1u64, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 33] {
                let plan = ShardPlan::new(instances, shards);
                let mut next = 0;
                for r in plan.ranges() {
                    assert_eq!(r.first_instance, next, "{instances}/{shards}");
                    assert!(r.count > 0, "{instances}/{shards}: empty shard");
                    next = r.end();
                }
                assert_eq!(next, instances, "{instances}/{shards}");
                assert_eq!(plan.instances(), instances);
            }
        }
    }

    #[test]
    fn remainder_goes_to_leading_shards() {
        let plan = ShardPlan::new(11, 4);
        let counts: Vec<u64> = plan.ranges().iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![3, 3, 3, 2]);
    }

    #[test]
    fn more_shards_than_instances_collapses_to_one_per_instance() {
        let plan = ShardPlan::new(3, 8);
        assert_eq!(plan.len(), 3);
        assert!(plan.ranges().iter().all(|r| r.count == 1));
        assert!(!plan.is_empty());
    }

    #[test]
    fn single_shard_covers_everything() {
        let plan = ShardPlan::new(17, 1);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.ranges()[0].count, 17);
    }

    #[test]
    fn shard_indices_are_dense() {
        let plan = ShardPlan::new(20, 5);
        for (i, r) in plan.ranges().iter().enumerate() {
            assert_eq!(r.shard, i);
        }
    }
}
