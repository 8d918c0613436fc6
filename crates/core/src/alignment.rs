//! Alignment of trajectories.
//!
//! The third stage of the simulation pipeline: "sorts out all received
//! results and aligns them according to the amount of simulation time. Once
//! all simulation tasks overcome a given simulation time, an array of
//! results is produced and streamed to the analysis pipeline." Sample
//! batches arrive interleaved across instances and quanta; this stage
//! re-groups them into time-ordered [`Cut`]s.

use std::collections::BTreeMap;

use fastflow::node::{Outbox, Stage};
use gillespie::trajectory::{Cut, Row};

use crate::task::SampleBatch;

/// Streaming aligner: [`SampleBatch`] in, time-ordered [`Cut`] out.
///
/// A cut at grid index `k` is emitted once all `instances` trajectories
/// have reported their sample for `k` *and* every cut before `k` has been
/// emitted, so downstream sees a strictly time-ordered stream.
#[derive(Debug)]
pub struct Alignment {
    instances: u64,
    sample_period: f64,
    /// First instance id of the aligned range (non-zero in shard
    /// workers, which align only their slice of the instances).
    base: u64,
    /// Partially filled cuts: grid index → (per-instance slot, filled count).
    pending: BTreeMap<u64, PendingCut>,
    /// Next grid index to emit.
    next_emit: u64,
    /// Cuts emitted so far.
    emitted: u64,
}

#[derive(Debug)]
struct PendingCut {
    time: f64,
    values: Vec<Option<Row>>,
    filled: u64,
}

impl Alignment {
    /// Creates an aligner for `instances` trajectories sampled every
    /// `sample_period`.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero or the period is not positive.
    pub fn new(instances: u64, sample_period: f64) -> Self {
        Self::with_base(instances, sample_period, 0)
    }

    /// Creates an aligner for the instance range
    /// `base..base + instances` — the shard worker's slice. Slot `i` of
    /// every emitted cut holds instance `base + i`, so concatenating
    /// shard cuts in shard order reproduces the full-range cut exactly.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero or the period is not positive.
    pub fn with_base(instances: u64, sample_period: f64, base: u64) -> Self {
        assert!(instances > 0, "alignment needs at least one instance");
        assert!(
            sample_period > 0.0 && sample_period.is_finite(),
            "sample period must be positive"
        );
        Alignment {
            instances,
            sample_period,
            base,
            pending: BTreeMap::new(),
            next_emit: 0,
            emitted: 0,
        }
    }

    /// Grid index of a sample time.
    fn grid_index(&self, t: f64) -> u64 {
        (t / self.sample_period).round() as u64
    }

    /// Number of complete cuts emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of partially-filled cuts currently buffered.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    fn ingest(&mut self, batch: SampleBatch, out: &mut Vec<Cut>) {
        assert!(
            batch.instance >= self.base && batch.instance < self.base + self.instances,
            "instance {} outside aligned range {}..{}",
            batch.instance,
            self.base,
            self.base + self.instances
        );
        let instance = (batch.instance - self.base) as usize;
        for (t, values) in batch.samples {
            let k = self.grid_index(t);
            if k < self.next_emit {
                // A duplicate or late sample would corrupt emitted cuts;
                // with exact grid clocks this cannot happen, so treat it as
                // a programming error in the upstream stage.
                panic!("late sample for already-emitted cut {k} (t = {t})");
            }
            let slot = self.pending.entry(k).or_insert_with(|| PendingCut {
                time: t,
                values: vec![None; self.instances as usize],
                filled: 0,
            });
            if slot.values[instance].replace(values).is_none() {
                slot.filled += 1;
            }
        }
        // Emit the complete frontier in time order.
        while let Some(slot) = self.pending.get(&self.next_emit) {
            if slot.filled < self.instances {
                break;
            }
            let slot = self.pending.remove(&self.next_emit).expect("present");
            out.push(Cut {
                time: slot.time,
                values: slot
                    .values
                    .into_iter()
                    .map(|v| v.expect("filled slot"))
                    .collect(),
            });
            self.next_emit += 1;
            self.emitted += 1;
        }
    }
}

impl Stage for Alignment {
    type In = SampleBatch;
    type Out = Cut;

    fn on_item(&mut self, batch: SampleBatch, out: &mut Outbox<'_, Cut>) {
        let mut cuts = Vec::new();
        self.ingest(batch, &mut cuts);
        for cut in cuts {
            out.push(cut);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(instance: u64, samples: &[(f64, u64)]) -> SampleBatch {
        SampleBatch {
            instance,
            samples: samples
                .iter()
                .map(|&(t, v)| (t, Row::from_slice(&[v])))
                .collect(),
            events: 0,
            finished: false,
        }
    }

    fn drain(a: &mut Alignment, b: SampleBatch) -> Vec<Cut> {
        let mut out = Vec::new();
        a.ingest(b, &mut out);
        out
    }

    #[test]
    fn cut_emitted_once_all_instances_report() {
        let mut a = Alignment::new(2, 1.0);
        assert!(drain(&mut a, batch(0, &[(0.0, 10)])).is_empty());
        let cuts = drain(&mut a, batch(1, &[(0.0, 20)]));
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].time, 0.0);
        assert_eq!(cuts[0].values, vec![vec![10], vec![20]]);
        assert_eq!(a.emitted(), 1);
    }

    #[test]
    fn emission_is_time_ordered_despite_skew() {
        let mut a = Alignment::new(2, 1.0);
        // Instance 0 races ahead three grid points.
        assert!(drain(&mut a, batch(0, &[(0.0, 1), (1.0, 2), (2.0, 3)])).is_empty());
        assert_eq!(a.buffered(), 3);
        // Instance 1 catches up in one batch: all three cuts emitted in order.
        let cuts = drain(&mut a, batch(1, &[(0.0, 9), (1.0, 8), (2.0, 7)]));
        let times: Vec<f64> = cuts.iter().map(|c| c.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
        assert_eq!(a.buffered(), 0);
    }

    #[test]
    fn partial_frontier_blocks_later_cuts() {
        let mut a = Alignment::new(2, 1.0);
        drain(&mut a, batch(0, &[(0.0, 1), (1.0, 2)]));
        // Instance 1 reports only t=1; t=0 still incomplete, nothing flows.
        let cuts = drain(&mut a, batch(1, &[(1.0, 5)]));
        assert!(cuts.is_empty());
        // Completing t=0 releases both cuts.
        let cuts = drain(&mut a, batch(1, &[(0.0, 4)]));
        assert_eq!(cuts.len(), 2);
    }

    #[test]
    fn single_instance_streams_straight_through() {
        let mut a = Alignment::new(1, 0.5);
        let cuts = drain(&mut a, batch(0, &[(0.0, 1), (0.5, 2), (1.0, 3)]));
        assert_eq!(cuts.len(), 3);
        assert!(cuts.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn grid_rounding_tolerates_float_noise() {
        let mut a = Alignment::new(1, 0.1);
        // 0.30000000000000004 must land on grid index 3.
        let cuts = drain(&mut a, batch(0, &[(0.1 + 0.1 + 0.1, 7)]));
        assert!(cuts.is_empty()); // indices 0..2 missing, held back
        assert_eq!(a.buffered(), 1);
    }

    #[test]
    fn offset_alignment_maps_shard_instances_to_slots() {
        // A shard aligning instances 4..6: slot 0 is instance 4.
        let mut a = Alignment::with_base(2, 1.0, 4);
        assert!(drain(&mut a, batch(5, &[(0.0, 50)])).is_empty());
        let cuts = drain(&mut a, batch(4, &[(0.0, 40)]));
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].values, vec![vec![40], vec![50]]);
    }

    #[test]
    #[should_panic(expected = "outside aligned range")]
    fn out_of_range_instance_panics() {
        let mut a = Alignment::with_base(2, 1.0, 4);
        drain(&mut a, batch(1, &[(0.0, 1)]));
    }

    #[test]
    #[should_panic(expected = "late sample")]
    fn duplicate_past_sample_panics() {
        let mut a = Alignment::new(1, 1.0);
        drain(&mut a, batch(0, &[(0.0, 1)]));
        drain(&mut a, batch(0, &[(0.0, 1)]));
    }
}
