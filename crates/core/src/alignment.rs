//! Alignment of trajectories.
//!
//! The third stage of the simulation pipeline: "sorts out all received
//! results and aligns them according to the amount of simulation time. Once
//! all simulation tasks overcome a given simulation time, an array of
//! results is produced and streamed to the analysis pipeline." Sample
//! batches arrive interleaved across instances and quanta; this stage
//! re-groups them into time-ordered [`Cut`]s.
//!
//! A batch is one quantum of one instance: consecutive grid points, in
//! time order. The aligner holds each instance's batches as they came,
//! queued by first grid index, and counts per grid point how many
//! instances have reported it. When the earliest outstanding grid points
//! have all reported, it builds their cuts by one blocked transpose: a
//! pass over the instances, in instance order, that moves each one's rows
//! into the run of completed cuts — no per-sample slot, and every cut's
//! row vector written front to back.

use std::collections::VecDeque;

use fastflow::node::{Outbox, Stage};
use gillespie::trajectory::{Cut, Row};

use crate::task::SampleBatch;

/// Cuts one transpose pass fills at a time: their row vectors' write
/// fronts stay in cache while every instance's rows go by.
const TRANSPOSE_BLOCK: usize = 64;

/// Streaming aligner: [`SampleBatch`] in, time-ordered [`Cut`] out.
///
/// A cut at grid index `k` is emitted once all `instances` trajectories
/// have reported their sample for `k` *and* every cut before `k` has been
/// emitted, so downstream sees a strictly time-ordered stream. An
/// instance's batches may arrive in any order (the farm's collector
/// merges its workers' channels), but its grid indices must not repeat
/// or skip within a batch, and no two of its batches may overlap.
#[derive(Debug)]
pub struct Alignment {
    instances: u64,
    sample_period: f64,
    /// First instance id of the aligned range (non-zero in shard
    /// workers, which align only their slice of the instances).
    base: u64,
    /// Per instance: its received rows not yet in a cut, as the batches
    /// they came in, ordered by first grid index.
    held: Vec<VecDeque<Held>>,
    /// `reports[j]`: instances that have delivered grid index
    /// `next_emit + j`.
    reports: VecDeque<u64>,
    /// Grid indices at or past `next_emit` that some instance reported.
    partial: usize,
    /// The cuts of one transpose block, being filled.
    block: Vec<Cut>,
    /// Next grid index to emit.
    next_emit: u64,
    /// Cuts emitted so far.
    emitted: u64,
}

/// The unconsumed rows of one batch.
#[derive(Debug)]
struct Held {
    /// Grid index of the next row.
    first: u64,
    rows: std::vec::IntoIter<(f64, Row)>,
}

impl Held {
    /// One past the grid index of the last row.
    fn end(&self) -> u64 {
        self.first + self.rows.len() as u64
    }
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
            // Each queue is allocated here, once for the run: an instance
            // holds a batch or two, so few grow on the stream's path.
            held: (0..instances).map(|_| VecDeque::with_capacity(2)).collect(),
            reports: VecDeque::new(),
            partial: 0,
            block: Vec::with_capacity(TRANSPOSE_BLOCK),
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

    /// Number of partially-filled cuts currently buffered (grid points
    /// some instance has reported that are not yet emitted).
    pub fn buffered(&self) -> usize {
        self.partial
    }

    fn ingest(&mut self, batch: SampleBatch, mut emit: impl FnMut(Cut)) {
        assert!(
            batch.instance >= self.base && batch.instance < self.base + self.instances,
            "instance {} outside aligned range {}..{}",
            batch.instance,
            self.base,
            self.base + self.instances
        );
        let instance = (batch.instance - self.base) as usize;
        let Some(&(t0, _)) = batch.samples.first() else {
            return;
        };
        let first = self.grid_index(t0);
        if first < self.next_emit {
            // A late sample would corrupt emitted cuts; with exact grid
            // clocks this cannot happen, so treat it as a programming
            // error in the upstream stage.
            panic!("late sample for already-emitted cut {first} (t = {t0})");
        }
        let end = first + batch.samples.len() as u64;
        let needed = (end - self.next_emit) as usize;
        if self.reports.len() < needed {
            self.reports.resize(needed, 0);
        }
        let slot = &self.held[instance];
        let at = slot
            .iter()
            .rposition(|h| h.first < first)
            .map_or(0, |i| i + 1);
        let overlaps_before = at > 0 && slot[at - 1].end() > first;
        let overlaps_after = slot.get(at).is_some_and(|h| h.first < end);
        if overlaps_before || overlaps_after {
            panic!(
                "duplicate sample: instance {} reported grid points {first}..{end} twice",
                batch.instance
            );
        }
        for (k, &(t, _)) in (first..).zip(&batch.samples) {
            let got = self.grid_index(t);
            if got != k {
                let what = if got < k { "duplicate" } else { "gap" };
                panic!(
                    "{what} in instance {}'s batch: grid point {got} (t = {t}) where {k} was due",
                    batch.instance
                );
            }
            let count = &mut self.reports[(k - self.next_emit) as usize];
            if *count == 0 {
                self.partial += 1;
            }
            *count += 1;
        }
        self.held[instance].insert(
            at,
            Held {
                first,
                rows: batch.samples.into_iter(),
            },
        );

        let complete = self
            .reports
            .iter()
            .take_while(|&&c| c == self.instances)
            .count();
        let mut done = 0;
        while done < complete {
            let len = (complete - done).min(TRANSPOSE_BLOCK);
            self.transpose(len);
            self.next_emit += len as u64;
            self.emitted += len as u64;
            self.partial -= len;
            done += len;
            self.block.drain(..).for_each(&mut emit);
        }
        self.reports.drain(..complete);
    }

    /// Moves every instance's rows for the `len` grid points from
    /// `next_emit` into `block`'s cuts, instance by instance.
    fn transpose(&mut self, len: usize) {
        let width = self.instances as usize;
        let (first_slot, rest) = self.held.split_first_mut().expect("instances > 0");
        take_rows(first_slot, len, |(time, row)| {
            let mut values = Vec::with_capacity(width);
            values.push(row);
            self.block.push(Cut { time, values });
        });
        for slot in rest {
            let mut cuts = self.block.iter_mut();
            take_rows(slot, len, |(_, row)| {
                cuts.next().expect("one cut per row").values.push(row);
            });
        }
    }
}

/// Hands the next `len` rows an instance holds to `f`, in grid order,
/// dropping each batch once it is used up.
fn take_rows(slot: &mut VecDeque<Held>, mut len: usize, mut f: impl FnMut((f64, Row))) {
    while len > 0 {
        let held = slot.front_mut().expect("every reported row is held");
        let n = len.min(held.rows.len());
        held.rows.by_ref().take(n).for_each(&mut f);
        held.first += n as u64;
        len -= n;
        if held.rows.len() == 0 {
            slot.pop_front();
        }
    }
}

impl Stage for Alignment {
    type In = SampleBatch;
    type Out = Cut;

    fn on_item(&mut self, batch: SampleBatch, out: &mut Outbox<'_, Cut>) {
        self.ingest(batch, |cut| out.push(cut));
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
        a.ingest(b, |cut| out.push(cut));
        out
    }

    /// The aligner this module had before the transpose, kept as the
    /// reference: one slot per (grid point, instance) in a `BTreeMap`.
    struct Reference {
        instances: u64,
        sample_period: f64,
        base: u64,
        pending: std::collections::BTreeMap<u64, (f64, Vec<Option<Row>>, u64)>,
        next_emit: u64,
        emitted: u64,
    }

    impl Reference {
        fn new(instances: u64, sample_period: f64, base: u64) -> Self {
            Reference {
                instances,
                sample_period,
                base,
                pending: Default::default(),
                next_emit: 0,
                emitted: 0,
            }
        }

        fn ingest(&mut self, batch: SampleBatch) -> Vec<Cut> {
            let instance = (batch.instance - self.base) as usize;
            for (t, values) in batch.samples {
                let k = (t / self.sample_period).round() as u64;
                assert!(k >= self.next_emit, "late sample");
                let n = self.instances as usize;
                let slot = self
                    .pending
                    .entry(k)
                    .or_insert_with(|| (t, vec![None; n], 0));
                if slot.1[instance].replace(values).is_none() {
                    slot.2 += 1;
                }
            }
            let mut out = Vec::new();
            while self
                .pending
                .get(&self.next_emit)
                .is_some_and(|slot| slot.2 == self.instances)
            {
                let (time, values, _) = self.pending.remove(&self.next_emit).unwrap();
                let values = values.into_iter().map(Option::unwrap).collect();
                out.push(Cut { time, values });
                self.next_emit += 1;
                self.emitted += 1;
            }
            out
        }
    }

    /// SplitMix64, for the seeded property test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// One random run: 1–6 instances at a random base, each sampled on a
    /// grid of its own length (a terminated run ends ragged) and cut
    /// into quanta of random lengths, some empty; rows of 1–6
    /// observables (past the inline capacity too); the batches delivered
    /// in a random interleaving in which an instance's next quantum
    /// sometimes overtakes the one before it.
    fn random_run(seed: u64) -> (u64, f64, u64, Vec<SampleBatch>) {
        let mut rng = Rng(seed);
        let instances = 1 + rng.below(6);
        let base = rng.below(10);
        let period = [0.1, 0.25, 1.0, 0.002][rng.below(4) as usize];
        let width = 1 + rng.below(6) as usize;
        let mut queues: Vec<VecDeque<SampleBatch>> = (0..instances)
            .map(|i| {
                let points = rng.below(40);
                let mut quanta = VecDeque::new();
                let mut k = 0;
                while k < points {
                    let len = rng.below(6).min(points - k);
                    let samples = (k..k + len)
                        .map(|g| {
                            let row: Vec<u64> =
                                (0..width as u64).map(|o| g * 100 + i * 10 + o).collect();
                            (g as f64 * period, Row::from_slice(&row))
                        })
                        .collect();
                    k += len;
                    quanta.push_back(SampleBatch {
                        instance: base + i,
                        samples,
                        events: 0,
                        finished: k == points,
                    });
                }
                quanta
            })
            .collect();
        let mut delivered = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            let live: Vec<usize> = (0..queues.len())
                .filter(|&i| !queues[i].is_empty())
                .collect();
            let q = &mut queues[live[rng.below(live.len() as u64) as usize]];
            let overtake = q.len() >= 2 && rng.below(4) == 0;
            delivered.push(q.remove(usize::from(overtake)).unwrap());
        }
        (instances, period, base, delivered)
    }

    #[test]
    fn transpose_matches_the_reference_on_random_interleavings() {
        let mut cuts_seen = 0;
        for seed in 0..400 {
            let (instances, period, base, batches) = random_run(seed);
            let mut a = Alignment::with_base(instances, period, base);
            let mut r = Reference::new(instances, period, base);
            for (step, b) in batches.into_iter().enumerate() {
                let want = r.ingest(b.clone());
                let got = drain(&mut a, b);
                assert_eq!(got, want, "seed {seed}, batch {step}: cuts");
                assert_eq!(
                    a.buffered(),
                    r.pending.len(),
                    "seed {seed}, batch {step}: buffered"
                );
                assert_eq!(a.emitted(), r.emitted, "seed {seed}, batch {step}: emitted");
                cuts_seen += got.len();
            }
        }
        assert!(cuts_seen > 1000, "the runs emit cuts: {cuts_seen}");
    }

    #[test]
    fn transpose_blocks_a_long_run_of_completed_cuts() {
        // The sequential runner's pattern: whole trajectories, one
        // instance after the other — the last one completes every cut.
        let points = 3 * TRANSPOSE_BLOCK as u64 + 5;
        let mut a = Alignment::new(3, 1.0);
        let mut cuts = Vec::new();
        for i in 0..3 {
            let samples = (0..points)
                .map(|k| (k as f64, Row::from_slice(&[i, k])))
                .collect();
            cuts.extend(drain(
                &mut a,
                SampleBatch {
                    instance: i,
                    samples,
                    events: 0,
                    finished: true,
                },
            ));
        }
        assert_eq!(cuts.len() as u64, points);
        for (k, cut) in (0..).zip(&cuts) {
            assert_eq!(cut.time, k as f64);
            assert_eq!(cut.values, vec![vec![0, k], vec![1, k], vec![2, k]]);
        }
        assert_eq!(a.buffered(), 0);
    }

    #[test]
    fn a_later_batch_may_arrive_first() {
        let mut a = Alignment::new(1, 1.0);
        assert!(drain(&mut a, batch(0, &[(2.0, 3), (3.0, 4)])).is_empty());
        assert_eq!(a.buffered(), 2);
        let cuts = drain(&mut a, batch(0, &[(0.0, 1), (1.0, 2)]));
        let values: Vec<u64> = cuts.iter().map(|c| c.values[0][0]).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
        assert_eq!(a.emitted(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate sample")]
    fn overlapping_batches_of_one_instance_panic() {
        // Instance 1 has not reported, so grid point 1 is still pending
        // when instance 0 reports it again.
        let mut a = Alignment::new(2, 1.0);
        drain(&mut a, batch(0, &[(0.0, 1), (1.0, 2)]));
        drain(&mut a, batch(0, &[(1.0, 2), (2.0, 3)]));
    }

    #[test]
    #[should_panic(expected = "duplicate in instance 0's batch")]
    fn a_repeated_grid_point_within_a_batch_panics() {
        let mut a = Alignment::new(2, 1.0);
        drain(&mut a, batch(0, &[(0.0, 1), (1.0, 2), (1.0, 2)]));
    }

    #[test]
    #[should_panic(expected = "gap in instance 0's batch")]
    fn a_skipped_grid_point_within_a_batch_panics() {
        let mut a = Alignment::new(2, 1.0);
        drain(&mut a, batch(0, &[(0.0, 1), (2.0, 3)]));
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
