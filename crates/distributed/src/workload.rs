//! Workload traces and cost calibration for the platform models.
//!
//! The platform models (the pipeline DES in [`crate::cluster`], its cloud
//! deployments, the GPU model) need two inputs:
//!
//! 1. **the workload shape** — how many SSA events each instance fires in
//!    each quantum. [`WorkloadTrace::record`] obtains it by *running the
//!    real engines*, so the heavy-tailed, autocorrelated imbalance the
//!    paper blames for divergence and load skew is authentic;
//! 2. **unit costs** — seconds per SSA event on the reference core and
//!    seconds per analysed value in the statistical engines, measured on
//!    this machine by [`CostModel::measure`].
//!
//! With those, a platform model's predicted time is `shape × unit cost ×
//! platform factors` — every substitution knob is explicit.

use std::sync::Arc;
use std::time::Instant;

use cwc::model::Model;
use cwcsim::engines::{StatEngineKind, StatEngineSet};
use cwcsim::task::SimTask;
use gillespie::deps::ModelDeps;
use gillespie::engine::EngineKind;
use gillespie::trajectory::{Cut, Row};

use crate::wire;

/// Per-quantum, per-instance event counts plus message sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// `events[q][i]` = SSA events of instance `i` during quantum `q`.
    pub events: Vec<Vec<u64>>,
    /// Mean encoded size of one sample batch in bytes.
    pub mean_batch_bytes: f64,
    /// Samples per instance over the full run.
    pub samples_per_instance: u64,
    /// Number of instances.
    pub instances: u64,
    /// Number of quanta.
    pub quanta: usize,
    /// Observable values per sample (columns per trajectory per cut).
    pub values_per_sample: usize,
}

impl WorkloadTrace {
    /// Records a trace by running `instances` real trajectories of `model`,
    /// each advanced by `burn_in` time units before recording starts.
    ///
    /// The recorded event matrix is exactly what the real farm would
    /// execute (same seeds ⇒ same trajectories).
    ///
    /// Burn-in matters for oscillatory models: trajectories started from a
    /// common initial state are phase-synchronised at first and decorrelate
    /// through stochastic phase diffusion. The paper's long cloud runs
    /// (96 simulated days) operate in the decorrelated regime, which is
    /// where thread divergence bites; a fresh-start trace (`burn_in = 0`)
    /// would understate it.
    pub fn record(
        model: Arc<Model>,
        instances: u64,
        base_seed: u64,
        burn_in: f64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Self {
        let quanta = (t_end / quantum).ceil() as usize;
        let values_per_sample = model.observables.len();
        let mut events = vec![vec![0u64; instances as usize]; quanta];
        let mut total_bytes = 0usize;
        let mut batches = 0usize;
        let mut samples_per_instance = 0;
        // One model compile for the whole trace, shared by every instance.
        let deps = Arc::new(ModelDeps::compile(&model));
        for i in 0..instances {
            let mut task = SimTask::with_engine_deps(
                EngineKind::Ssa,
                Arc::clone(&model),
                Arc::clone(&deps),
                base_seed,
                i,
                burn_in + t_end,
                quantum,
                sample_period,
            )
            .expect("SSA engine construction is infallible");
            if burn_in > 0.0 {
                // Advance past the synchronised transient; samples produced
                // during burn-in are discarded.
                task.engine.run_until(burn_in);
                task.clock = gillespie::ssa::SampleClock::new(burn_in, sample_period);
            }
            let mut q = 0;
            let mut produced = 0u64;
            while !task.is_done() {
                let batch = task.run_quantum_batch();
                if q < quanta {
                    events[q][i as usize] = batch.events;
                }
                produced += batch.samples.len() as u64;
                total_bytes += wire::encoded_size(&batch);
                batches += 1;
                q += 1;
            }
            samples_per_instance = produced;
        }
        WorkloadTrace {
            events,
            mean_batch_bytes: if batches == 0 {
                0.0
            } else {
                total_bytes as f64 / batches as f64
            },
            samples_per_instance,
            instances,
            quanta,
            values_per_sample,
        }
    }

    /// Synthetic trace: an autocorrelated log-normal-ish event process, for
    /// fast tests and sweeps where running real engines is too slow.
    ///
    /// Instance intensity follows a deterministic per-instance level
    /// (spread over one decade) with a slow sinusoidal drift — matching
    /// the "random walks of simulation time" character without RNG. Each
    /// sample carries three values, as Neurospora's do.
    pub fn synthetic(instances: u64, quanta: usize, mean_events: f64) -> Self {
        let mut events = vec![vec![0u64; instances as usize]; quanta];
        for i in 0..instances as usize {
            // Spread levels over [0.3, 3] × mean with deterministic hash.
            let u = ((i.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0;
            let level = mean_events * (0.3 + 2.7 * u);
            for (q, row) in events.iter_mut().enumerate() {
                let phase = (q as f64 / 7.0 + u * std::f64::consts::TAU).sin() * 0.4 + 1.0;
                row[i] = (level * phase).round().max(1.0) as u64;
            }
        }
        WorkloadTrace {
            events,
            mean_batch_bytes: 512.0,
            samples_per_instance: quanta as u64,
            instances,
            quanta,
            values_per_sample: 3,
        }
    }

    /// Total events across all instances and quanta.
    pub fn total_events(&self) -> u64 {
        self.events.iter().flatten().sum()
    }

    /// Merges `factor` consecutive quanta into one (e.g. a τ-grained trace
    /// coarsened by 10 is exactly the workload of a Q = 10τ run, because
    /// the engine's pending-event preservation makes trajectories
    /// independent of quantum slicing).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn coarsen(&self, factor: usize) -> WorkloadTrace {
        assert!(factor > 0, "coarsening factor must be non-zero");
        let quanta = self.quanta.div_ceil(factor);
        let mut events = vec![vec![0u64; self.instances as usize]; quanta];
        for (q, row) in self.events.iter().enumerate() {
            let target = q / factor;
            for (i, e) in row.iter().enumerate() {
                events[target][i] += e;
            }
        }
        WorkloadTrace {
            events,
            // Fewer, proportionally bigger messages.
            mean_batch_bytes: self.mean_batch_bytes * factor as f64,
            samples_per_instance: self.samples_per_instance,
            instances: self.instances,
            quanta,
            values_per_sample: self.values_per_sample,
        }
    }

    /// Restricts the trace to the first `n` instances.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the recorded instance count.
    pub fn take_instances(&self, n: u64) -> WorkloadTrace {
        assert!(
            n <= self.instances,
            "cannot take more instances than recorded"
        );
        WorkloadTrace {
            events: self
                .events
                .iter()
                .map(|row| row[..n as usize].to_vec())
                .collect(),
            mean_batch_bytes: self.mean_batch_bytes,
            samples_per_instance: self.samples_per_instance,
            instances: n,
            quanta: self.quanta,
            values_per_sample: self.values_per_sample,
        }
    }
}

/// Measured unit costs on this machine's reference core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per SSA event (simulation).
    pub sec_per_event: f64,
    /// Seconds per analysed value (statistics, per instance per cut).
    pub sec_per_stat_value: f64,
    /// Seconds per sample handled by the alignment stage.
    pub sec_per_aligned_sample: f64,
}

impl CostModel {
    /// Measures costs by timing the real engine and analysis code.
    pub fn measure(model: Arc<Model>) -> CostModel {
        // Simulation cost: run one instance for a fixed event budget
        // (through the engine abstraction, one event per step on the
        // reference SSA integrator).
        let mut engine = gillespie::engine::EngineKind::Ssa
            .build(Arc::clone(&model), 12345, 0)
            .expect("SSA drives any model");
        let start = Instant::now();
        let mut fired = 0u64;
        while fired < 20_000 {
            match engine.step() {
                gillespie::engine::EngineStep::Advanced { events, .. } => fired += events,
                gillespie::engine::EngineStep::Exhausted => break,
            }
        }
        let sec_per_event = if fired == 0 {
            1e-6
        } else {
            start.elapsed().as_secs_f64() / fired as f64
        };

        // Statistics cost: analyse synthetic cuts of a known width with
        // the paper's full engine set (mean/variance, k-means, quantiles).
        let set = StatEngineSet::new(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 3 },
            StatEngineKind::Quantile { p: 0.5 },
        ]);
        let width = 512usize;
        let cut = Cut {
            time: 0.0,
            values: (0..width)
                .map(|i| Row::from_slice(&[i as u64, (i * 7) as u64]))
                .collect(),
        };
        let reps = 200;
        let start = Instant::now();
        for _ in 0..reps {
            let row = set.analyse_cut(&cut);
            std::hint::black_box(row);
        }
        // Two observables per value row.
        let values = (reps * width * 2) as f64;
        let sec_per_stat_value = start.elapsed().as_secs_f64() / values;

        CostModel {
            sec_per_event,
            sec_per_stat_value,
            // Alignment moves one sample through a BTree slot: comparable
            // to a stat value touch.
            sec_per_aligned_sample: sec_per_stat_value,
        }
    }

    /// A fixed cost model for deterministic tests (1 µs/event, 50 ns/value).
    pub fn nominal() -> CostModel {
        CostModel {
            sec_per_event: 1e-6,
            sec_per_stat_value: 5e-8,
            sec_per_aligned_sample: 1e-7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;

    #[test]
    fn recorded_trace_matches_real_event_totals() {
        let model = Arc::new(decay(50, 1.0));
        let trace = WorkloadTrace::record(Arc::clone(&model), 4, 7, 0.0, 3.0, 0.5, 0.25);
        assert_eq!(trace.instances, 4);
        assert_eq!(trace.quanta, 6);
        // decay(50) fires at most 50 events per instance.
        let per_instance: Vec<u64> = (0..4)
            .map(|i| trace.events.iter().map(|row| row[i]).sum())
            .collect();
        assert!(per_instance.iter().all(|&e| e <= 50));
        assert!(trace.total_events() > 0);
        assert!(trace.mean_batch_bytes > 0.0);
        assert_eq!(trace.samples_per_instance, 13); // 0..=3.0 step 0.25
        assert_eq!(trace.values_per_sample, model.observables.len());
    }

    #[test]
    fn trace_is_deterministic_for_fixed_seed() {
        let model = Arc::new(decay(30, 1.0));
        let a = WorkloadTrace::record(Arc::clone(&model), 3, 5, 0.0, 2.0, 0.5, 0.25);
        let b = WorkloadTrace::record(model, 3, 5, 0.0, 2.0, 0.5, 0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_neurospora_trace_keeps_its_bits() {
        // Pins the DES input bit for bit (events, batch sizes, sample
        // count) across refactors of the quantum runner `record` drives.
        let model = Arc::new(biomodels::neurospora_flat(
            biomodels::NeurosporaParams::default(),
        ));
        let trace = WorkloadTrace::record(model, 3, 2014, 2.0, 4.0, 1.0, 0.25);
        // FNV-1a over the event matrix, quantum-major.
        let digest = trace
            .events
            .iter()
            .flatten()
            .flat_map(|e| e.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!((trace.quanta, trace.instances), (4, 3));
        assert_eq!(
            digest, 13_540_245_275_620_362_241,
            "events {:?}",
            trace.events
        );
        assert_eq!(trace.mean_batch_bytes.to_bits(), 4_641_276_075_354_095_616);
        assert_eq!(trace.samples_per_instance, 17); // 2.0..=6.0 step 0.25
    }

    #[test]
    fn record_compiles_the_model_once() {
        let model = Arc::new(decay(30, 1.0));
        let before = ModelDeps::thread_compile_count();
        let trace = WorkloadTrace::record(model, 16, 5, 0.0, 1.0, 0.5, 0.25);
        assert_eq!(trace.instances, 16);
        assert_eq!(ModelDeps::thread_compile_count(), before + 1);
    }

    #[test]
    fn synthetic_trace_has_requested_shape() {
        let t = WorkloadTrace::synthetic(16, 10, 100.0);
        assert_eq!(t.events.len(), 10);
        assert_eq!(t.events[0].len(), 16);
        let total = t.total_events();
        let mean = total as f64 / 160.0;
        assert!((mean / 100.0 - 1.0).abs() < 0.8, "mean {mean}");
        // Imbalance across instances must exist (the whole point).
        let i_tot: Vec<u64> = (0..16)
            .map(|i| t.events.iter().map(|r| r[i]).sum())
            .collect();
        let min = *i_tot.iter().min().expect("non-empty");
        let max = *i_tot.iter().max().expect("non-empty");
        assert!(max > 2 * min, "no imbalance: {i_tot:?}");
    }

    #[test]
    fn coarsen_preserves_totals_and_merges_quanta() {
        let t = WorkloadTrace::synthetic(6, 10, 40.0);
        let c = t.coarsen(3);
        assert_eq!(c.quanta, 4); // ceil(10/3)
        assert_eq!(c.total_events(), t.total_events());
        assert_eq!(c.instances, t.instances);
        // First coarse quantum = sum of fine quanta 0..3.
        for i in 0..6 {
            let expect: u64 = (0..3).map(|q| t.events[q][i]).sum();
            assert_eq!(c.events[0][i], expect);
        }
    }

    #[test]
    fn coarsen_by_one_is_identity_on_events() {
        let t = WorkloadTrace::synthetic(4, 5, 20.0);
        let c = t.coarsen(1);
        assert_eq!(c.events, t.events);
    }

    #[test]
    fn take_instances_restricts_columns() {
        let t = WorkloadTrace::synthetic(8, 4, 10.0);
        let t2 = t.take_instances(3);
        assert_eq!(t2.instances, 3);
        assert_eq!(t2.events[0].len(), 3);
        assert_eq!(t2.events[0][..3], t.events[0][..3]);
    }

    #[test]
    fn measured_costs_are_positive_and_sane() {
        let model = Arc::new(decay(100_000, 1.0));
        let c = CostModel::measure(model);
        assert!(c.sec_per_event > 0.0 && c.sec_per_event < 1e-2);
        assert!(c.sec_per_stat_value > 0.0 && c.sec_per_stat_value < 1e-3);
        assert!(c.sec_per_aligned_sample > 0.0);
    }
}
