//! Stream message types of the simulation pipeline.
//!
//! "The first stage generates a number of independent simulation tasks,
//! each of them wrapped in a C++ object" — here, [`SimTask`]: the engine
//! state plus its sampling clock, shipped between the master and the farm
//! workers along the feedback cycle.
//!
//! A task is *engine-agnostic*: it wraps whichever [`Engine`] the run's
//! [`EngineKind`] built — exact direct method, fixed or adaptive
//! tau-leaping, or the hybrid SSA/tau engine — behind the same
//! advance-one-quantum contract, so the farm, its shards and the GPGPU
//! map schedule every integrator identically.

use std::sync::Arc;

use cwc::model::Model;
pub use gillespie::batch::batch_spans;
use gillespie::batch::BatchedSsaEngine;
use gillespie::deps::ModelDeps;
use gillespie::engine::{Engine, EngineError, EngineKind};
use gillespie::ssa::SampleClock;

/// A simulation task: one trajectory's engine state and sampling clock.
///
/// The task object travels master → worker → (feedback) → master until its
/// engine reaches the time horizon.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// The stochastic engine (state, time, RNG — the whole instance).
    pub engine: Engine,
    /// Persistent τ-grid clock (survives quantum boundaries).
    pub clock: SampleClock,
    /// Time horizon of the run.
    pub t_end: f64,
    /// Quantum length Q.
    pub quantum: f64,
}

impl SimTask {
    /// Creates a direct-method (SSA) task for `instance`, sampling every
    /// `sample_period` — the paper's default integrator.
    pub fn new(
        model: Arc<Model>,
        base_seed: u64,
        instance: u64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Self {
        Self::with_engine(
            EngineKind::Ssa,
            model,
            base_seed,
            instance,
            t_end,
            quantum,
            sample_period,
        )
        .expect("SSA engine construction is infallible")
    }

    /// Creates the task for `instance` with the configured engine kind,
    /// compiling the model's dependency graph locally. The task generation
    /// stage uses [`SimTask::with_engine_deps`] to compile once per run
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `kind` cannot drive `model` (e.g.
    /// tau-leaping on a compartment model).
    #[allow(clippy::too_many_arguments)]
    pub fn with_engine(
        kind: EngineKind,
        model: Arc<Model>,
        base_seed: u64,
        instance: u64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Result<Self, EngineError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_engine_deps(
            kind,
            model,
            deps,
            base_seed,
            instance,
            t_end,
            quantum,
            sample_period,
        )
    }

    /// Creates the task for `instance`, sharing an already-compiled
    /// dependency graph across the run's instances (the model is compiled
    /// once per run, not once per trajectory — see
    /// [`ModelDeps::compile`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `kind` cannot drive `model`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_engine_deps(
        kind: EngineKind,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Result<Self, EngineError> {
        Ok(SimTask {
            engine: kind.build_with_deps(model, deps, base_seed, instance)?,
            clock: SampleClock::new(0.0, sample_period),
            t_end,
            quantum,
        })
    }

    /// Instance id of the wrapped trajectory.
    pub fn instance(&self) -> u64 {
        self.engine.instance()
    }

    /// True when the trajectory reached its horizon.
    pub fn is_done(&self) -> bool {
        self.engine.time() >= self.t_end
    }

    /// End of the next quantum (capped at the horizon).
    pub fn next_quantum_end(&self) -> f64 {
        (self.engine.time() + self.quantum).min(self.t_end)
    }

    /// Runs one quantum, appending produced samples to `out`.
    ///
    /// Returns the number of reactions fired in the quantum.
    pub fn run_quantum(&mut self, out: &mut Vec<(f64, Vec<u64>)>) -> u64 {
        let horizon = self.next_quantum_end();
        // Push straight into `out` (the farm's hottest loop) instead of
        // collecting an intermediate QuantumOutcome.
        self.engine
            .run_sampled(horizon, &mut self.clock, |t, values| {
                out.push((t, values.to_vec()))
            })
    }
}

/// A simulation task that advances a whole *batch* of trajectories per
/// quantum: the batched-tier counterpart of [`SimTask`], carrying one
/// [`BatchedSsaEngine`] and one sampling clock per replica.
///
/// With [`EngineKind::Batched`], the task generation stage chunks the
/// instance range into `ceil(instances / width)` of these, and the sim
/// workers pull whole batches through the feedback cycle instead of single
/// instances. Every replica's sample stream and event count is bit-for-bit
/// what the scalar [`SimTask`] of the same instance would produce.
#[derive(Debug, Clone)]
pub struct BatchSimTask {
    /// The batched engine (SoA state, per-replica RNG streams).
    pub engine: BatchedSsaEngine,
    /// Persistent τ-grid clocks, one per replica (survive quantum
    /// boundaries).
    pub clocks: Vec<SampleClock>,
    /// Time horizon of the run.
    pub t_end: f64,
    /// Quantum length Q.
    pub quantum: f64,
}

impl BatchSimTask {
    /// Creates the task for replicas `first_instance ..
    /// first_instance + width`, sharing an already-compiled dependency
    /// graph across the run's batches.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the model is not flat mass-action
    /// (the error names the offending rule).
    #[allow(clippy::too_many_arguments)]
    pub fn with_engine_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        first_instance: u64,
        width: usize,
        t_end: f64,
        quantum: f64,
        sample_period: f64,
    ) -> Result<Self, EngineError> {
        Ok(BatchSimTask {
            engine: BatchedSsaEngine::with_deps(model, deps, base_seed, first_instance, width)?,
            clocks: (0..width)
                .map(|_| SampleClock::new(0.0, sample_period))
                .collect(),
            t_end,
            quantum,
        })
    }

    /// Selects the engine's kernels (scalar / SIMD / auto-detected; see
    /// [`gillespie::KernelDispatch`]). Purely a throughput knob — every
    /// kernel produces bit-for-bit the same trajectories.
    #[must_use]
    pub fn with_kernel_dispatch(mut self, dispatch: gillespie::KernelDispatch) -> Self {
        self.engine = self.engine.with_kernel_dispatch(dispatch);
        self
    }

    /// Instance id of the batch's first replica.
    pub fn first_instance(&self) -> u64 {
        self.engine.first_instance()
    }

    /// Number of replicas in the batch.
    pub fn width(&self) -> usize {
        self.engine.width()
    }

    /// True when every replica reached the horizon (the batch is in
    /// lockstep, so one time comparison covers them all).
    pub fn is_done(&self) -> bool {
        self.engine.time() >= self.t_end
    }

    /// End of the next quantum (capped at the horizon).
    pub fn next_quantum_end(&self) -> f64 {
        (self.engine.time() + self.quantum).min(self.t_end)
    }

    /// Runs one quantum across the whole batch; returns one finished
    /// [`SampleBatch`] per replica, in replica (= instance) order, each
    /// carrying that replica's quantum samples and event count.
    pub fn run_quantum(&mut self) -> Vec<SampleBatch> {
        let horizon = self.next_quantum_end();
        let outcomes = self.engine.advance_quantum_batch(horizon, &mut self.clocks);
        let finished = self.is_done();
        outcomes
            .into_iter()
            .enumerate()
            .map(|(r, o)| SampleBatch {
                instance: self.engine.instance(r),
                samples: o.samples,
                events: o.events,
                finished,
            })
            .collect()
    }
}

/// A batch of samples produced by one quantum of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    /// The trajectory that produced the samples.
    pub instance: u64,
    /// `(grid time, observable values)` pairs, in time order.
    pub samples: Vec<(f64, Vec<u64>)>,
    /// Reactions fired during the quantum (for workload accounting).
    pub events: u64,
    /// True when this is the instance's final batch.
    pub finished: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;

    fn task() -> SimTask {
        SimTask::new(Arc::new(decay(20, 1.0)), 42, 0, 2.0, 0.5, 0.25)
    }

    #[test]
    fn quantum_advances_time_and_emits_samples() {
        let mut t = task();
        let mut out = Vec::new();
        t.run_quantum(&mut out);
        assert_eq!(t.engine.time(), 0.5);
        // Grid 0, 0.25, 0.5 -> 3 samples in the first quantum.
        assert_eq!(out.len(), 3);
        assert!(!t.is_done());
    }

    #[test]
    fn task_completes_after_enough_quanta() {
        let mut t = task();
        let mut all = Vec::new();
        let mut quanta = 0;
        while !t.is_done() {
            t.run_quantum(&mut all);
            quanta += 1;
            assert!(quanta <= 4, "2.0 horizon / 0.5 quantum = 4 quanta");
        }
        assert_eq!(quanta, 4);
        // Grid 0, 0.25, ..., 2.0 -> 9 samples.
        assert_eq!(all.len(), 9);
        let times: Vec<f64> = all.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantum_end_caps_at_horizon() {
        let mut t = task();
        t.quantum = 1.5;
        let mut out = Vec::new();
        t.run_quantum(&mut out);
        assert_eq!(t.engine.time(), 1.5);
        t.run_quantum(&mut out);
        assert_eq!(t.engine.time(), 2.0); // capped, not 3.0
        assert!(t.is_done());
    }

    #[test]
    fn quantised_task_equals_monolithic_run() {
        // The paper's load-rebalancing slicing must not change results.
        let mut sliced = task();
        let mut sliced_samples = Vec::new();
        while !sliced.is_done() {
            sliced.run_quantum(&mut sliced_samples);
        }
        let mut whole = task();
        whole.quantum = 1e9;
        let mut whole_samples = Vec::new();
        whole.run_quantum(&mut whole_samples);
        assert_eq!(sliced_samples, whole_samples);
        assert_eq!(sliced.engine.term(), whole.engine.term());
    }

    #[test]
    fn every_engine_kind_is_sliceable() {
        // The quantum contract holds per engine kind, not just for SSA.
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.07 },
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mk = || {
                SimTask::with_engine(kind, Arc::new(decay(20, 1.0)), 42, 0, 2.0, 0.5, 0.25).unwrap()
            };
            let mut sliced = mk();
            let mut ss = Vec::new();
            while !sliced.is_done() {
                sliced.run_quantum(&mut ss);
            }
            let mut whole = mk();
            whole.quantum = 1e9;
            let mut ws = Vec::new();
            whole.run_quantum(&mut ws);
            assert_eq!(ss, ws, "{kind}");
            assert_eq!(sliced.engine.observe(), whole.engine.observe(), "{kind}");
        }
    }

    #[test]
    fn batch_task_quanta_equal_scalar_task_quanta_bit_for_bit() {
        use gillespie::deps::ModelDeps;

        let model = Arc::new(decay(25, 1.0));
        let deps = Arc::new(ModelDeps::compile(&model));
        let width = 4usize;
        let mut batch = BatchSimTask::with_engine_deps(
            Arc::clone(&model),
            Arc::clone(&deps),
            42,
            0,
            width,
            2.0,
            0.5,
            0.25,
        )
        .unwrap();
        let mut scalars: Vec<SimTask> = (0..width as u64)
            .map(|i| {
                SimTask::with_engine_deps(
                    EngineKind::Ssa,
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    42,
                    i,
                    2.0,
                    0.5,
                    0.25,
                )
                .unwrap()
            })
            .collect();
        while !batch.is_done() {
            let batches = batch.run_quantum();
            assert_eq!(batches.len(), width);
            for (r, b) in batches.iter().enumerate() {
                let mut samples = Vec::new();
                let events = scalars[r].run_quantum(&mut samples);
                assert_eq!(b.instance, r as u64);
                assert_eq!(b.samples, samples, "replica {r}");
                assert_eq!(b.events, events, "replica {r}");
                assert_eq!(b.finished, scalars[r].is_done(), "replica {r}");
            }
        }
        assert!(scalars.iter().all(SimTask::is_done));
    }

    #[test]
    fn batch_task_rejects_compartment_models_naming_the_rule() {
        use gillespie::deps::ModelDeps;
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        let deps = Arc::new(ModelDeps::compile(&model));
        let err = BatchSimTask::with_engine_deps(model, deps, 1, 0, 4, 1.0, 0.5, 0.25).unwrap_err();
        assert!(err.to_string().contains('`'), "{err}");
    }

    #[test]
    fn tau_leap_task_rejects_compartment_models() {
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        let err = SimTask::with_engine(
            EngineKind::TauLeap { tau: 0.1 },
            model,
            1,
            0,
            1.0,
            0.5,
            0.25,
        );
        assert!(err.is_err());
    }
}
