//! Stream message types of the simulation pipeline.
//!
//! "The first stage generates a number of independent simulation tasks,
//! each of them wrapped in a C++ object" — here, [`SimTask`]: the engine
//! state plus its sampling clock, shipped between the master and the farm
//! workers along the feedback cycle.
//!
//! A task is *engine-agnostic*: it wraps whichever [`Engine`] the run's
//! [`EngineKind`] built — exact direct method, adaptive tau-leaping, or
//! the hybrid SSA/tau engine — behind the same
//! advance-one-quantum contract, so the farm, its shards and the GPGPU
//! map schedule every integrator identically.

use std::sync::Arc;

use cwc::model::Model;
pub use gillespie::batch::batch_spans;
use gillespie::deps::ModelDeps;
use gillespie::engine::{Engine, EngineError, EngineKind};
use gillespie::ssa::SampleClock;
use gillespie::trajectory::Row;

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
    /// adaptive tau-leaping on a compartment model).
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

    /// Runs one quantum and packs it as the instance's [`SampleBatch`]
    /// (the unit the farm forwards towards alignment).
    pub fn run_quantum_batch(&mut self) -> SampleBatch {
        let mut samples = Vec::new();
        let events = self.run_quantum(&mut samples);
        SampleBatch {
            instance: self.instance(),
            samples,
            events,
            finished: self.is_done(),
        }
    }

    /// Runs one quantum, appending produced samples to `out`.
    ///
    /// Returns the number of reactions fired in the quantum.
    pub fn run_quantum(&mut self, out: &mut Vec<(f64, Row)>) -> u64 {
        let horizon = self.next_quantum_end();
        // The clock knows the quantum's sample count: grow `out` once, then
        // push each sample's inline row straight into it (the farm's
        // hottest loop) instead of collecting an intermediate
        // QuantumOutcome.
        out.reserve(self.clock.due_by(horizon));
        self.engine
            .run_sampled(horizon, &mut self.clock, |t, values| {
                out.push((t, Row::from_slice(values)))
            })
    }
}

/// A farm task of `width` consecutive instances — the unit of scheduling
/// of [`EngineKind::Batched`]: one scalar direct-method [`SimTask`] per
/// replica, advanced one quantum each per visit.
///
/// With [`EngineKind::Batched`], the task generation stage chunks the
/// instance range into `ceil(instances / width)` of these
/// ([`batch_spans`]), and the sim workers pull whole tasks through the
/// feedback cycle instead of single instances. Every replica *is* the
/// scalar SSA task of its instance, so its sample stream and event count
/// are what the run would produce with [`EngineKind::Ssa`].
#[derive(Debug, Clone)]
pub struct BatchSimTask {
    /// The replicas, in instance order.
    pub tasks: Vec<SimTask>,
}

impl BatchSimTask {
    /// Creates the task for replicas `first_instance ..
    /// first_instance + width`, sharing an already-compiled dependency
    /// graph across the run's tasks.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the direct method cannot drive
    /// `model` (it drives every valid model).
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
        let tasks = (first_instance..first_instance + width as u64)
            .map(|instance| {
                SimTask::with_engine_deps(
                    EngineKind::Ssa,
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    base_seed,
                    instance,
                    t_end,
                    quantum,
                    sample_period,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(BatchSimTask { tasks })
    }

    /// Selects the kernels of every replica's propensity row (scalar /
    /// SIMD / auto-detected; see [`gillespie::KernelDispatch`]). Purely a
    /// throughput knob — every kernel produces bit-for-bit the same
    /// trajectories.
    #[must_use]
    pub fn with_kernel_dispatch(mut self, dispatch: gillespie::KernelDispatch) -> Self {
        self.tasks = self
            .tasks
            .into_iter()
            .map(|task| SimTask {
                engine: match task.engine {
                    Engine::Ssa(engine) => Engine::Ssa(engine.with_kernel_dispatch(dispatch)),
                    other => other,
                },
                ..task
            })
            .collect();
        self
    }

    /// True when every replica reached the horizon.
    pub fn is_done(&self) -> bool {
        self.tasks.iter().all(SimTask::is_done)
    }

    /// Runs one quantum of every replica; returns one [`SampleBatch`] per
    /// replica, in replica (= instance) order, each carrying that
    /// replica's quantum samples and event count.
    pub fn run_quantum(&mut self) -> Vec<SampleBatch> {
        self.tasks
            .iter_mut()
            .map(SimTask::run_quantum_batch)
            .collect()
    }
}

/// A batch of samples produced by one quantum of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    /// The trajectory that produced the samples.
    pub instance: u64,
    /// `(grid time, observable values)` pairs, in time order.
    pub samples: Vec<(f64, Row)>,
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

        // A flat model (dense core) and a compartment model with division
        // and death (tree core, structural rebuilds).
        let models = [
            Arc::new(decay(25, 1.0)),
            Arc::new(biomodels::cell_transport(
                biomodels::CellTransportParams::default(),
            )),
        ];
        for model in models {
            let deps = Arc::new(ModelDeps::compile(&model));
            for width in [1usize, 3, 8] {
                let first = 2;
                let mut batch = BatchSimTask::with_engine_deps(
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    42,
                    first,
                    width,
                    2.0,
                    0.5,
                    0.25,
                )
                .unwrap();
                let mut scalars: Vec<SimTask> = (first..first + width as u64)
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
                let name = &model.name;
                let mut events = 0;
                while !batch.is_done() {
                    let batches = batch.run_quantum();
                    assert_eq!(batches.len(), width);
                    for (r, b) in batches.iter().enumerate() {
                        let mut samples = Vec::new();
                        let scalar_events = scalars[r].run_quantum(&mut samples);
                        assert_eq!(b.instance, first + r as u64);
                        assert_eq!(b.samples, samples, "{name} w{width} replica {r}");
                        assert_eq!(b.events, scalar_events, "{name} w{width} replica {r}");
                        assert_eq!(b.finished, scalars[r].is_done(), "{name} w{width}");
                        events += b.events;
                    }
                }
                assert!(scalars.iter().all(SimTask::is_done));
                assert!(events > 0, "{name} w{width} never fired");
            }
        }
    }

    #[test]
    fn batch_task_kernel_dispatch_reaches_every_replica_row() {
        use gillespie::kernels::Kernel;
        use gillespie::KernelDispatch;

        let model = Arc::new(decay(25, 1.0));
        let deps = Arc::new(gillespie::deps::ModelDeps::compile(&model));
        let replicas = |dispatch| {
            BatchSimTask::with_engine_deps(
                Arc::clone(&model),
                Arc::clone(&deps),
                42,
                0,
                3,
                2.0,
                0.5,
                0.25,
            )
            .unwrap()
            .with_kernel_dispatch(dispatch)
            .tasks
            .into_iter()
            .map(|task| match task.engine {
                Engine::Ssa(engine) => engine.kernel(),
                other => panic!("a batch replica is SSA, got {}", other.kind()),
            })
            .collect::<Vec<_>>()
        };
        assert_eq!(replicas(KernelDispatch::Scalar), [Kernel::Scalar; 3]);
        assert_eq!(
            replicas(KernelDispatch::Simd),
            [KernelDispatch::Simd.resolve(); 3]
        );
    }

    #[test]
    fn tau_leap_task_rejects_compartment_models() {
        // The leaping tier is adaptive tau-leaping; it needs a flat model.
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        let err = SimTask::with_engine(
            EngineKind::AdaptiveTau { epsilon: 0.05 },
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
