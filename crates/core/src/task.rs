//! Stream message types of the simulation pipeline.
//!
//! The unit of work — one quantum of one instance — is
//! [`gillespie::task::SimTask`], and what it produces a
//! [`gillespie::task::SampleBatch`]: they hold only engine, clock and row
//! state, so they live with the engines, where every back-end (this
//! farm, the simulated GPGPU map, the platform models' trace recorder)
//! reaches them. They are re-exported here, like [`batch_spans`], so the
//! farm's message types keep one path: `cwcsim::task::{SimTask,
//! SampleBatch}`.
//!
//! What stays here is the farm's one task type, [`BatchSimTask`]: a span
//! of consecutive instances.

use std::sync::Arc;

use cwc::model::Model;
pub use gillespie::batch::batch_spans;
use gillespie::deps::ModelDeps;
use gillespie::engine::{Engine, EngineError, EngineKind};
pub use gillespie::task::{SampleBatch, SimTask};

/// A farm task: a span of consecutive instances, one [`SimTask`] each,
/// advanced one quantum each per visit.
///
/// Task generation ([`crate::sim_farm::sim_farm`]) chunks the instance
/// range into spans with [`batch_spans`] — `width` instances wide with
/// [`EngineKind::Batched`], one instance wide with every other kind — and
/// the sim workers pull whole spans through the feedback cycle. Every
/// replica is the task of its own instance, so its sample stream and
/// event count never depend on the span it travels in.
#[derive(Debug, Clone)]
pub struct BatchSimTask {
    /// The replicas, in instance order.
    pub tasks: Vec<SimTask>,
}

impl BatchSimTask {
    /// Creates the span of scalar direct-method replicas
    /// `first_instance .. first_instance + width` (the tasks
    /// [`EngineKind::Batched`] runs), sharing an already-compiled
    /// dependency graph across the run's tasks.
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

    /// Selects the kernels of every replica's propensity rows (scalar /
    /// SIMD / auto-detected; see [`gillespie::KernelDispatch`]), whatever
    /// its engine. Purely a throughput knob — every kernel produces
    /// bit-for-bit the same trajectories.
    #[must_use]
    pub fn with_kernel_dispatch(mut self, dispatch: gillespie::KernelDispatch) -> Self {
        self.tasks = self
            .tasks
            .into_iter()
            .map(|task| SimTask {
                engine: match task.engine {
                    Engine::Ssa(engine) => Engine::Ssa(engine.with_kernel_dispatch(dispatch)),
                    Engine::AdaptiveTau(engine) => {
                        Engine::AdaptiveTau(Box::new(engine.with_kernel_dispatch(dispatch)))
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;

    #[test]
    fn batch_task_quanta_equal_scalar_task_quanta_bit_for_bit() {
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

        // A span of another kind gets the dispatch too.
        let kind = EngineKind::AdaptiveTau { epsilon: 0.03 };
        let task = SimTask::with_engine_deps(kind, model, deps, 42, 0, 2.0, 0.5, 0.25).unwrap();
        let span = BatchSimTask { tasks: vec![task] }.with_kernel_dispatch(KernelDispatch::Scalar);
        match &span.tasks[0].engine {
            Engine::AdaptiveTau(engine) => {
                assert_eq!(engine.kernel_dispatch(), KernelDispatch::Scalar);
            }
            other => panic!("expected an adaptive engine, got {}", other.kind()),
        }
    }
}
