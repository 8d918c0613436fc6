//! The unit of work of every back-end: one simulation quantum of one
//! instance.
//!
//! "The first stage generates a number of independent simulation tasks,
//! each of them wrapped in a C++ object" — here, [`SimTask`]: the engine
//! state plus its sampling clock. The CPU farm ships it between master and
//! workers along the feedback cycle, the simulated GPGPU map keeps one per
//! lane, and the sequential reference and the platform models' trace
//! recorder step it in a loop: [`SimTask::run_quantum`] is the only
//! quantum runner, and a [`SampleBatch`] the only thing a quantum produces.
//!
//! A task is *engine-agnostic*: it wraps whichever [`Engine`] the run's
//! [`EngineKind`] built — the direct method (with or without a leap
//! policy) or adaptive tau-leaping — behind the same
//! advance-one-quantum contract, so every back-end schedules every
//! integrator identically.

use std::sync::Arc;

use cwc::model::Model;

use crate::deps::ModelDeps;
use crate::engine::{Engine, EngineError, EngineKind};
use crate::ssa::SampleClock;
use crate::trajectory::Row;

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
    /// Creates the task for `instance` with the configured engine kind,
    /// sharing an already-compiled dependency graph across the run's
    /// instances (the model is compiled once per run, not once per
    /// trajectory — see [`ModelDeps::compile`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when `kind` cannot drive `model` (e.g.
    /// adaptive tau-leaping on a compartment model).
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

    /// Runs one quantum and packs it as the instance's [`SampleBatch`]
    /// (the unit the farm forwards towards alignment).
    #[inline]
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

    /// Runs one quantum (capped at the horizon), appending produced
    /// samples to `out`.
    ///
    /// Returns the number of reactions fired in the quantum.
    ///
    /// `#[inline]` (here and on [`SimTask::run_quantum_batch`]) lets the
    /// engine loop this instantiates be compiled in the calling crate, next
    /// to the farm worker: compiled inside this crate instead, the
    /// Neurospora farm ran ≈ 4 % slower end to end (2-vCPU Xeon, default
    /// release profile).
    #[inline]
    pub fn run_quantum(&mut self, out: &mut Vec<(f64, Row)>) -> u64 {
        let horizon = (self.engine.time() + self.quantum).min(self.t_end);
        // The clock knows the quantum's sample count: grow `out` once, then
        // push each sample's inline row straight into it (the farm's
        // hottest loop).
        out.reserve(self.clock.due_by(horizon));
        self.engine
            .run_sampled(horizon, &mut self.clock, |t, values| {
                out.push((t, Row::from_slice(values)))
            })
    }
}

/// A batch of samples produced by one quantum of one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    /// The trajectory that produced the samples.
    pub instance: u64,
    /// `(grid time, observable values)` pairs, in time order.
    pub samples: Vec<(f64, Row)>,
    /// Reactions fired during the quantum (for workload accounting; a
    /// leap counts every firing it commits).
    pub events: u64,
    /// True when this is the instance's final batch.
    pub finished: bool,
}

impl SampleBatch {
    /// The forwarding rule of every back-end: a batch travels downstream
    /// only when it carries samples or finishes its trajectory, so the
    /// sample streams do not depend on the unit of scheduling. (A quantum
    /// shorter than the sampling period can fire events and emit nothing;
    /// its events are counted where it ran.)
    pub fn should_forward(&self) -> bool {
        !self.samples.is_empty() || self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay() -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 20);
        m.observe("A", a);
        Arc::new(m)
    }

    fn task_of(kind: EngineKind, model: Arc<Model>) -> Result<SimTask, EngineError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        SimTask::with_engine_deps(kind, model, deps, 42, 0, 2.0, 0.5, 0.25)
    }

    fn task() -> SimTask {
        task_of(EngineKind::Ssa, decay()).unwrap()
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
            let mk = || task_of(kind, decay()).unwrap();
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
    fn tau_leap_task_rejects_compartment_models() {
        // The leaping tier is adaptive tau-leaping; it needs a flat model.
        let mut m = Model::new("comp");
        m.rule("r")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let a = m.species("A");
        m.observe("A", a);
        let err = task_of(EngineKind::AdaptiveTau { epsilon: 0.05 }, Arc::new(m));
        assert!(err.is_err());
    }
}
