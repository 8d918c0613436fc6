//! Engine-agnostic quantum execution: the seam between the stochastic
//! integrators and every parallel back-end.
//!
//! The paper's architecture is deliberately engine-neutral — the farm of
//! "sim eng" boxes only requires that a task advance by one simulation
//! quantum and emit samples on the τ grid. This module packages the three
//! integrators of this crate behind the concrete [`Engine`] enum, so tasks
//! stay `Clone + Send` without boxing and every downstream layer (task
//! farm, sharded farm, simulated GPGPU, benchmarks) is written
//! once against it. The enum is the only dispatch mechanism: there is no
//! engine trait, and a new integrator is a new variant.
//!
//! [`EngineKind::Batched`] is the direct method with a coarser farm task
//! (see [`crate::batch`]): every replica it builds is an [`Engine::Ssa`].
//!
//! [`EngineKind`] is the *configuration-level* selector — a small `Copy`
//! value that travels in `SimConfig` and across the wire to remote farms —
//! and [`EngineKind::build`] is the only place engines are constructed.
//! Prefer the validated constructors ([`EngineKind::adaptive_tau`],
//! [`EngineKind::hybrid`], [`EngineKind::batched`]) over struct literals:
//! they reject bad knobs at construction instead of at run start.
//!
//! ## The quantum contract
//!
//! An engine advanced to `t_goal` in any number of slices must produce the
//! same trajectory, samples and event counts as one monolithic run: the
//! exact engine keeps its drawn-but-unfired event pending across
//! boundaries, the adaptive engine keeps its drawn-but-uncommitted
//! leap/transition pending, and the hybrid engine additionally pins its
//! phase-switch points to reaction counts rather than horizons. The unit
//! and property tests of each engine module pin this down; the pipeline's
//! seq-vs-par bit-for-bit tests rely on it.

use std::fmt;
use std::sync::Arc;

use cwc::model::Model;
use cwc::term::Term;

use crate::adaptive::AdaptiveTauEngine;
use crate::deps::ModelDeps;
use crate::flat::FlatModelError;
use crate::hybrid::HybridEngine;
use crate::ssa::{SampleClock, SsaEngine, StepOutcome};

/// Everything one quantum of one instance produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumOutcome {
    /// `(grid time, observable values)` pairs emitted in the quantum,
    /// in time order.
    pub samples: Vec<(f64, Vec<u64>)>,
    /// Reaction firings committed during the quantum (for workload
    /// accounting; a leap counts every firing it commits).
    pub events: u64,
}

/// Configuration-level engine selector.
///
/// A plain `Copy` value: it lives in the simulation config, crosses the
/// wire to remote farms, and is the single source of truth for which
/// integrator a run uses. Construct engines with [`EngineKind::build`].
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
/// use gillespie::engine::EngineKind;
/// use std::sync::Arc;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
/// m.initial.add_atoms(a, 50);
/// m.observe("A", a);
///
/// let mut engine = EngineKind::AdaptiveTau { epsilon: 0.03 }
///     .build(Arc::new(m), 42, 0)
///     .unwrap();
/// engine.run_until(2.0);
/// assert!(engine.observe()[0] <= 50);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum EngineKind {
    /// Gillespie's exact direct method (the paper's integrator). Works on
    /// any CWC model, compartments included.
    #[default]
    Ssa,
    /// Adaptive tau-leaping: Cao–Gillespie–Petzold step-size selection
    /// with critical-reaction partitioning and an exact-SSA fallback.
    /// Flat, top-level, mass-action models only (StochKit's alternative
    /// integrator, an extension beyond the paper). Every leap length is
    /// chosen from the state; there is none for the user to pick.
    AdaptiveTau {
        /// Relative-propensity-change bound ε (Cao et al. recommend
        /// 0.03–0.05; must be in `(0, 1)`).
        epsilon: f64,
    },
    /// Hybrid exact/approximate: dense-core SSA segments with
    /// CGP-sized Poisson leaps when propensities stratify. Flat,
    /// top-level, mass-action models only.
    Hybrid {
        /// Relative-propensity-change bound ε of the leap phase.
        epsilon: f64,
        /// Expected firings per candidate leap above which the engine
        /// leaves the exact phase (must be finite and ≥ 1).
        threshold: f64,
    },
    /// The direct method with a coarser task grain: the farm schedules
    /// `width` consecutive instances per task (see [`crate::batch`]), and
    /// each replica is stepped by the scalar [`EngineKind::Ssa`] engine of
    /// its instance. Accepts every model SSA accepts.
    Batched {
        /// Instances per farm task (must be ≥ 1). Instances are chunked
        /// into `ceil(instances / width)` tasks; the last may be narrower.
        width: usize,
    },
}

impl EngineKind {
    /// Short stable name, for tables, CSV headers and CLIs.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Ssa => "ssa",
            EngineKind::AdaptiveTau { .. } => "adaptive-tau",
            EngineKind::Hybrid { .. } => "hybrid",
            EngineKind::Batched { .. } => "batched",
        }
    }

    /// Validated constructor for [`EngineKind::AdaptiveTau`]: rejects a
    /// CGP bound outside `(0, 1)` at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidEpsilon`] for a bad bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::adaptive_tau(0.05).unwrap();
    /// assert_eq!(kind, EngineKind::AdaptiveTau { epsilon: 0.05 });
    /// assert!(matches!(
    ///     EngineKind::adaptive_tau(1.5),
    ///     Err(EngineError::InvalidEpsilon { .. })
    /// ));
    /// ```
    pub fn adaptive_tau(epsilon: f64) -> Result<Self, EngineError> {
        let kind = EngineKind::AdaptiveTau { epsilon };
        kind.validate()?;
        Ok(kind)
    }

    /// Validated constructor for [`EngineKind::Hybrid`]: rejects a CGP
    /// bound outside `(0, 1)` or a switch threshold below 1 / non-finite
    /// at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidEpsilon`] or
    /// [`EngineError::InvalidThreshold`] for bad knobs.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::hybrid(0.05, 8.0).unwrap();
    /// assert_eq!(
    ///     kind,
    ///     EngineKind::Hybrid { epsilon: 0.05, threshold: 8.0 }
    /// );
    /// assert!(matches!(
    ///     EngineKind::hybrid(0.05, 0.5),
    ///     Err(EngineError::InvalidThreshold { .. })
    /// ));
    /// ```
    pub fn hybrid(epsilon: f64, threshold: f64) -> Result<Self, EngineError> {
        let kind = EngineKind::Hybrid { epsilon, threshold };
        kind.validate()?;
        Ok(kind)
    }

    /// Validated constructor for [`EngineKind::Batched`]: rejects a zero
    /// batch width at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidWidth`] when `width` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::batched(64).unwrap();
    /// assert_eq!(kind, EngineKind::Batched { width: 64 });
    /// assert!(matches!(
    ///     EngineKind::batched(0),
    ///     Err(EngineError::InvalidWidth { .. })
    /// ));
    /// ```
    pub fn batched(width: usize) -> Result<Self, EngineError> {
        let kind = EngineKind::Batched { width };
        kind.validate()?;
        Ok(kind)
    }

    /// Checks the model-independent parameters of this kind — the single
    /// owner of the epsilon/threshold/width rules, shared by
    /// [`EngineKind::build`] and config-level validation.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidEpsilon`] for a CGP bound outside
    /// `(0, 1)`, [`EngineError::InvalidThreshold`]
    /// for a hybrid switch threshold below 1 or non-finite, and
    /// [`EngineError::InvalidWidth`] for a zero batch width.
    pub fn validate(&self) -> Result<(), EngineError> {
        match *self {
            EngineKind::Batched { width } if width == 0 => Err(EngineError::InvalidWidth { width }),
            EngineKind::AdaptiveTau { epsilon } | EngineKind::Hybrid { epsilon, .. }
                if !(epsilon > 0.0 && epsilon < 1.0) =>
            {
                Err(EngineError::InvalidEpsilon { epsilon })
            }
            EngineKind::Hybrid { threshold, .. }
                if !(threshold >= 1.0 && threshold.is_finite()) =>
            {
                Err(EngineError::InvalidThreshold { threshold })
            }
            _ => Ok(()),
        }
    }

    /// Builds the engine for `instance`, seeded from `base_seed`,
    /// compiling the model's dependency graph locally. When building many
    /// instances of one model (a farm), compile once with
    /// [`ModelDeps::compile`] and use
    /// [`build_with_deps`](EngineKind::build_with_deps).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the kind cannot drive `model` or its
    /// knobs are invalid: the leaping kinds (adaptive tau-leaping and the
    /// hybrid) reject compartment rules, nested-site rules and
    /// non-mass-action laws.
    pub fn build(
        self,
        model: Arc<Model>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Engine, EngineError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        self.build_with_deps(model, deps, base_seed, instance)
    }

    /// Builds the engine for `instance`, sharing an already-compiled
    /// dependency graph across instances. Every integrator consumes the
    /// compilation: the exact engines drive their incremental reaction
    /// tables with it (the hybrid's exact phase included), and the leaping
    /// engines take their stoichiometry vectors from it.
    ///
    /// # Errors
    ///
    /// Same as [`EngineKind::build`].
    pub fn build_with_deps(
        self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Engine, EngineError> {
        self.validate()?;
        match self {
            // A batched replica *is* the scalar direct method of its
            // instance; only the farm's task grain differs.
            EngineKind::Ssa | EngineKind::Batched { .. } => Ok(Engine::Ssa(SsaEngine::with_deps(
                model, deps, base_seed, instance,
            ))),
            EngineKind::AdaptiveTau { epsilon } => {
                let engine = AdaptiveTauEngine::with_deps(model, deps, base_seed, instance)?;
                Ok(Engine::AdaptiveTau(Box::new(engine.with_epsilon(epsilon))))
            }
            EngineKind::Hybrid { epsilon, threshold } => {
                let engine = HybridEngine::with_deps(model, deps, base_seed, instance)?;
                Ok(Engine::Hybrid(Box::new(
                    engine.with_epsilon(epsilon).with_threshold(threshold),
                )))
            }
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::AdaptiveTau { epsilon } => write!(f, "adaptive-tau(ε={epsilon})"),
            EngineKind::Hybrid { epsilon, threshold } => {
                write!(f, "hybrid(ε={epsilon}, θ={threshold})")
            }
            EngineKind::Batched { width } => write!(f, "batched(w={width})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Error building an engine from an [`EngineKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A flat-only engine (adaptive tau-leaping, the hybrid SSA/tau
    /// engine) cannot drive this model (compartments, nested sites
    /// or non-mass-action laws); the inner error names the engine and the
    /// offending rule.
    FlatModel(FlatModelError),
    /// The configured CGP bound ε is outside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// The configured hybrid switch threshold is below 1 or non-finite.
    InvalidThreshold {
        /// The offending value.
        threshold: f64,
    },
    /// The configured batch width (instances per task) is zero.
    InvalidWidth {
        /// The offending value.
        width: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::FlatModel(e) => write!(f, "{e}"),
            EngineError::InvalidEpsilon { epsilon } => {
                write!(
                    f,
                    "adaptive/hybrid epsilon must be in (0, 1), got {epsilon}"
                )
            }
            EngineError::InvalidThreshold { threshold } => {
                write!(
                    f,
                    "hybrid switch threshold must be finite and >= 1, got {threshold}"
                )
            }
            EngineError::InvalidWidth { width } => {
                write!(f, "batched width must be >= 1, got {width}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FlatModelError> for EngineError {
    fn from(e: FlatModelError) -> Self {
        EngineError::FlatModel(e)
    }
}

/// Outcome of one atomic engine transition ([`Engine::step`]): a reaction
/// for the exact engine, one committed leap or transition for the leaping
/// and hybrid engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineStep {
    /// The engine advanced by `dt`, firing `events` reactions.
    Advanced {
        /// Time that elapsed.
        dt: f64,
        /// Reactions fired (1 for the exact engine, the leap total for
        /// a leap).
        events: u64,
    },
    /// No reaction is enabled; the state is absorbing.
    Exhausted,
}

/// A concrete simulation engine: one of the three integrators, behind one
/// `Clone + Send` value (no boxing, no generics in the task types).
///
/// All methods dispatch to the wrapped engine. One call to
/// [`advance_quantum`](Engine::advance_quantum) (or
/// [`run_sampled`](Engine::run_sampled), its non-collecting form) is what
/// a farm worker, a remote farm or a GPGPU "kernel" executes per
/// scheduling round, and every variant is *slicing-invariant*: any
/// partition of `[0, t_end]` into quanta yields the same trajectory and
/// sample stream.
///
/// The exact engine is the only unboxed variant, so the enum is as large
/// as it: the direct method is the paper's integrator and the common
/// case, and its step path stays one indirection shorter than the
/// leaping kinds'.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    /// Exact direct method.
    Ssa(SsaEngine),
    /// Approximate adaptive (CGP) tau-leaping (boxed: the incremental
    /// hot path carries SoA rows, criticality epochs and reusable
    /// buffers, and would otherwise dominate the size of every task
    /// that carries this enum).
    AdaptiveTau(Box<AdaptiveTauEngine>),
    /// Hybrid exact/approximate engine (boxed: it embeds a full exact
    /// engine plus the flat reduction, and would otherwise dominate the
    /// size of every task that carries this enum).
    Hybrid(Box<HybridEngine>),
}

impl Engine {
    /// The configuration that would rebuild this engine. An engine built
    /// from [`EngineKind::Batched`] reports [`EngineKind::Ssa`]: a batch
    /// replica *is* the scalar direct method, and rebuilding it as such is
    /// bit-for-bit faithful.
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Ssa(_) => EngineKind::Ssa,
            Engine::AdaptiveTau(e) => EngineKind::AdaptiveTau {
                epsilon: e.epsilon(),
            },
            Engine::Hybrid(e) => EngineKind::Hybrid {
                epsilon: e.epsilon(),
                threshold: e.threshold(),
            },
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        match self {
            Engine::Ssa(e) => e.time(),
            Engine::AdaptiveTau(e) => e.time(),
            Engine::Hybrid(e) => e.time(),
        }
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        match self {
            Engine::Ssa(e) => e.instance(),
            Engine::AdaptiveTau(e) => e.instance(),
            Engine::Hybrid(e) => e.instance(),
        }
    }

    /// Evaluates the model's observables on the current state.
    pub fn observe(&self) -> Vec<u64> {
        match self {
            Engine::Ssa(e) => e.observe(),
            Engine::AdaptiveTau(e) => e.observe(),
            Engine::Hybrid(e) => e.observe(),
        }
    }

    /// Total reaction firings so far.
    pub fn events(&self) -> u64 {
        match self {
            Engine::Ssa(e) => e.steps(),
            Engine::AdaptiveTau(e) => e.firings(),
            Engine::Hybrid(e) => e.firings(),
        }
    }

    /// The current CWC term of the exact engine, by value: materialised
    /// on demand from whichever core the engine steps on (see
    /// [`SsaEngine::term`]) — an inspection call, not a step-path one.
    /// `None` for the leaping kinds (adaptive tau-leaping, the hybrid),
    /// whose committed state is a species-count vector.
    pub fn term(&self) -> Option<Term> {
        match self {
            Engine::Ssa(e) => Some(e.term()),
            Engine::AdaptiveTau(_) | Engine::Hybrid(_) => None,
        }
    }

    /// Executes one atomic transition: one reaction (exact engine) or
    /// one committed leap/transition (the leaping and hybrid engines).
    pub fn step(&mut self) -> EngineStep {
        match self {
            Engine::Ssa(e) => match e.step() {
                StepOutcome::Fired { dt, .. } => EngineStep::Advanced { dt, events: 1 },
                StepOutcome::Exhausted => EngineStep::Exhausted,
            },
            Engine::AdaptiveTau(e) => {
                // advance() first commits any leap held pending by the
                // quantum-execution API, so measure dt and events as
                // clock/firings deltas to keep the two consistent.
                let (before_firings, before_time) = (e.firings(), e.time());
                let taken = e.advance();
                let dt = e.time() - before_time;
                if taken == 0.0 && dt == 0.0 {
                    EngineStep::Exhausted
                } else {
                    EngineStep::Advanced {
                        dt,
                        events: e.firings() - before_firings,
                    }
                }
            }
            Engine::Hybrid(e) => {
                let (dt, events) = e.step_transition();
                if dt == 0.0 && events == 0 {
                    EngineStep::Exhausted
                } else {
                    EngineStep::Advanced { dt, events }
                }
            }
        }
    }

    /// Runs until simulation time reaches `t_end` (or the state absorbs),
    /// without sampling; returns the reactions fired.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        match self {
            Engine::Ssa(e) => e.run_until(t_end),
            Engine::AdaptiveTau(e) => e.run_until(t_end),
            Engine::Hybrid(e) => e.run_until(t_end),
        }
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval; returns reactions
    /// fired. Same alignment contract as [`SsaEngine::run_sampled`].
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        match self {
            Engine::Ssa(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::AdaptiveTau(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::Hybrid(e) => e.run_sampled(t_end, clock, on_sample),
        }
    }

    /// Advances to `t_goal`, collecting the quantum's samples and events.
    pub fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc::model::Model;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn comp_model() -> Arc<Model> {
        let mut m = Model::new("comp");
        m.rule("r")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let a = m.species("A");
        m.observe("A", a);
        Arc::new(m)
    }

    #[test]
    fn every_kind_builds_on_a_flat_model() {
        let model = decay_model(10, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let engine = kind.build(Arc::clone(&model), 1, 0).unwrap();
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.instance(), 0);
            assert_eq!(engine.observe(), vec![10]);
            assert_eq!(engine.time(), 0.0);
        }
    }

    #[test]
    fn exact_kinds_drive_compartment_models() {
        let engine = EngineKind::Ssa.build(comp_model(), 1, 0);
        assert!(engine.is_ok(), "ssa must accept compartment models");
    }

    #[test]
    fn engine_enum_matches_wrapped_ssa_engine_exactly() {
        // Every enum arm reaches the engine it names: `EngineKind::build`
        // against the directly constructed integrator, same seed and
        // instance, bit-identical samples, events and time.
        let model = decay_model(30, 1.0);
        type Run = (Vec<(f64, Vec<u64>)>, u64, f64);
        // The concrete engines share method names, not a type.
        macro_rules! direct {
            ($engine:expr, $events:ident) => {{
                let mut engine = $engine;
                let mut clock = SampleClock::new(0.0, 0.25);
                let mut samples = Vec::new();
                engine.run_sampled(3.0, &mut clock, |t, v| samples.push((t, v.to_vec())));
                (samples, engine.$events(), engine.time())
            }};
        }
        let m = || Arc::clone(&model);
        let cases: [(EngineKind, Run); 3] = [
            (EngineKind::Ssa, direct!(SsaEngine::new(m(), 7, 2), steps)),
            (
                EngineKind::AdaptiveTau { epsilon: 0.05 },
                direct!(
                    AdaptiveTauEngine::new(m(), 7, 2)
                        .unwrap()
                        .with_epsilon(0.05),
                    firings
                ),
            ),
            (
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold: 8.0,
                },
                direct!(
                    HybridEngine::new(m(), 7, 2)
                        .unwrap()
                        .with_epsilon(0.05)
                        .with_threshold(8.0),
                    firings
                ),
            ),
        ];
        for (kind, (samples, events, time)) in cases {
            let mut wrapped = kind.build(m(), 7, 2).unwrap();
            assert_eq!(wrapped.instance(), 2, "{kind}");
            let mut clock = SampleClock::new(0.0, 0.25);
            let outcome = wrapped.advance_quantum(3.0, &mut clock);
            assert_eq!(outcome.samples, samples, "{kind}");
            assert_eq!(outcome.events, events, "{kind}");
            assert_eq!(wrapped.events(), events, "{kind}");
            assert_eq!(wrapped.time(), time, "{kind}");
        }
    }

    #[test]
    fn step_advances_every_kind() {
        let model = decay_model(20, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 3, 0).unwrap();
            match engine.step() {
                EngineStep::Advanced { dt, .. } => assert!(dt > 0.0, "{kind}"),
                EngineStep::Exhausted => panic!("{kind} exhausted immediately"),
            }
            assert!(engine.time() > 0.0, "{kind}");
        }
    }

    #[test]
    fn exhausted_engines_report_exhaustion() {
        let model = decay_model(0, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 3, 0).unwrap();
            assert_eq!(engine.step(), EngineStep::Exhausted, "{kind}");
        }
    }

    #[test]
    fn run_until_counts_events() {
        let model = decay_model(25, 2.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 9, 0).unwrap();
            let fired = engine.run_until(1e3);
            assert!(fired > 0, "{kind}");
            assert_eq!(fired, engine.events(), "{kind}");
            assert_eq!(engine.observe(), vec![0], "{kind}");
        }
    }

    #[test]
    fn engine_kind_validate_owns_the_epsilon_and_threshold_rules() {
        assert!(EngineKind::Ssa.validate().is_ok());
        assert!(EngineKind::AdaptiveTau { epsilon: 0.05 }.validate().is_ok());
        assert!(EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0
        }
        .validate()
        .is_ok());
        for epsilon in [0.0, -0.1, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EngineKind::AdaptiveTau { epsilon }.validate(),
                Err(EngineError::InvalidEpsilon { .. })
            ));
            assert!(matches!(
                EngineKind::Hybrid {
                    epsilon,
                    threshold: 8.0
                }
                .validate(),
                Err(EngineError::InvalidEpsilon { .. })
            ));
        }
        for threshold in [0.0, 0.5, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold
                }
                .validate(),
                Err(EngineError::InvalidThreshold { .. })
            ));
        }
        let msg = EngineKind::AdaptiveTau { epsilon: 1.5 }
            .validate()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("epsilon"), "{msg}");
        let msg = EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 0.0,
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(msg.contains("threshold"), "{msg}");
    }

    #[test]
    fn flat_only_kinds_reject_compartment_models_naming_rule_and_engine() {
        let model = comp_model();
        for (kind, engine_name) in [
            (
                EngineKind::AdaptiveTau { epsilon: 0.05 },
                "adaptive tau-leaping",
            ),
            (
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold: 8.0,
                },
                "the hybrid SSA/tau engine",
            ),
        ] {
            let err = kind.build(Arc::clone(&model), 1, 0).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, EngineError::FlatModel(_)), "{kind}");
            assert!(msg.contains("`r`"), "{kind}: {msg}");
            assert!(msg.contains(engine_name), "{kind}: {msg}");
        }
    }

    #[test]
    fn engine_kind_validate_owns_the_width_rule() {
        assert!(EngineKind::Batched { width: 1 }.validate().is_ok());
        assert!(EngineKind::Batched { width: 256 }.validate().is_ok());
        let err = EngineKind::Batched { width: 0 }.validate().unwrap_err();
        assert!(matches!(err, EngineError::InvalidWidth { width: 0 }));
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn validated_constructors_accept_good_knobs_and_reject_bad_ones() {
        assert_eq!(
            EngineKind::adaptive_tau(0.03).unwrap(),
            EngineKind::AdaptiveTau { epsilon: 0.03 }
        );
        assert_eq!(
            EngineKind::hybrid(0.05, 10.0).unwrap(),
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 10.0
            }
        );
        assert_eq!(
            EngineKind::batched(32).unwrap(),
            EngineKind::Batched { width: 32 }
        );
        assert!(matches!(
            EngineKind::adaptive_tau(0.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            EngineKind::hybrid(1.5, 10.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            EngineKind::hybrid(0.05, f64::INFINITY),
            Err(EngineError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            EngineKind::batched(0),
            Err(EngineError::InvalidWidth { width: 0 })
        ));
    }

    #[test]
    fn batched_kind_steps_compartment_models_like_ssa() {
        // A rule inside `cell` on a term that has one: the tree core.
        let mut m = Model::new("comp");
        let a = m.species("A");
        m.rule("r")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let cell = m.label("cell");
        m.initial.add_compartment(cwc::term::Compartment::new(
            cell,
            cwc::multiset::Multiset::new(),
            Term::from_atoms(cwc::multiset::Multiset::from([(a, 25)])),
        ));
        m.observe("A", a);
        let model = Arc::new(m);
        let mut scalar = EngineKind::Ssa.build(Arc::clone(&model), 4, 2).unwrap();
        let mut batch_built = EngineKind::Batched { width: 3 }
            .build(Arc::clone(&model), 4, 2)
            .unwrap();
        assert!(matches!(batch_built, Engine::Ssa(_)));
        let mut c1 = SampleClock::new(0.0, 0.25);
        let mut c2 = SampleClock::new(0.0, 0.25);
        let mut events = 0;
        for t in [0.6, 1.9, 4.0] {
            let want = scalar.advance_quantum(t, &mut c1);
            events += want.events;
            assert_eq!(batch_built.advance_quantum(t, &mut c2), want, "t = {t}");
        }
        assert!(events > 0, "the compartment rule never fired");
        assert_eq!(batch_built.term(), scalar.term());
    }

    #[test]
    fn batched_kind_builds_the_exact_scalar_materialization() {
        // A per-instance build of the batched kind is the scalar direct
        // method — the definition of a batch replica.
        let model = decay_model(30, 1.0);
        let mut scalar = EngineKind::Ssa.build(Arc::clone(&model), 7, 3).unwrap();
        let mut batch_built = EngineKind::Batched { width: 8 }
            .build(Arc::clone(&model), 7, 3)
            .unwrap();
        assert!(matches!(batch_built, Engine::Ssa(_)));
        let mut c1 = SampleClock::new(0.0, 0.25);
        let mut c2 = SampleClock::new(0.0, 0.25);
        assert_eq!(
            scalar.advance_quantum(3.0, &mut c1),
            batch_built.advance_quantum(3.0, &mut c2),
        );
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(EngineKind::Ssa.to_string(), "ssa");
        assert_eq!(
            EngineKind::AdaptiveTau { epsilon: 0.05 }.to_string(),
            "adaptive-tau(ε=0.05)"
        );
        assert_eq!(
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0
            }
            .to_string(),
            "hybrid(ε=0.05, θ=8)"
        );
        assert_eq!(
            EngineKind::Batched { width: 64 }.to_string(),
            "batched(w=64)"
        );
        assert_eq!(EngineKind::default(), EngineKind::Ssa);
    }
}
