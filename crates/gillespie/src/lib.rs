//! # gillespie — stochastic simulation over CWC terms
//!
//! The stochastic engine of the CWC simulator (Aldinucci et al., ICDCS
//! 2014): Gillespie's exact direct method generalised to Calculus of
//! Wrapped Compartments terms, with the quantum-based execution model the
//! paper's farm of simulation engines relies on.
//!
//! - [`engine`]: the engine-agnostic seam — the concrete [`Engine`] enum
//!   (the only dispatch mechanism) and the configuration-level
//!   [`EngineKind`] selector every pipeline layer is written against;
//! - [`deps`]: one-time model compilation — per-rule read/write sets and
//!   the reaction dependency graph, shared across instances, plus the
//!   lazily derived flat form of the model (compiled once per
//!   [`ModelDeps`]);
//! - [`ssa`]: the exact engine ([`SsaEngine`]) with pending-event
//!   preservation, so slicing a run into scheduler quanta never changes the
//!   trajectory; plus the τ-grid [`SampleClock`]. It steps on one of two
//!   cores, selected by the model: a *dense* core (species counts indexed
//!   by `Species::raw()` and one propensity row) when every rule is
//!   compartment-free and top-level, the *tree* core (term, tree matcher,
//!   [`ReactionTable`]) otherwise;
//! - [`table`]: the tree core's persistent [`ReactionTable`] of (site,
//!   rule) propensities, updated incrementally after each firing instead
//!   of re-enumerated per step (the step-throughput lever for CWC's
//!   tree-matching propensities), and the SoA propensity row both cores
//!   share — one ordered `-0.0`-identity prefix fold and one selection,
//!   on the kernel layer's `row_fold_from`/`row_select`;
//! - [`trajectory`]: the time-aligned [`Cut`];
//! - [`first_reaction`]: Gillespie's first-reaction method, an alternative
//!   exact sampler used as a distributional oracle (extension);
//! - [`flat`]: the compiled flat form of a model — slot tables, the
//!   exact propensity formula and the observable plan of the dense core
//!   and the batched tier; stoichiometry rows and the
//!   Cao–Gillespie–Petzold step bound of every leaping engine — plus the
//!   common rejection error;
//! - [`tau_leap`]: approximate fixed-step Poisson leaping for flat models
//!   (an extension beyond the paper, in the spirit of StochKit);
//! - [`adaptive`]: adaptive tau-leaping — CGP step-size selection with
//!   critical-reaction partitioning and an exact-SSA fallback;
//! - [`hybrid`]: the hybrid exact/approximate engine — dense-core SSA
//!   segments with CGP-sized leaps when propensities stratify;
//! - [`batch`]: the batched SoA tier — [`BatchedSsaEngine`] advances a
//!   whole batch of replicas of one flat model in lockstep, every
//!   replica bit-for-bit the scalar SSA trajectory of the same instance;
//! - [`rng`]: deterministic per-instance seeding *and* the per-engine draw
//!   discipline, making every execution back-end (multicore, distributed,
//!   simulated GPGPU) produce identical trajectories for identical seeds.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod adaptive;
pub mod batch;
pub mod deps;
pub mod engine;
pub mod first_reaction;
pub mod flat;
pub mod hybrid;
pub mod rng;
pub mod ssa;
pub mod table;
pub mod tau_leap;
pub mod trajectory;

pub use adaptive::AdaptiveTauEngine;
pub use batch::kernels::KernelDispatch;
pub use batch::BatchedSsaEngine;
pub use deps::{KeptChild, ModelDeps, RuleDeps};
pub use engine::{Engine, EngineError, EngineKind, EngineStep, QuantumOutcome};
pub use first_reaction::FirstReactionEngine;
pub use flat::FlatModelError;
pub use hybrid::HybridEngine;
pub use rng::{instance_seed, sim_rng, SimRng};
pub use ssa::{Reaction, SampleClock, SsaEngine, StepOutcome};
pub use table::ReactionTable;
pub use tau_leap::{TauLeapEngine, TauLeapError};
pub use trajectory::Cut;
