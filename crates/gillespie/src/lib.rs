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
//! - [`ssa`]: the direct-method engine ([`SsaEngine`]) with pending-event
//!   preservation, so slicing a run into scheduler quanta never changes the
//!   trajectory; plus the τ-grid [`SampleClock`]. It steps on one of two
//!   cores, selected by the model: a *dense* core (species counts indexed
//!   by `Species::raw()` and one propensity row) when every rule is
//!   compartment-free and top-level, the *tree* core (term, tree matcher,
//!   [`ReactionTable`]) otherwise. An optional leap policy
//!   ([`SsaEngine::with_leap`], the hybrid kind) adds CGP-sized leaps on
//!   the dense core when propensities stratify;
//! - [`table`]: the tree core's persistent [`ReactionTable`] of (site,
//!   rule) propensities, updated incrementally after each firing instead
//!   of re-enumerated per step (the step-throughput lever for CWC's
//!   tree-matching propensities), and the SoA propensity row both cores
//!   share — one ordered `-0.0`-identity prefix fold and one selection,
//!   on the [`kernels`] layer's `row_fold_from`/`row_select`;
//! - [`task`]: the unit of work of every back-end — [`task::SimTask`]
//!   runs one quantum of one instance and packs it as a
//!   [`task::SampleBatch`] (the only quantum runner, and the only thing a
//!   quantum produces);
//! - [`trajectory`]: the sample [`Row`] (a few counts, held inline) and
//!   the time-aligned [`Cut`];
//! - [`flat`]: the compiled flat form of a model — slot tables, the
//!   exact propensity formula and the observable plan of the dense core;
//!   stoichiometry rows and the Cao–Gillespie–Petzold step bound of every
//!   leaping engine — plus the common rejection error;
//! - [`adaptive`]: the leaping tier — adaptive tau-leaping, CGP
//!   step-size selection with critical-reaction partitioning and an
//!   exact-SSA fallback, so no leap length is left for the user to pick
//!   (an extension beyond the paper, in the spirit of StochKit);
//! - [`batch`]: the batched kind's task grain — [`batch::batch_spans`]
//!   chunks instances into farm tasks whose replicas each step on the
//!   scalar direct method;
//! - [`kernels`] (defined as `batch::kernels`, where the batched tier
//!   introduced it): the runtime-dispatched scalar/AVX2 propensity-row
//!   scans (folds, selections) behind the exact tier's long rows and every
//!   leaping engine, bit-for-bit identical either way;
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
pub mod flat;
pub mod rng;
pub mod ssa;
pub mod table;
pub mod task;
pub mod trajectory;

pub use adaptive::AdaptiveTauEngine;
pub use batch::kernels;
pub use deps::{KeptChild, ModelDeps, RuleDeps};
pub use engine::{Engine, EngineError, EngineKind, EngineStep};
pub use flat::FlatModelError;
pub use kernels::KernelDispatch;
pub use rng::{instance_seed, sim_rng, SimRng};
pub use ssa::{Reaction, SampleClock, SsaEngine, StepOutcome};
pub use table::ReactionTable;
pub use trajectory::{Cut, Row};
