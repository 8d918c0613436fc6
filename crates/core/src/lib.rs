//! # cwcsim — the CWC simulation-analysis pipeline
//!
//! The paper's primary artifact (Aldinucci et al., ICDCS 2014, Fig. 2): a
//! stochastic simulator for the Calculus of Wrapped Compartments whose
//! simulation *and* on-line analysis are expressed as one stream-parallel
//! network of FastFlow patterns:
//!
//! ```text
//!            simulation pipeline                 analysis pipeline
//! ┌────────────────────────────────────┐ ┌────────────────────────────────┐
//! │ generation ─▶ farm of sim engines  │ │ sliding   ─▶ farm of stat      │
//! │ of tasks      (feedback/rebalance) │▶│ windows      engines (ordered) │▶ display
//! │               ─▶ alignment         │ │                                │
//! └────────────────────────────────────┘ └────────────────────────────────┘
//! ```
//!
//! - [`config`]: run parameters (instances, horizon, quantum Q, sampling
//!   period τ, stochastic integrator, worker counts, window geometry,
//!   engine set);
//! - [`task`]: the engine-agnostic simulation task objects streamed
//!   through the farm (any [`EngineKind`]: SSA, first-reaction, fixed or
//!   adaptive tau-leaping, hybrid SSA/tau);
//! - [`sim_farm`]: the farm of simulation engines — one master, one
//!   worker, one constructor — with per-quantum rescheduling;
//! - [`alignment`]: re-groups interleaved samples into time-ordered cuts;
//! - [`windows`]: windows of cuts, the stat farm's unit of scheduling;
//! - [`engines`]: mean/variance, k-means, quantile and histogram engines;
//! - [`display`]: CSV and ASCII-chart renderers (GUI stand-ins; Fig. 2's
//!   "permanent storage" is [`SimReport::to_csv`]);
//! - [`runner`]: one-call assembly ([`run_simulation`]) plus the
//!   sequential reference ([`run_sequential`]) used for correctness checks
//!   and speedup baselines;
//! - [`plan`], [`coordinator`], [`merge`]: the sharded farm — partition
//!   the instances into shards ([`plan::ShardPlan`]), run each slice
//!   through the same farm + alignment pipeline behind a
//!   [`coordinator::ShardTransport`] (threads here; real `cwc-shard`
//!   child processes in `distrt::shard`), and merge the partial cuts and
//!   mergeable streaming statistics back into one stream
//!   ([`merge::CutMerger`], [`merge::RunSummary`]);
//! - [`supervisor`]: fault tolerance for the sharded farm — watchdog
//!   timeouts over per-shard heartbeats, deterministic retry/requeue of
//!   a failed slice with bounded-exponential backoff, and typed
//!   attempt-history errors on budget exhaustion
//!   ([`supervisor::ShardSupervisor`]).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use cwcsim::{run_simulation, SimConfig};
//!
//! let model = Arc::new(biomodels::simple::decay(100, 1.0));
//! let cfg = SimConfig::new(8, 2.0) // 8 trajectories to t = 2.0
//!     .quantum(0.5)
//!     .sample_period(0.25)
//!     .sim_workers(2);
//! let report = run_simulation(model, &cfg)?;
//! assert_eq!(report.rows.len(), 9); // grid 0, 0.25, ..., 2.0
//! # Ok::<(), cwcsim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alignment;
pub mod config;
pub mod coordinator;
pub mod display;
pub mod engines;
pub mod merge;
pub mod plan;
pub mod runner;
pub mod sim_farm;
pub mod supervisor;
pub mod task;
pub mod windows;

pub use alignment::Alignment;
pub use config::{ConfigError, SimConfig, TransportKind};
pub use coordinator::{
    run_shard, run_simulation_sharded_in_process, run_simulation_sharded_with, InProcessTransport,
    ShardActivity, ShardAttempt, ShardEnd, ShardError, ShardErrorKind, ShardFeed, ShardHandle,
    ShardMsg, ShardSpec, ShardTransport,
};
pub use display::{ascii_chart, CsvRenderer};
pub use engines::{ObsStats, StatBlock, StatEngineKind, StatEngineSet, StatRow};
pub use gillespie::engine::{Engine, EngineError, EngineKind};
pub use merge::{CutMerger, ObsSummary, RunSummary};
pub use plan::{ShardPlan, ShardRange};
pub use runner::{run_sequential, run_simulation, run_simulation_steered, SimError, SimReport};
pub use sim_farm::{QuantumTask, SimWorker, Steering, SteeringWatch, TaskMaster};
pub use supervisor::ShardSupervisor;
pub use task::{batch_spans, BatchSimTask, SampleBatch, SimTask};
pub use windows::{Window, WindowGen};
