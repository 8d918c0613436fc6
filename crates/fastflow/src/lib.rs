//! # fastflow — pattern-based stream-parallel programming
//!
//! A Rust reproduction of the FastFlow C++ framework as described in
//! *"Exercising high-level parallel programming on streams: a systems
//! biology use case"* (Aldinucci et al., ICDCS 2014). The crate follows the
//! paper's layered design (its Fig. 1):
//!
//! | Layer | Modules |
//! |---|---|
//! | Building blocks | [`spsc`], [`channel`], [`backoff`] |
//! | Core patterns | [`pipeline`], [`farm`] (ordered), [`master_worker`] (feedback) |
//!
//! Processing components are threads; every edge between them is one
//! bounded lock-free single-producer single-consumer FIFO queue — the
//! CSP/actor hybrid model of the paper. FastFlow puts the feedback channel
//! on an unbounded queue; here the farm master never blocks, so the tasks
//! it has in flight bound that edge too. FastFlow also busy-waits on its
//! queues, assuming a core per node; here a node that finds nothing to do
//! spins and yields briefly ([`backoff`]) and then parks its thread until
//! the peer it waits for — the sender of an empty edge, the receiver of a
//! full one, or either end closing it — wakes it, so an idle network
//! costs no CPU. The wake protocol is in [`channel`]'s docs.
//!
//! Every pattern is generated from user-provided [`node`] implementations
//! (the white boxes of the paper's figures); dispatching, gathering,
//! scheduling and feedback plumbing are produced by the pattern
//! combinators (the grey boxes).
//!
//! ## Quickstart
//!
//! ```
//! use fastflow::node::map_stage;
//! use fastflow::pipeline::Pipeline;
//!
//! // pipeline(source, ofarm(worker × 4), stage, collect)
//! let squares: Vec<u64> = Pipeline::from_source(0..1_000u64)
//!     .ordered_farm(4, |_| |x: u64| x * x)
//!     .stage(map_stage(|x| x + 1))
//!     .collect()
//!     .unwrap();
//! assert_eq!(squares, (0..1_000u64).map(|x| x * x + 1).collect::<Vec<_>>());
//! ```
//!
//! ## Relation to the paper
//!
//! The CWC simulator (crate `cwcsim`) composes these patterns into the
//! paper's Fig. 2 architecture: a three-stage main pipeline whose first
//! stage is a master–worker farm of simulation engines with a feedback
//! channel for quantum rescheduling
//! ([`Pipeline::master_worker_farm`]), and whose second stage is an
//! ordered farm of statistical engines over sliding windows
//! ([`Pipeline::ordered_farm`]). Those are the two farms Fig. 2
//! instantiates and the only two here. A plain farm — unordered, no
//! feedback — is a `master_worker_farm` whose [`Master`] submits what
//! arrives and whose [`FeedbackWorker`]s always return `None`; its
//! scheduler (a FIFO ready queue handed to the least-loaded worker with
//! room) and its collector are then the same ones the simulation farm
//! runs on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod channel;
pub mod error;
pub mod farm;
pub mod master_worker;
pub mod metrics;
pub mod node;
pub mod pipeline;
pub mod spsc;

pub use error::{Error, Result};
pub use master_worker::{FeedbackWorker, Master, Scheduler};
pub use metrics::{NodeStats, RunStats};
pub use node::{map_stage, Outbox, Source, Stage};
pub use pipeline::Pipeline;

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::channel::Sender<u32>>();
        assert_send::<crate::channel::Receiver<u32>>();
        assert_send::<crate::spsc::SpscQueue<u32>>();
    }

    #[test]
    fn queues_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<crate::spsc::SpscQueue<u32>>();
    }
}
