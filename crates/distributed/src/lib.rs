//! # distrt — the distributed CWC simulator: runtime and platform models
//!
//! Two complementary halves reproduce the paper's cluster/cloud port
//! (Aldinucci et al., ICDCS 2014, §IV-B and §V):
//!
//! **Functional** — [`wire`] (the explicit serialisation the distributed
//! pipeline adds around unchanged stages), [`shard`] (the shard protocol,
//! the worker body and the *multi-process* deployment: one `cwc-shard`
//! child OS process per shard attempt, a one-shot worker on a loopback
//! port streaming aligned partial cuts plus mergeable partial statistics
//! back as length-prefixed wire-v7 frames — bit-for-bit identical
//! analysis rows to the single-process runner; the same sharded farm
//! runs on threads behind `cwcsim::InProcessTransport`) and [`net`] (the
//! socket path both out-of-process transports run on: `cwc-workerd`
//! daemons on real hosts serve shard attempts behind the same
//! registration handshake, and the coordinator's
//! [`net::TcpShardTransport`] places (and, after a worker death,
//! *re*-places) slices across the surviving workers). [`fault`] is the
//! fault-injection harness for that deployment: an env-driven plan
//! (`CWC_SHARD_FAULT`) makes a chosen worker crash, stall, corrupt its
//! stream or start late, so the supervisor's recovery paths are
//! exercisable end-to-end with the real binary.
//!
//! **Performance** — [`platform`] (host/VM/network profiles of the paper's
//! testbeds), [`workload`] (event traces recorded from *real* engine runs
//! plus measured unit costs), [`multicore`] (DES of the Fig. 3 pipeline),
//! [`cluster`] (DES of the farm-of-pipelines over a network, Fig. 4) and
//! [`cloud`] (EC2 deployments, Figs. 5–6). These models substitute the
//! paper's hardware, which we do not have; the workloads they replay are
//! recorded from real engine runs, so load imbalance is authentic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cloud;
pub mod cluster;
pub mod fault;
pub mod multicore;
pub mod net;
pub mod platform;
pub mod shard;
pub mod wire;
pub mod workload;

pub use cloud::{heterogeneous, heterogeneous_deployment, single_vm, virtual_cluster};
pub use cluster::{simulate_cluster, ClusterOutcome, ClusterParams};
pub use fault::{FaultKind, FaultPlan, FAULT_ENV};
pub use multicore::{simulate_multicore, MulticoreParams, PipelineOutcome};
pub use net::{TcpShardTransport, WorkerDaemon, WorkerHello};
pub use platform::{HostProfile, NetworkProfile};
pub use shard::{
    run_simulation_sharded, run_simulation_sharded_steered, serve_shard, ProcessTransport,
};
pub use wire::{from_bytes, to_bytes, Wire, WireError, WireReader};
pub use workload::{CostModel, WorkloadTrace};
