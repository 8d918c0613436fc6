//! # `pipeline` — the repo's benchmark
//!
//! One command (`run.sh`) drives the **real** `run_simulation` /
//! `run_sequential` / `distrt::shard::run_simulation_sharded` on six named
//! workloads, checks every output bit-for-bit against the sequential
//! oracle, and prints every metric by name with its unit. Two binaries:
//!
//! - `pipeline-bench` — end to end, tracing off. Compiled against the
//!   umbrella-root API only, so layer signatures can churn without taking
//!   the gated numbers down.
//! - `pipeline-trace` — the traced run: spans recorded by the benchmark
//!   around calls into each layer's public functions, plus the wire /
//!   shard / TCP / supervisor probes. All layer-internal names live in
//!   that binary ([`manifest::LAYER_API`] lists them).
//!
//! This library is what the two share and is itself umbrella-root-only
//! (the one layer item it touches is `KernelDispatch::resolve`, for the
//! run header). See `README.md` for the metric and workload definitions.

#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod header;
pub mod json;
pub mod manifest;
pub mod stats;
pub mod workloads;
