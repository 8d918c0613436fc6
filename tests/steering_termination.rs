//! `Steering::terminate` mid-run, single-process *and* sharded: the
//! drained report must be a prefix-consistent subset of the full run —
//! whatever grid times made it out carry exactly the rows the full run
//! produced for those times, in the same order.
//!
//! Per-cut analysis makes this exact: a `StatRow` depends only on its
//! own cut, so however early the pipeline drains, the emitted rows match
//! the full run's leading rows bit-for-bit. The termination instant is
//! racy by nature; the assertion is prefix equality, which holds for
//! *any* landing point (including "before anything" and "after
//! everything").

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{run_simulation, run_simulation_steered, EngineKind, SimConfig};
use cwc_repro::distrt::shard::run_simulation_sharded_steered;

mod common;
use common::engine_kinds;
use common::matrix::assert_terminated_prefix;

/// Busy enough that a few-ms termination usually lands mid-simulation
/// (birth–death never absorbs, so every quantum does real work).
fn model() -> Arc<Model> {
    Arc::new(biomodels::simple::birth_death(400.0, 1.0, 200))
}

fn cfg(kind: EngineKind) -> SimConfig {
    SimConfig::new(12, 10.0)
        .quantum(0.25)
        .sample_period(0.125)
        .sim_workers(2)
        .stat_workers(2)
        .window(4, 2)
        .seed(77)
        .engine(kind)
}

#[test]
fn single_process_termination_drains_a_prefix_for_every_engine_kind() {
    for kind in engine_kinds() {
        let cfg = cfg(kind);
        let full = run_simulation(model(), &cfg).unwrap();
        assert!(!full.rows.is_empty());
        assert_terminated_prefix(8, &full, &format!("single/{kind}"), |steering| {
            run_simulation_steered(model(), &cfg, steering)
        });
    }
}

#[test]
fn sharded_termination_drains_a_prefix_for_every_engine_kind() {
    for kind in engine_kinds() {
        let cfg = cfg(kind).shards(2);
        let full = run_simulation(model(), &cfg).unwrap();
        // shards = 2: real cwc-shard child processes; terminate reaches
        // them as a Terminate control frame on their loopback sockets.
        assert_terminated_prefix(8, &full, &format!("sharded/{kind}"), |steering| {
            run_simulation_sharded_steered(model(), &cfg, steering)
        });
    }
}

#[test]
fn termination_before_start_yields_an_empty_but_valid_report() {
    let cfg = cfg(EngineKind::Ssa);
    let full = run_simulation(model(), &cfg).unwrap();
    assert_terminated_prefix(0, &full, "single", |steering| {
        run_simulation_steered(model(), &cfg, steering)
    });
    let sharded = cfg.shards(2);
    assert_terminated_prefix(0, &full, "sharded", |steering| {
        run_simulation_sharded_steered(model(), &sharded, steering)
    });
}
