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
use std::time::Duration;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{
    run_simulation, run_simulation_steered, EngineKind, SimConfig, SimReport, Steering,
};
use cwc_repro::distrt::shard::run_simulation_sharded_steered;

fn engine_kinds() -> Vec<EngineKind> {
    vec![
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0,
        },
    ]
}

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

fn assert_prefix(kind: EngineKind, label: &str, drained: &SimReport, full: &SimReport) {
    assert!(
        drained.rows.len() <= full.rows.len(),
        "{label}/{kind}: drained {} rows, full run only {}",
        drained.rows.len(),
        full.rows.len()
    );
    assert_eq!(
        drained.rows[..],
        full.rows[..drained.rows.len()],
        "{label}/{kind}: drained rows are not a prefix of the full run"
    );
    assert!(
        drained.events <= full.events,
        "{label}/{kind}: drained counted more events than the full run"
    );
}

/// Fires `terminate` from another thread shortly after the run starts.
fn terminate_after(steering: &Steering, delay: Duration) -> std::thread::JoinHandle<()> {
    let s = steering.clone();
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        s.terminate();
    })
}

#[test]
fn single_process_termination_drains_a_prefix_for_every_engine_kind() {
    for kind in engine_kinds() {
        let cfg = cfg(kind);
        let full = run_simulation(model(), &cfg).unwrap();
        assert!(!full.rows.is_empty());
        let steering = Steering::new();
        let killer = terminate_after(&steering, Duration::from_millis(8));
        let drained = run_simulation_steered(model(), &cfg, &steering).unwrap();
        killer.join().unwrap();
        assert_prefix(kind, "single", &drained, &full);
    }
}

#[test]
fn sharded_termination_drains_a_prefix_for_every_engine_kind() {
    for kind in engine_kinds() {
        let cfg = cfg(kind).shards(2);
        let full = run_simulation(model(), &cfg).unwrap();
        let steering = Steering::new();
        let killer = terminate_after(&steering, Duration::from_millis(8));
        // shards = 2: real cwc-shard child processes; terminate reaches
        // them as a Terminate control frame on their loopback sockets.
        let drained = run_simulation_sharded_steered(model(), &cfg, &steering).unwrap();
        killer.join().unwrap();
        assert_prefix(kind, "sharded", &drained, &full);
    }
}

#[test]
fn termination_before_start_yields_an_empty_but_valid_report() {
    let cfg = cfg(EngineKind::Ssa);
    let steering = Steering::new();
    steering.terminate();
    let drained = run_simulation_steered(model(), &cfg, &steering).unwrap();
    assert!(drained.rows.is_empty());
    let sharded = run_simulation_sharded_steered(model(), &cfg.shards(2), &steering).unwrap();
    assert!(sharded.rows.is_empty());
}
