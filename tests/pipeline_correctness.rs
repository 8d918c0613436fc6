//! Integration: the parallel pipeline must produce exactly the sequential
//! reference results, for every model family and a range of
//! configurations; seeds set the results, and steering ends a run early.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwcsim::coordinator::{run_shard, ShardSpec};
use cwc_repro::cwcsim::{run_simulation, EngineKind, ShardPlan, SimConfig, Steering};
use cwc_repro::gillespie::deps::ModelDeps;

mod common;
use common::matrix::{
    check_all, compartment, flat_grids, four_stat_engines, terminated_before_start, whole_grid,
    window_geometries, worker_counts,
};
use common::{assert_reports_identical, engine_kinds};

#[test]
fn parallel_equals_sequential_for_flat_models() {
    check_all(&flat_grids(&[EngineKind::Ssa]));
}

#[test]
fn parallel_equals_sequential_for_every_engine_kind() {
    // The engine abstraction must not leak scheduling into trajectories.
    // The leaping kinds; the test above runs SSA.
    check_all(&flat_grids(&engine_kinds()[1..3]));
}

#[test]
fn parallel_equals_sequential_for_compartment_models() {
    check_all(&compartment());
}

#[test]
fn rows_cover_the_whole_grid_in_order() {
    // `check` asserts one row per τ-grid point, in order, over every
    // instance.
    check_all(&whole_grid());
}

#[test]
fn worker_count_does_not_change_results() {
    check_all(&worker_counts());
}

#[test]
fn window_geometry_does_not_change_results() {
    // Every cut is analysed exactly once, whichever window carries it to
    // the stat farm: width and slide set the farm's grain, never the rows.
    // 17 cuts: a partial tail under (4, 2), nothing to flush under (10, 1).
    let cases = window_geometries();
    let oracles = check_all(&cases);
    assert_eq!(oracles[0].rows.len(), 17);
    for (case, oracle) in cases.iter().zip(&oracles).skip(1) {
        let label = format!(
            "window {} / {}",
            case.cfg.window_width, case.cfg.window_slide
        );
        assert_reports_identical(oracle, &oracles[0], &label);
    }
}

#[test]
fn all_engine_kinds_flow_through_the_pipeline() {
    // `check` asserts every configured stat engine fills its column.
    check_all(&four_stat_engines());
}

#[test]
fn pre_terminated_run_produces_no_rows() {
    check_all(&terminated_before_start());
}

#[test]
fn different_seeds_give_different_results_same_seed_identical() {
    let model = Arc::new(biomodels::simple::birth_death(20.0, 0.5, 0));
    let base = SimConfig::new(6, 3.0)
        .quantum(0.5)
        .sample_period(0.5)
        .sim_workers(2);
    let a = run_simulation(Arc::clone(&model), &base.clone().seed(1)).unwrap();
    let b = run_simulation(Arc::clone(&model), &base.clone().seed(1)).unwrap();
    let c = run_simulation(model, &base.seed(2)).unwrap();
    assert_eq!(a.rows, b.rows, "same seed must reproduce");
    assert_ne!(a.rows, c.rows, "different seeds must differ");
}

#[test]
fn steering_terminates_a_running_simulation_early() {
    let model = Arc::new(biomodels::simple::birth_death(600.0, 1.0, 0));
    let cfg = SimConfig::new(16, 100.0)
        .quantum(0.25)
        .sample_period(0.25)
        .sim_workers(2)
        .seed(44);

    // Full run for reference row and event counts.
    let full = run_simulation(Arc::clone(&model), &cfg).unwrap();
    assert_eq!(full.rows.len(), cfg.samples_per_instance() as usize);

    // The same farm and alignment, terminated from inside its own stream
    // as soon as the first cut is out: "early" is observed progress (every
    // instance has run one quantum of 400), not a wall-clock guess.
    let steering = Steering::new();
    let spec = ShardSpec::from_config(&cfg, ShardPlan::new(cfg.instances, 1).ranges()[0]);
    let deps = Arc::new(ModelDeps::compile(&model));
    let mut times = Vec::new();
    let events = run_shard(model, deps, &spec, &steering, |cut| {
        steering.terminate();
        times.push(cut.time);
    })
    .unwrap();
    assert!(
        !times.is_empty() && times.len() < full.rows.len(),
        "terminated run produced {} of {} cuts",
        times.len(),
        full.rows.len()
    );
    assert!(events < full.events);
    // Whatever completed is still time-ordered.
    assert!(times.windows(2).all(|w| w[0] < w[1]));
}
