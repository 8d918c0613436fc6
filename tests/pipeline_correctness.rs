//! Integration: the parallel pipeline must produce exactly the sequential
//! reference results, for every model family and a range of configurations.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwcsim::{run_sequential, run_simulation, EngineKind, SimConfig, StatEngineKind};

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::new(4, 2.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(1)
            .seed(1),
        SimConfig::new(12, 3.0)
            .quantum(0.3)
            .sample_period(0.1)
            .sim_workers(4)
            .stat_workers(3)
            .window(6, 3)
            .seed(2),
        // Degenerate: one instance, one worker, tiny channels.
        SimConfig::new(1, 1.0)
            .quantum(10.0)
            .sample_period(0.5)
            .sim_workers(1)
            .stat_workers(1)
            .channel_capacity(1)
            .seed(3),
        // Sparse sampling: three quanta in four fire events and forward
        // no batch.
        SimConfig::new(6, 4.0)
            .quantum(0.25)
            .sample_period(1.0)
            .sim_workers(2)
            .stat_workers(2)
            .seed(4),
    ]
}

#[test]
fn parallel_equals_sequential_for_flat_models() {
    for model in [
        biomodels::simple::decay(60, 1.0),
        biomodels::simple::birth_death(30.0, 1.0, 5),
        biomodels::lotka_volterra(biomodels::LotkaVolterraParams::default()),
    ] {
        let model = Arc::new(model);
        for cfg in configs() {
            let par = run_simulation(Arc::clone(&model), &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", model.name));
            let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(par.rows, seq.rows, "model {} cfg {cfg:?}", model.name);
            assert_eq!(par.events, seq.events, "model {}", model.name);
        }
    }
}

#[test]
fn parallel_equals_sequential_for_every_engine_kind() {
    // The seq-vs-par agreement matrix over all four integrators: the
    // engine abstraction must not leak scheduling into trajectories.
    for model in [
        biomodels::simple::decay(60, 1.0),
        biomodels::simple::birth_death(30.0, 1.0, 5),
        biomodels::lotka_volterra(biomodels::LotkaVolterraParams::default()),
    ] {
        let model = Arc::new(model);
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            for cfg in configs() {
                let cfg = cfg.engine(kind);
                let par = run_simulation(Arc::clone(&model), &cfg)
                    .unwrap_or_else(|e| panic!("{} under {kind}: {e}", model.name));
                let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
                assert_eq!(
                    par.rows, seq.rows,
                    "model {} engine {kind} cfg {cfg:?}",
                    model.name
                );
                assert_eq!(par.events, seq.events, "model {} engine {kind}", model.name);
            }
        }
    }
}

#[test]
fn parallel_equals_sequential_for_compartment_models() {
    let model = Arc::new(biomodels::cell_transport(
        biomodels::CellTransportParams::default(),
    ));
    let cfg = SimConfig::new(6, 2.0)
        .quantum(0.25)
        .sample_period(0.125)
        .sim_workers(3)
        .stat_workers(2)
        .seed(9);
    let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
    let seq = run_sequential(model, &cfg).unwrap();
    assert_eq!(par.rows, seq.rows);
}

#[test]
fn rows_cover_the_whole_grid_in_order() {
    let model = Arc::new(biomodels::simple::decay(40, 2.0));
    let cfg = SimConfig::new(8, 4.0)
        .quantum(1.0)
        .sample_period(0.25)
        .sim_workers(2)
        .seed(5);
    let report = run_simulation(model, &cfg).unwrap();
    assert_eq!(report.rows.len(), cfg.samples_per_instance() as usize);
    for (k, row) in report.rows.iter().enumerate() {
        assert!(
            (row.time - k as f64 * 0.25).abs() < 1e-9,
            "row {k} at {}",
            row.time
        );
        assert_eq!(row.instances, 8);
    }
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
fn worker_count_does_not_change_results() {
    let model = Arc::new(biomodels::michaelis_menten(
        biomodels::MichaelisMentenParams::default(),
    ));
    let mk = |workers: usize| {
        SimConfig::new(8, 1.0)
            .quantum(0.2)
            .sample_period(0.1)
            .sim_workers(workers)
            .stat_workers(workers.min(3))
            .seed(77)
    };
    let w1 = run_simulation(Arc::clone(&model), &mk(1)).unwrap();
    let w4 = run_simulation(Arc::clone(&model), &mk(4)).unwrap();
    let w8 = run_simulation(model, &mk(8)).unwrap();
    assert_eq!(w1.rows, w4.rows);
    assert_eq!(w1.rows, w8.rows);
}

#[test]
fn window_geometry_does_not_change_results() {
    // Every cut is analysed exactly once, whichever window carries it to
    // the stat farm: width and slide set the farm's grain, never the rows.
    // 17 cuts: a partial tail under (4, 2), nothing to flush under (10, 1).
    let model = Arc::new(biomodels::simple::birth_death(30.0, 1.0, 5));
    let mk = |width: usize, slide: usize| {
        SimConfig::new(8, 2.0)
            .quantum(0.3)
            .sample_period(0.125)
            .sim_workers(2)
            .stat_workers(2)
            .window(width, slide)
            .engines(vec![
                StatEngineKind::MeanVariance,
                StatEngineKind::Quantile { p: 0.5 },
            ])
            .seed(9)
    };
    let reference = run_simulation(Arc::clone(&model), &mk(1, 1)).unwrap();
    assert_eq!(reference.rows.len(), 17);
    for (width, slide) in [(4, 2), (10, 1), (30, 30)] {
        let cfg = mk(width, slide);
        let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
        assert_eq!(par.rows, reference.rows, "window({width}, {slide})");
        assert_eq!(seq.rows, reference.rows, "window({width}, {slide}) seq");
    }
}

#[test]
fn all_engine_kinds_flow_through_the_pipeline() {
    let model = Arc::new(biomodels::simple::birth_death(40.0, 1.0, 0));
    let cfg = SimConfig::new(10, 2.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(2)
        .stat_workers(2)
        .engines(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
            StatEngineKind::Quantile { p: 0.9 },
            StatEngineKind::Histogram {
                lo: 0.0,
                hi: 100.0,
                bins: 10,
            },
        ])
        .seed(4);
    let report = run_simulation(model, &cfg).unwrap();
    let last = report.rows.last().unwrap();
    let obs = &last.observables[0];
    assert!(obs.quantile.is_some());
    assert!(obs.mode.is_some());
    assert!(obs.centroids.len() <= 2);
    assert!(obs.max >= obs.min);
}

#[test]
fn steering_terminates_a_running_simulation_early() {
    use cwc_repro::cwcsim::coordinator::{run_shard, ShardMsg, ShardSpec};
    use cwc_repro::cwcsim::{ShardPlan, Steering};
    use cwc_repro::gillespie::deps::ModelDeps;

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
    let mut events = 0;
    run_shard(model, deps, &spec, &steering, |msg| match msg {
        ShardMsg::Cut(cut) => {
            steering.terminate();
            times.push(cut.time);
        }
        ShardMsg::End(end) => events = end.events,
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

#[test]
fn pre_terminated_run_produces_no_rows() {
    use cwc_repro::cwcsim::{run_simulation_steered, Steering};

    let model = Arc::new(biomodels::simple::decay(50, 1.0));
    let cfg = SimConfig::new(4, 5.0)
        .quantum(1.0)
        .sample_period(0.5)
        .sim_workers(2)
        .seed(1);
    let steering = Steering::new();
    steering.terminate();
    let report = run_simulation_steered(model, &cfg, &steering).unwrap();
    assert!(report.rows.is_empty());
    assert_eq!(report.events, 0);
}
