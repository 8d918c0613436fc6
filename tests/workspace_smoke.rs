//! Workspace-level smoke test: the umbrella crate re-exports every member
//! crate under its paper-facing name, and the simplest possible run agrees
//! between the parallel pipeline and the sequential reference.

use std::sync::Arc;

#[test]
fn umbrella_reexports_resolve() {
    // One symbol per re-exported crate; a failure here means the workspace
    // wiring (crate name ↔ directory mapping) regressed.
    let _parse: fn(&str) -> Result<_, _> = cwc_repro::cwc::parse_model;
    let _cfg = cwc_repro::cwcsim::SimConfig::new(1, 1.0);
    let _model = cwc_repro::biomodels::simple::decay(1, 1.0);
    let _running = cwc_repro::streamstat::welford::Running::default();
    let _seed = cwc_repro::gillespie::instance_seed(0, 0);
    let _stage = cwc_repro::fastflow::node::map_stage(|x: u64| x);
    let _bytes = cwc_repro::distrt::to_bytes(&cwc_repro::cwcsim::task::SampleBatch {
        instance: 0,
        samples: vec![],
        events: 0,
        finished: true,
    });
    let _spec = cwc_repro::simt::DeviceSpec::tesla_k40(1e-6);
    let _resource = cwc_repro::desim::Resource::new(1);
}

#[test]
fn one_instance_parallel_agrees_with_sequential() {
    let model = Arc::new(cwc_repro::biomodels::simple::decay(50, 1.0));
    let cfg = cwc_repro::cwcsim::SimConfig::new(1, 2.0)
        .quantum(0.5)
        .sample_period(0.5)
        .sim_workers(2)
        .seed(7);
    let par = cwc_repro::cwcsim::run_simulation(Arc::clone(&model), &cfg).unwrap();
    let seq = cwc_repro::cwcsim::run_sequential(model, &cfg).unwrap();
    assert_eq!(par.events, seq.events, "event counts diverged");
    assert_eq!(par.rows.len(), seq.rows.len(), "row counts diverged");
    for (p, s) in par.rows.iter().zip(&seq.rows) {
        assert_eq!(p.time, s.time);
        assert_eq!(p.observables[0].mean, s.observables[0].mean);
        assert_eq!(p.observables[0].variance, s.observables[0].variance);
    }
}
