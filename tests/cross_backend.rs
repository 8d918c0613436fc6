//! Integration: the simulated GPGPU must produce *identical* simulation
//! results to the CPU engines for identical seeds, under *every* engine
//! kind, and a sharded farm must reproduce the multicore one. (The matrix
//! in `agreement_matrix` holds every runner to the sequential reference
//! on generated cases too.)
//! Portability without silent numerical drift is the paper's core promise;
//! the engine abstraction must not weaken it.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::{run_sequential, run_simulation, EngineKind, SimConfig};
use cwc_repro::gillespie::ssa::SampleClock;
use cwc_repro::gillespie::trajectory::Row;
use cwc_repro::simt::DeviceMap;

mod common;
use common::engine_kinds;
use common::matrix::{check_all, in_process_shards, in_process_shards_every_kind};

/// The transport suites' configuration over 10 instances and 3 s.
fn cfg() -> SimConfig {
    let mut cfg = common::cfg().sim_workers(3).seed(2024);
    (cfg.instances, cfg.t_end) = (10, 3.0);
    cfg
}

#[test]
fn sharded_farm_matches_multicore() {
    check_all(&in_process_shards());
}

#[test]
fn sharded_farm_matches_multicore_for_every_engine_kind() {
    // The engine kind reaches every shard inside its ShardSpec; each
    // shard's farm must rebuild the exact same integrators — tasks of
    // `width` instances on the batched kind.
    check_all(&in_process_shards_every_kind());
}

/// Runs `kind` on the simulated device and asserts every instance's
/// samples and events equal those of the plain engine driven to the
/// horizon at once, and that exactly its last batch is marked finished.
fn assert_device_matches_plain_engines(kind: EngineKind, model: &Arc<Model>, cfg: &SimConfig) {
    let mut device = DeviceMap::new(
        kind,
        Arc::clone(model),
        cfg.instances,
        cfg.base_seed,
        cfg.t_end,
        cfg.quantum,
        cfg.sample_period,
    )
    .unwrap();
    let outputs = device.run_to_end();

    for i in 0..cfg.instances {
        let mut engine = kind.build(Arc::clone(model), cfg.base_seed, i).unwrap();
        let mut clock = SampleClock::new(0.0, cfg.sample_period);
        let mut expected = Vec::new();
        let fired = engine.run_sampled(cfg.t_end, &mut clock, |t, v| {
            expected.push((t, Row::from_slice(v)))
        });
        let batches: Vec<_> = outputs.iter().filter(|o| o.instance == i).collect();
        let got: Vec<(f64, Row)> = batches.iter().flat_map(|o| o.samples.clone()).collect();
        assert_eq!(got, expected, "{kind}: instance {i} diverged on the device");
        let events: u64 = batches.iter().map(|o| o.events).sum();
        assert_eq!(events, fired, "{kind}: instance {i} batch events");
        let logged: u64 = device.events_log().iter().map(|k| k[i as usize]).sum();
        assert_eq!(logged, fired, "{kind}: instance {i} kernel event log");
        let finished: Vec<bool> = batches.iter().map(|o| o.finished).collect();
        let mut last_only = vec![false; finished.len()];
        *last_only
            .last_mut()
            .expect("every instance forwards a batch") = true;
        assert_eq!(finished, last_only, "{kind}: instance {i} finished flags");
    }
}

#[test]
fn gpu_lockstep_matches_plain_engines() {
    let model = Arc::new(biomodels::lotka_volterra(
        biomodels::LotkaVolterraParams::default(),
    ));
    for kind in engine_kinds() {
        assert_device_matches_plain_engines(kind, &model, &cfg());
    }
}

#[test]
fn the_papers_model_agrees_across_backends_on_the_leaping_kinds() {
    // Neurospora's Hill-repressed transcription and saturating
    // degradations on the leaping kinds: farm, sequential reference and
    // device map must still agree bit for bit.
    let model = Arc::new(biomodels::neurospora_flat(
        biomodels::NeurosporaParams::default(),
    ));
    let cfg = SimConfig::new(6, 12.0)
        .quantum(2.0)
        .sample_period(1.0)
        .sim_workers(3)
        .stat_workers(2)
        .window(4, 2)
        .seed(2024);
    for kind in &engine_kinds()[1..3] {
        let cfg = cfg.clone().engine(*kind);
        let farm = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
        assert_eq!(farm.rows, seq.rows, "{kind}: farm vs sequential");
        assert_eq!(farm.events, seq.events, "{kind}");
        assert_device_matches_plain_engines(*kind, &model, &cfg);
    }
}

#[test]
fn gpu_quantum_size_does_not_change_results() {
    let model = Arc::new(biomodels::simple::birth_death(30.0, 1.0, 0));
    type Samples = Vec<(f64, Row)>;
    fn by_instance(outputs: Vec<(u64, Samples)>) -> Vec<(u64, Samples)> {
        let mut per_instance: std::collections::BTreeMap<u64, Samples> = Default::default();
        for (i, s) in outputs {
            per_instance.entry(i).or_default().extend(s);
        }
        per_instance.into_iter().collect()
    }
    for kind in engine_kinds() {
        let run = |quantum: f64| {
            let mut device =
                DeviceMap::new(kind, Arc::clone(&model), 6, 5, 2.0, quantum, 0.25).unwrap();
            let mut out = device.run_to_end();
            out.sort_by_key(|o| o.instance);
            out.into_iter()
                .map(|o| (o.instance, o.samples))
                .collect::<Vec<_>>()
        };
        // Different Q/τ ratios, identical trajectories (pending-event /
        // pending-leap exactness).
        assert_eq!(by_instance(run(0.25)), by_instance(run(2.0)), "{kind}");
    }
}

#[test]
fn wire_codec_round_trips_real_batches() {
    use cwc_repro::cwcsim::task::{SampleBatch, SimTask};
    use cwc_repro::distrt::{from_bytes, to_bytes};
    use cwc_repro::gillespie::deps::ModelDeps;

    let model = Arc::new(biomodels::simple::decay(30, 1.0));
    let deps = Arc::new(ModelDeps::compile(&model));
    for kind in engine_kinds() {
        let mut task = SimTask::with_engine_deps(
            kind,
            Arc::clone(&model),
            Arc::clone(&deps),
            3,
            0,
            2.0,
            0.5,
            0.25,
        )
        .unwrap();
        while !task.is_done() {
            let batch = task.run_quantum_batch();
            let bytes = to_bytes(&batch);
            let back: SampleBatch = from_bytes(&bytes).unwrap();
            assert_eq!(back, batch, "{kind}");
        }
    }
}
