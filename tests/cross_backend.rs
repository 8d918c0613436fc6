//! Integration: every execution back-end — multicore pipeline, sharded
//! farm (in-process shards; `sharded_agreement` covers real child
//! processes), simulated GPGPU — must produce *identical* simulation
//! results for identical seeds, under *every* engine kind.
//! Portability without silent numerical drift is the paper's core promise;
//! the engine abstraction must not weaken it.

use std::sync::Arc;

use cwc_repro::biomodels;
use cwc_repro::cwcsim::{run_simulation, run_simulation_sharded_in_process, EngineKind, SimConfig};
use cwc_repro::gillespie::ssa::SampleClock;
use cwc_repro::simt::DeviceMap;

fn cfg() -> SimConfig {
    SimConfig::new(10, 3.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(3)
        .stat_workers(2)
        .window(4, 2)
        .seed(2024)
}

/// The engine matrix of the correctness tests (the batched and leaping
/// kinds need flat mass-action models; every model used here qualifies).
fn engine_kinds() -> [EngineKind; 4] {
    [
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0,
        },
        // Width 3 over 10 instances: batches of 3, 3, 3 and 1 — every
        // replica must be bit-identical to scalar SSA on every backend.
        EngineKind::Batched { width: 3 },
    ]
}

#[test]
fn sharded_farm_matches_multicore() {
    let model = Arc::new(biomodels::simple::decay(50, 1.0));
    let cfg = cfg();
    let local = run_simulation(Arc::clone(&model), &cfg).unwrap();
    for shards in [1usize, 2, 5] {
        let sharded =
            run_simulation_sharded_in_process(Arc::clone(&model), &cfg.clone().shards(shards))
                .unwrap();
        assert_eq!(sharded.rows, local.rows, "{shards} shards");
    }
}

#[test]
fn sharded_farm_matches_multicore_for_every_engine_kind() {
    // The engine kind reaches every shard inside its ShardSpec; each
    // shard's farm must rebuild the exact same integrators — tasks of
    // `width` instances on the batched kind.
    let model = Arc::new(biomodels::simple::birth_death(30.0, 1.0, 10));
    for kind in engine_kinds() {
        let cfg = cfg().engine(kind);
        let local = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let sharded =
            run_simulation_sharded_in_process(Arc::clone(&model), &cfg.shards(3)).unwrap();
        assert_eq!(sharded.rows, local.rows, "{kind}");
    }
}

#[test]
fn gpu_lockstep_matches_plain_engines() {
    let model = Arc::new(biomodels::lotka_volterra(
        biomodels::LotkaVolterraParams::default(),
    ));
    let cfg = cfg();
    for kind in engine_kinds() {
        let mut device = DeviceMap::with_engine(
            kind,
            Arc::clone(&model),
            cfg.instances,
            cfg.base_seed,
            cfg.t_end,
            cfg.quantum,
            cfg.sample_period,
        )
        .unwrap();
        let outputs = device.run_to_end();

        for i in 0..cfg.instances {
            let mut engine = kind.build(Arc::clone(&model), cfg.base_seed, i).unwrap();
            let mut clock = SampleClock::new(0.0, cfg.sample_period);
            let expected = engine.advance_quantum(cfg.t_end, &mut clock).samples;
            let got: Vec<(f64, Vec<u64>)> = outputs
                .iter()
                .filter(|o| o.instance == i)
                .flat_map(|o| o.samples.clone())
                .collect();
            assert_eq!(got, expected, "{kind}: instance {i} diverged on the device");
        }
    }
}

#[test]
fn gpu_quantum_size_does_not_change_results() {
    let model = Arc::new(biomodels::simple::birth_death(30.0, 1.0, 0));
    type Samples = Vec<(f64, Vec<u64>)>;
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
                DeviceMap::with_engine(kind, Arc::clone(&model), 6, 5, 2.0, quantum, 0.25).unwrap();
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

    let model = Arc::new(biomodels::simple::decay(30, 1.0));
    for kind in engine_kinds() {
        let mut task =
            SimTask::with_engine(kind, Arc::clone(&model), 3, 0, 2.0, 0.5, 0.25).unwrap();
        while !task.is_done() {
            let mut samples = Vec::new();
            let events = task.run_quantum(&mut samples);
            let batch = SampleBatch {
                instance: task.instance(),
                samples,
                events,
                finished: task.is_done(),
            };
            let bytes = to_bytes(&batch);
            let back: SampleBatch = from_bytes(&bytes).unwrap();
            assert_eq!(back, batch, "{kind}");
        }
    }
}
