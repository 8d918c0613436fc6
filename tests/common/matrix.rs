//! The agreement harness: a `Case` is a model under a configuration with
//! the shard counts and termination it also runs, and `check` holds every
//! runner to the sequential oracle, `run_sequential`, on it bit for bit
//! (rows, event count, observable names, `RunSummary`). The pinned cases
//! live here, in named groups: each group runs once, in the suite test
//! that names it (`named_groups` lists them), and `pinned` holds the rows
//! only `agreement_matrix` runs, next to its random cases.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cwc_repro::biomodels;
use cwc_repro::biomodels::simple::{birth_death, conversion_cycle, decay, dimerisation};
use cwc_repro::cwc::model::Model;
use cwc_repro::cwc::{parse_model, render_model};
use cwc_repro::cwcsim::{
    run_sequential, run_simulation, run_simulation_sharded_with, run_simulation_steered,
    EngineKind, InProcessTransport, SimConfig, SimError, SimReport, StatEngineKind, Steering,
};
use cwc_repro::distrt::shard::{run_simulation_sharded, run_simulation_sharded_steered};
use cwc_repro::gillespie::KernelDispatch::{Scalar, Simd};
use EngineKind::{Batched, Ssa};
use StatEngineKind::{MeanVariance, Quantile};

use super::{assert_reports_identical, engine_kinds};

pub struct Case {
    /// The model text the model was read from (or rendered to); a random
    /// model is named `random <seed>`.
    pub text: String,
    pub model: Arc<Model>,
    pub cfg: SimConfig,
    /// Shard counts for in-process shards.
    pub shards: Vec<usize>,
    /// Shard counts for child processes (each ≥ 2).
    pub processes: Vec<usize>,
    /// Also terminate a run this many ms after it starts (0: before), on
    /// the farm and on `shards[0]` shards in process and out (≥ 2).
    pub terminate_ms: Option<u64>,
}

impl Case {
    pub fn pinned(model: Model, cfg: SimConfig, shards: &[usize]) -> Self {
        Case {
            text: render_model(&model),
            model: Arc::new(model),
            cfg,
            shards: shards.to_vec(),
            processes: Vec::new(),
            terminate_ms: None,
        }
    }
}

/// The four stat engines: mean/variance, k-means, a quantile and a
/// histogram over `[0, hi)`.
pub fn stat_engines(k: usize, p: f64, hi: f64, bins: usize) -> Vec<StatEngineKind> {
    vec![
        MeanVariance,
        StatEngineKind::KMeans { k },
        Quantile { p },
        StatEngineKind::Histogram { lo: 0.0, hi, bins },
    ]
}

/// `model` under `cfg` on each of `kinds`, with `shards` in-process shards.
fn on(kinds: &[EngineKind], model: &Model, cfg: &SimConfig, shards: &[usize]) -> Vec<Case> {
    (kinds.iter())
        .map(|&kind| Case::pinned(model.clone(), cfg.clone().engine(kind), shards))
        .collect()
}

/// `n` instances over `t_end` in quanta `q`, sampled every `tau`.
fn grid(n: u64, t_end: f64, q: f64, tau: f64) -> SimConfig {
    SimConfig::new(n, t_end).quantum(q).sample_period(tau)
}

/// The transport suites' configuration with another instance count,
/// horizon and seed.
fn with(instances: u64, t_end: f64, seed: u64) -> SimConfig {
    let mut cfg = super::cfg().seed(seed);
    (cfg.instances, cfg.t_end) = (instances, t_end);
    cfg
}

/// Flat models with every law on every kind, 1 in-process shard and 2
/// and 3 shard processes.
pub fn sharded_models() -> Vec<Case> {
    let models = [
        decay(60, 1.0),
        dimerisation(0.01, 0.1, 120),
        biomodels::schlogl(Default::default()),
        biomodels::neurospora_flat(Default::default()),
    ];
    let mut cases: Vec<Case> = (models.iter())
        .flat_map(|model| on(&engine_kinds(), model, &super::cfg(), &[1]))
        .collect();
    cases.iter_mut().for_each(|c| c.processes = vec![2, 3]);
    cases
}

/// The six-observable chain under all four stat engines, on every kind,
/// 1–3 in-process shards and 2 and 3 shard processes: every sample, cut
/// and cut frame takes the spilled-row path.
pub fn spilled_chain() -> Vec<Case> {
    let spill = super::cfg().engines(stat_engines(2, 0.5, 60.0, 12));
    let mut cases = on(&engine_kinds(), &six_observable_chain(), &spill, &[1, 2, 3]);
    cases.iter_mut().for_each(|c| c.processes = vec![2, 3]);
    cases
}

/// Three instances on 8 shards, in process and out.
pub fn more_shards_than_instances() -> Vec<Case> {
    let mut case = Case::pinned(decay(30, 1.0), with(3, 2.0, 101), &[8]);
    case.processes = vec![8];
    vec![case]
}

/// Busy birth–death on every kind, terminated 8 ms in (often inside the
/// run) on the farm and on 2 shards in process and out.
pub fn terminated_mid_run() -> Vec<Case> {
    let busy = with(6, 4.0, 77).quantum(0.25).sample_period(0.125);
    let mut cases = on(&engine_kinds(), &birth_death(400.0, 1.0, 200), &busy, &[2]);
    cases.iter_mut().for_each(|c| c.terminate_ms = Some(8));
    cases
}

/// Decay terminated before it starts, on the farm and on 2 shards in
/// process and out: no rows, no events.
pub fn terminated_before_start() -> Vec<Case> {
    let cfg = grid(4, 5.0, 1.0, 0.5).sim_workers(2).seed(1);
    let mut case = Case::pinned(decay(50, 1.0), cfg, &[2]);
    case.terminate_ms = Some(0);
    vec![case]
}

/// Three flat models on `kinds` under four configurations: Q/τ either
/// way round, a single instance on one worker with capacity-1 channels,
/// sparse sampling.
pub fn flat_grids(kinds: &[EngineKind]) -> Vec<Case> {
    let grids = [
        grid(4, 2.0, 0.5, 0.25),
        (grid(12, 3.0, 0.3, 0.1).sim_workers(4).stat_workers(3)).window(6, 3),
        grid(1, 1.0, 10.0, 0.5).sim_workers(1).channel_capacity(1),
        grid(6, 4.0, 0.25, 1.0).stat_workers(2),
    ];
    let lotka_volterra = biomodels::lotka_volterra(Default::default());
    let mut cases = Vec::new();
    for model in [decay(60, 1.0), birth_death(30.0, 1.0, 5), lotka_volterra] {
        for (seed, cfg) in (1..).zip(&grids) {
            cases.extend(on(kinds, &model, &cfg.clone().seed(seed), &[1]));
        }
    }
    cases
}

/// Michaelis–Menten on 1, 4 and 8 sim workers.
pub fn worker_counts() -> Vec<Case> {
    let mm = biomodels::michaelis_menten(Default::default());
    let mut cases = Vec::new();
    for workers in [1, 4, 8] {
        let cfg = grid(8, 1.0, 0.2, 0.1).sim_workers(workers).seed(77);
        cases.extend(on(&[Ssa], &mm, &cfg.stat_workers(workers.min(3)), &[1]));
    }
    cases
}

/// Four window geometries, one per cut up to wider than the run.
pub fn window_geometries() -> Vec<Case> {
    let median = vec![MeanVariance, Quantile { p: 0.5 }];
    let mut cases = Vec::new();
    for (width, slide) in [(1, 1), (4, 2), (10, 1), (30, 30)] {
        let cfg = grid(8, 2.0, 0.3, 0.125).stat_workers(2).seed(9);
        let cfg = cfg.window(width, slide).engines(median.clone());
        cases.extend(on(&[Ssa], &birth_death(30.0, 1.0, 5), &cfg, &[1]));
    }
    cases
}

/// All four stat engines filling their columns.
pub fn four_stat_engines() -> Vec<Case> {
    let cfg = grid(10, 2.0, 0.5, 0.25).stat_workers(2).seed(4);
    let cfg = cfg.engines(stat_engines(2, 0.9, 100.0, 10));
    on(&[Ssa], &birth_death(40.0, 1.0, 0), &cfg, &[1])
}

/// The whole τ grid over 8 instances, four samples a quantum.
pub fn whole_grid() -> Vec<Case> {
    let cfg = grid(8, 4.0, 1.0, 0.25).seed(5);
    on(&[Ssa], &decay(40, 2.0), &cfg, &[1])
}

/// Decay on 1, 2 and 5 in-process shards.
pub fn in_process_shards() -> Vec<Case> {
    let ten = with(10, 3.0, 2024).sim_workers(3);
    on(&[Ssa], &decay(50, 1.0), &ten, &[1, 2, 5])
}

/// Birth–death on every kind, 3 in-process shards.
pub fn in_process_shards_every_kind() -> Vec<Case> {
    let ten = with(10, 3.0, 2024).sim_workers(3);
    on(&engine_kinds(), &birth_death(30.0, 1.0, 10), &ten, &[3])
}

/// A compartment model on the tree core, on the exact kinds only, 1–3
/// in-process shards.
pub fn compartment() -> Vec<Case> {
    let transport = biomodels::cell_transport(Default::default());
    let small = grid(6, 2.0, 0.25, 0.125).sim_workers(3).stat_workers(2);
    let mut cases = Vec::new();
    for cfg in [small.seed(9), with(9, 3.0, 33)] {
        cases.extend(on(&[Ssa, engine_kinds()[3]], &transport, &cfg, &[1, 2, 3]));
    }
    cases
}

/// Every group a suite test runs under its own name, as it runs it:
/// `sharded_agreement`, `cross_backend` and `pipeline_correctness`.
pub fn named_groups() -> Vec<Case> {
    let all = engine_kinds();
    let mut cases = sharded_models();
    cases.extend(spilled_chain());
    cases.extend(more_shards_than_instances());
    cases.extend(in_process_shards());
    cases.extend(in_process_shards_every_kind());
    cases.extend(flat_grids(&all[..1]));
    cases.extend(flat_grids(&all[1..3]));
    cases.extend(compartment());
    cases.extend(whole_grid());
    cases.extend(worker_counts());
    cases.extend(window_geometries());
    cases.extend(four_stat_engines());
    cases.extend(terminated_before_start());
    cases
}

/// The pinned rows only the matrix runs: termination mid-run on every
/// kind, sharded and batched rows.
pub fn pinned() -> Vec<Case> {
    let all = engine_kinds();
    let mut cases = terminated_mid_run();

    // Sparse sampling on shards (three quanta in four forward no batch),
    // the summary's stat columns, batched shards.
    let nine = with(9, 3.0, 33);
    for cfg in [nine.clone(), nine.clone().quantum(0.25).sample_period(1.0)] {
        cases.extend(on(&[Ssa], &decay(40, 1.0), &cfg, &[1, 2, 3, 5]));
    }
    let mut summary = stat_engines(2, 0.9, 60.0, 12);
    summary.remove(1); // no k-means
    let cfg = nine.clone().engines(summary);
    cases.extend(on(&[Ssa], &birth_death(20.0, 1.0, 10), &cfg, &[1, 2, 3]));
    let batched4 = [Batched { width: 4 }];
    cases.extend(on(&batched4, &decay(40, 1.0), &nine, &[1, 2, 3]));

    // Batch widths below, at and above the instance count; 40 rules, so
    // rows past the short-row cutoff fold and select on the dispatched
    // kernels.
    let six = with(6, 3.0, 11);
    let widths = [1, 2, 4, 6, 9].map(|width| Batched { width });
    cases.extend(on(&all, &decay(40, 1.0), &six, &[1]));
    cases.extend(on(&widths, &birth_death(25.0, 1.0, 5), &six, &[1]));
    let cycle = conversion_cycle(40, 400, 1.0);
    for dispatch in [Scalar, Simd] {
        let cfg = six.clone().kernel_dispatch(dispatch);
        cases.extend(on(&batched4, &cycle, &cfg, &[1]));
    }
    cases
}

/// A flat source → six-species chain → sink network observing all six
/// species: more observables than a sample row holds inline, so every
/// sample, cut and cut frame of its runs takes the spilled-row path.
pub fn six_observable_chain() -> Model {
    let mut text = String::from("model six-observable-chain\nspecies A B C D E F\n");
    text += "term: A*10 B*10 C*10 D*10 E*10 F*10\nrule source @ 20.0 : => A\n";
    for pair in ["A", "B", "C", "D", "E", "F"].windows(2) {
        text += &format!("rule {0}->{1} @ 1.0 : {0} => {1}\n", pair[0], pair[1]);
    }
    text += "rule sink @ 0.5 : F =>\n";
    for name in ["A", "B", "C", "D", "E", "F"] {
        text += &format!("observe {name} = {name}\n");
    }
    parse_model(&text).unwrap()
}

/// Counts what a set of cases runs, by tag.
#[derive(Default)]
pub struct Tally(pub BTreeMap<String, usize>);

impl Tally {
    /// Tags the runners `check` holds to the oracle on `case`.
    pub fn runners(&mut self, case: &Case) {
        let kind = case.cfg.engine.name();
        self.add(format!("farm/{kind}"));
        for _ in &case.shards {
            self.add(format!("in-process/{kind}"));
        }
        for _ in &case.processes {
            self.add(format!("processes/{kind}"));
        }
        if let Some(ms) = case.terminate_ms {
            self.add(format!("terminated/{kind}"));
            self.when(ms == 0, "terminated before start");
        }
    }

    pub fn add(&mut self, tag: impl Into<String>) {
        *self.0.entry(tag.into()).or_default() += 1;
    }

    pub fn when(&mut self, holds: bool, tag: impl Into<String>) {
        if holds {
            self.add(tag);
        }
    }
}

/// One row per τ-grid point, in order, over every instance; each
/// configured stat engine fills its column and no other column is set.
pub fn assert_grid(report: &SimReport, case: &Case) {
    let cfg = &case.cfg;
    assert_eq!(report.rows.len() as u64, cfg.samples_per_instance());
    let (mut k, mut quantile, mut histogram) = (0, false, false);
    for engine in &cfg.engines {
        match *engine {
            StatEngineKind::KMeans { k: n } => k = n,
            StatEngineKind::Quantile { .. } => quantile = true,
            StatEngineKind::Histogram { .. } => histogram = true,
            StatEngineKind::MeanVariance => {}
        }
    }
    for (i, row) in report.rows.iter().enumerate() {
        assert_eq!(row.time, i as f64 * cfg.sample_period, "row {i}");
        assert_eq!(row.instances as u64, cfg.instances, "row {i}");
        assert_eq!(row.observables.len(), case.model.observables.len());
        for obs in &row.observables {
            assert!(obs.min <= obs.max, "row {i}: {obs:?}");
            assert_eq!(obs.centroids.len(), k, "row {i}: {obs:?}");
            assert_eq!(obs.quantile.is_some(), quantile, "row {i}: {obs:?}");
            assert_eq!(obs.mode.is_some(), histogram, "row {i}: {obs:?}");
        }
    }
}

/// Runs `run` with a `Steering` terminated `ms` after the start (before
/// it, for 0) and checks that the drained report is a prefix of `full`.
pub fn assert_terminated_prefix(
    ms: u64,
    full: &SimReport,
    label: &str,
    run: impl FnOnce(&Steering) -> Result<SimReport, SimError>,
) {
    let steering = Steering::new();
    if ms == 0 {
        steering.terminate();
    }
    let terminator = steering.clone();
    let timer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(ms));
        terminator.terminate();
    });
    let drained = run(&steering).unwrap_or_else(|e| panic!("{label}: {e}"));
    timer.join().unwrap();
    let n = drained.rows.len();
    assert!(n <= full.rows.len(), "{label}: {n} rows");
    assert_eq!(drained.rows[..], full.rows[..n], "{label}: not a prefix");
    assert!(drained.events <= full.events, "{label}: events");
    assert_eq!(drained.summary.cuts(), n as u64, "{label}: summary cuts");
    if ms == 0 {
        assert_eq!((n, drained.events), (0, 0), "{label}: ran after terminate");
    }
}

/// Every check of one case; returns the oracle's report.
pub fn check(case: &Case) -> SimReport {
    let (model, cfg) = (&case.model, &case.cfg);
    let oracle = run_sequential(Arc::clone(model), cfg).expect("oracle");
    assert_grid(&oracle, case);
    let farm = run_simulation(Arc::clone(model), cfg).expect("farm");
    assert_reports_identical(&farm, &oracle, "farm");
    let in_process = |cfg: &SimConfig, steering: &Steering| {
        run_simulation_sharded_with(Arc::clone(model), cfg, steering, &mut InProcessTransport)
    };
    for &shards in &case.shards {
        let report = in_process(&cfg.clone().shards(shards), &Steering::new());
        let label = format!("{shards} in-process shards");
        assert_reports_identical(&report.expect(&label), &oracle, &label);
    }
    for &shards in &case.processes {
        let report = run_simulation_sharded(Arc::clone(model), &cfg.clone().shards(shards));
        let label = format!("{shards} shard processes");
        assert_reports_identical(&report.expect(&label), &oracle, &label);
    }
    if let Some(ms) = case.terminate_ms {
        let sharded = cfg.clone().shards(case.shards[0]);
        assert_terminated_prefix(ms, &farm, "terminated farm", |s| {
            run_simulation_steered(Arc::clone(model), cfg, s)
        });
        assert_terminated_prefix(ms, &farm, "terminated in-process shards", |s| {
            in_process(&sharded, s)
        });
        assert_terminated_prefix(ms, &farm, "terminated shard processes", |s| {
            run_simulation_sharded_steered(Arc::clone(model), &sharded, s)
        });
    }
    oracle
}

/// Checks every case on three case runners (a case spends much of its
/// time waiting on its pipeline's hand-offs and on child processes) and
/// returns the oracles' reports in case order. A failing case prints its
/// configuration, shard counts, termination and model text.
pub fn check_all(cases: &[Case]) -> Vec<SimReport> {
    let next = AtomicUsize::new(0);
    let mut oracles = Vec::new();
    std::thread::scope(|scope| {
        let runner = || {
            let mut checked = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else {
                    return checked;
                };
                let oracle = std::panic::catch_unwind(AssertUnwindSafe(|| check(case)));
                let Case {
                    cfg,
                    shards,
                    processes,
                    terminate_ms: ms,
                    text,
                    ..
                } = case;
                let oracle = oracle.unwrap_or_else(|_| {
                    panic!(
                        "case failed (`Case::random(seed)` replays a random one): {cfg:?}\n\
                         shards {shards:?}, processes {processes:?}, terminate {ms:?} ms\n{text}"
                    )
                });
                checked.push((i, oracle));
            }
        };
        let runners: Vec<_> = (0..3).map(|_| scope.spawn(runner)).collect();
        for runner in runners {
            oracles.extend(runner.join().expect("a case failed"));
        }
    });
    oracles.sort_unstable_by_key(|&(i, _)| i);
    oracles.into_iter().map(|(_, oracle)| oracle).collect()
}
