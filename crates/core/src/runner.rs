//! Whole-pipeline assembly: the paper's Fig. 2 in one call.
//!
//! [`run_simulation`] spawns the three-stage main pipeline —
//!
//! ```text
//! generation ─▶ farm of sim engines (feedback) ─▶ alignment ─▶
//!   sliding windows ─▶ ordered farm of stat engines ─▶ report
//! ```
//!
//! — and returns every produced [`StatRow`] plus run-time metrics; the stat
//! farm's blocks are flattened into rows by the thread that collects them
//! (docs/ARCHITECTURE.md names every thread of a default run).
//! [`run_sequential`] computes the same rows with no parallelism at all;
//! the two must agree bit-for-bit for a fixed seed, which is the
//! correctness contract the integration tests enforce.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cwc::model::Model;
use fastflow::metrics::RunStats;
use fastflow::node::{Outbox, Stage};
use fastflow::pipeline::Pipeline;
use gillespie::trajectory::Cut;

use crate::alignment::Alignment;
use crate::config::{ConfigError, SimConfig};
use crate::display::CsvRenderer;
use crate::engines::{StatBlock, StatEngineSet, StatRow};
use crate::merge::RunSummary;
use crate::sim_farm::{sim_farm, Steering};
use crate::task::{SampleBatch, SimTask};
use crate::windows::{Window, WindowGen};

/// Outcome of a simulation-analysis run.
#[derive(Debug)]
pub struct SimReport {
    /// Analysis rows in time order (one per cut).
    pub rows: Vec<StatRow>,
    /// Per-node run-time statistics from the pattern framework.
    pub run_stats: RunStats,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Total reactions fired across all trajectories.
    pub events: u64,
    /// Observable names, in row order.
    pub observable_names: Vec<String>,
    /// Whole-run streaming statistics over every sample of every cut
    /// (see [`RunSummary`]), folded by the `run-summary` stage — so every
    /// runner, sharded or not, reports the same bits.
    pub summary: RunSummary,
}

impl SimReport {
    /// Assembles the report of a run over `model` that began at `start`.
    pub(crate) fn new(
        model: &Model,
        rows: Vec<StatRow>,
        run_stats: RunStats,
        start: Instant,
        events: u64,
        summary: RunSummary,
    ) -> Self {
        // Blocks arrive window-ordered (the ordered farm's collector
        // restores stream order) and rows within blocks are time-ordered,
        // so the concatenation is already sorted — no repair sort. Pin the
        // invariant cheaply in debug runs.
        debug_assert!(rows.windows(2).all(|w| w[0].time <= w[1].time));
        SimReport {
            rows,
            run_stats,
            wall: start.elapsed(),
            events,
            observable_names: model
                .observable_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            summary,
        }
    }

    /// Renders the rows as CSV (see [`CsvRenderer`]).
    pub fn to_csv(&self) -> String {
        let with_centroids = self
            .rows
            .first()
            .map(|r| r.observables.iter().any(|o| !o.centroids.is_empty()))
            .unwrap_or(false);
        CsvRenderer::new(self.observable_names.clone(), with_centroids).render(&self.rows)
    }

    /// Mean-of-means of observable `k` over the whole run (quick summary).
    pub fn grand_mean(&self, k: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.observables.get(k).map(|o| o.mean).unwrap_or(0.0))
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

/// Error from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The model failed validation.
    Model(cwc::model::ModelError),
    /// The configured engine kind cannot drive the model (e.g.
    /// adaptive tau-leaping on a compartment model).
    Engine(gillespie::engine::EngineError),
    /// A pipeline node panicked.
    Pipeline(fastflow::error::Error),
    /// A shard of a sharded run failed (spawn failure, crashed worker
    /// process, worker-side simulation error).
    Shard(crate::coordinator::ShardError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            SimError::Shard(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<cwc::model::ModelError> for SimError {
    fn from(e: cwc::model::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<fastflow::error::Error> for SimError {
    fn from(e: fastflow::error::Error) -> Self {
        SimError::Pipeline(e)
    }
}

impl From<gillespie::engine::EngineError> for SimError {
    fn from(e: gillespie::engine::EngineError) -> Self {
        SimError::Engine(e)
    }
}

impl From<crate::coordinator::ShardError> for SimError {
    fn from(e: crate::coordinator::ShardError) -> Self {
        SimError::Shard(e)
    }
}

/// The analysis half of the Fig. 2 network, on the stream of full cuts:
/// the `run-summary` stage folds every cut into the whole-run
/// [`RunSummary`], then sliding windows feed the ordered farm of
/// statistical engines. It ends in the farm's window-ordered
/// [`StatBlock`]s; both callers flatten them into time-ordered rows where
/// they collect — a node that only unpacked a `Vec` would be a thread and
/// a channel hop for nothing. The single-process runner feeds it its own
/// aligned cuts, the sharded coordinator the merged cut stream, so both
/// summarise the same cuts in the same order. Read the summary with
/// [`joined_summary`] once the pipeline has joined.
pub(crate) fn analysis_tail(
    cuts: Pipeline<Cut>,
    cfg: &SimConfig,
) -> (Pipeline<StatBlock>, Arc<Mutex<RunSummary>>) {
    let summary = Arc::new(Mutex::new(RunSummary::new(cfg.engines.clone())));
    let summary_in_stage = Arc::clone(&summary);
    let engine_set = StatEngineSet::new(cfg.engines.clone());
    let blocks = cuts
        .named_stage(
            "run-summary",
            fastflow::node::map_stage(move |cut: Cut| {
                summary_in_stage
                    .lock()
                    .expect("summary mutex poisoned")
                    .push_cut(&cut);
                cut
            }),
        )
        .named_stage(
            "window-gen",
            WindowGen::new(cfg.window_width, cfg.window_slide),
        )
        .ordered_farm(cfg.stat_workers, |_| {
            let set = engine_set.clone();
            move |w: Window| set.analyse(&w)
        });
    (blocks, summary)
}

/// The summary [`analysis_tail`] folded, taken once its pipeline has
/// joined (the stage's handle is gone with it).
pub(crate) fn joined_summary(summary: Arc<Mutex<RunSummary>>) -> RunSummary {
    Arc::try_unwrap(summary)
        .expect("pipeline joined; no other summary holders")
        .into_inner()
        .expect("summary mutex poisoned")
}

/// Runs the full parallel simulation-analysis pipeline.
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration/model or a node panic.
pub fn run_simulation(model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
    run_simulation_steered(model, cfg, &Steering::new())
}

/// Like [`run_simulation`], controlled by a [`Steering`] handle: calling
/// [`Steering::terminate`] from any thread stops the run at the next
/// quantum boundaries; the pipeline drains and the report covers whatever
/// completed (the paper's GUI "steer and terminate running simulations").
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration/model or a node panic.
pub fn run_simulation_steered(
    model: Arc<Model>,
    cfg: &SimConfig,
    steering: &Steering,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    model.validate()?;
    let start = Instant::now();

    // Stage 1 + 2: generation of simulation tasks with the configured
    // engine, feeding the farm of simulation engines with feedback. The
    // model is "compiled" (dependency graph + read/write sets) once here
    // and shared by every instance's incremental propensity row.
    let (farm, events) = sim_farm(
        Arc::clone(&model),
        Arc::new(gillespie::deps::ModelDeps::compile(&model)),
        cfg.engine,
        0..cfg.instances,
        cfg.base_seed,
        cfg.t_end,
        cfg.quantum,
        cfg.sample_period,
        cfg.kernel_dispatch,
        cfg.sim_workers,
        cfg.channel_capacity,
        steering,
    )?;

    // Stage 3: alignment of trajectories; then the analysis pipeline.
    let cuts = farm.named_stage(
        "alignment",
        Alignment::new(cfg.instances, cfg.sample_period),
    );
    let (tail, summary) = analysis_tail(cuts, cfg);
    let (rx, handle) = tail.into_receiver();
    let rows: Vec<StatRow> = rx.iter().flat_map(|block| block.rows).collect();
    let run_stats = handle.join()?;
    Ok(SimReport::new(
        &model,
        rows,
        run_stats,
        start,
        events.load(Ordering::Relaxed),
        joined_summary(summary),
    ))
}

/// Sequential reference implementation: same rows, no parallelism.
///
/// Always runs one task per instance, even for
/// [`EngineKind::Batched`](gillespie::engine::EngineKind::Batched) —
/// a batch replica *is* the scalar SSA trajectory of its instance, so the
/// per-instance run is the batched kind's reference, and the seq-vs-par
/// agreement tests check its `width`-instance farm tasks against it.
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration or model.
pub fn run_sequential(model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
    cfg.validate()?;
    model.validate()?;
    let start = Instant::now();

    // Run every instance to completion, collecting samples. Same
    // compile-once sharing as the parallel path.
    let deps = Arc::new(gillespie::deps::ModelDeps::compile(&model));
    let mut events = 0u64;
    let mut batches: Vec<SampleBatch> = Vec::new();
    for i in 0..cfg.instances {
        let mut task = SimTask::with_engine_deps(
            cfg.engine,
            Arc::clone(&model),
            Arc::clone(&deps),
            cfg.base_seed,
            i,
            cfg.t_end,
            cfg.quantum,
            cfg.sample_period,
        )?;
        let mut samples = Vec::new();
        while !task.is_done() {
            events += task.run_quantum(&mut samples);
        }
        batches.push(SampleBatch {
            instance: i,
            samples,
            events: 0,
            finished: true,
        });
    }

    // Alignment → summary → windows → statistics: whatever a stage emits
    // is consumed before the next item is fed, so one window is held at a
    // time. The whole-run summary is fed cut by cut like the parallel path.
    let mut alignment = Alignment::new(cfg.instances, cfg.sample_period);
    let mut gen = WindowGen::new(cfg.window_width, cfg.window_slide);
    let mut summary = RunSummary::new(cfg.engines.clone());
    let set = StatEngineSet::new(cfg.engines.clone());
    let mut rows: Vec<StatRow> = Vec::new();
    let (cut_tx, cut_rx) = fastflow::channel::unbounded();
    let (window_tx, window_rx) = fastflow::channel::unbounded();
    let mut analyse_due = || {
        while let Ok(window) = window_rx.try_recv() {
            rows.extend(set.analyse(&window).rows);
        }
    };
    for b in batches {
        alignment.on_item(b, &mut Outbox::new(&cut_tx));
        while let Ok(cut) = cut_rx.try_recv() {
            summary.push_cut(&cut);
            gen.on_item(cut, &mut Outbox::new(&window_tx));
            analyse_due();
        }
    }
    gen.on_end(&mut Outbox::new(&window_tx));
    analyse_due();

    Ok(SimReport::new(
        &model,
        rows,
        RunStats::default(),
        start,
        events,
        summary,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::StatEngineKind;
    use biomodels::simple::{birth_death, decay};
    use cwc::model::Model;

    fn small_cfg() -> SimConfig {
        SimConfig::new(6, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(2)
            .window(4, 2)
            .seed(11)
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let model = Arc::new(decay(40, 1.0));
        let cfg = small_cfg();
        let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let seq = run_sequential(model, &cfg).unwrap();
        assert_eq!(par.rows, seq.rows);
        assert_eq!(par.events, seq.events);
    }

    #[test]
    fn parallel_equals_sequential_for_every_engine_kind() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(decay(40, 1.0));
        for kind in [
            EngineKind::Ssa,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            // The sequential reference runs scalar engines, so this is
            // the batched kind vs its per-instance definition.
            EngineKind::Batched { width: 4 },
        ] {
            let cfg = small_cfg().engine(kind);
            let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
            let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(par.rows, seq.rows, "{kind}");
            assert_eq!(par.events, seq.events, "{kind}");
        }
    }

    #[test]
    fn batched_run_equals_ssa_run_for_every_width() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(birth_death(25.0, 1.0, 5));
        let cfg = small_cfg();
        let reference = run_simulation(Arc::clone(&model), &cfg).unwrap();
        // Widths below, at, and above the instance count (6), including
        // widths that don't divide it — batch membership must not matter.
        for width in [1usize, 2, 4, 6, 9] {
            let cfg = small_cfg().engine(EngineKind::Batched { width });
            let batched = run_simulation(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(batched.rows, reference.rows, "width {width}");
            assert_eq!(batched.events, reference.events, "width {width}");
        }
    }

    #[test]
    fn kernel_dispatch_knob_never_changes_the_report() {
        use gillespie::engine::EngineKind;
        use gillespie::KernelDispatch;
        // 40 rules: past the short-row cutoff, so the replicas' rows fold
        // and select on the dispatched kernels, not the inline scans.
        let model = Arc::new(biomodels::simple::conversion_cycle(40, 400, 1.0));
        let auto = run_simulation(Arc::clone(&model), &small_cfg()).unwrap();
        for dispatch in [KernelDispatch::Scalar, KernelDispatch::Simd] {
            let cfg = small_cfg()
                .engine(EngineKind::Batched { width: 4 })
                .kernel_dispatch(dispatch);
            let run = run_simulation(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(run.rows, auto.rows, "{dispatch}");
            assert_eq!(run.events, auto.events, "{dispatch}");
        }
    }

    #[test]
    fn flat_only_kinds_on_compartment_model_are_rejected_as_engine_errors() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        for kind in [
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let cfg = small_cfg().engine(kind);
            let err = run_simulation(Arc::clone(&model), &cfg).unwrap_err();
            assert!(matches!(err, SimError::Engine(_)), "{kind}");
            // The surfaced message names the offending rule, consistently
            // across every flat-only engine.
            assert!(
                err.to_string().contains('`'),
                "{kind}: {err} should name the offending rule"
            );
            assert!(matches!(
                run_sequential(Arc::clone(&model), &cfg),
                Err(SimError::Engine(_))
            ));
        }
    }

    #[test]
    fn report_has_one_row_per_grid_point() {
        let model = Arc::new(decay(30, 1.0));
        let cfg = small_cfg();
        let report = run_simulation(model, &cfg).unwrap();
        assert_eq!(report.rows.len(), cfg.samples_per_instance() as usize);
        assert!(report.rows.windows(2).all(|w| w[0].time < w[1].time));
        assert!(report.events > 0);
        assert_eq!(report.observable_names, vec!["A"]);
    }

    #[test]
    fn a_default_run_has_one_source_and_three_serial_stages() {
        // Every node that reports statistics, by name: a stage that only
        // forwards (a `pipeline.stage.N`) would show up here.
        let report = run_simulation(Arc::new(decay(30, 1.0)), &SimConfig::new(4, 2.0)).unwrap();
        let mut names: Vec<&str> = report.run_stats.nodes().iter().map(|n| &*n.name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["alignment", "pipeline.source", "run-summary", "window-gen"]
        );
    }

    #[test]
    fn decay_mean_trend_is_monotone_decreasing() {
        let model = Arc::new(decay(200, 1.0));
        let cfg = SimConfig::new(16, 2.0)
            .quantum(0.5)
            .sample_period(0.5)
            .sim_workers(2)
            .seed(5);
        let report = run_simulation(model, &cfg).unwrap();
        let means: Vec<f64> = report.rows.iter().map(|r| r.observables[0].mean).collect();
        assert!(means.windows(2).all(|w| w[0] >= w[1]), "means {means:?}");
        assert_eq!(means[0], 200.0);
    }

    #[test]
    fn kmeans_engine_flows_through_pipeline() {
        let model = Arc::new(birth_death(20.0, 1.0, 0));
        let cfg = small_cfg().engines(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
        ]);
        let report = run_simulation(model, &cfg).unwrap();
        assert!(report
            .rows
            .iter()
            .all(|r| r.observables[0].centroids.len() <= 2));
        let csv = report.to_csv();
        assert!(csv.contains("A_centroids"));
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let model = Arc::new(decay(10, 1.0));
        let cfg = SimConfig::new(0, 1.0);
        assert!(matches!(
            run_simulation(model, &cfg),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn invalid_model_is_rejected() {
        let model = Arc::new(Model::new("empty"));
        let cfg = SimConfig::new(1, 1.0);
        assert!(matches!(
            run_simulation(model, &cfg),
            Err(SimError::Model(_))
        ));
    }

    #[test]
    fn grand_mean_summarises_rows() {
        let model = Arc::new(decay(100, 10.0));
        let cfg = small_cfg();
        let report = run_simulation(model, &cfg).unwrap();
        let gm = report.grand_mean(0);
        assert!((0.0..=100.0).contains(&gm));
    }
}
