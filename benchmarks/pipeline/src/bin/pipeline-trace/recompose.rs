//! The traced run: a benchmark-owned single-thread re-composition of the
//! pipeline out of each layer's public calls, one span per call.
//!
//! It streams the way the real network does — tasks advance one quantum at
//! a time, round-robin, as the farm master reschedules them; every batch
//! goes straight through alignment, and every cut that falls out goes
//! through the run summary, the window generator and the stat engines —
//! so buffer depths and allocation patterns are the pipeline's, while one
//! thread and no channels between layers make every nanosecond
//! attributable. Its rows must equal the oracle's.

use std::collections::VecDeque;
use std::sync::Arc;

use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::alignment::Alignment;
use cwc_repro::cwcsim::engines::{StatEngineSet, StatRow};
use cwc_repro::cwcsim::merge::RunSummary;
use cwc_repro::cwcsim::task::{batch_spans, BatchSimTask, SampleBatch, SimTask};
use cwc_repro::cwcsim::windows::{Window, WindowGen};
use cwc_repro::fastflow::channel::{unbounded, Receiver, Sender};
use cwc_repro::fastflow::metrics::RunStats;
use cwc_repro::fastflow::node::{Outbox, Stage};
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::trajectory::Cut;
use cwc_repro::{EngineKind, SimConfig, SimError, SimReport};

use crate::spans::Tracer;

/// Span names of the traced run (the per-layer metrics are derived from
/// their totals).
pub mod names {
    pub const TOTAL: &str = "trace.total";
    pub const DEPS_COMPILE: &str = "gillespie.deps.compile";
    pub const TASK_NEW: &str = "cwcsim.task.new";
    pub const QUANTUM: &str = "gillespie.engine.quantum";
    pub const ALIGN: &str = "cwcsim.alignment.on_item";
    pub const SUMMARY: &str = "cwcsim.merge.summary.push_cut";
    pub const WINDOWS: &str = "cwcsim.windows.on_item";
    pub const WINDOW_DROP: &str = "cwcsim.windows.drop";
    pub const ENGINES: &str = "cwcsim.engines.analyse";
    pub const CSV: &str = "cwcsim.display.to_csv";
}

/// Exact counts taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Reactions fired (summed from `run_quantum`'s return values).
    pub events: u64,
    /// Samples handed from the engines to alignment.
    pub samples: u64,
    /// Observables per sample.
    pub observables: u64,
    /// Most partially-filled cuts alignment ever buffered.
    pub peak_buffered: u64,
    /// Bytes of the rendered CSV.
    pub csv_bytes: u64,
}

/// What the traced run produced.
#[derive(Debug)]
pub struct Recomposed {
    /// The report, comparable to the oracle's.
    pub report: SimReport,
    /// Every aligned cut, in grid order (input of the wire and per-engine
    /// probes; moved out of the windows, never cloned).
    pub cuts: Vec<Cut>,
    /// Boundary counts.
    pub counts: Counts,
}

/// The farm's unit of scheduling, either tier.
enum Unit {
    Scalar(SimTask),
    Batch(BatchSimTask),
}

/// Alignment onwards: everything downstream of the farm.
struct Analysis {
    alignment: Alignment,
    cut_tx: Sender<Cut>,
    cut_rx: Receiver<Cut>,
    summary: RunSummary,
    windows: WindowGen,
    window_tx: Sender<Window>,
    window_rx: Receiver<Window>,
    engines: StatEngineSet,
    rows: Vec<StatRow>,
    cuts: Vec<Cut>,
    counts: Counts,
}

impl Analysis {
    fn feed(&mut self, tracer: &mut Tracer, batch: SampleBatch) {
        self.counts.samples += batch.samples.len() as u64;
        if let Some((_, values)) = batch.samples.first() {
            self.counts.observables = values.len() as u64;
        }
        let mut out = Outbox::new(&self.cut_tx);
        tracer.span(names::ALIGN, || {
            self.alignment.on_item(batch, &mut out);
        });
        self.counts.peak_buffered = self
            .counts
            .peak_buffered
            .max(self.alignment.buffered() as u64);
        while let Ok(cut) = self.cut_rx.try_recv() {
            tracer.span(names::SUMMARY, || self.summary.push_cut(&cut));
            let mut out = Outbox::new(&self.window_tx);
            tracer.span(names::WINDOWS, || {
                self.windows.on_item(cut, &mut out);
            });
            self.analyse_ready_windows(tracer);
        }
    }

    fn analyse_ready_windows(&mut self, tracer: &mut Tracer) {
        while let Ok(mut window) = self.window_rx.try_recv() {
            let block = tracer.span(names::ENGINES, || self.engines.analyse(&window));
            self.rows.extend(block.rows);
            // The fresh cuts are analysed exactly once, here; keep them.
            let fresh_from = window.cuts.len() - window.fresh;
            self.cuts.extend(window.cuts.drain(fresh_from..));
            // Freeing the window's cloned context cuts is the price of
            // having cloned them: the stat worker pays it in the real
            // pipeline, and it is the window layer's cost.
            tracer.span(names::WINDOW_DROP, || drop(window));
        }
    }

    fn finish(&mut self, tracer: &mut Tracer) {
        let mut out = Outbox::new(&self.window_tx);
        tracer.span(names::WINDOWS, || self.windows.on_end(&mut out));
        self.analyse_ready_windows(tracer);
    }
}

/// Runs the workload once, single-threaded, recording spans into `tracer`.
///
/// # Errors
///
/// Returns [`SimError`] when the engine kind cannot drive the model.
pub fn run(
    tracer: &mut Tracer,
    model: &Arc<Model>,
    cfg: &SimConfig,
) -> Result<Recomposed, SimError> {
    let start = std::time::Instant::now();
    let total = tracer.open(names::TOTAL);

    let deps = tracer.span(names::DEPS_COMPILE, || Arc::new(ModelDeps::compile(model)));
    let mut queue: VecDeque<Unit> = match cfg.engine {
        EngineKind::Batched { width } => batch_spans(0, cfg.instances, width)
            .into_iter()
            .map(|(first, w)| {
                tracer.span(names::TASK_NEW, || {
                    BatchSimTask::with_engine_deps(
                        Arc::clone(model),
                        Arc::clone(&deps),
                        cfg.base_seed,
                        first,
                        w,
                        cfg.t_end,
                        cfg.quantum,
                        cfg.sample_period,
                    )
                    .map(|task| Unit::Batch(task.with_kernel_dispatch(cfg.kernel_dispatch)))
                })
            })
            .collect::<Result<_, _>>()?,
        _ => (0..cfg.instances)
            .map(|i| {
                tracer.span(names::TASK_NEW, || {
                    SimTask::with_engine_deps(
                        cfg.engine,
                        Arc::clone(model),
                        Arc::clone(&deps),
                        cfg.base_seed,
                        i,
                        cfg.t_end,
                        cfg.quantum,
                        cfg.sample_period,
                    )
                    .map(Unit::Scalar)
                })
            })
            .collect::<Result<_, _>>()?,
    };

    let (cut_tx, cut_rx) = unbounded();
    let (window_tx, window_rx) = unbounded();
    let mut analysis = Analysis {
        alignment: Alignment::new(cfg.instances, cfg.sample_period),
        cut_tx,
        cut_rx,
        summary: RunSummary::new(cfg.engines.clone()),
        windows: WindowGen::new(cfg.window_width, cfg.window_slide),
        window_tx,
        window_rx,
        engines: StatEngineSet::new(cfg.engines.clone()),
        rows: Vec::new(),
        cuts: Vec::new(),
        counts: Counts::default(),
    };

    // Round-robin by quantum, as the master reschedules: a task goes to the
    // back of the queue after every quantum until it reaches the horizon.
    // The forwarding rule (a batch travels only when it carries samples or
    // finishes its trajectory) is `SimWorker`'s / `BatchSimWorker`'s.
    while let Some(mut unit) = queue.pop_front() {
        let finished = match &mut unit {
            Unit::Scalar(task) => {
                let mut samples = Vec::new();
                let events = tracer.span(names::QUANTUM, || task.run_quantum(&mut samples));
                analysis.counts.events += events;
                let finished = task.is_done();
                if !samples.is_empty() || finished {
                    let batch = SampleBatch {
                        instance: task.instance(),
                        samples,
                        events,
                        finished,
                    };
                    analysis.feed(tracer, batch);
                }
                finished
            }
            Unit::Batch(task) => {
                let batches = tracer.span(names::QUANTUM, || task.run_quantum());
                let finished = task.is_done();
                for batch in batches {
                    analysis.counts.events += batch.events;
                    if !batch.samples.is_empty() || finished {
                        analysis.feed(tracer, batch);
                    }
                }
                finished
            }
        };
        if !finished {
            queue.push_back(unit);
        }
    }
    analysis.finish(tracer);

    let mut report = SimReport {
        rows: std::mem::take(&mut analysis.rows),
        run_stats: RunStats::default(),
        wall: start.elapsed(),
        events: analysis.counts.events,
        observable_names: model
            .observable_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        summary: analysis.summary,
    };
    let csv = tracer.span(names::CSV, || report.to_csv());
    analysis.counts.csv_bytes = csv.len() as u64;
    tracer.close(total);
    report.wall = start.elapsed();

    Ok(Recomposed {
        report,
        cuts: analysis.cuts,
        counts: analysis.counts,
    })
}
