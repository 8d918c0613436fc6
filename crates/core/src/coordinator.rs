//! The sharded simulation farm: coordinator, shard body and transport
//! seam.
//!
//! The paper's cluster deployment (Fig. 4/5) runs the simulation farm as
//! a *farm of pipelines* across machines; this module is the
//! process-level analogue. A run is split by a
//! [`ShardPlan`] into contiguous instance
//! slices; each shard executes the standard farm + alignment pipeline on
//! its slice ([`run_shard`] — the same code the single-process runner
//! uses) and streams back *aligned partial cuts* plus one end-of-stream
//! *partial statistics state*. The coordinator
//! ([`run_simulation_sharded_with`]) zips the partial-cut streams with
//! [`CutMerger`](crate::merge::CutMerger), folds the partial statistics with
//! `streamstat::Mergeable`, and feeds the merged cut stream through the
//! unchanged window/analysis stages.
//!
//! *Where* shards run is the [`ShardTransport`] seam: this crate
//! provides [`InProcessTransport`] (one thread per shard — also the
//! degenerate `shards = 1` path, which spawns no child process); the
//! `distrt` crate adds the real multi-process transport that spawns one
//! `cwc-shard` child per shard and speaks length-prefixed wire-v7
//! frames over stdio, plus the TCP transport that places shard attempts
//! on remote `cwc-workerd` daemons over the same protocol.
//!
//! Shard *failures* — crash, corrupt stream, watchdog timeout — are
//! handled by the [`ShardSupervisor`](crate::supervisor::ShardSupervisor)
//! sitting between the transport and the merge: a failed shard's slice
//! is requeued onto a fresh worker (bounded-exponential backoff, budget
//! `SimConfig::shard_retries`) and replayed deterministically from the
//! per-instance seeds, so a recovered run is bit-for-bit identical to a
//! fault-free one. See the supervisor module for the state machine.
//!
//! ## Determinism
//!
//! Every trajectory's RNG stream is a pure function of
//! `(base_seed, instance)`, alignment emits cuts in grid order, and the
//! plan is contiguous in instance order — so the merged cut stream is
//! bit-for-bit the single-process cut stream for *any* shard count, and
//! therefore so are the [`StatRow`]s (the integration matrix in
//! `tests/sharded_agreement.rs` pins this).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwc::model::Model;
use fastflow::pipeline::Pipeline;
use gillespie::deps::ModelDeps;
use gillespie::engine::EngineKind;
use gillespie::trajectory::Cut;
use gillespie::KernelDispatch;

use crate::alignment::Alignment;
use crate::config::SimConfig;
use crate::engines::{StatEngineKind, StatRow};
use crate::merge::RunSummary;
use crate::plan::{ShardPlan, ShardRange};
use crate::runner::{analysis_tail, SimError, SimReport};
use crate::sim_farm::{sim_farm, Steering};

/// Everything a shard worker needs to run its slice of a simulation —
/// the run parameters plus the shard's [`ShardRange`]. The multi-process
/// transport ships this (together with the model) to the `cwc-shard`
/// child; the in-process transport hands it to a thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The instance slice this shard simulates.
    pub range: ShardRange,
    /// Stochastic integrator for every trajectory.
    pub engine: EngineKind,
    /// Base RNG seed (instance seeds derive from it, not from the shard).
    pub base_seed: u64,
    /// Time horizon.
    pub t_end: f64,
    /// Simulation quantum Q.
    pub quantum: f64,
    /// Sampling period τ.
    pub sample_period: f64,
    /// Workers in the shard's simulation farm.
    pub sim_workers: usize,
    /// Capacity of the shard's inter-stage channels.
    pub channel_capacity: usize,
    /// Statistical engine configuration (determines which accumulators
    /// the shard's partial [`RunSummary`] carries).
    pub engines: Vec<StatEngineKind>,
    /// Which attempt at this slice the shard is: 0 on first launch, and
    /// incremented by the supervisor on every requeue. Purely
    /// diagnostic for a healthy run — the slice's trajectories depend
    /// only on `(base_seed, instance)` — but the fault-injection
    /// harness keys on it so an injected fault can hit the first
    /// attempt and spare the replay.
    pub attempt: u32,
    /// Seconds between the heartbeat (`Progress`) frames the worker
    /// emits so the coordinator's watchdog can tell a slow shard from a
    /// stalled one.
    pub heartbeat_period: f64,
}

impl ShardSpec {
    /// Extracts the spec for one planned shard of a run.
    ///
    /// The configured `sim_workers` is the *run-wide* worker budget, so it
    /// is split across the shards (floor division, at least one worker per
    /// shard): with `--shards N` each child runs `sim_workers / N` farm
    /// workers instead of all of them, so a sharded run no longer
    /// oversubscribes the machine N-fold. `shards = 1` is unchanged.
    pub fn from_config(cfg: &SimConfig, range: ShardRange) -> Self {
        ShardSpec {
            range,
            engine: cfg.engine,
            base_seed: cfg.base_seed,
            t_end: cfg.t_end,
            quantum: cfg.quantum,
            sample_period: cfg.sample_period,
            sim_workers: (cfg.sim_workers / cfg.shards.max(1)).max(1),
            channel_capacity: cfg.channel_capacity,
            engines: cfg.engines.clone(),
            attempt: 0,
            heartbeat_period: cfg.heartbeat_period,
        }
    }
}

/// One message from a shard to the coordinator.
#[derive(Debug, Clone)]
pub enum ShardMsg {
    /// An aligned partial cut over the shard's instance slice, in grid
    /// order.
    Cut(Cut),
    /// End of the shard's stream.
    End(ShardEnd),
}

/// A shard's end-of-stream report.
#[derive(Debug, Clone)]
pub struct ShardEnd {
    /// Reactions fired across the shard's trajectories.
    pub events: u64,
    /// The shard's partial whole-run statistics, ready to merge.
    pub summary: RunSummary,
}

/// One failed attempt at a shard's slice, kept in the supervisor's
/// per-shard history and attached to the final [`ShardError`] when the
/// retry budget is exhausted.
#[derive(Debug, Clone)]
pub struct ShardAttempt {
    /// The attempt number (0 = the initial launch).
    pub attempt: usize,
    /// What the attempt died of, rendered.
    pub error: String,
    /// The bounded-exponential backoff waited before the *next* attempt.
    pub backoff: Duration,
}

/// What went wrong in one shard of a sharded run.
#[derive(Debug)]
pub struct ShardError {
    /// The shard that failed.
    pub shard: usize,
    /// The failure that ended the last attempt.
    pub kind: ShardErrorKind,
    /// Every *prior* failed attempt at the shard's slice, oldest first
    /// (empty when the first failure was final — e.g. a zero retry
    /// budget, or a non-retryable worker-side simulation error).
    pub attempts: Vec<ShardAttempt>,
    /// Graceful degradation: the partial [`RunSummary`] merged from the
    /// shards that *did* complete before the run failed, surfaced for
    /// diagnosis. Populated by the supervisor on retry-budget
    /// exhaustion; `None` on pre-launch failures.
    pub partial: Option<Box<RunSummary>>,
}

impl ShardError {
    /// A fresh failure with no retry history attached.
    pub fn new(shard: usize, kind: ShardErrorKind) -> Self {
        ShardError {
            shard,
            kind,
            attempts: Vec::new(),
            partial: None,
        }
    }
}

/// Failure modes of a shard.
#[derive(Debug)]
pub enum ShardErrorKind {
    /// The shard worker could not be launched at all.
    Spawn(String),
    /// The shard's stream was malformed or ended before its
    /// end-of-stream report (e.g. the child process crashed mid-run).
    Crashed(String),
    /// The shard reported a simulation error (bad model/engine pairing
    /// discovered worker-side, pipeline failure, …). Deterministic —
    /// a replay would fail identically — so never retried.
    Sim(String),
    /// A frame of the shard's stream was truncated or corrupt; `offset`
    /// is the byte position of the offending frame in the shard's
    /// output stream.
    Frame {
        /// Byte offset of the frame that failed to decode.
        offset: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// The watchdog fired: the shard produced no frame (cut, heartbeat
    /// or end-of-stream) within the configured `shard_timeout`.
    Timeout {
        /// How long the shard had been silent when it was declared
        /// stalled.
        silent_for: Duration,
    },
}

impl std::fmt::Display for ShardErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardErrorKind::Spawn(m) => write!(f, "spawn failed: {m}"),
            ShardErrorKind::Crashed(m) => write!(f, "crashed: {m}"),
            ShardErrorKind::Sim(m) => write!(f, "{m}"),
            ShardErrorKind::Frame { offset, detail } => {
                write!(f, "corrupt stream at byte offset {offset}: {detail}")
            }
            ShardErrorKind::Timeout { silent_for } => {
                write!(f, "watchdog timeout: no frame for {silent_for:?}")
            }
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.kind)?;
        if !self.attempts.is_empty() {
            write!(f, " (after {} failed attempt", self.attempts.len())?;
            if self.attempts.len() > 1 {
                write!(f, "s")?;
            }
            write!(f, ": ")?;
            for (i, a) in self.attempts.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "#{}: {}", a.attempt, a.error)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShardError {}

/// Liveness clock of one shard attempt, shared between the shard's
/// driver (which *touches* it on every frame, heartbeats included) and
/// the supervisor's watchdog (which declares the shard stalled when the
/// clock has not been touched for `SimConfig::shard_timeout`).
///
/// A driver that is blocked *forwarding* into the bounded per-shard
/// channel — i.e. waiting on the coordinator, not on the shard — marks
/// itself exempt for the duration, so back-pressure is never mistaken
/// for a stall.
#[derive(Debug)]
pub struct ShardActivity {
    started: Instant,
    last_ms: AtomicU64,
    exempt: AtomicBool,
}

impl Default for ShardActivity {
    fn default() -> Self {
        ShardActivity {
            started: Instant::now(),
            last_ms: AtomicU64::new(0),
            exempt: AtomicBool::new(false),
        }
    }
}

impl ShardActivity {
    /// A fresh clock: the launch instant counts as the first activity,
    /// so worker startup is measured against the same deadline.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records activity now.
    pub fn touch(&self) {
        self.last_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Release);
    }

    /// Marks the driver as blocked on the coordinator (`true`) or
    /// actively waiting on the shard (`false`). Leaving the blocked
    /// state counts as activity.
    pub fn set_blocked(&self, blocked: bool) {
        self.exempt.store(blocked, Ordering::Release);
        if !blocked {
            self.touch();
        }
    }

    /// Permanently exempts this shard from the watchdog (used by the
    /// in-process transport, whose shards share the coordinator's
    /// failure domain).
    pub fn exempt_forever(&self) {
        self.exempt.store(true, Ordering::Release);
    }

    /// How long the shard has been silent — `Duration::ZERO` while the
    /// driver is marked blocked on the coordinator.
    pub fn silent_for(&self) -> Duration {
        if self.exempt.load(Ordering::Acquire) {
            return Duration::ZERO;
        }
        let last = Duration::from_millis(self.last_ms.load(Ordering::Acquire));
        self.started.elapsed().saturating_sub(last)
    }
}

/// What a shard's driver feeds the supervisor over the shard's bounded
/// channel. Heartbeat frames are consumed by the driver itself (they
/// only touch the [`ShardActivity`] clock) and never appear here.
#[derive(Debug)]
pub enum ShardFeed {
    /// A message from the live shard (a partial cut or the
    /// end-of-stream report).
    Msg(ShardMsg),
    /// The attempt failed; no further feeds follow from it.
    Failed(ShardError),
}

/// Launches one shard somewhere — a thread, a child process, or
/// anything else that can stream [`ShardFeed`]s back.
///
/// The supervisor calls [`launch_shard`](ShardTransport::launch_shard)
/// once per planned shard and *again* for every retry of a failed
/// shard, each time with a fresh `sink`/`activity` pair and the spec's
/// `attempt` bumped — so a transport only ever thinks about one worker
/// at a time and requeueing needs no transport cooperation.
pub trait ShardTransport {
    /// Launches one shard worker for `spec`'s slice, streaming its
    /// messages into `sink` and its liveness into `activity`. The
    /// launched driver must eventually send [`ShardMsg::End`] or
    /// [`ShardFeed::Failed`] and then finish (a driver that vanishes
    /// without either is treated as crashed); it observes `steering`
    /// and drains early when the run is terminated.
    ///
    /// `deps` is the model's dependency graph, compiled **once** by the
    /// coordinator: transports hand it to the worker (in-process) or
    /// ship it in the job frame (child process, TCP daemon) so no shard
    /// attempt ever recompiles the model.
    ///
    /// The sink is *bounded* (the run's `channel_capacity`): a fast
    /// shard back-pressures against the supervisor instead of buffering
    /// its whole lead in coordinator memory. A driver blocked in
    /// `sink.send` must wrap the send in
    /// [`ShardActivity::set_blocked`] so the watchdog does not mistake
    /// back-pressure for a stall.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] (kind `Spawn`) when the worker cannot
    /// be launched; the supervisor owns the retry decision.
    fn launch_shard(
        &mut self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        spec: &ShardSpec,
        steering: &Steering,
        sink: mpsc::SyncSender<ShardFeed>,
        activity: Arc<ShardActivity>,
    ) -> Result<ShardHandle, ShardError>;
}

/// A launched shard attempt: the driver thread plus a best-effort
/// cancel hook the supervisor uses to put failed or superseded attempts
/// down.
pub struct ShardHandle {
    /// The shard this handle belongs to.
    pub shard: usize,
    /// The shard's driver thread (the shard itself in the in-process
    /// transport; the child's stdout reader in the process transport).
    pub join: std::thread::JoinHandle<()>,
    /// Best-effort cancellation: kill the child process / terminate the
    /// shard-local steering. `None` when the transport has no way to
    /// interrupt the attempt.
    cancel: Option<Box<dyn Fn() + Send>>,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle")
            .field("shard", &self.shard)
            .field("cancel", &self.cancel.is_some())
            .finish_non_exhaustive()
    }
}

impl ShardHandle {
    /// A handle with no cancel hook.
    pub fn new(shard: usize, join: std::thread::JoinHandle<()>) -> Self {
        ShardHandle {
            shard,
            join,
            cancel: None,
        }
    }

    /// Attaches a cancel hook (kill the child, flip a local steering
    /// flag, …). Must be idempotent and non-blocking.
    pub fn with_cancel(mut self, cancel: impl Fn() + Send + 'static) -> Self {
        self.cancel = Some(Box::new(cancel));
        self
    }

    /// Fires the cancel hook, if any.
    pub fn cancel(&self) {
        if let Some(c) = &self.cancel {
            c();
        }
    }
}

/// Runs one shard's slice through the standard farm + alignment
/// pipeline, invoking `on_msg` with every aligned partial cut (in grid
/// order) and finally with the end-of-stream report. This is the shard
/// *body*: the in-process transport calls it on a thread, the
/// `cwc-shard` worker binary calls it with a frame-writing sink.
///
/// `deps` is `model`'s pre-compiled dependency graph — the caller owns
/// the (single) compilation, so a worker serving shipped deps and a
/// requeued attempt both run compile-free.
///
/// # Errors
///
/// Returns [`SimError`] when the engine kind cannot drive the model or
/// a pipeline node panics.
pub fn run_shard(
    model: Arc<Model>,
    deps: Arc<ModelDeps>,
    spec: &ShardSpec,
    steering: &Steering,
    mut on_msg: impl FnMut(ShardMsg),
) -> Result<(), SimError> {
    // Shard workers keep the default `Auto` kernel dispatch and detect
    // CPU features locally: every kernel is bit-for-bit identical, so the
    // merged results cannot depend on which side each worker picks.
    let (farm, events) = sim_farm(
        model,
        deps,
        spec.engine,
        spec.range.first_instance..spec.range.end(),
        spec.base_seed,
        spec.t_end,
        spec.quantum,
        spec.sample_period,
        KernelDispatch::Auto,
        spec.sim_workers,
        spec.channel_capacity,
        steering,
    )?;

    let pipeline = farm.named_stage(
        "shard-alignment",
        Alignment::with_base(
            spec.range.count,
            spec.sample_period,
            spec.range.first_instance,
        ),
    );

    let (rx, handle) = pipeline.into_receiver();
    let mut summary = RunSummary::new(spec.engines.clone());
    for cut in rx.iter() {
        summary.push_cut(&cut);
        on_msg(ShardMsg::Cut(cut));
    }
    handle.join()?;
    on_msg(ShardMsg::End(ShardEnd {
        events: events.load(Ordering::Relaxed),
        summary,
    }));
    Ok(())
}

/// The in-process transport: one thread per shard, no serialisation.
/// This is also what `shards = 1` degenerates to — a sharded run with a
/// single in-process shard and no child spawn.
#[derive(Debug, Default)]
pub struct InProcessTransport;

impl ShardTransport for InProcessTransport {
    fn launch_shard(
        &mut self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        spec: &ShardSpec,
        steering: &Steering,
        sink: mpsc::SyncSender<ShardFeed>,
        activity: Arc<ShardActivity>,
    ) -> Result<ShardHandle, ShardError> {
        // In-process shards share the coordinator's failure domain: a
        // wedged shard thread cannot be killed anyway, so the watchdog
        // would only convert a shared-process bug into a misleading
        // per-shard timeout. They are exempt; the watchdog supervises
        // *child processes* (see `distrt`'s transport).
        activity.exempt_forever();
        let shard = spec.range.shard;
        let spec = spec.clone();
        // Cancellation flips a shard-local steering flag (the shard
        // drains early, exactly as under global termination); a watcher
        // forwards global termination into the same local flag for as
        // long as the shard runs.
        let local = Steering::new();
        let relay = local.clone();
        let watch = steering.watch(move || relay.terminate());
        let cancel = local.clone();
        let join = std::thread::spawn(move || {
            // A dropped receiver means the supervisor already moved on
            // (run failed or this attempt was cancelled); finishing
            // quietly is fine.
            let result = run_shard(model, deps, &spec, &local, |msg| {
                let _ = sink.send(ShardFeed::Msg(msg));
            });
            drop(watch);
            if let Err(e) = result {
                let _ = sink.send(ShardFeed::Failed(ShardError::new(
                    shard,
                    ShardErrorKind::Sim(e.to_string()),
                )));
            }
        });
        Ok(ShardHandle::new(shard, join).with_cancel(move || cancel.terminate()))
    }
}

/// Runs a sharded simulation over the given transport, merging the
/// shards' partial cuts and partial statistics and feeding the same
/// window/analysis stages as [`run_simulation`]. Produces bit-for-bit
/// the same [`StatRow`]s as the single-process runner for any shard
/// count (see the module docs for the argument).
///
/// [`run_simulation`]: crate::runner::run_simulation
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration/model, engine/model
/// mismatch, a failed shard (typed [`SimError::Shard`] — a crashed,
/// stalled or retry-exhausted shard surfaces here, never as a hang) or
/// a node panic.
pub fn run_simulation_sharded_with<T: ShardTransport>(
    model: Arc<Model>,
    cfg: &SimConfig,
    steering: &Steering,
    transport: &mut T,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    model.validate()?;
    // Pre-flight the engine/model pairing on the coordinator so a bad
    // combination fails with the same typed error as the single-process
    // runner, before anything is launched. This is the run's *only*
    // dependency compilation: the same graph rides every shard attempt
    // (threaded through the supervisor into `launch_shard`).
    let deps = Arc::new(ModelDeps::compile(&model));
    cfg.engine
        .build_with_deps(Arc::clone(&model), Arc::clone(&deps), cfg.base_seed, 0)?;

    let start = Instant::now();
    let plan = ShardPlan::new(cfg.instances, cfg.shards);

    // The unchanged downstream half of the Fig. 2 network, fed by the
    // merged cut stream.
    let (cut_tx, cut_rx) = mpsc::sync_channel::<Cut>(cfg.channel_capacity);
    let cuts = Pipeline::from_source_with_capacity(cut_rx.into_iter(), cfg.channel_capacity);
    let (blocks_rx, handle) = analysis_tail(cuts, cfg).into_receiver();
    // Blocks are drained (and flattened into rows) concurrently so the
    // bounded channels above can never deadlock behind a full output
    // buffer.
    let collector = std::thread::spawn(move || {
        let rows = blocks_rx.iter().flat_map(|block| block.rows);
        rows.collect::<Vec<StatRow>>()
    });

    // The supervision loop owns launch, watchdog, retry/requeue and
    // cut/summary merging; full cuts are emitted here into the
    // downstream pipeline. A send failure means downstream already
    // died — the supervisor keeps draining (so shard drivers never
    // block forever on a sink nobody reads) and the panic surfaces via
    // the pipeline join below.
    let supervised = crate::supervisor::ShardSupervisor::new(cfg, &plan).run(
        Arc::clone(&model),
        deps,
        steering,
        transport,
        |cut| cut_tx.send(cut).is_ok(),
    );
    drop(cut_tx);
    let rows: Vec<StatRow> = collector
        .join()
        .expect("row collector only reads from a channel");
    let run_stats = handle.join()?;
    let (events, summary) = supervised.map_err(SimError::Shard)?;
    Ok(SimReport::new(
        &model, rows, run_stats, start, events, summary,
    ))
}

/// Runs a sharded simulation entirely in-process (one thread per shard).
/// The multi-process variant — real `cwc-shard` child processes — lives
/// in `distrt::shard::run_simulation_sharded`, which falls back to this
/// transport for `shards = 1`.
///
/// # Errors
///
/// See [`run_simulation_sharded_with`].
pub fn run_simulation_sharded_in_process(
    model: Arc<Model>,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    run_simulation_sharded_with(model, cfg, &Steering::new(), &mut InProcessTransport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sequential, run_simulation};
    use biomodels::simple::{birth_death, decay};

    fn cfg() -> SimConfig {
        SimConfig::new(9, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(2)
            .window(4, 2)
            .seed(33)
    }

    #[test]
    fn sharded_rows_equal_single_process_rows() {
        let model = Arc::new(decay(40, 1.0));
        // Second leg: sparse sampling — three quanta in four forward no
        // batch, so only the shard's workers ever see their events.
        for cfg in [cfg(), cfg().quantum(0.25).sample_period(1.0)] {
            let single = run_simulation(Arc::clone(&model), &cfg).unwrap();
            let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(single.events, seq.events);
            for shards in [1usize, 2, 3, 5] {
                let sharded = run_simulation_sharded_in_process(
                    Arc::clone(&model),
                    &cfg.clone().shards(shards),
                )
                .unwrap();
                assert_eq!(sharded.rows, single.rows, "shards={shards}");
                assert_eq!(sharded.events, seq.events, "shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_summary_matches_single_process_exactly_where_exact() {
        let model = Arc::new(birth_death(20.0, 1.0, 10));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        let sharded =
            run_simulation_sharded_in_process(Arc::clone(&model), &cfg().shards(3)).unwrap();
        let (s, m) = (
            &single.summary.observables()[0],
            &sharded.summary.observables()[0],
        );
        assert_eq!(s.running.count(), m.running.count());
        assert_eq!(s.running.min(), m.running.min());
        assert_eq!(s.running.max(), m.running.max());
        assert!((s.running.mean() - m.running.mean()).abs() < 1e-9);
        assert!(
            (s.running.population_variance() - m.running.population_variance()).abs() < 1e-6,
            "variance {} vs {}",
            s.running.population_variance(),
            m.running.population_variance()
        );
    }

    #[test]
    fn batched_sharded_rows_equal_single_process_rows() {
        // The batched tier through the sharded path: every shard runs a
        // farm of whole-batch tasks over its slice, and the merged stream
        // must still be bit-for-bit the single-process scalar run.
        let model = Arc::new(decay(40, 1.0));
        let single = run_simulation(Arc::clone(&model), &cfg()).unwrap();
        let batched_cfg = cfg().engine(EngineKind::Batched { width: 4 });
        for shards in [1usize, 2, 3] {
            let sharded = run_simulation_sharded_in_process(
                Arc::clone(&model),
                &batched_cfg.clone().shards(shards),
            )
            .unwrap();
            assert_eq!(sharded.rows, single.rows, "shards={shards}");
            assert_eq!(sharded.events, single.events, "shards={shards}");
        }
    }

    #[test]
    fn shard_specs_split_the_worker_budget() {
        // `sim_workers` is the run-wide budget: each shard gets its floor
        // share (at least 1), so `--shards N` cannot oversubscribe cores.
        let plan = ShardPlan::new(12, 3);
        let cfg = cfg().sim_workers(8).shards(3);
        for range in plan.ranges() {
            let spec = ShardSpec::from_config(&cfg, *range);
            assert_eq!(spec.sim_workers, 2); // 8 / 3 = 2 per shard
        }
        // A single shard keeps the whole budget.
        let plan = ShardPlan::new(12, 1);
        let spec = ShardSpec::from_config(&cfg.clone().shards(1), plan.ranges()[0]);
        assert_eq!(spec.sim_workers, 8);
        // More shards than workers still leaves every shard one worker.
        let plan = ShardPlan::new(12, 6);
        let starved = cfg.clone().sim_workers(4).shards(6);
        for range in plan.ranges() {
            assert_eq!(ShardSpec::from_config(&starved, *range).sim_workers, 1);
        }
    }

    #[test]
    fn engine_model_mismatch_fails_before_launch() {
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        let cfg = cfg().engine(EngineKind::TauLeap { tau: 0.1 }).shards(2);
        let err = run_simulation_sharded_in_process(model, &cfg).unwrap_err();
        assert!(matches!(err, SimError::Engine(_)), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let model = Arc::new(decay(10, 1.0));
        let err = run_simulation_sharded_in_process(model, &cfg().shards(0)).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn failing_transport_surfaces_typed_shard_error() {
        struct FailingTransport;
        impl ShardTransport for FailingTransport {
            fn launch_shard(
                &mut self,
                _model: Arc<Model>,
                _deps: Arc<ModelDeps>,
                spec: &ShardSpec,
                _steering: &Steering,
                _sink: mpsc::SyncSender<ShardFeed>,
                _activity: Arc<ShardActivity>,
            ) -> Result<ShardHandle, ShardError> {
                Err(ShardError::new(
                    spec.range.shard,
                    ShardErrorKind::Spawn("no such binary".into()),
                ))
            }
        }
        let model = Arc::new(decay(10, 1.0));
        let err = run_simulation_sharded_with(
            model,
            &cfg().shards(2),
            &Steering::new(),
            &mut FailingTransport,
        )
        .unwrap_err();
        match err {
            SimError::Shard(e) => {
                assert!(matches!(e.kind, ShardErrorKind::Spawn(_)));
                assert!(e.to_string().contains("spawn failed"), "{e}");
            }
            other => panic!("expected SimError::Shard, got {other}"),
        }
    }

    #[test]
    fn silent_shard_death_is_a_typed_error_not_a_hang() {
        // A transport whose shard drops its sender without an End report
        // or a `Failed` feed (the in-process analogue of a crashed child
        // process with a driver bug on top).
        struct DyingTransport;
        impl ShardTransport for DyingTransport {
            fn launch_shard(
                &mut self,
                _model: Arc<Model>,
                _deps: Arc<ModelDeps>,
                spec: &ShardSpec,
                _steering: &Steering,
                sink: mpsc::SyncSender<ShardFeed>,
                _activity: Arc<ShardActivity>,
            ) -> Result<ShardHandle, ShardError> {
                Ok(ShardHandle::new(
                    spec.range.shard,
                    std::thread::spawn(move || {
                        drop(sink); // die without a trace
                    }),
                ))
            }
        }
        let model = Arc::new(decay(10, 1.0));
        let err = run_simulation_sharded_with(
            model,
            &cfg().shards(2),
            &Steering::new(),
            &mut DyingTransport,
        )
        .unwrap_err();
        assert!(
            matches!(&err, SimError::Shard(e) if matches!(e.kind, ShardErrorKind::Crashed(_))),
            "{err}"
        );
    }
}
