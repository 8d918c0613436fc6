//! The farm of simulation engines with feedback scheduling.
//!
//! "These objects are passed to the farm of simulation engines, which
//! dispatch them to a number of simulation engines (sim eng). Each
//! simulation engine brings forward a simulation that lasts a precise
//! simulation time (simulation quantum). Then it reschedules back the
//! operation along the feedback channel."
//!
//! One master, one worker, one task type, one constructor.
//! [`TaskMaster`] implements the dispatch-with-load-balancing policy — new
//! and rescheduled tasks join one FIFO and go to the least-loaded worker
//! with room (see [`fastflow::master_worker`]) — and [`SimWorker`] runs
//! one quantum of every instance of a task, counts its events, forwards
//! the produced [`SampleBatch`]es towards the alignment stage and feeds
//! incomplete tasks back. The unit of scheduling is a [`BatchSimTask`], a
//! span of consecutive instances: `width` of them with the batched kind,
//! one with every other kind. [`sim_farm`] assembles the farm half of the
//! Fig. 2 network for a run or a shard's slice of one; every instance
//! yields the same per-instance `SampleBatch` stream — bit for bit —
//! whatever its span, so everything downstream is grain-agnostic.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};

use cwc::model::Model;
use fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use fastflow::node::Outbox;
use fastflow::pipeline::Pipeline;
use gillespie::deps::ModelDeps;
use gillespie::engine::{EngineError, EngineKind};
use gillespie::KernelDispatch;

use crate::task::{batch_spans, BatchSimTask, SampleBatch, SimTask};

/// Steering control of a running simulation — the paper's Fig. 2 shows the
/// GUI feeding "start new simulations, steer and terminate running
/// simulations" back into the main pipeline. A `Steering` handle can be
/// shared with any thread (e.g. a UI) and terminates the run at the next
/// quantum boundary of every task: once [`terminate`](Steering::terminate)
/// has been called no task starts another quantum, wherever it waits — the
/// master drops its ready queue and a worker drops what it dequeues.
#[derive(Debug, Clone, Default)]
pub struct Steering {
    shared: Arc<SteeringState>,
}

#[derive(Debug, Default)]
struct SteeringState {
    /// The flag the engines read once per quantum.
    stop: AtomicBool,
    /// The live [`Steering::watch`] threads, unparked by `terminate`.
    watchers: Mutex<Vec<Thread>>,
}

impl Steering {
    /// Creates a handle in the running state.
    pub fn new() -> Self {
        Steering::default()
    }

    /// Requests termination: in-flight quanta finish, nothing is
    /// rescheduled, the pipeline drains and completes early.
    pub fn terminate(&self) {
        self.shared.stop.store(true, Ordering::Release);
        // A watcher registers before it first reads the flag, under this
        // lock: either it is in the list now, or it reads `true`.
        for watcher in self.watchers().iter() {
            watcher.unpark();
        }
    }

    /// True once termination has been requested.
    pub fn is_terminated(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Spawns a watcher that runs `on_terminate` once, on its own thread,
    /// when termination is requested: the relay that carries the flag over
    /// a boundary it cannot cross by itself (a shard-local handle, a
    /// socket). The watcher lives exactly as long as the
    /// returned guard — dropping it, on return or on unwind, stops and
    /// joins the thread, and `on_terminate` never runs afterwards. It
    /// parks until [`terminate`](Steering::terminate) or the guard's drop
    /// wakes it; it never polls.
    pub fn watch(&self, on_terminate: impl FnOnce() + Send + 'static) -> SteeringWatch {
        let steering = self.clone();
        let released = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&released);
        let thread = std::thread::spawn(move || {
            let me = std::thread::current();
            steering.watchers().push(me.clone());
            while !stop.load(Ordering::Acquire) {
                if steering.is_terminated() {
                    on_terminate();
                    break;
                }
                std::thread::park();
            }
            steering.watchers().retain(|t| t.id() != me.id());
        });
        SteeringWatch {
            released,
            thread: Some(thread),
        }
    }

    /// The live watchers. Every update is a whole push or retain, so a
    /// poisoned lock still guards a valid list.
    fn watchers(&self) -> MutexGuard<'_, Vec<Thread>> {
        self.shared
            .watchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Guard of a [`Steering::watch`] thread; dropping it ends the watcher.
#[derive(Debug)]
pub struct SteeringWatch {
    released: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for SteeringWatch {
    fn drop(&mut self) {
        self.released.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // A panic inside the action is the action's to report.
            let _ = thread.join();
        }
    }
}

/// Master node of the simulation farm.
#[derive(Debug)]
pub struct TaskMaster {
    steering: Steering,
}

impl TaskMaster {
    /// Creates a master controlled by a [`Steering`] handle.
    pub fn new(steering: Steering) -> Self {
        TaskMaster { steering }
    }

    /// Queues the next quantum of `task` — or, once terminated, drops it
    /// together with every task still waiting for a worker.
    fn schedule(&self, task: BatchSimTask, sched: &mut Scheduler<'_, BatchSimTask>) {
        if self.steering.is_terminated() {
            sched.discard_ready();
        } else {
            sched.submit(task);
        }
    }
}

impl Master for TaskMaster {
    type In = BatchSimTask;
    type Task = BatchSimTask;
    type Fb = BatchSimTask;

    fn on_upstream(&mut self, task: BatchSimTask, sched: &mut Scheduler<'_, BatchSimTask>) {
        self.schedule(task, sched);
    }

    // Rescheduling after each quantum is the load-balancing strategy: a
    // long-running trajectory never pins its worker, because the next
    // quantum may be dispatched anywhere.
    fn on_feedback(&mut self, task: BatchSimTask, sched: &mut Scheduler<'_, BatchSimTask>) {
        self.schedule(task, sched);
    }
}

/// Worker node of the simulation farm: runs one quantum of every
/// instance of the span it is handed.
///
/// An instance's batch is forwarded under [`SampleBatch::should_forward`]
/// — the same rule as the GPU map's. Events are counted here, at the
/// source, because a quantum shorter than the sampling period fires
/// events and forwards nothing.
#[derive(Debug)]
pub struct SimWorker {
    steering: Steering,
    events: Arc<AtomicU64>,
}

impl SimWorker {
    /// Creates a worker that stops starting quanta once `steering` is
    /// terminated and adds every quantum's events to `events`.
    pub fn new(steering: Steering, events: Arc<AtomicU64>) -> Self {
        SimWorker { steering, events }
    }
}

impl FeedbackWorker for SimWorker {
    type Task = BatchSimTask;
    type Fb = BatchSimTask;
    type Out = SampleBatch;

    fn on_task(
        &mut self,
        mut span: BatchSimTask,
        out: &mut Outbox<'_, SampleBatch>,
    ) -> Option<BatchSimTask> {
        if self.steering.is_terminated() {
            return None; // queued before the termination: never started
        }
        let mut events = 0;
        for task in &mut span.tasks {
            let batch = task.run_quantum_batch();
            events += batch.events;
            if batch.should_forward() {
                out.push(batch);
            }
        }
        // Relaxed: a statistic, read after the farm's threads are joined.
        self.events.fetch_add(events, Ordering::Relaxed);
        if span.is_done() {
            None
        } else {
            Some(span)
        }
    }
}

/// Assembles the farm half of the Fig. 2 network over the instances
/// `instances` of a run: task generation with the configured engine,
/// feeding a master–worker farm of `workers` simulation engines with
/// feedback. `deps` is `model`'s dependency graph, compiled once by the
/// caller and shared by every instance's incremental propensity row.
///
/// Every task is a span of consecutive instances ([`batch_spans`]):
/// `width` of them with [`EngineKind::Batched`], one with every other
/// kind. Each instance is stepped by its own [`SimTask`] of the
/// configured kind, so the span a trajectory travels in never changes
/// its samples.
///
/// Returns the stream of sample batches and the run's event counter: the
/// reactions fired by every quantum the farm executed, complete once the
/// pipeline has been joined.
///
/// `kernel_dispatch` selects the propensity-row kernels of every task;
/// every kernel is bit-for-bit identical, so it never changes the stream.
///
/// # Errors
///
/// Returns [`EngineError`] when `engine` cannot drive `model` (e.g.
/// adaptive tau-leaping on a compartment model).
#[allow(clippy::too_many_arguments)]
pub fn sim_farm(
    model: Arc<Model>,
    deps: Arc<ModelDeps>,
    engine: EngineKind,
    instances: Range<u64>,
    base_seed: u64,
    t_end: f64,
    quantum: f64,
    sample_period: f64,
    kernel_dispatch: KernelDispatch,
    workers: usize,
    channel_capacity: usize,
    steering: &Steering,
) -> Result<(Pipeline<SampleBatch>, Arc<AtomicU64>), EngineError> {
    let width = match engine {
        EngineKind::Batched { width } => width,
        _ => 1,
    };
    let new_task = |instance| {
        SimTask::with_engine_deps(
            engine,
            Arc::clone(&model),
            Arc::clone(&deps),
            base_seed,
            instance,
            t_end,
            quantum,
            sample_period,
        )
    };
    let spans = batch_spans(instances.start, instances.end - instances.start, width)
        .into_iter()
        .map(|(first, w)| {
            let tasks = (first..first + w as u64)
                .map(&new_task)
                .collect::<Result<_, _>>()?;
            Ok(BatchSimTask { tasks }.with_kernel_dispatch(kernel_dispatch))
        })
        .collect::<Result<Vec<_>, EngineError>>()?;

    let events = Arc::new(AtomicU64::new(0));
    let workers: Vec<SimWorker> = (0..workers.max(1))
        .map(|_| SimWorker::new(steering.clone(), Arc::clone(&events)))
        .collect();
    let farm = Pipeline::from_source_with_capacity(spans.into_iter(), channel_capacity)
        .master_worker_farm(TaskMaster::new(steering.clone()), workers);
    Ok((farm, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use biomodels::simple::{birth_death, decay};
    use gillespie::trajectory::Row;
    use std::collections::HashMap;
    use std::sync::mpsc::TryRecvError;
    use std::time::Duration;

    type Samples = Vec<(f64, Row)>;

    /// Both task grains of the one constructor (width 3 never divides the
    /// instance counts below, so the last batch is narrower).
    const TIERS: [EngineKind; 2] = [EngineKind::Ssa, EngineKind::Batched { width: 3 }];

    #[allow(clippy::too_many_arguments)]
    fn run_farm(
        model: &Arc<Model>,
        kind: EngineKind,
        instances: u64,
        seed: u64,
        t_end: f64,
        quantum: f64,
        tau: f64,
        workers: usize,
    ) -> Vec<SampleBatch> {
        sim_farm(
            Arc::clone(model),
            Arc::new(ModelDeps::compile(model)),
            kind,
            0..instances,
            seed,
            t_end,
            quantum,
            tau,
            KernelDispatch::Auto,
            workers,
            16,
            &Steering::new(),
        )
        .unwrap()
        .0
        .collect()
        .unwrap()
    }

    /// Each instance's samples, sorted by time. Consecutive quanta of one
    /// instance run on different workers and `merge_channels` keeps no
    /// order across workers, so batches of an instance may arrive out of
    /// order here; restoring stream order is `Alignment`'s job, not the
    /// farm's.
    fn samples_by_instance(batches: &[SampleBatch]) -> HashMap<u64, Samples> {
        let mut per: HashMap<u64, Samples> = HashMap::new();
        for b in batches {
            per.entry(b.instance)
                .or_default()
                .extend(b.samples.iter().cloned());
        }
        for samples in per.values_mut() {
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        per
    }

    #[test]
    fn farm_completes_all_instances_with_full_sample_grids() {
        let model = Arc::new(decay(30, 0.5));
        let instances = 8u64;
        for kind in TIERS {
            let batches = run_farm(&model, kind, instances, 7, 4.0, 1.0, 0.5, 2);
            // Each instance must produce the full grid 0..=4.0 step 0.5 = 9
            // samples, each grid point exactly once.
            let per_instance = samples_by_instance(&batches);
            let finishes = batches.iter().filter(|b| b.finished).count();
            assert_eq!(per_instance.len(), instances as usize, "{kind}");
            assert_eq!(finishes, instances as usize, "{kind}");
            for (inst, samples) in per_instance {
                assert_eq!(samples.len(), 9, "{kind}: instance {inst} sample count");
                assert!(
                    samples.windows(2).all(|w| w[0].0 < w[1].0),
                    "{kind}: instance {inst} repeats a grid point"
                );
            }
        }
    }

    #[test]
    fn farm_results_equal_sequential_execution() {
        let model = Arc::new(decay(25, 1.0));
        // Sequential reference.
        let deps = Arc::new(ModelDeps::compile(&model));
        let mut expected: HashMap<u64, Samples> = HashMap::new();
        for i in 0..4 {
            let mut task = SimTask::with_engine_deps(
                EngineKind::Ssa,
                Arc::clone(&model),
                Arc::clone(&deps),
                3,
                i,
                3.0,
                0.75,
                0.25,
            )
            .unwrap();
            let samples = expected.entry(i).or_default();
            while !task.is_done() {
                task.run_quantum(samples);
            }
        }
        for kind in TIERS {
            let batches = run_farm(&model, kind, 4, 3, 3.0, 0.75, 0.25, 3);
            assert_eq!(
                samples_by_instance(&batches),
                expected,
                "{kind}: farm must not change trajectories"
            );
        }
    }

    #[test]
    fn batched_farm_matches_scalar_farm_bit_for_bit() {
        let model = Arc::new(decay(30, 0.8));
        // Width 3 over 7 instances: batches of 3, 3 and 1.
        let [scalar, batched] = TIERS.map(|kind| run_farm(&model, kind, 7, 13, 3.0, 0.6, 0.2, 2));

        // Per-instance sample streams, event totals and finish flags must
        // agree exactly (batch order across instances may differ).
        let totals = |batches: &[SampleBatch]| {
            let mut per: HashMap<u64, (u64, u32)> = HashMap::new();
            for b in batches {
                let e = per.entry(b.instance).or_default();
                e.0 += b.events;
                e.1 += b.finished as u32;
            }
            per
        };
        assert_eq!(samples_by_instance(&batched), samples_by_instance(&scalar));
        assert_eq!(totals(&batched), totals(&scalar));
    }

    #[test]
    fn termination_reaches_the_tasks_waiting_for_a_worker() {
        // 64 instances over 2 workers: at any instant nearly every task
        // waits — in the master's ready queue or a worker's task queue.
        let model = Arc::new(birth_death(2000.0, 1.0, 2000));
        let (instances, t_end, quantum) = (64, 100.0, 0.25);
        let steering = Steering::new();
        let (farm, _events) = sim_farm(
            Arc::clone(&model),
            Arc::new(ModelDeps::compile(&model)),
            EngineKind::Ssa,
            0..instances,
            5,
            t_end,
            quantum,
            quantum,
            KernelDispatch::Auto,
            2,
            64,
            &steering,
        )
        .unwrap();
        let (cuts, handle) = farm
            .named_stage("alignment", Alignment::new(instances, quantum))
            .into_receiver();
        // Terminate from inside the stream: the first cut is out once
        // every instance has run the first of its 400 quanta.
        let mut last = None;
        for cut in cuts.iter() {
            steering.terminate();
            last = Some(cut.time);
        }
        handle.join().unwrap();
        let last = last.expect("the first cut is what triggers termination");
        assert!(
            last < t_end / 4.0,
            "cuts kept coming until t = {last} after termination at t = 0"
        );
    }

    #[test]
    fn a_watch_runs_its_action_exactly_once() {
        let (ran, runs) = std::sync::mpsc::channel();
        let steering = Steering::new();
        let watch = steering.watch(move || ran.send(()).expect("the test holds the receiver"));
        steering.terminate();
        runs.recv_timeout(Duration::from_secs(30))
            .expect("the action runs once termination is requested");
        drop(watch);
        // The action was consumed by its one run, and its sender with it.
        assert_eq!(runs.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_watch_dropped_by_an_unwind_is_gone_and_never_acts() {
        let (ran, runs) = std::sync::mpsc::channel::<()>();
        let steering = Steering::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _watch = steering.watch(move || ran.send(()).expect("the test holds the receiver"));
            panic!("the watched body failed");
        }));
        assert!(unwound.is_err());
        // The watcher thread owned the action and its sender: both are
        // gone unused, so the thread has exited and nothing is left to act
        // on a later termination.
        assert_eq!(runs.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_terminated_worker_starts_no_quantum() {
        let steering = Steering::new();
        let events = Arc::new(AtomicU64::new(0));
        let mut worker = SimWorker::new(steering.clone(), Arc::clone(&events));
        let (tx, rx) = fastflow::channel::unbounded();
        let model = Arc::new(decay(30, 1.0));
        let deps = Arc::new(ModelDeps::compile(&model));
        let task =
            SimTask::with_engine_deps(EngineKind::Ssa, model, deps, 1, 0, 2.0, 1.0, 0.5).unwrap();
        let span = BatchSimTask { tasks: vec![task] };
        steering.terminate();
        assert!(worker.on_task(span, &mut Outbox::new(&tx)).is_none());
        assert!(rx.try_recv().is_err());
        assert_eq!(events.load(Ordering::Relaxed), 0);
    }
}
