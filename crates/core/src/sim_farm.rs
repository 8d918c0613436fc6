//! The farm of simulation engines with feedback scheduling.
//!
//! "These objects are passed to the farm of simulation engines, which
//! dispatch them to a number of simulation engines (sim eng). Each
//! simulation engine brings forward a simulation that lasts a precise
//! simulation time (simulation quantum). Then it reschedules back the
//! operation along the feedback channel."
//!
//! One master, one worker, one constructor. [`TaskMaster`] implements the
//! dispatch-with-load-balancing policy — new and rescheduled tasks join
//! one FIFO and go to the least-loaded worker with room (see
//! [`fastflow::master_worker`]) — and [`SimWorker`] runs one quantum per
//! task, counts its events, forwards the produced [`SampleBatch`]es
//! towards the alignment stage and feeds incomplete tasks back. Both are
//! generic over the unit of scheduling, a [`QuantumTask`]: a [`SimTask`]
//! (one instance) or a [`BatchSimTask`] (`width` consecutive instances,
//! the batched kind's task grain).
//! [`sim_farm`] assembles the farm half of the Fig. 2 network for a run
//! or a shard's slice of one; it holds the only task-grain branch, and
//! both arms settle on the same per-instance `SampleBatch` stream — bit
//! for bit — so everything downstream is grain-agnostic.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    stop: Arc<AtomicBool>,
}

impl Steering {
    /// Creates a handle in the running state.
    pub fn new() -> Self {
        Steering::default()
    }

    /// Requests termination: in-flight quanta finish, nothing is
    /// rescheduled, the pipeline drains and completes early.
    pub fn terminate(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// True once termination has been requested.
    pub fn is_terminated(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Spawns a watcher that runs `on_terminate` once, on its own thread,
    /// when termination is requested: the relay that carries the flag over
    /// a boundary it cannot cross by itself (a shard-local handle, a
    /// socket). The watcher lives exactly as long as the
    /// returned guard — dropping it, on return or on unwind, stops and
    /// joins the thread, and `on_terminate` never runs afterwards.
    pub fn watch(&self, on_terminate: impl FnOnce() + Send + 'static) -> SteeringWatch {
        let steering = self.clone();
        let released = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&released);
        let thread = std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if steering.is_terminated() {
                    on_terminate();
                    return;
                }
                std::thread::park_timeout(WATCH_PERIOD);
            }
        });
        SteeringWatch {
            released,
            thread: Some(thread),
        }
    }
}

/// How often a [`Steering::watch`] thread looks at the flag.
const WATCH_PERIOD: Duration = Duration::from_millis(2);

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

/// The farm's unit of scheduling — what travels the master → worker →
/// (feedback) → master cycle until its trajectories reach the horizon.
pub trait QuantumTask: Send + 'static {
    /// Advances one quantum, handing `emit` one [`SampleBatch`] per
    /// instance the task carries, in instance order.
    fn quantum(&mut self, emit: impl FnMut(SampleBatch));

    /// True when every trajectory of the task reached the horizon.
    fn is_done(&self) -> bool;
}

impl QuantumTask for SimTask {
    fn quantum(&mut self, mut emit: impl FnMut(SampleBatch)) {
        emit(self.run_quantum_batch());
    }

    fn is_done(&self) -> bool {
        SimTask::is_done(self)
    }
}

impl QuantumTask for BatchSimTask {
    fn quantum(&mut self, mut emit: impl FnMut(SampleBatch)) {
        for task in &mut self.tasks {
            emit(task.run_quantum_batch());
        }
    }

    fn is_done(&self) -> bool {
        BatchSimTask::is_done(self)
    }
}

/// Master node of the simulation farm, generic over its unit of
/// scheduling.
#[derive(Debug)]
pub struct TaskMaster<T> {
    steering: Steering,
    _task: PhantomData<fn(T)>,
}

impl<T> TaskMaster<T> {
    /// Creates a master controlled by a [`Steering`] handle.
    pub fn new(steering: Steering) -> Self {
        TaskMaster {
            steering,
            _task: PhantomData,
        }
    }
}

impl<T: Send + 'static> Master for TaskMaster<T> {
    type In = T;
    type Task = T;
    type Fb = T;

    fn on_upstream(&mut self, task: T, sched: &mut Scheduler<'_, T>) {
        self.schedule(task, sched);
    }

    // Rescheduling after each quantum is the load-balancing strategy: a
    // long-running trajectory never pins its worker, because the next
    // quantum may be dispatched anywhere.
    fn on_feedback(&mut self, task: T, sched: &mut Scheduler<'_, T>) {
        self.schedule(task, sched);
    }
}

impl<T> TaskMaster<T> {
    /// Queues the next quantum of `task` — or, once terminated, drops it
    /// together with every task still waiting for a worker.
    fn schedule(&self, task: T, sched: &mut Scheduler<'_, T>) {
        if self.steering.is_terminated() {
            sched.discard_ready();
        } else {
            sched.submit(task);
        }
    }
}

/// Worker node of the simulation farm: runs one quantum per task.
///
/// An instance's batch is forwarded only when it carries samples or
/// finishes the trajectory — the same rule for both task grains, so the
/// sample streams reaching the downstream stages do not depend on the
/// unit of scheduling. Events are counted here, at the source, because a
/// quantum shorter than the sampling period fires events and forwards
/// nothing.
#[derive(Debug)]
pub struct SimWorker<T> {
    steering: Steering,
    events: Arc<AtomicU64>,
    _task: PhantomData<fn(T)>,
}

impl<T> SimWorker<T> {
    /// Creates a worker that stops starting quanta once `steering` is
    /// terminated and adds every quantum's events to `events`.
    pub fn new(steering: Steering, events: Arc<AtomicU64>) -> Self {
        SimWorker {
            steering,
            events,
            _task: PhantomData,
        }
    }
}

impl<T: QuantumTask> FeedbackWorker for SimWorker<T> {
    type Task = T;
    type Fb = T;
    type Out = SampleBatch;

    fn on_task(&mut self, mut task: T, out: &mut Outbox<'_, SampleBatch>) -> Option<T> {
        if self.steering.is_terminated() {
            return None; // queued before the termination: never started
        }
        let mut events = 0;
        task.quantum(|batch| {
            events += batch.events;
            if !batch.samples.is_empty() || batch.finished {
                out.push(batch);
            }
        });
        // Relaxed: a statistic, read after the farm's threads are joined.
        self.events.fetch_add(events, Ordering::Relaxed);
        if task.is_done() {
            None
        } else {
            Some(task)
        }
    }
}

/// Assembles the farm half of the Fig. 2 network over the instances
/// `instances` of a run: task generation with the configured engine,
/// feeding a master–worker farm of `workers` simulation engines with
/// feedback. `deps` is `model`'s dependency graph, compiled once by the
/// caller and shared by every instance's incremental propensity row.
///
/// Returns the stream of sample batches and the run's event counter: the
/// reactions fired by every quantum the farm executed, complete once the
/// pipeline has been joined.
///
/// `kernel_dispatch` selects the propensity-row kernels of the batched
/// kind's replicas (every other kind resolves `Auto`); every kernel is
/// bit-for-bit identical, so it never changes the stream.
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
    match engine {
        // Batched kind: workers pull tasks of `width` replicas (the last
        // may be narrower) instead of single instances.
        EngineKind::Batched { width } => {
            let count = instances.end - instances.start;
            let tasks = batch_spans(instances.start, count, width)
                .into_iter()
                .map(|(first, w)| {
                    BatchSimTask::with_engine_deps(
                        Arc::clone(&model),
                        Arc::clone(&deps),
                        base_seed,
                        first,
                        w,
                        t_end,
                        quantum,
                        sample_period,
                    )
                    .map(|task| task.with_kernel_dispatch(kernel_dispatch))
                })
                .collect::<Result<_, _>>()?;
            Ok(spawn_farm(tasks, workers, channel_capacity, steering))
        }
        _ => {
            let tasks = instances
                .map(|i| {
                    SimTask::with_engine_deps(
                        engine,
                        Arc::clone(&model),
                        Arc::clone(&deps),
                        base_seed,
                        i,
                        t_end,
                        quantum,
                        sample_period,
                    )
                })
                .collect::<Result<_, _>>()?;
            Ok(spawn_farm(tasks, workers, channel_capacity, steering))
        }
    }
}

fn spawn_farm<T: QuantumTask>(
    tasks: Vec<T>,
    workers: usize,
    channel_capacity: usize,
    steering: &Steering,
) -> (Pipeline<SampleBatch>, Arc<AtomicU64>) {
    let events = Arc::new(AtomicU64::new(0));
    let workers: Vec<SimWorker<T>> = (0..workers.max(1))
        .map(|_| SimWorker::new(steering.clone(), Arc::clone(&events)))
        .collect();
    let farm = Pipeline::from_source_with_capacity(tasks.into_iter(), channel_capacity)
        .master_worker_farm(TaskMaster::new(steering.clone()), workers);
    (farm, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use biomodels::simple::{birth_death, decay};
    use std::collections::HashMap;
    use std::sync::mpsc::TryRecvError;

    type Samples = Vec<(f64, Vec<u64>)>;

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
        let mut expected: HashMap<u64, Samples> = HashMap::new();
        for i in 0..4 {
            let mut task = SimTask::new(Arc::clone(&model), 3, i, 3.0, 0.75, 0.25);
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
        let task = SimTask::new(Arc::new(decay(30, 1.0)), 1, 0, 2.0, 1.0, 0.5);
        steering.terminate();
        assert!(worker.on_task(task, &mut Outbox::new(&tx)).is_none());
        assert!(rx.try_recv().is_err());
        assert_eq!(events.load(Ordering::Relaxed), 0);
    }
}
