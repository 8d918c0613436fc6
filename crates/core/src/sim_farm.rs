//! The farm of simulation engines with feedback scheduling.
//!
//! "These objects are passed to the farm of simulation engines, which
//! dispatch them to a number of simulation engines (sim eng). Each
//! simulation engine brings forward a simulation that lasts a precise
//! simulation time (simulation quantum). Then it reschedules back the
//! operation along the feedback channel."
//!
//! [`TaskMaster`] implements the dispatch-with-load-balancing policy —
//! new and rescheduled tasks go to the least-loaded worker — generically
//! over the unit of scheduling: scalar [`SimTask`]s ([`SimMaster`]) or
//! whole [`BatchSimTask`]s ([`BatchSimMaster`], the batched tier, where
//! workers pull batches of replicas instead of single instances).
//! [`SimWorker`] / [`BatchSimWorker`] run one quantum per task, forward
//! the produced [`SampleBatch`]es towards the alignment stage and feed
//! incomplete tasks back.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use fastflow::node::Outbox;

use crate::task::{BatchSimTask, SampleBatch, SimTask};

/// Steering control of a running simulation — the paper's Fig. 2 shows the
/// GUI feeding "start new simulations, steer and terminate running
/// simulations" back into the main pipeline. A `Steering` handle can be
/// shared with any thread (e.g. a UI) and terminates the run at the next
/// quantum boundary of every task.
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
}

/// Master node of a simulation farm, generic over its unit of scheduling
/// (`T` is what travels the feedback cycle: a [`SimTask`] on the scalar
/// tier, a [`BatchSimTask`] on the batched tier).
pub struct TaskMaster<T> {
    dispatched: u64,
    steering: Option<Steering>,
    _task: PhantomData<fn(T)>,
}

/// Master of the scalar farm: schedules one instance per task.
pub type SimMaster = TaskMaster<SimTask>;

/// Master of the batched farm: schedules one whole batch per task.
pub type BatchSimMaster = TaskMaster<BatchSimTask>;

impl<T> std::fmt::Debug for TaskMaster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskMaster")
            .field("dispatched", &self.dispatched)
            .field("steering", &self.steering)
            .finish()
    }
}

impl<T> Default for TaskMaster<T> {
    fn default() -> Self {
        TaskMaster {
            dispatched: 0,
            steering: None,
            _task: PhantomData,
        }
    }
}

impl<T> TaskMaster<T> {
    /// Creates the master.
    pub fn new() -> Self {
        TaskMaster::default()
    }

    /// Creates a master controlled by a [`Steering`] handle.
    pub fn with_steering(steering: Steering) -> Self {
        TaskMaster {
            dispatched: 0,
            steering: Some(steering),
            _task: PhantomData,
        }
    }

    /// Tasks admitted from upstream so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    fn stopped(&self) -> bool {
        self.steering
            .as_ref()
            .map(Steering::is_terminated)
            .unwrap_or(false)
    }
}

impl<T: Send + 'static> Master for TaskMaster<T> {
    type In = T;
    type Task = T;
    type Fb = T;

    fn on_upstream(&mut self, task: T, sched: &mut Scheduler<'_, T>) {
        if self.stopped() {
            return; // terminated: drop new simulations
        }
        self.dispatched += 1;
        sched.submit(task);
    }

    fn on_feedback(&mut self, task: T, sched: &mut Scheduler<'_, T>) {
        if self.stopped() {
            return; // terminated: do not reschedule the next quantum
        }
        // Rescheduling after each quantum is the load-balancing strategy:
        // a long-running trajectory never pins its worker, because the
        // next quantum may be dispatched anywhere.
        sched.submit(task);
    }

    fn on_idle(&mut self, _sched: &mut Scheduler<'_, T>) -> bool {
        true
    }
}

/// Worker node of the simulation farm: runs one quantum per task.
#[derive(Debug, Default)]
pub struct SimWorker {
    quanta: u64,
    events: u64,
}

impl SimWorker {
    /// Creates a worker.
    pub fn new() -> Self {
        SimWorker::default()
    }
}

impl FeedbackWorker for SimWorker {
    type Task = SimTask;
    type Fb = SimTask;
    type Out = SampleBatch;

    fn on_task(&mut self, mut task: SimTask, out: &mut Outbox<'_, SampleBatch>) -> Option<SimTask> {
        let mut samples = Vec::new();
        let events = task.run_quantum(&mut samples);
        self.quanta += 1;
        self.events += events;
        let finished = task.is_done();
        if !samples.is_empty() || finished {
            out.push(SampleBatch {
                instance: task.instance(),
                samples,
                events,
                finished,
            });
        }
        if finished {
            None
        } else {
            Some(task)
        }
    }
}

/// Worker node of the *batched* simulation farm: runs one quantum across
/// a whole batch per task, emitting one [`SampleBatch`] per replica.
///
/// The per-replica push discipline mirrors [`SimWorker`] exactly — a
/// replica's batch is forwarded only when it carries samples or finishes
/// the trajectory — so the event totals and sample streams reaching the
/// downstream stages are bit-for-bit what the scalar farm produces.
#[derive(Debug, Default)]
pub struct BatchSimWorker {
    quanta: u64,
    events: u64,
}

impl BatchSimWorker {
    /// Creates a worker.
    pub fn new() -> Self {
        BatchSimWorker::default()
    }
}

impl FeedbackWorker for BatchSimWorker {
    type Task = BatchSimTask;
    type Fb = BatchSimTask;
    type Out = SampleBatch;

    fn on_task(
        &mut self,
        mut task: BatchSimTask,
        out: &mut Outbox<'_, SampleBatch>,
    ) -> Option<BatchSimTask> {
        let batches = task.run_quantum();
        self.quanta += 1;
        let finished = task.is_done();
        for b in batches {
            self.events += b.events;
            if !b.samples.is_empty() || finished {
                out.push(b);
            }
        }
        if finished {
            None
        } else {
            Some(task)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biomodels::simple::decay;
    use fastflow::pipeline::Pipeline;
    use std::collections::HashMap;
    use std::sync::Arc;

    type Samples = Vec<(f64, Vec<u64>)>;

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
        let t_end = 4.0;
        let tau = 0.5;
        let tasks: Vec<SimTask> = (0..instances)
            .map(|i| SimTask::new(Arc::clone(&model), 7, i, t_end, 1.0, tau))
            .collect();
        let batches: Vec<SampleBatch> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(SimMaster::new(), vec![SimWorker::new(), SimWorker::new()])
            .collect()
            .unwrap();
        // Each instance must produce the full grid 0..=4.0 step 0.5 = 9
        // samples, each grid point exactly once.
        let per_instance = samples_by_instance(&batches);
        let finishes = batches.iter().filter(|b| b.finished).count();
        assert_eq!(per_instance.len(), instances as usize);
        assert_eq!(finishes, instances as usize);
        for (inst, samples) in per_instance {
            assert_eq!(samples.len(), 9, "instance {inst} sample count");
            assert!(
                samples.windows(2).all(|w| w[0].0 < w[1].0),
                "instance {inst} repeats a grid point"
            );
        }
    }

    #[test]
    fn farm_results_equal_sequential_execution() {
        let model = Arc::new(decay(25, 1.0));
        let mk_tasks = || -> Vec<SimTask> {
            (0..4)
                .map(|i| SimTask::new(Arc::clone(&model), 3, i, 3.0, 0.75, 0.25))
                .collect()
        };
        // Sequential reference.
        let mut expected: HashMap<u64, Samples> = HashMap::new();
        for mut task in mk_tasks() {
            let samples = expected.entry(task.instance()).or_default();
            while !task.is_done() {
                task.run_quantum(samples);
            }
        }
        // Farm execution.
        let batches: Vec<SampleBatch> = Pipeline::from_source(mk_tasks().into_iter())
            .master_worker_farm(
                SimMaster::new(),
                vec![SimWorker::new(), SimWorker::new(), SimWorker::new()],
            )
            .collect()
            .unwrap();
        assert_eq!(
            samples_by_instance(&batches),
            expected,
            "farm must not change trajectories"
        );
    }

    #[test]
    fn batched_farm_matches_scalar_farm_bit_for_bit() {
        use crate::task::BatchSimTask;
        use gillespie::deps::ModelDeps;
        use gillespie::engine::EngineKind;

        let model = Arc::new(decay(30, 0.8));
        let (instances, t_end, quantum, tau, seed) = (7u64, 3.0, 0.6, 0.2, 13u64);
        let deps = Arc::new(ModelDeps::compile(&model));

        let scalar_tasks: Vec<SimTask> = (0..instances)
            .map(|i| {
                SimTask::with_engine_deps(
                    EngineKind::Ssa,
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    seed,
                    i,
                    t_end,
                    quantum,
                    tau,
                )
                .unwrap()
            })
            .collect();
        let scalar: Vec<SampleBatch> = Pipeline::from_source(scalar_tasks.into_iter())
            .master_worker_farm(SimMaster::new(), vec![SimWorker::new(), SimWorker::new()])
            .collect()
            .unwrap();

        // Width 3 over 7 instances: batches of 3, 3 and 1.
        let width = 3usize;
        let batch_tasks: Vec<BatchSimTask> = (0..instances)
            .step_by(width)
            .map(|first| {
                let w = width.min((instances - first) as usize);
                BatchSimTask::with_engine_deps(
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    seed,
                    first,
                    w,
                    t_end,
                    quantum,
                    tau,
                )
                .unwrap()
            })
            .collect();
        let batched: Vec<SampleBatch> = Pipeline::from_source(batch_tasks.into_iter())
            .master_worker_farm(
                BatchSimMaster::new(),
                vec![BatchSimWorker::new(), BatchSimWorker::new()],
            )
            .collect()
            .unwrap();

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
}
