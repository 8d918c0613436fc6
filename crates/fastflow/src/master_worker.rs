//! Farm with feedback: the master–worker core pattern.
//!
//! The paper's simulation pipeline is a farm whose workers execute one
//! *simulation quantum* and then "reschedule back the operation along the
//! feedback channel". This module provides exactly that shape:
//!
//! ```text
//!                ┌──────────── completion notices (unbounded) ──────────┐
//!                ▼                                                      │
//! upstream ─▶ master ─▶ task queues (bounded, `capacity` each) ─▶ workers
//!             [ready queue]                                         │ forward
//!                                                                   ▼
//!                                                  collector ─▶ downstream
//! ```
//!
//! The master never blocks on a worker. [`Scheduler::submit`] appends to a
//! FIFO *ready queue* the master owns, and each sweep of the master loop
//!
//! 1. drains the completion notices of **every** worker — the run-time
//!    sends one per executed task, with or without a feedback payload, so
//!    the number of tasks held by each worker is known exactly;
//! 2. admits what upstream holds, *before* handing anything out
//!    (breadth-first: with new and fed-back tasks in one FIFO, every task
//!    stays within about one quantum of the others, so a stage that
//!    re-aligns the workers' output — the paper's alignment of
//!    trajectories — emits while the farm is still computing instead of
//!    after it);
//! 3. hands ready tasks, oldest first, to the least-loaded worker that has
//!    room, with `try_send`. Exact accounting means room is known, so the
//!    `try_send` cannot be refused, so the master never parks on one
//!    worker's full queue while another worker's notices go unread;
//!
//! and backs off only when a whole sweep found nothing to do. The farm ends
//! when upstream is closed and nothing is pending; that is the whole
//! termination rule.
//!
//! A task queue holds the pipeline's channel `capacity`, like every other
//! edge. Deep queues keep a worker busy across the master's reaction time;
//! the price is that a task already queued at a worker does not migrate,
//! so a stalled worker strands at most `capacity` tasks. The ready queue
//! itself is unbounded: the tasks of a feedback farm are long-lived, and
//! admitting all of them is what keeps them in step.
//!
//! Notice channels are **unbounded** ([`crate::unbounded`]): reporting a
//! completion never blocks a worker.

use std::collections::VecDeque;

use crate::backoff::Backoff;
use crate::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use crate::node::Outbox;
use crate::pipeline::{spawn_named, Pipeline};

/// The master's bookkeeping: which tasks wait, and how many each worker
/// holds.
#[derive(Debug)]
struct Dispatch<T> {
    /// Submitted tasks not yet handed to a worker, oldest first.
    ready: VecDeque<T>,
    /// Per worker: tasks handed over whose completion notice is still due.
    inflight: Vec<usize>,
    /// Slots in each worker's task queue.
    capacity: usize,
    submitted: u64,
}

impl<T> Dispatch<T> {
    fn new(workers: usize, capacity: usize) -> Self {
        Dispatch {
            ready: VecDeque::new(),
            inflight: vec![0; workers],
            capacity,
            submitted: 0,
        }
    }

    /// Takes the oldest ready task for the least-loaded worker (ties to
    /// the lowest index), or `None` when nothing is ready or no worker has
    /// room. A worker holding fewer than `capacity` tasks has fewer than
    /// `capacity` of them queued, so its queue has a free slot.
    fn assign(&mut self) -> Option<(usize, T)> {
        let loads = self.inflight.iter().copied().enumerate();
        let (worker, load) = loads
            .min_by_key(|&(_, load)| load)
            .expect("a farm has at least one worker");
        if load >= self.capacity {
            return None;
        }
        let task = self.ready.pop_front()?;
        self.inflight[worker] += 1;
        Some((worker, task))
    }

    /// Tasks submitted and not yet completed.
    fn pending(&self) -> usize {
        self.ready.len() + self.inflight.iter().sum::<usize>()
    }
}

/// Scheduling interface handed to [`Master`] callbacks.
#[derive(Debug)]
pub struct Scheduler<'a, T> {
    dispatch: &'a mut Dispatch<T>,
}

impl<T> Scheduler<'_, T> {
    /// Queues `task` for the least-loaded worker. Never blocks: the task
    /// waits in the master's ready queue, behind those submitted before
    /// it, until a worker has room.
    pub fn submit(&mut self, task: T) {
        self.dispatch.submitted += 1;
        self.dispatch.ready.push_back(task);
    }

    /// Drops every task still waiting in the ready queue (tasks already
    /// handed to a worker are out of the master's reach).
    pub fn discard_ready(&mut self) {
        self.dispatch.ready.clear();
    }

    /// Number of workers in the farm.
    pub fn worker_count(&self) -> usize {
        self.dispatch.inflight.len()
    }

    /// Tasks submitted and not yet completed: waiting in the ready queue,
    /// queued at a worker, or executing.
    pub fn inflight(&self) -> usize {
        self.dispatch.pending()
    }

    /// Total tasks submitted since the farm started.
    pub fn submitted(&self) -> u64 {
        self.dispatch.submitted
    }
}

/// User logic of the master (emitter-with-feedback) node.
pub trait Master: Send + 'static {
    /// Items arriving from upstream.
    type In: Send + 'static;
    /// Tasks dispatched to workers.
    type Task: Send + 'static;
    /// Feedback payloads returned by workers.
    type Fb: Send + 'static;

    /// Handles one upstream item, typically by submitting task(s).
    fn on_upstream(&mut self, item: Self::In, sched: &mut Scheduler<'_, Self::Task>);

    /// Handles one worker feedback payload (e.g. reschedules an incomplete
    /// simulation task).
    fn on_feedback(&mut self, fb: Self::Fb, sched: &mut Scheduler<'_, Self::Task>);
}

/// User logic of a worker in a feedback farm.
pub trait FeedbackWorker: Send + 'static {
    /// Tasks received from the master.
    type Task: Send + 'static;
    /// Feedback payload sent back to the master.
    type Fb: Send + 'static;
    /// Items forwarded to the collector (and on downstream).
    type Out: Send + 'static;

    /// Executes one task; may forward items downstream via `out` and may
    /// return a feedback payload for the master (e.g. the continuation of an
    /// incomplete simulation).
    fn on_task(&mut self, task: Self::Task, out: &mut Outbox<'_, Self::Out>) -> Option<Self::Fb>;
}

/// Completion notice sent by the worker run-time to the master.
#[derive(Debug)]
struct Notice<Fb> {
    worker: usize,
    payload: Option<Fb>,
}

impl<T: Send + 'static> Pipeline<T> {
    /// Appends a master–worker farm with feedback to the pipeline.
    ///
    /// `workers` supplies one [`FeedbackWorker`] per farm worker; `master`
    /// schedules tasks in response to upstream items and feedback.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn master_worker_farm<M, W>(mut self, master: M, workers: Vec<W>) -> Pipeline<W::Out>
    where
        M: Master<In = T>,
        W: FeedbackWorker<Task = M::Task, Fb = M::Fb>,
    {
        assert!(!workers.is_empty(), "a farm needs at least one worker");
        let n = workers.len();
        let name = "mwfarm";

        // Master -> workers.
        let mut task_tx = Vec::with_capacity(n);
        let mut task_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::bounded::<M::Task>(self.capacity);
            task_tx.push(tx);
            task_rx.push(rx);
        }
        // Workers -> master (unbounded completion notices).
        let mut fb_tx = Vec::with_capacity(n);
        let mut fb_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::unbounded::<Notice<M::Fb>>();
            fb_tx.push(tx);
            fb_rx.push(rx);
        }
        // Workers -> collector.
        let mut out_tx = Vec::with_capacity(n);
        let mut out_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::bounded::<W::Out>(self.capacity);
            out_tx.push(tx);
            out_rx.push(rx);
        }
        // Collector -> downstream.
        let (down_tx, down_rx) = channel::bounded(self.capacity);

        // Master thread.
        let upstream = self.rx;
        let master_name = format!("{name}.master");
        let capacity = self.capacity;
        let handle = spawn_named(master_name.clone(), move || {
            MasterLoop::new(master, upstream, task_tx, fb_rx, capacity).run();
        });
        self.handles.push((master_name, handle));

        // Worker threads.
        for (i, ((worker, rx), (fb, out))) in workers
            .into_iter()
            .zip(task_rx)
            .zip(fb_tx.into_iter().zip(out_tx))
            .enumerate()
        {
            let wname = format!("{name}.worker.{i}");
            let handle = spawn_named(wname.clone(), move || {
                run_feedback_worker(i, worker, rx, fb, out);
            });
            self.handles.push((wname, handle));
        }

        // Collector thread.
        let collector_name = format!("{name}.collector");
        let handle = spawn_named(collector_name.clone(), move || {
            merge_channels(out_rx, down_tx);
        });
        self.handles.push((collector_name, handle));

        Pipeline {
            rx: down_rx,
            handles: self.handles,
            stats: self.stats,
            capacity: self.capacity,
        }
    }
}

/// What one pass of the master over its channels achieved.
#[derive(Debug, PartialEq, Eq)]
enum Sweep {
    /// Something moved: sweep again at once.
    Progressed,
    /// Nothing to do until a worker or upstream acts.
    Idle,
    /// The farm is over.
    Done,
}

/// The master node: its channel ends, the user's [`Master`] and the
/// bookkeeping between them.
struct MasterLoop<M: Master> {
    master: M,
    upstream: Receiver<M::In>,
    upstream_open: bool,
    task_tx: Vec<Sender<M::Task>>,
    fb_rx: Vec<Receiver<Notice<M::Fb>>>,
    dispatch: Dispatch<M::Task>,
}

impl<M: Master> MasterLoop<M> {
    fn new(
        master: M,
        upstream: Receiver<M::In>,
        task_tx: Vec<Sender<M::Task>>,
        fb_rx: Vec<Receiver<Notice<M::Fb>>>,
        capacity: usize,
    ) -> Self {
        MasterLoop {
            master,
            upstream,
            upstream_open: true,
            dispatch: Dispatch::new(task_tx.len(), capacity),
            task_tx,
            fb_rx,
        }
    }

    fn run(mut self) {
        let mut backoff = Backoff::new();
        loop {
            match self.sweep() {
                Sweep::Progressed => backoff.reset(),
                Sweep::Idle => backoff.wait(),
                Sweep::Done => break,
            }
        }
        // Dropping the task senders broadcasts EOS to the workers.
    }

    /// One pass: completions, admission, hand-out, termination check — in
    /// that order, none of them blocking (see the module docs).
    fn sweep(&mut self) -> Sweep {
        let mut progressed = false;

        // 1. Completion notices of every worker: frees room and brings the
        //    fed-back tasks into the ready queue.
        for rx in &self.fb_rx {
            loop {
                match rx.try_recv() {
                    Ok(notice) => {
                        progressed = true;
                        self.dispatch.inflight[notice.worker] -= 1;
                        if let Some(fb) = notice.payload {
                            let mut sched = Scheduler {
                                dispatch: &mut self.dispatch,
                            };
                            self.master.on_feedback(fb, &mut sched);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    // A worker only leaves before the master when it
                    // panicked or downstream hung up. What it held can no
                    // longer complete; end the farm and let the join
                    // report the cause.
                    Err(TryRecvError::Disconnected) => return Sweep::Done,
                }
            }
        }

        // 2. Admit what upstream holds, before anything is handed out. The
        //    bound is one channel-full per sweep, so a source that keeps
        //    pace with this loop cannot keep it from step 3.
        for _ in 0..self.dispatch.capacity {
            if !self.upstream_open {
                break;
            }
            match self.upstream.try_recv() {
                Ok(item) => {
                    progressed = true;
                    let mut sched = Scheduler {
                        dispatch: &mut self.dispatch,
                    };
                    self.master.on_upstream(item, &mut sched);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    progressed = true;
                    self.upstream_open = false;
                }
            }
        }

        // 3. Hand ready tasks out while some worker has room.
        while let Some((worker, task)) = self.dispatch.assign() {
            progressed = true;
            match self.task_tx[worker].try_send(task) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    unreachable!("worker {worker} was sent more tasks than it has room for")
                }
                Err(TrySendError::Disconnected(_)) => return Sweep::Done, // as in step 1
            }
        }

        // 4. Termination: nothing more can arrive and nothing is pending.
        if !self.upstream_open && self.dispatch.pending() == 0 {
            return Sweep::Done;
        }

        if progressed {
            Sweep::Progressed
        } else {
            Sweep::Idle
        }
    }
}

fn run_feedback_worker<W: FeedbackWorker>(
    index: usize,
    mut worker: W,
    tasks: Receiver<W::Task>,
    feedback: Sender<Notice<W::Fb>>,
    out: Sender<W::Out>,
) {
    let mut outbox = Outbox::new(&out);
    while let Some(task) = tasks.recv() {
        let payload = worker.on_task(task, &mut outbox);
        if feedback
            .send(Notice {
                worker: index,
                payload,
            })
            .is_err()
        {
            break; // master gone (only possible on panic)
        }
        if outbox.is_disconnected() {
            break;
        }
    }
}

/// Merges several channels into one, preserving per-channel order (the
/// unordered collector; [`crate::farm`] has the reordering one).
pub(crate) fn merge_channels<T: Send>(inputs: Vec<Receiver<T>>, out: Sender<T>) {
    let n = inputs.len();
    let mut done = vec![false; n];
    let mut remaining = n;
    let mut backoff = Backoff::new();
    while remaining > 0 {
        let mut progressed = false;
        for (i, rx) in inputs.iter().enumerate() {
            if done[i] {
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(item) => {
                        progressed = true;
                        if out.send(item).is_err() {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done[i] = true;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        if progressed {
            backoff.reset();
        } else {
            backoff.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, DEFAULT_CAPACITY};

    /// A task that needs `remaining` quanta; each quantum forwards one
    /// result item and feeds the task back until done.
    #[derive(Debug)]
    struct QuantumTask {
        id: usize,
        remaining: u32,
    }

    struct QuantumMaster;

    impl Master for QuantumMaster {
        type In = QuantumTask;
        type Task = QuantumTask;
        type Fb = QuantumTask;

        fn on_upstream(&mut self, item: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(item);
        }

        fn on_feedback(&mut self, fb: QuantumTask, sched: &mut Scheduler<'_, QuantumTask>) {
            sched.submit(fb);
        }
    }

    struct QuantumWorker;

    impl FeedbackWorker for QuantumWorker {
        type Task = QuantumTask;
        type Fb = QuantumTask;
        type Out = (usize, u32);

        fn on_task(
            &mut self,
            mut task: QuantumTask,
            out: &mut Outbox<'_, (usize, u32)>,
        ) -> Option<QuantumTask> {
            task.remaining -= 1;
            out.push((task.id, task.remaining));
            if task.remaining > 0 {
                Some(task)
            } else {
                None
            }
        }
    }

    #[test]
    fn tasks_cycle_until_complete() {
        let tasks: Vec<QuantumTask> = (0..20)
            .map(|id| QuantumTask {
                id,
                remaining: (id as u32 % 5) + 1,
            })
            .collect();
        let expected_items: usize = tasks.iter().map(|t| t.remaining as usize).sum();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(
                QuantumMaster,
                vec![QuantumWorker, QuantumWorker, QuantumWorker],
            )
            .collect()
            .unwrap();
        assert_eq!(out.len(), expected_items);
        // Every task must emit exactly one item with remaining == 0.
        let finished: Vec<usize> = out
            .iter()
            .filter(|(_, rem)| *rem == 0)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(finished.len(), 20);
    }

    #[test]
    fn per_task_quanta_are_in_order() {
        let tasks = vec![QuantumTask {
            id: 7,
            remaining: 10,
        }];
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker, QuantumWorker])
            .collect()
            .unwrap();
        let rems: Vec<u32> = out.iter().map(|(_, r)| *r).collect();
        assert_eq!(rems, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_feedback_farm_completes() {
        let tasks: Vec<QuantumTask> = (0..5).map(|id| QuantumTask { id, remaining: 3 }).collect();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker])
            .collect()
            .unwrap();
        assert_eq!(out.len(), 15);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn a_farm_without_workers_is_refused() {
        let _ = Pipeline::from_source(uniform_tasks(1, 1))
            .master_worker_farm(QuantumMaster, Vec::<QuantumWorker>::new());
    }

    #[test]
    fn heavy_fan_in_many_tasks_few_workers() {
        let tasks: Vec<QuantumTask> = (0..300)
            .map(|id| QuantumTask {
                id,
                remaining: 1 + (id as u32 % 3),
            })
            .collect();
        let expected: usize = tasks.iter().map(|t| t.remaining as usize).sum();
        let out: Vec<(usize, u32)> = Pipeline::from_source(tasks.into_iter())
            .master_worker_farm(QuantumMaster, vec![QuantumWorker, QuantumWorker])
            .collect()
            .unwrap();
        assert_eq!(out.len(), expected);
    }

    // ------------------------------------------------------ policy, threaded

    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Long enough that only a stalled farm can reach it.
    const STALL_LIMIT: Duration = Duration::from_secs(30);

    fn uniform_tasks(tasks: usize, rounds: u32) -> std::vec::IntoIter<QuantumTask> {
        let tasks: Vec<QuantumTask> = (0..tasks)
            .map(|id| QuantumTask {
                id,
                remaining: rounds,
            })
            .collect();
        tasks.into_iter()
    }

    /// A [`QuantumWorker`] that reports every quantum it executes as
    /// `(worker, remaining)`, busy-spins `spin` per quantum and, when it
    /// holds a latch, parks its first task on it.
    struct ProbeWorker {
        index: usize,
        executed: mpsc::Sender<(usize, u32)>,
        spin: Duration,
        latch: Option<mpsc::Receiver<()>>,
    }

    impl FeedbackWorker for ProbeWorker {
        type Task = QuantumTask;
        type Fb = QuantumTask;
        type Out = (usize, u32);

        fn on_task(
            &mut self,
            task: QuantumTask,
            out: &mut Outbox<'_, (usize, u32)>,
        ) -> Option<QuantumTask> {
            if let Some(latch) = self.latch.take() {
                latch
                    .recv_timeout(STALL_LIMIT)
                    .expect("the latch was never released");
            }
            let start = Instant::now();
            while start.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            let fb = QuantumWorker.on_task(task, out);
            let remaining = fb.as_ref().map_or(0, |t| t.remaining);
            let _ = self.executed.send((self.index, remaining));
            fb
        }
    }

    /// Two probe workers; worker 0 parks on `latch` if given one.
    fn probe_workers(
        spin: Duration,
        latch: Option<mpsc::Receiver<()>>,
    ) -> (Vec<ProbeWorker>, mpsc::Receiver<(usize, u32)>) {
        let (executed, reports) = mpsc::channel();
        let mut workers: Vec<ProbeWorker> = (0..2)
            .map(|index| ProbeWorker {
                index,
                executed: executed.clone(),
                spin,
                latch: None,
            })
            .collect();
        workers[0].latch = latch;
        (workers, reports)
    }

    #[test]
    fn equal_quanta_spread_over_both_workers() {
        let (tasks, rounds) = (64, 16);
        let (workers, reports) = probe_workers(Duration::from_micros(200), None);
        let out = Pipeline::from_source(uniform_tasks(tasks, rounds))
            .master_worker_farm(QuantumMaster, workers)
            .collect()
            .unwrap();
        let quanta = tasks * rounds as usize;
        assert_eq!(out.len(), quanta);
        let mut per_worker = [0usize; 2];
        for (worker, _) in reports.try_iter() {
            per_worker[worker] += 1;
        }
        assert!(
            per_worker.iter().all(|&n| n >= quanta / 3),
            "{quanta} equal quanta ran {per_worker:?} on the two workers"
        );
    }

    /// Worker 0 parks on its first task. Worker 1 must keep being fed —
    /// its notices answered, its tasks rescheduled onto it — until every
    /// task the master could still reach has run all its rounds; only then
    /// is worker 0 released. A worker is sent a task only while it holds
    /// no more than the other, so worker 0 strands at most half the tasks,
    /// and never more than its queue takes.
    fn worker_one_finishes_what_worker_zero_does_not_hold(capacity: usize) {
        let (tasks, rounds) = (64, 8);
        let (release, latch) = mpsc::channel();
        let (workers, reports) = probe_workers(Duration::from_micros(100), Some(latch));
        let farm = Pipeline::from_source_with_capacity(uniform_tasks(tasks, rounds), capacity)
            .master_worker_farm(QuantumMaster, workers);
        let run = std::thread::spawn(move || farm.collect());

        let reachable = tasks - capacity.min(tasks / 2);
        let mut finished = 0;
        while finished < reachable {
            let (worker, remaining) = reports.recv_timeout(STALL_LIMIT).unwrap_or_else(|_| {
                panic!(
                    "capacity {capacity}: worker 1 starved behind worker 0's stall \
                     after finishing {finished} of {reachable} reachable tasks"
                )
            });
            assert_eq!(worker, 1, "worker 0 is parked");
            finished += usize::from(remaining == 0);
        }

        release.send(()).unwrap();
        let out = run.join().unwrap().unwrap();
        assert_eq!(out.len(), tasks * rounds as usize);
    }

    #[test]
    fn a_stalled_worker_does_not_stall_the_farm() {
        worker_one_finishes_what_worker_zero_does_not_hold(DEFAULT_CAPACITY);
    }

    #[test]
    fn a_stalled_worker_does_not_stall_the_farm_at_capacity_one() {
        worker_one_finishes_what_worker_zero_does_not_hold(1);
    }

    #[test]
    fn a_panicking_worker_ends_the_farm_instead_of_hanging_it() {
        // A latch nobody holds: worker 0 panics on its first task.
        let (release, latch) = mpsc::channel();
        drop(release);
        let (workers, _reports) = probe_workers(Duration::ZERO, Some(latch));
        let farm =
            Pipeline::from_source(uniform_tasks(8, 4)).master_worker_farm(QuantumMaster, workers);
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || done.send(farm.collect()));
        match result.recv_timeout(STALL_LIMIT) {
            Ok(Err(crate::error::Error::StagePanicked { stage, .. })) => {
                assert_eq!(stage, "mwfarm.worker.0");
            }
            other => panic!("expected worker 0's panic to surface, got {other:?}"),
        }
    }

    // --------------------------------------------------- policy, thread-free

    /// A [`MasterLoop`] whose channels end in the test, which plays
    /// upstream and the workers by hand, one deterministic step at a time.
    struct Rig {
        master: MasterLoop<QuantumMaster>,
        upstream: Option<Sender<QuantumTask>>,
        task_rx: Vec<Receiver<QuantumTask>>,
        fb_tx: Vec<Sender<Notice<QuantumTask>>>,
    }

    impl Rig {
        /// `workers` workers with `capacity`-slot queues and `tasks` tasks
        /// of `rounds` rounds waiting upstream, which is then closed.
        fn new(workers: usize, capacity: usize, tasks: usize, rounds: u32) -> Rig {
            let (upstream, upstream_rx) = channel::bounded(tasks.max(1));
            for task in uniform_tasks(tasks, rounds) {
                upstream.try_send(task).unwrap();
            }
            let (task_tx, task_rx) = (0..workers).map(|_| channel::bounded(capacity)).unzip();
            let (fb_tx, fb_rx) = (0..workers).map(|_| channel::unbounded()).unzip();
            Rig {
                master: MasterLoop::new(QuantumMaster, upstream_rx, task_tx, fb_rx, capacity),
                upstream: Some(upstream),
                task_rx,
                fb_tx,
            }
        }

        /// Sweeps until the master has nothing left to do.
        fn settle(&mut self) -> Sweep {
            loop {
                match self.master.sweep() {
                    Sweep::Progressed => {}
                    end => return end,
                }
            }
        }

        /// Worker `w` dequeues its next task, if it has one.
        fn dequeue(&mut self, w: usize) -> Option<QuantumTask> {
            self.task_rx[w].try_recv().ok()
        }

        /// Worker `w` reports `task`'s quantum done, feeding it back while
        /// it has rounds left.
        fn complete(&mut self, w: usize, mut task: QuantumTask) {
            task.remaining -= 1;
            let payload = (task.remaining > 0).then_some(task);
            self.fb_tx[w].send(Notice { worker: w, payload }).unwrap();
        }
    }

    #[test]
    fn ready_tasks_run_breadth_first() {
        // 6 tasks but room for 4: the ready queue is in use throughout.
        let (workers, tasks, rounds) = (2, 6, 5u32);
        let mut rig = Rig::new(workers, 2, tasks, rounds);
        rig.upstream = None;
        let mut done = vec![0u32; tasks]; // rounds finished, per task
        loop {
            let end = rig.settle();
            // Lockstep workers (equal quanta): each runs the head of its
            // queue, then all report.
            let running: Vec<_> = (0..workers).map(|w| rig.dequeue(w)).collect();
            for (w, task) in running.into_iter().enumerate() {
                let Some(task) = task else { continue };
                let round = rounds - task.remaining;
                assert_eq!(round, done[task.id], "task {} skipped a round", task.id);
                assert!(
                    done.iter().all(|&d| d + 1 >= round),
                    "task {} starts round {round} with the others at {done:?}",
                    task.id
                );
                done[task.id] += 1;
                rig.complete(w, task);
            }
            if end == Sweep::Done {
                break;
            }
        }
        assert_eq!(done, vec![rounds; tasks]);
    }

    #[test]
    fn no_worker_is_sent_more_than_it_has_room_for() {
        // A refused `try_send` panics the sweep, so every `settle` below
        // also shows that none was attempted without room.
        let mut rig = Rig::new(2, 2, 10, 1);
        assert_eq!(rig.settle(), Sweep::Idle);
        let queued = |rig: &Rig| {
            rig.master
                .task_tx
                .iter()
                .map(Sender::queued)
                .collect::<Vec<_>>()
        };
        assert_eq!(queued(&rig), [2, 2]);
        assert_eq!(rig.master.dispatch.ready.len(), 6);

        // Dequeuing frees a slot but not the room: the task is executing.
        let task = rig.dequeue(0).unwrap();
        assert_eq!(task.id, 0, "oldest task, lowest-indexed worker");
        assert_eq!(rig.settle(), Sweep::Idle);
        assert_eq!(queued(&rig), [1, 2]);

        // Its completion notice does, for exactly one task — the oldest
        // one still waiting.
        rig.complete(0, task);
        assert_eq!(rig.settle(), Sweep::Idle);
        assert_eq!(queued(&rig), [2, 2]);
        assert_eq!(rig.master.dispatch.ready.front().unwrap().id, 5);

        // The less loaded worker is served first.
        let (a, b) = (rig.dequeue(1).unwrap(), rig.dequeue(1).unwrap());
        rig.complete(1, a);
        rig.complete(1, b);
        assert_eq!(rig.settle(), Sweep::Idle);
        assert_eq!(queued(&rig), [2, 2]);
        assert_eq!(rig.master.dispatch.inflight, vec![2, 2]);
        assert_eq!(rig.master.dispatch.ready.len(), 3);
    }

    #[test]
    fn the_farm_ends_only_when_upstream_is_closed_and_nothing_is_pending() {
        let mut rig = Rig::new(2, 2, 1, 2);
        // The task is at worker 0; upstream is open.
        assert_eq!(rig.settle(), Sweep::Idle);
        let task = rig.dequeue(0).unwrap();
        // Upstream closed, the task executing.
        rig.upstream = None;
        assert_eq!(rig.settle(), Sweep::Idle);
        // Fed back for its second round: pending again.
        rig.complete(0, task);
        assert_eq!(rig.settle(), Sweep::Idle);
        let task = rig.dequeue(0).unwrap();
        assert_eq!(rig.settle(), Sweep::Idle);
        // Last round done, nothing fed back.
        rig.complete(0, task);
        assert_eq!(rig.settle(), Sweep::Done);

        // Everything completed but upstream still open: not over.
        let mut rig = Rig::new(2, 2, 1, 1);
        rig.settle();
        let task = rig.dequeue(0).unwrap();
        rig.complete(0, task);
        assert_eq!(rig.settle(), Sweep::Idle);
        rig.upstream = None;
        assert_eq!(rig.settle(), Sweep::Done);
    }
}
