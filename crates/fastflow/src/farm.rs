//! The farm core pattern: emitter → replicated workers → collector.
//!
//! A farm replicates a [`Stage`] across worker threads. The *emitter*
//! (FastFlow's dispatch, a grey box in the paper's Fig. 2) schedules items
//! onto per-worker SPSC channels according to a [`SchedPolicy`]; the
//! *collector* (gather) merges the per-worker output channels back into one
//! stream. Both helper threads are generated by the pattern — user code only
//! supplies the worker stage, exactly the division of labour the paper
//! advocates.
//!
//! The paper's simulations are "typically heavily unbalanced", which is why
//! the default policy here is [`SchedPolicy::OnDemand`]: a worker only ever
//! holds one in-flight item, so long-running items cannot strand queued work
//! behind them.

use crate::backoff::Backoff;
use crate::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use crate::error::Result;
use crate::metrics::RunStats;
use crate::node::{Sink, Stage};
use crate::pipeline::{join_all, spawn_sink, spawn_stage, Pipeline};

/// Item-to-worker scheduling policy used by the farm emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Cyclic assignment; lowest overhead, poor for unbalanced work.
    RoundRobin,
    /// Single-slot worker queues; an item is assigned only when a worker is
    /// free. Best for heavily unbalanced items (the paper's default for
    /// simulation tasks).
    #[default]
    OnDemand,
    /// Chooses the worker with the fewest queued items.
    LeastLoaded,
}

/// Configuration for a farm of replicated worker stages.
///
/// Build one with [`Farm::new`], then attach it to a [`Pipeline`] with
/// [`Pipeline::farm`].
///
/// # Examples
///
/// ```
/// use fastflow::farm::Farm;
/// use fastflow::node::map_stage;
/// use fastflow::pipeline::Pipeline;
///
/// let farm = Farm::new(4, |_| map_stage(|x: u64| x * 2));
/// let mut out: Vec<u64> = Pipeline::from_source(0..100u64)
///     .farm(farm)
///     .collect()
///     .unwrap();
/// out.sort_unstable();
/// assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct Farm<St> {
    workers: Vec<St>,
    policy: SchedPolicy,
    worker_capacity: usize,
    name: String,
}

impl<St> Farm<St> {
    /// Creates a farm of `n` workers built by `factory` (passed the worker
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new<F>(n: usize, mut factory: F) -> Self
    where
        F: FnMut(usize) -> St,
    {
        assert!(n > 0, "a farm needs at least one worker");
        Farm {
            workers: (0..n).map(&mut factory).collect(),
            policy: SchedPolicy::default(),
            worker_capacity: 2,
            name: "farm".to_owned(),
        }
    }

    /// Sets the scheduling policy (default [`SchedPolicy::OnDemand`]).
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-worker input queue capacity (ignored by `OnDemand`,
    /// which forces single-slot queues).
    pub fn worker_capacity(mut self, capacity: usize) -> Self {
        self.worker_capacity = capacity.max(1);
        self
    }

    /// Names the farm for metrics and panic reports (default `"farm"`).
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Always false: farms have at least one worker.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }
}

impl<T: Send + 'static> Pipeline<T> {
    /// Appends a farm of replicated stages to the pipeline.
    pub fn farm<St, U>(mut self, farm: Farm<St>) -> Pipeline<U>
    where
        U: Send + 'static,
        St: Stage<In = T, Out = U>,
    {
        let Farm {
            workers,
            policy,
            worker_capacity,
            name,
        } = farm;
        let nworkers = workers.len();
        let cap = match policy {
            SchedPolicy::OnDemand => 1,
            _ => worker_capacity,
        };

        // Emitter -> workers channels.
        let mut to_worker_tx = Vec::with_capacity(nworkers);
        let mut to_worker_rx = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let (tx, rx) = channel::bounded(cap);
            to_worker_tx.push(tx);
            to_worker_rx.push(rx);
        }
        // Workers -> collector channels.
        let mut from_worker_tx = Vec::with_capacity(nworkers);
        let mut from_worker_rx = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let (tx, rx) = channel::bounded(self.capacity);
            from_worker_tx.push(tx);
            from_worker_rx.push(rx);
        }
        // Collector -> downstream channel.
        let (out_tx, out_rx) = channel::bounded(self.capacity);

        // Emitter thread.
        let emitter_name = format!("{name}.emitter");
        let upstream = self.rx;
        let emitter = crate::pipeline::spawn_named(emitter_name.clone(), move || {
            run_emitter(upstream, to_worker_tx, policy);
        });
        self.handles.push((emitter_name, emitter));

        // Worker threads.
        for (i, (worker, (rx, tx))) in workers
            .into_iter()
            .zip(to_worker_rx.into_iter().zip(from_worker_tx))
            .enumerate()
        {
            let wname = format!("{name}.worker.{i}");
            let handle = spawn_stage(wname.clone(), worker, rx, tx, self.stats.clone());
            self.handles.push((wname, handle));
        }

        // Collector thread.
        let collector_name = format!("{name}.collector");
        let collector = crate::pipeline::spawn_named(collector_name.clone(), move || {
            run_collector(from_worker_rx, out_tx);
        });
        self.handles.push((collector_name, collector));

        Pipeline {
            rx: out_rx,
            handles: self.handles,
            stats: self.stats,
            capacity: self.capacity,
        }
    }

    /// Appends an *ordered* farm: workers map one input to one output and
    /// the collector restores input order (FastFlow's `ofarm`).
    pub fn ordered_farm<U, F, W>(mut self, n: usize, mut factory: F) -> Pipeline<U>
    where
        U: Send + 'static,
        F: FnMut(usize) -> W,
        W: FnMut(T) -> U + Send + 'static,
    {
        assert!(n > 0, "a farm needs at least one worker");
        let name = "ofarm";
        let mut to_worker_tx = Vec::with_capacity(n);
        let mut to_worker_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::bounded::<(u64, T)>(2);
            to_worker_tx.push(tx);
            to_worker_rx.push(rx);
        }
        let mut from_worker_tx = Vec::with_capacity(n);
        let mut from_worker_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::bounded::<(u64, U)>(self.capacity);
            from_worker_tx.push(tx);
            from_worker_rx.push(rx);
        }
        let (out_tx, out_rx) = channel::bounded(self.capacity);

        // Emitter: round-robin keeps per-worker sequence monotone, which the
        // reordering collector relies on for O(workers) merging.
        let upstream = self.rx;
        let emitter_name = format!("{name}.emitter");
        let emitter = crate::pipeline::spawn_named(emitter_name.clone(), move || {
            let mut seq = 0u64;
            let mut next = 0usize;
            while let Some(item) = upstream.recv() {
                if to_worker_tx[next].send((seq, item)).is_err() {
                    break;
                }
                seq += 1;
                next = (next + 1) % to_worker_tx.len();
            }
        });
        self.handles.push((emitter_name, emitter));

        for (i, (rx, tx)) in to_worker_rx.into_iter().zip(from_worker_tx).enumerate() {
            let mut f = factory(i);
            let wname = format!("{name}.worker.{i}");
            let handle = crate::pipeline::spawn_named(wname.clone(), move || {
                while let Some((seq, item)) = rx.recv() {
                    if tx.send((seq, f(item))).is_err() {
                        break;
                    }
                }
            });
            self.handles.push((wname, handle));
        }

        let collector_name = format!("{name}.collector");
        let collector = crate::pipeline::spawn_named(collector_name.clone(), move || {
            run_ordered_collector(from_worker_rx, out_tx);
        });
        self.handles.push((collector_name, collector));

        Pipeline {
            rx: out_rx,
            handles: self.handles,
            stats: self.stats,
            capacity: self.capacity,
        }
    }

    /// Terminates the pipeline with a farm of replicated sinks.
    ///
    /// Items are scheduled on demand; useful when the final stage (e.g.
    /// statistics) is itself the bottleneck — the paper's "farm of
    /// statistical engines".
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::Error::StagePanicked`] if any node panicked.
    pub fn run_to_sink_farm<Sk, F>(mut self, n: usize, mut factory: F) -> Result<RunStats>
    where
        Sk: Sink<In = T>,
        F: FnMut(usize) -> Sk,
    {
        assert!(n > 0, "a farm needs at least one worker");
        let mut to_worker_tx = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::bounded(1);
            to_worker_tx.push(tx);
            let name = format!("sinkfarm.worker.{i}");
            let handle = spawn_sink(name.clone(), factory(i), rx, self.stats.clone());
            self.handles.push((name, handle));
        }
        let upstream = self.rx;
        let emitter_name = "sinkfarm.emitter".to_owned();
        let emitter = crate::pipeline::spawn_named(emitter_name.clone(), move || {
            run_emitter(upstream, to_worker_tx, SchedPolicy::OnDemand);
        });
        self.handles.push((emitter_name, emitter));
        join_all(self.handles)?;
        Ok(self.stats.finish())
    }
}

fn run_emitter<T: Send>(upstream: Receiver<T>, workers: Vec<Sender<T>>, policy: SchedPolicy) {
    let n = workers.len();
    let mut rr = 0usize;
    let mut alive = vec![true; n];
    'outer: while let Some(item) = upstream.recv() {
        let item = item;
        match policy {
            SchedPolicy::RoundRobin => {
                // Try the nominal worker; if its queue is full, block on it
                // (cyclic order is part of the policy's contract).
                let w = rr;
                rr = (rr + 1) % n;
                if workers[w].send(item).is_err() {
                    alive[w] = false;
                    if alive.iter().all(|a| !a) {
                        break 'outer;
                    }
                }
            }
            SchedPolicy::OnDemand | SchedPolicy::LeastLoaded => {
                let mut slot = Some(item);
                let mut backoff = Backoff::new();
                loop {
                    let target = match policy {
                        SchedPolicy::LeastLoaded => least_loaded(&workers, &alive),
                        _ => None,
                    };
                    let candidates: Vec<usize> = match target {
                        Some(w) => vec![w],
                        None => scan_order(n, rr).collect(),
                    };
                    for w in candidates {
                        if !alive[w] {
                            continue;
                        }
                        let value = slot.take().expect("slot refilled on failure");
                        match workers[w].try_send(value) {
                            Ok(()) => {
                                rr = (w + 1) % n;
                                break;
                            }
                            Err(TrySendError::Full(v)) => slot = Some(v),
                            Err(TrySendError::Disconnected(v)) => {
                                alive[w] = false;
                                slot = Some(v);
                            }
                        }
                    }
                    if slot.is_none() {
                        break;
                    }
                    if alive.iter().all(|a| !a) {
                        break 'outer;
                    }
                    backoff.wait();
                }
            }
        }
    }
    // Dropping the senders closes every worker input queue: EOS broadcast.
}

fn least_loaded<T: Send>(workers: &[Sender<T>], alive: &[bool]) -> Option<usize> {
    workers
        .iter()
        .enumerate()
        .filter(|(i, _)| alive[*i])
        .min_by_key(|(_, w)| w.queued())
        .map(|(i, _)| i)
}

fn scan_order(n: usize, start: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| (start + i) % n)
}

fn run_collector<T: Send>(workers: Vec<Receiver<T>>, out: Sender<T>) {
    let n = workers.len();
    let mut done = vec![false; n];
    let mut remaining = n;
    let mut backoff = Backoff::new();
    while remaining > 0 {
        let mut progressed = false;
        for (i, rx) in workers.iter().enumerate() {
            if done[i] {
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(item) => {
                        progressed = true;
                        if out.send(item).is_err() {
                            return; // downstream gone
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

fn run_ordered_collector<T: Send>(workers: Vec<Receiver<(u64, T)>>, out: Sender<T>) {
    let n = workers.len();
    let mut done = vec![false; n];
    let mut heads: Vec<Option<(u64, T)>> = (0..n).map(|_| None).collect();
    let mut next_seq = 0u64;
    let mut backoff = Backoff::new();
    loop {
        let mut progressed = false;
        // Refill per-worker head slots.
        for i in 0..n {
            if heads[i].is_none() && !done[i] {
                match workers[i].try_recv() {
                    Ok(pair) => {
                        heads[i] = Some(pair);
                        progressed = true;
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => done[i] = true,
                }
            }
        }
        // Emit while the next sequence number is available. Round-robin
        // emission means it can only sit in one head slot.
        let mut emitted = true;
        while emitted {
            emitted = false;
            for head in heads.iter_mut() {
                if let Some((seq, _)) = head {
                    if *seq == next_seq {
                        let (_, item) = head.take().expect("checked above");
                        if out.send(item).is_err() {
                            return;
                        }
                        next_seq += 1;
                        emitted = true;
                        progressed = true;
                    }
                }
            }
        }
        // The emitter is strict round-robin, so `next_seq` can only come
        // from worker `next_seq % n`. Once that worker has hung up (`done`
        // is only ever set on a drained queue and an empty head slot) it
        // will never arrive: the stream ended there, cleanly or because
        // the worker panicked. Returning drops `out` and the receivers,
        // which unblocks the other workers; `join_all` reports a panic.
        if done[(next_seq % n as u64) as usize] {
            return;
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
    use crate::node::map_stage;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn farm_processes_all_items_once() {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::OnDemand,
            SchedPolicy::LeastLoaded,
        ] {
            let farm = Farm::new(3, |_| map_stage(|x: u32| x)).policy(policy);
            let out: Vec<u32> = Pipeline::from_source(0..500u32)
                .farm(farm)
                .collect()
                .unwrap();
            let set: HashSet<u32> = out.iter().copied().collect();
            assert_eq!(out.len(), 500, "policy {policy:?} lost/duplicated items");
            assert_eq!(set.len(), 500, "policy {policy:?} duplicated items");
        }
    }

    #[test]
    fn farm_distributes_across_workers() {
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        let farm = Farm::new(4, move |i| {
            let h = Arc::clone(&h);
            map_stage(move |x: u32| {
                h[i].fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        let out: Vec<u32> = Pipeline::from_source(0..400u32)
            .farm(farm)
            .collect()
            .unwrap();
        assert_eq!(out.len(), 400);
        let counts: Vec<usize> = hits.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 400);
        // On-demand scheduling must use more than one worker even on one core.
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 2,
            "work not distributed: {counts:?}"
        );
    }

    #[test]
    fn single_worker_farm_degenerates_to_stage() {
        let farm = Farm::new(1, |_| map_stage(|x: u8| x + 1));
        let out: Vec<u8> = Pipeline::from_source(vec![1u8, 2, 3].into_iter())
            .farm(farm)
            .collect()
            .unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Farm::new(0, |_| map_stage(|x: u8| x));
    }

    #[test]
    fn ordered_farm_preserves_order() {
        let out: Vec<u64> = Pipeline::from_source(0..1000u64)
            .ordered_farm(4, |_| |x: u64| x * 3)
            .collect()
            .unwrap();
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_farm_with_uneven_work_still_ordered() {
        let out: Vec<u64> = Pipeline::from_source(0..200u64)
            .ordered_farm(3, |_| {
                |x: u64| {
                    if x % 7 == 0 {
                        std::thread::yield_now();
                    }
                    x
                }
            })
            .collect()
            .unwrap();
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn sink_farm_consumes_everything() {
        let total = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&total);
        let stats = Pipeline::from_source(0..300usize)
            .run_to_sink_farm(3, move |_| {
                let t = Arc::clone(&t);
                crate::node::sink_fn(move |x: usize| {
                    t.fetch_add(x, Ordering::Relaxed);
                })
            })
            .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), (0..300).sum::<usize>());
        let consumed: u64 = (0..3)
            .map(|i| {
                stats
                    .node(&format!("sinkfarm.worker.{i}"))
                    .unwrap()
                    .items_in
            })
            .sum();
        assert_eq!(consumed, 300);
    }

    #[test]
    fn farm_worker_panic_is_reported() {
        let farm = Farm::new(2, |_| {
            map_stage(|x: u32| {
                if x == 13 {
                    panic!("unlucky");
                }
                x
            })
        })
        .name("risky");
        let result = Pipeline::from_source(0..100u32).farm(farm).collect();
        match result {
            Err(crate::error::Error::StagePanicked { stage, .. }) => {
                assert!(stage.starts_with("risky.worker."));
            }
            other => panic!("expected panic, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn ordered_farm_worker_panic_is_reported() {
        // On a helper thread, so a collector that waits forever for the
        // dead worker's sequence number fails the test instead of hanging
        // the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = Pipeline::from_source(0..10_000u64)
                .ordered_farm(4, |_| {
                    |x: u64| {
                        if x == 777 {
                            panic!("unlucky");
                        }
                        x
                    }
                })
                .collect();
            let _ = tx.send(result);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(Err(crate::error::Error::StagePanicked { stage, message })) => {
                assert!(stage.starts_with("ofarm.worker."), "{stage}");
                assert_eq!(message, "unlucky");
            }
            Ok(other) => panic!("expected panic, got {:?}", other.map(|v| v.len())),
            Err(_) => panic!("ordered farm hung on a panicked worker"),
        }
    }

    #[test]
    fn farm_then_stage_composes() {
        let farm = Farm::new(2, |_| map_stage(|x: u32| x + 1));
        let mut out: Vec<u32> = Pipeline::from_source(0..50u32)
            .farm(farm)
            .stage(map_stage(|x| x * 2))
            .collect()
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, (0..50).map(|x| (x + 1) * 2).collect::<Vec<_>>());
    }
}
