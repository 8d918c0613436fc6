//! The ordered farm: emitter → replicated workers → reordering collector.
//!
//! The paper's Fig. 2 instantiates two farm shapes, and the crate keeps
//! exactly those two: the farm *with feedback* of simulation engines
//! ([`crate::master_worker`]) and the *ordered* farm of statistical
//! engines, which is this module (FastFlow's `ofarm`). Emitter and
//! collector are generated by the pattern — user code supplies only the
//! worker function, the division of labour the paper advocates.
//!
//! There is no third, "plain" farm: an unordered farm without feedback is
//! a [`Pipeline::master_worker_farm`] whose workers always return `None`,
//! and its master — a FIFO ready queue handed out to the least-loaded
//! worker with room, never blocking on one worker — is the one scheduler
//! the crate has (`plain_farm` in this module's tests is all it takes).
//!
//! The emitter here is strict round-robin on purpose: it keeps every
//! worker's sequence numbers monotone, which is what lets the collector
//! restore input order by looking at one head item per worker.

use crate::backoff::Backoff;
use crate::channel::{self, Receiver, Sender, TryRecvError};
use crate::pipeline::Pipeline;

impl<T: Send + 'static> Pipeline<T> {
    /// Appends an *ordered* farm: workers map one input to one output and
    /// the collector restores input order (FastFlow's `ofarm`).
    ///
    /// # Examples
    ///
    /// ```
    /// use fastflow::pipeline::Pipeline;
    ///
    /// let out: Vec<u64> = Pipeline::from_source(0..100u64)
    ///     .ordered_farm(4, |_| |x: u64| x * 2)
    ///     .collect()
    ///     .unwrap();
    /// assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
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
    use crate::master_worker::{FeedbackWorker, Master, Scheduler};
    use crate::node::{map_stage, Outbox};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The plain farm of the module docs, spelled out: a master that
    /// submits whatever arrives and workers that never feed back.
    struct Forward;

    impl Master for Forward {
        type In = u32;
        type Task = u32;
        type Fb = ();

        fn on_upstream(&mut self, item: u32, sched: &mut Scheduler<'_, u32>) {
            sched.submit(item);
        }

        fn on_feedback(&mut self, (): (), _sched: &mut Scheduler<'_, u32>) {}
    }

    struct Apply<F>(F);

    impl<F: FnMut(u32) -> u32 + Send + 'static> FeedbackWorker for Apply<F> {
        type Task = u32;
        type Fb = ();
        type Out = u32;

        fn on_task(&mut self, x: u32, out: &mut Outbox<'_, u32>) -> Option<()> {
            out.push((self.0)(x));
            None
        }
    }

    fn plain_farm<F>(items: std::ops::Range<u32>, workers: Vec<F>) -> Pipeline<u32>
    where
        F: FnMut(u32) -> u32 + Send + 'static,
    {
        let workers = workers.into_iter().map(Apply).collect();
        Pipeline::from_source(items).master_worker_farm(Forward, workers)
    }

    #[test]
    fn farm_processes_all_items_once() {
        let out = plain_farm(0..500, vec![|x| x; 3]).collect().unwrap();
        let set: HashSet<u32> = out.iter().copied().collect();
        assert_eq!(out.len(), 500, "lost or duplicated items");
        assert_eq!(set.len(), 500, "duplicated items");
    }

    #[test]
    fn farm_worker_panic_is_reported() {
        let risky = |x: u32| {
            if x == 13 {
                panic!("unlucky");
            }
            x
        };
        match plain_farm(0..100, vec![risky; 2]).collect() {
            Err(crate::error::Error::StagePanicked { stage, message }) => {
                assert!(stage.starts_with("mwfarm.worker."), "{stage}");
                assert_eq!(message, "unlucky");
            }
            other => panic!("expected panic, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn farm_distributes_across_workers() {
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        let out: Vec<u32> = Pipeline::from_source(0..400u32)
            .ordered_farm(4, move |i| {
                let h = Arc::clone(&h);
                move |x: u32| {
                    h[i].fetch_add(1, Ordering::Relaxed);
                    x
                }
            })
            .collect()
            .unwrap();
        assert_eq!(out.len(), 400);
        // Strict round-robin: the reordering collector relies on it.
        let counts: Vec<usize> = hits.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, [100; 4]);
    }

    #[test]
    fn single_worker_farm_degenerates_to_stage() {
        let out: Vec<u8> = Pipeline::from_source(vec![1u8, 2, 3].into_iter())
            .ordered_farm(1, |_| |x: u8| x + 1)
            .collect()
            .unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Pipeline::from_source(0..1u8).ordered_farm(0, |_| |x: u8| x);
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
        let out: Vec<u32> = Pipeline::from_source(0..50u32)
            .ordered_farm(2, |_| |x: u32| x + 1)
            .stage(map_stage(|x| x * 2))
            .collect()
            .unwrap();
        assert_eq!(out, (0..50).map(|x| (x + 1) * 2).collect::<Vec<_>>());
    }
}
