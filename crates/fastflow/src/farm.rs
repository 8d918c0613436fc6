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
//! The emitter is strict round-robin and sends bare items: item `k` goes
//! to worker `k mod n`, so output `k` can only come from that worker, and
//! the collector restores input order by a blocking receive on it — no
//! sequence numbers, no polling. The first worker found hung up at its
//! turn ends the stream, cleanly or because it panicked (`join_all`
//! reports which).

use crate::channel;
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
        let mut from_worker_rx = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::bounded::<T>(2);
            let (out_tx, out_rx) = channel::bounded::<U>(self.capacity);
            to_worker_tx.push(tx);
            from_worker_rx.push(out_rx);
            let mut f = factory(i);
            let wname = format!("{name}.worker.{i}");
            let handle = crate::pipeline::spawn_named(wname.clone(), move || {
                while let Some(item) = rx.recv() {
                    if out_tx.send(f(item)).is_err() {
                        break;
                    }
                }
            });
            self.handles.push((wname, handle));
        }
        let (out_tx, out_rx) = channel::bounded(self.capacity);

        let upstream = self.rx;
        let emitter_name = format!("{name}.emitter");
        let emitter = crate::pipeline::spawn_named(emitter_name.clone(), move || {
            for worker in to_worker_tx.iter().cycle() {
                let Some(item) = upstream.recv() else { break };
                if worker.send(item).is_err() {
                    break;
                }
            }
        });
        self.handles.push((emitter_name, emitter));

        // Returning drops `out_tx` and every receiver, which unblocks the
        // workers still sending.
        let collector_name = format!("{name}.collector");
        let collector = crate::pipeline::spawn_named(collector_name.clone(), move || {
            for worker in from_worker_rx.iter().cycle() {
                let Some(item) = worker.recv() else { break };
                if out_tx.send(item).is_err() {
                    break;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master_worker::{FeedbackWorker, Master, Scheduler};
    use crate::node::{map_stage, Outbox};
    use crate::tests::within_timeout;
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
        let out = within_timeout(|| plain_farm(0..500, vec![|x| x; 3]).collect()).unwrap();
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
        match within_timeout(move || plain_farm(0..100, vec![risky; 2]).collect()) {
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
    fn ordered_farm_keeps_order_for_every_width_and_length() {
        // Lengths 0..=3n cover the empty stream and every remainder mod
        // n; a pseudo-random yield per item varies which worker runs late.
        for n in 1..=5usize {
            for len in 0..=3 * n as u64 {
                for seed in 0..4u64 {
                    let farm = Pipeline::from_source(0..len).ordered_farm(n, move |i| {
                        let mut state = seed * 31 + i as u64 + 1;
                        move |x: u64| {
                            // SplitMix64's increment and finaliser.
                            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            if (z ^ (z >> 27)) & 1 == 1 {
                                std::thread::yield_now();
                            }
                            x * 10 + 1
                        }
                    });
                    let out: Vec<u64> = within_timeout(|| farm.collect()).unwrap();
                    let want: Vec<u64> = (0..len).map(|x| x * 10 + 1).collect();
                    assert_eq!(out, want, "n = {n}, len = {len}, seed = {seed}");
                }
            }
        }
    }

    /// Runs `items` through a 4-worker ordered farm under
    /// [`within_timeout`], so a collector that waits forever for a dead
    /// worker fails the test instead of hanging the suite.
    fn ordered_farm_within_timeout<W>(
        items: std::ops::Range<u64>,
        worker: fn(usize) -> W,
    ) -> crate::Result<Vec<u64>>
    where
        W: FnMut(u64) -> u64 + Send + 'static,
    {
        within_timeout(move || {
            Pipeline::from_source(items)
                .ordered_farm(4, worker)
                .collect()
        })
    }

    fn assert_worker_panicked(result: crate::Result<Vec<u64>>, worker: &str) {
        match result {
            Err(crate::error::Error::StagePanicked { stage, message }) => {
                assert!(stage.starts_with(worker), "{stage}");
                assert_eq!(message, "unlucky");
            }
            other => panic!("expected panic, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn ordered_farm_worker_panic_is_reported() {
        let result = ordered_farm_within_timeout(0..10_000, |_| {
            |x: u64| {
                if x == 777 {
                    panic!("unlucky");
                }
                x
            }
        });
        assert_worker_panicked(result, "ofarm.worker.");
    }

    #[test]
    fn a_panic_in_a_worker_not_next_in_turn_ends_the_farm() {
        // Worker 2 dies on its first item while the collector still waits
        // on worker 0, slowed down on item 0.
        let result = ordered_farm_within_timeout(0..10_000, |i| {
            move |x: u64| {
                if i == 2 {
                    panic!("unlucky");
                }
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                x
            }
        });
        assert_worker_panicked(result, "ofarm.worker.2");
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
