//! Integration: stress and failure-injection tests of the pattern
//! framework's two farms under oversubscription (many threads, one core).

use cwc_repro::fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use cwc_repro::fastflow::node::{map_stage, Outbox};
use cwc_repro::fastflow::pipeline::Pipeline;
use cwc_repro::fastflow::Error;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Long enough that only a lost wake-up can reach it.
const HANG_LIMIT: Duration = Duration::from_secs(30);

/// Runs `run` on a helper thread and returns its result, or fails the
/// test if it has not returned within [`HANG_LIMIT`]. Every scenario here
/// runs under it: an idle node parks with no timer behind it, so a lost
/// wake-up would otherwise hang the whole binary.
fn within_timeout<R: Send + 'static>(what: &str, run: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(run()));
    result
        .recv_timeout(HANG_LIMIT)
        .unwrap_or_else(|_| panic!("{what}: hung (a lost wake-up?)"))
}

/// A master that submits whatever arrives; with [`Apply`] workers, which
/// never feed back, the feedback farm is a plain unordered farm.
struct Forward;

impl Master for Forward {
    type In = u64;
    type Task = u64;
    type Fb = ();

    fn on_upstream(&mut self, item: u64, sched: &mut Scheduler<'_, u64>) {
        sched.submit(item);
    }

    fn on_feedback(&mut self, (): (), _sched: &mut Scheduler<'_, u64>) {}
}

struct Apply(fn(u64) -> u64);

impl FeedbackWorker for Apply {
    type Task = u64;
    type Fb = ();
    type Out = u64;

    fn on_task(&mut self, x: u64, out: &mut Outbox<'_, u64>) -> Option<()> {
        out.push((self.0)(x));
        None
    }
}

fn plain_farm<S>(source: S, workers: usize, f: fn(u64) -> u64) -> Pipeline<u64>
where
    S: Iterator<Item = u64> + Send + 'static,
{
    let workers = (0..workers).map(|_| Apply(f)).collect();
    Pipeline::from_source(source).master_worker_farm(Forward, workers)
}

#[test]
fn sixteen_worker_farm_on_one_core_loses_nothing() {
    let out = within_timeout("farm", || {
        plain_farm(0..10_000, 16, |x| x * 2 + 1).collect()
    })
    .unwrap();
    assert_eq!(out.len(), 10_000);
    let set: HashSet<u64> = out.into_iter().collect();
    assert_eq!(set.len(), 10_000);
}

#[test]
fn deep_pipeline_composes() {
    // 8 stages chained; order must be preserved end to end.
    let out = within_timeout("chain", || {
        let mut p = Pipeline::from_source(0..5_000i64);
        for _ in 0..8 {
            p = p.stage(map_stage(|x: i64| x + 1));
        }
        p.collect()
    })
    .unwrap();
    assert_eq!(out, (8..5_008).collect::<Vec<_>>());
}

#[test]
fn nested_farms_compose() {
    let inner_done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&inner_done);
    let out: Vec<u64> = within_timeout("nested farms", move || {
        Pipeline::from_source(0..50u64)
            .ordered_farm(3, move |_| {
                let d = Arc::clone(&d);
                move |x: u64| {
                    // Each outer item starts a small farm of its own.
                    let sq = Pipeline::from_source([x, x + 1].into_iter())
                        .ordered_farm(2, |_| |v: u64| v * v)
                        .collect()
                        .unwrap();
                    d.fetch_add(1, Ordering::Relaxed);
                    sq.into_iter().sum::<u64>()
                }
            })
            .collect()
    })
    .unwrap();
    let expected: Vec<u64> = (0..50).map(|x| x * x + (x + 1) * (x + 1)).collect();
    assert_eq!(out, expected);
    assert_eq!(inner_done.load(Ordering::Relaxed), 50);
}

#[test]
fn panic_in_one_of_many_workers_is_surfaced() {
    let risky = |x: u64| {
        if x == 777 {
            panic!("injected failure");
        }
        x
    };
    match within_timeout("farm", move || plain_farm(0..2_000, 8, risky).collect()) {
        Err(Error::StagePanicked { stage, message }) => {
            assert!(stage.starts_with("mwfarm.worker."), "{stage}");
            assert_eq!(message, "injected failure");
        }
        other => panic!("expected surfaced panic, got {other:?}"),
    }
    match within_timeout("ordered farm", move || {
        Pipeline::from_source(0..2_000u64)
            .ordered_farm(8, move |_| risky)
            .collect()
    }) {
        Err(Error::StagePanicked { stage, message }) => {
            assert!(stage.starts_with("ofarm.worker."), "{stage}");
            assert_eq!(message, "injected failure");
        }
        other => panic!("expected surfaced panic, got {other:?}"),
    }
}

#[test]
fn more_workers_than_items_on_both_farms() {
    let mut out = within_timeout("farm", || plain_farm(0..3, 8, |x| x + 1).collect()).unwrap();
    out.sort_unstable();
    assert_eq!(out, [1, 2, 3]);
    let out = within_timeout("ordered farm", || {
        Pipeline::from_source(0..3u64)
            .ordered_farm(8, |_| |x: u64| x + 1)
            .collect()
    })
    .unwrap();
    assert_eq!(out, [1, 2, 3]);
}

#[test]
fn empty_source_terminates_everything() {
    let out = within_timeout("empty network", || {
        plain_farm(std::iter::empty(), 4, |x| x)
            .ordered_farm(4, |_| |x: u64| x)
            .stage(map_stage(|x| x))
            .collect()
    })
    .unwrap();
    assert!(out.is_empty());
}

// ------------------------------------------------ lost wake-ups, not hangs
//
// An idle node parks until its peer wakes it, with no timer behind it, so
// a lost wake-up is a hang. Each scenario below runs under a guard that
// turns a hang into a failure, and makes the two sides of every edge slow
// in turn — a seeded short sleep or yield per item — so that a receiver
// parks on an empty ring, then a sender on a full one, many times over.

/// Seeded per-item delays for the node at `position` in a network: items
/// come in blocks of 16, and in each block the nodes of one parity are
/// slow (a sleep of up to 80 µs, past the spin-and-yield budget, so the
/// peer parks) while the others only sometimes yield.
#[derive(Clone)]
struct Jitter {
    state: u64,
    position: u64,
    item: u64,
}

impl Jitter {
    fn new(seed: u64, position: u64) -> Self {
        Jitter {
            state: seed ^ position.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            position,
            item: 0,
        }
    }

    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The delay of this node's next item.
    fn pause(&mut self) {
        let slow = (self.item / 16 + self.position) % 2 == 0;
        self.item += 1;
        let r = self.next();
        if slow {
            std::thread::sleep(Duration::from_micros(r % 80));
        } else if r % 4 == 0 {
            std::thread::yield_now();
        }
    }

    /// `f` with this node's delay before every item.
    fn around(mut self, f: impl Fn(u64) -> u64 + Send) -> impl FnMut(u64) -> u64 + Send {
        move |x| {
            self.pause();
            f(x)
        }
    }
}

/// A source of `0..items` that pauses before every item.
fn jittered_source(items: u64, seed: u64) -> impl Iterator<Item = u64> + Send + 'static {
    let mut jitter = Jitter::new(seed, 0);
    (0..items).inspect(move |_| jitter.pause())
}

#[test]
fn jittered_chains_at_capacity_one_and_two_never_lose_a_wake_up() {
    for capacity in [1, 2] {
        for seed in [1, 2] {
            let out = within_timeout("chain", move || {
                let mut p =
                    Pipeline::from_source_with_capacity(jittered_source(600, seed), capacity);
                for position in 1..=3 {
                    let f = Jitter::new(seed, position).around(|x| x + 1);
                    p = p.stage(map_stage(f));
                }
                let mut sink = Jitter::new(seed, 4);
                let (rx, handle) = p.into_receiver();
                let out: Vec<u64> = rx.iter().inspect(|_| sink.pause()).collect();
                handle.join().unwrap();
                out
            });
            let want: Vec<u64> = (3..603).collect();
            assert_eq!(out, want, "capacity {capacity}, seed {seed}");
        }
    }
}

#[test]
fn jittered_ordered_farm_never_loses_a_wake_up() {
    for capacity in [1, 2] {
        let out = within_timeout("ordered farm", move || {
            let source = jittered_source(400, 7);
            let farm = Pipeline::from_source_with_capacity(source, capacity)
                .ordered_farm(3, |i| Jitter::new(7, 1 + i as u64).around(|x| x * 3));
            let mut sink = Jitter::new(7, 4);
            let (rx, handle) = farm.into_receiver();
            let out: Vec<u64> = rx.iter().inspect(|_| sink.pause()).collect();
            handle.join().unwrap();
            out
        });
        let want: Vec<u64> = (0..400).map(|x| x * 3).collect();
        assert_eq!(out, want, "capacity {capacity}");
    }
}

/// A task of `rounds` quanta, fed back after each until done.
struct Rounds {
    id: u64,
    left: u32,
}

struct Requeue;

impl Master for Requeue {
    type In = Rounds;
    type Task = Rounds;
    type Fb = Rounds;

    fn on_upstream(&mut self, task: Rounds, sched: &mut Scheduler<'_, Rounds>) {
        sched.submit(task);
    }

    fn on_feedback(&mut self, task: Rounds, sched: &mut Scheduler<'_, Rounds>) {
        sched.submit(task);
    }
}

struct JitteredQuantum(Jitter);

impl FeedbackWorker for JitteredQuantum {
    type Task = Rounds;
    type Fb = Rounds;
    type Out = (u64, u32);

    fn on_task(&mut self, mut task: Rounds, out: &mut Outbox<'_, (u64, u32)>) -> Option<Rounds> {
        self.0.pause();
        task.left -= 1;
        out.push((task.id, task.left));
        (task.left > 0).then_some(task)
    }
}

#[test]
fn jittered_master_worker_farm_never_loses_a_wake_up() {
    let (tasks, rounds) = (40u64, 6u32);
    for capacity in [1, 2] {
        for workers in [1, 3] {
            let mut out = within_timeout("master-worker farm", move || {
                let mut jitter = Jitter::new(11, 0);
                let source = (0..tasks).map(move |id| {
                    jitter.pause();
                    Rounds { id, left: rounds }
                });
                let pool = (0..workers)
                    .map(|w| JitteredQuantum(Jitter::new(11, 1 + w)))
                    .collect();
                let farm = Pipeline::from_source_with_capacity(source, capacity)
                    .master_worker_farm(Requeue, pool);
                let mut sink = Jitter::new(11, 4);
                let (rx, handle) = farm.into_receiver();
                let out: Vec<(u64, u32)> = rx.iter().inspect(|_| sink.pause()).collect();
                handle.join().unwrap();
                out
            });
            out.sort_unstable();
            let want: Vec<(u64, u32)> = (0..tasks)
                .flat_map(|id| (0..rounds).map(move |left| (id, left)))
                .collect();
            assert_eq!(out, want, "capacity {capacity}, {workers} workers");
        }
    }
}

/// The sink hangs up after a few items while every node upstream is
/// parked on a full ring, and a source ends while everything downstream
/// is parked on an empty one: both closes must reach the parked peers.
#[test]
fn a_close_wakes_the_peers_parked_on_it() {
    within_timeout("receiver dropped", || {
        let (gate, opened) = mpsc::channel::<()>();
        let source = (0..u64::MAX).inspect(move |&x| {
            if x == 8 {
                // Hold the farm's rings full until the sink is gone.
                let _ = opened.recv();
            }
        });
        let farm = Pipeline::from_source_with_capacity(source, 1)
            .stage(map_stage(|x: u64| x))
            .ordered_farm(2, |_| |x: u64| x);
        let farm = plain_farm_after(farm);
        let (rx, handle) = farm.into_receiver();
        assert_eq!(rx.iter().take(3).count(), 3);
        drop(rx);
        drop(gate);
        handle.join().unwrap();
    });
    within_timeout("sender dropped", || {
        let (gate, opened) = mpsc::channel::<u64>();
        let source = std::iter::from_fn(move || opened.recv().ok());
        let farm = plain_farm_after(
            Pipeline::from_source_with_capacity(source, 2).ordered_farm(2, |_| |x: u64| x),
        );
        let (rx, handle) = farm.into_receiver();
        gate.send(5).unwrap();
        assert_eq!(rx.recv(), Some(5));
        // Every node is parked on an empty input now; ending the source
        // must wake them in turn.
        drop(gate);
        assert_eq!(rx.recv(), None);
        handle.join().unwrap();
    });
}

/// `p` followed by a 2-worker plain farm.
fn plain_farm_after(p: Pipeline<u64>) -> Pipeline<u64> {
    p.master_worker_farm(Forward, vec![Apply(|x| x), Apply(|x| x)])
}
