//! Integration: stress and failure-injection tests of the pattern
//! framework's two farms under oversubscription (many threads, one core).

use cwc_repro::fastflow::master_worker::{FeedbackWorker, Master, Scheduler};
use cwc_repro::fastflow::node::{map_stage, Outbox};
use cwc_repro::fastflow::pipeline::Pipeline;
use cwc_repro::fastflow::Error;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    let out = plain_farm(0..10_000, 16, |x| x * 2 + 1).collect().unwrap();
    assert_eq!(out.len(), 10_000);
    let set: HashSet<u64> = out.into_iter().collect();
    assert_eq!(set.len(), 10_000);
}

#[test]
fn deep_pipeline_composes() {
    // 8 stages chained; order must be preserved end to end.
    let mut p = Pipeline::from_source(0..5_000i64);
    for _ in 0..8 {
        p = p.stage(map_stage(|x: i64| x + 1));
    }
    let out = p.collect().unwrap();
    assert_eq!(out, (8..5_008).collect::<Vec<_>>());
}

#[test]
fn nested_farms_compose() {
    let inner_done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&inner_done);
    let out: Vec<u64> = Pipeline::from_source(0..50u64)
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
    match plain_farm(0..2_000, 8, risky).collect() {
        Err(Error::StagePanicked { stage, message }) => {
            assert!(stage.starts_with("mwfarm.worker."), "{stage}");
            assert_eq!(message, "injected failure");
        }
        other => panic!("expected surfaced panic, got {other:?}"),
    }
    match Pipeline::from_source(0..2_000u64)
        .ordered_farm(8, move |_| risky)
        .collect()
    {
        Err(Error::StagePanicked { stage, message }) => {
            assert!(stage.starts_with("ofarm.worker."), "{stage}");
            assert_eq!(message, "injected failure");
        }
        other => panic!("expected surfaced panic, got {other:?}"),
    }
}

#[test]
fn more_workers_than_items_on_both_farms() {
    let mut out = plain_farm(0..3, 8, |x| x + 1).collect().unwrap();
    out.sort_unstable();
    assert_eq!(out, [1, 2, 3]);
    let out = Pipeline::from_source(0..3u64)
        .ordered_farm(8, |_| |x: u64| x + 1)
        .collect()
        .unwrap();
    assert_eq!(out, [1, 2, 3]);
}

#[test]
fn empty_source_terminates_everything() {
    let out = plain_farm(std::iter::empty(), 4, |x| x)
        .ordered_farm(4, |_| |x: u64| x)
        .stage(map_stage(|x| x))
        .collect()
        .unwrap();
    assert!(out.is_empty());
}
