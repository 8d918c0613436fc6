//! Integration: stress and failure-injection tests of the pattern
//! framework under oversubscription (many threads, one core).

use cwc_repro::fastflow::farm::{Farm, SchedPolicy};
use cwc_repro::fastflow::node::{map_stage, sink_fn};
use cwc_repro::fastflow::pipeline::Pipeline;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn sixteen_worker_farm_on_one_core_loses_nothing() {
    let farm = Farm::new(16, |_| map_stage(|x: u64| x * 2 + 1)).worker_capacity(4);
    let out: Vec<u64> = Pipeline::from_source(0..20_000u64)
        .farm(farm)
        .collect()
        .unwrap();
    assert_eq!(out.len(), 20_000);
    let set: HashSet<u64> = out.into_iter().collect();
    assert_eq!(set.len(), 20_000);
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
    let farm = Farm::new(3, move |_| {
        let d = Arc::clone(&d);
        map_stage(move |x: u64| {
            // Each outer item starts a small farm of its own.
            let sq = Pipeline::from_source([x, x + 1].into_iter())
                .ordered_farm(2, |_| |v: u64| v * v)
                .collect()
                .unwrap();
            d.fetch_add(1, Ordering::Relaxed);
            sq.into_iter().sum::<u64>()
        })
    });
    let out: Vec<u64> = Pipeline::from_source(0..50u64)
        .farm(farm)
        .collect()
        .unwrap();
    assert_eq!(out.len(), 50);
    assert_eq!(inner_done.load(Ordering::Relaxed), 50);
}

#[test]
fn panic_in_one_of_many_workers_is_surfaced() {
    let farm = Farm::new(8, |_| {
        map_stage(|x: u32| {
            if x == 777 {
                panic!("injected failure");
            }
            x
        })
    })
    .policy(SchedPolicy::OnDemand);
    let result = Pipeline::from_source(0..2_000u32).farm(farm).collect();
    match result {
        Err(cwc_repro::fastflow::Error::StagePanicked { message, .. }) => {
            assert_eq!(message, "injected failure");
        }
        other => panic!("expected surfaced panic, got {other:?}"),
    }
}

#[test]
fn sink_farm_with_more_workers_than_items() {
    let seen = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&seen);
    Pipeline::from_source(0..3u64)
        .run_to_sink_farm(8, move |_| {
            let s = Arc::clone(&s);
            sink_fn(move |_: u64| {
                s.fetch_add(1, Ordering::Relaxed);
            })
        })
        .unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 3);
}

#[test]
fn empty_source_terminates_everything() {
    let farm = Farm::new(4, |_| map_stage(|x: u8| x));
    let out: Vec<u8> = Pipeline::from_source(std::iter::empty::<u8>())
        .farm(farm)
        .stage(map_stage(|x| x))
        .collect()
        .unwrap();
    assert!(out.is_empty());
}
