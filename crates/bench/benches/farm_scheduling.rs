//! Ablation: farm scheduling policies on heavily unbalanced work.
//! On-demand assignment is the paper's answer to the
//! "typically heavily unbalanced" simulations.

use criterion::{criterion_group, criterion_main, Criterion};
use fastflow::farm::{Farm, SchedPolicy};
use fastflow::node::map_stage;
use fastflow::pipeline::Pipeline;

/// Busy-spin for a deterministic, item-dependent amount of work.
fn work(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units * 50 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn skewed_items() -> Vec<u64> {
    // 1 heavy item per 16 light ones: the straggler pattern.
    (0..256u64)
        .map(|i| if i % 16 == 0 { 64 } else { 1 })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("farm_scheduling");
    g.sample_size(20);
    for policy in [
        SchedPolicy::RoundRobin,
        SchedPolicy::OnDemand,
        SchedPolicy::LeastLoaded,
    ] {
        g.bench_function(format!("{policy:?}"), |b| {
            b.iter(|| {
                let farm = Farm::new(4, |_| map_stage(|units: u64| work(units))).policy(policy);
                let out: Vec<u64> = Pipeline::from_source(skewed_items().into_iter())
                    .farm(farm)
                    .collect()
                    .unwrap();
                assert_eq!(out.len(), 256);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
