//! Microbenchmark: one engine transition on the Neurospora model — flat vs
//! compartmentalised terms (the tree-matching overhead the paper calls
//! "significantly more complex than a plain Gillespie algorithm") — plus
//! the per-engine-kind comparison on Lotka–Volterra (one exact reaction vs
//! one adaptive transition through the same `Engine` abstraction).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use biomodels::neurospora::{neurospora_compartments, neurospora_flat, NeurosporaParams};
use gillespie::engine::{EngineKind, EngineStep};

fn bench_ssa(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssa_step");

    let flat = Arc::new(neurospora_flat(NeurosporaParams::default()));
    g.bench_function("neurospora_flat_step", |b| {
        let mut engine = EngineKind::Ssa.build(Arc::clone(&flat), 1, 0).unwrap();
        b.iter(|| black_box(engine.step()));
    });

    let comp = Arc::new(neurospora_compartments(NeurosporaParams::default()));
    g.bench_function("neurospora_compartments_step", |b| {
        let mut engine = EngineKind::Ssa.build(Arc::clone(&comp), 1, 0).unwrap();
        b.iter(|| black_box(engine.step()));
    });

    let lv = Arc::new(biomodels::lotka_volterra(
        biomodels::LotkaVolterraParams::default(),
    ));
    for kind in [EngineKind::Ssa, EngineKind::AdaptiveTau { epsilon: 0.03 }] {
        g.bench_function(format!("lotka_volterra_{}_step", kind.name()), |b| {
            let mut engine = kind.build(Arc::clone(&lv), 1, 0).unwrap();
            b.iter(|| match engine.step() {
                // Extinct ensembles stop firing; restart the trajectory so
                // every iteration measures a live transition.
                EngineStep::Exhausted => engine = kind.build(Arc::clone(&lv), 1, 0).unwrap(),
                step => {
                    black_box(step);
                }
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_ssa);
criterion_main!(benches);
