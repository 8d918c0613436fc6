//! Ablation: statistical engine cost vs window width and engine set —
//! what the paper's "farm of statistical engines" amortises.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cwcsim::engines::{StatEngineKind, StatEngineSet};
use gillespie::trajectory::Cut;

fn cut(width: usize) -> Cut {
    Cut {
        time: 0.0,
        values: (0..width)
            .map(|i| {
                vec![
                    ((i * i) % 97) as u64,
                    ((i * 7) % 131) as u64,
                    (i % 53) as u64,
                ]
            })
            .collect(),
    }
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    for width in [128usize, 512, 1024] {
        let cut = cut(width);
        g.throughput(Throughput::Elements(width as u64 * 3));
        let mean_only = StatEngineSet::new(vec![StatEngineKind::MeanVariance]);
        g.bench_function(format!("mean_variance_w{width}"), |b| {
            b.iter(|| std::hint::black_box(mean_only.analyse_cut(&cut)))
        });
        let full = StatEngineSet::new(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 3 },
            StatEngineKind::Quantile { p: 0.5 },
        ]);
        g.bench_function(format!("full_set_w{width}"), |b| {
            b.iter(|| std::hint::black_box(full.analyse_cut(&cut)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
