//! Steady-state `step()` is allocation-free (PR 3 acceptance), and on a
//! flat model so is a whole *sampled* quantum of the direct method and of
//! both leaping kinds.
//!
//! A counting global allocator (thread-local counters, so parallel test
//! threads don't interfere) wraps the system allocator; after a warm-up
//! that grows every reusable buffer to its steady-state capacity, a long
//! run of direct-method steps must perform zero heap allocations — on the
//! flat *and* the compartmentalised Neurospora model.
//!
//! What makes this hold on the tree core (compartment models):
//! propensities live in the incrementally-updated reaction table (no
//! per-step `Vec<Reaction>`), sites travel as dense `SiteId`s (no `Path`
//! clones), the assignment choice streams through reused scratch buffers,
//! and `apply_at` keeps its fate table on the stack. Multiset updates
//! mutate existing B-tree nodes in place; a node allocation could only
//! occur if a species' count crossed zero in a way that empties or splits
//! a node, which does not happen in these steady-state regimes (the
//! assertion would catch it). The dense core (flat models) has no tree to
//! churn — a count vector and one propensity row updated in place — and
//! writes each sample's observables into one reused buffer, which is what
//! extends the guarantee from stepping to sampled quanta.
//!
//! A farm task's quantum adds exactly one allocation on top: the batch's
//! sample vector, sized once from the sampling clock. Samples are inline
//! rows, so the count does not grow with the samples in the quantum.
//!
//! Alignment builds each cut by a transpose of the batches it holds: a
//! cut costs its own row vector and nothing per sample, so the count per
//! cut does not grow with the instance count.
//!
//! The same allocator pins the window layer: [`WindowGen`] hands each cut
//! downstream by move, so a cut through it costs a small constant number
//! of allocations whatever the instance count and window width. And the
//! stat engines: [`StatEngineSet::analyse_cut`] allocates its scratch once
//! per call, so a cut's statistics cost the same allocations at any width.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cwc_repro::biomodels::{
    neurospora_compartments, neurospora_flat, schlogl, NeurosporaParams, SchloglParams,
};
use cwc_repro::cwcsim::alignment::Alignment;
use cwc_repro::cwcsim::engines::{StatEngineKind, StatEngineSet};
use cwc_repro::cwcsim::task::{SampleBatch, SimTask};
use cwc_repro::cwcsim::windows::WindowGen;
use cwc_repro::fastflow::node::{Outbox, Stage};
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::engine::{Engine, EngineKind, EngineStep};
use cwc_repro::gillespie::ssa::SampleClock;
use cwc_repro::gillespie::trajectory::{Cut, Row};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn assert_alloc_free_steps(
    kind: EngineKind,
    model: Arc<cwc_repro::cwc::model::Model>,
    label: &str,
) {
    let mut engine = kind.build(model, 7, 0).expect("engine builds");
    // Warm up: reach the steady-state regime and grow every buffer.
    for _ in 0..20_000 {
        engine.step();
    }
    let before = allocations();
    let mut fired = 0u64;
    for _ in 0..5_000 {
        match engine.step() {
            EngineStep::Advanced { .. } => fired += 1,
            EngineStep::Exhausted => break,
        }
    }
    let after = allocations();
    assert!(fired > 0, "{label}: no steps fired");
    assert_eq!(
        after - before,
        0,
        "{label}: {} heap allocations in {fired} steady-state steps",
        after - before
    );
}

#[test]
fn ssa_step_is_allocation_free_on_compartment_model() {
    let model = Arc::new(neurospora_compartments(NeurosporaParams::default()));
    assert_alloc_free_steps(EngineKind::Ssa, model, "neurospora_compartments/ssa");
}

#[test]
fn ssa_step_is_allocation_free_on_flat_models() {
    assert_alloc_free_steps(
        EngineKind::Ssa,
        Arc::new(neurospora_flat(NeurosporaParams::default())),
        "neurospora_flat/ssa",
    );
    assert_alloc_free_steps(
        EngineKind::Ssa,
        Arc::new(schlogl(SchloglParams::default())),
        "schlogl/ssa",
    );
}

/// Runs `warmup` quanta of `quantum` on `engine`, a sample every `period`
/// (dense samples, events between them, through `run_sampled` — the call
/// a farm worker makes per scheduling round), then asserts that ten more
/// quanta allocate nothing: no `Vec` per sample, no B-tree node churn as
/// counts cross zero, no buffer still growing.
fn assert_alloc_free_quanta(
    label: &str,
    mut engine: Engine,
    quantum: f64,
    period: f64,
    warmup: u32,
) {
    let mut clock = SampleClock::new(0.0, period);
    // (samples seen, sum of their values) — read through a `Cell` so
    // the counts are visible between quanta.
    let seen = Cell::new((0u64, 0u64));
    let sink = |_t: f64, values: &[u64]| {
        let (n, sum) = seen.get();
        seen.set((n + 1, sum.wrapping_add(values.iter().sum::<u64>())));
    };
    let mut t = 0.0;
    for _ in 0..warmup {
        t += quantum;
        engine.run_sampled(t, &mut clock, sink);
    }
    let (before, (samples_before, _)) = (allocations(), seen.get());
    let mut fired = 0;
    for _ in 0..10 {
        t += quantum;
        fired += engine.run_sampled(t, &mut clock, sink);
    }
    let allocated = allocations() - before;
    let (samples, checksum) = seen.get();
    let sampled = samples - samples_before;
    assert!(
        fired > 1_000 && sampled >= 300,
        "{label}: {fired} events, {sampled} samples"
    );
    assert_eq!(
        allocated, 0,
        "{label}: {allocated} heap allocations over {sampled} samples / {fired} events"
    );
    assert!(checksum > 0);
}

#[test]
fn ssa_sampled_quantum_is_allocation_free_on_flat_models() {
    // Once the first quantum has sized the sample buffer, the direct
    // method allocates nothing.
    for (label, model, quantum, period) in [
        (
            "neurospora_flat",
            Arc::new(neurospora_flat(NeurosporaParams::default())),
            2.0,
            0.05,
        ),
        (
            "schlogl",
            Arc::new(schlogl(SchloglParams::default())),
            0.2,
            0.005,
        ),
    ] {
        let engine = EngineKind::Ssa.build(model, 7, 0).unwrap();
        assert_alloc_free_quanta(label, engine, quantum, period, 3);
    }
}

#[test]
fn leaping_sampled_quanta_are_allocation_free_on_neurospora() {
    // The paper's model on both leaping kinds: leaps, exact steps and
    // samples alike. The warm-up spans a whole oscillation (period ≈
    // 21.5 h), so every buffer has met the widest transition of the orbit.
    let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
    for kind in [
        EngineKind::AdaptiveTau { epsilon: 0.03 },
        EngineKind::Hybrid {
            epsilon: 0.03,
            threshold: 8.0,
        },
    ] {
        let engine = kind.build(Arc::clone(&model), 7, 0).unwrap();
        assert_alloc_free_quanta(&kind.to_string(), engine, 2.0, 0.05, 12);
    }
}

#[test]
fn a_sampled_quantum_batch_is_one_allocation_whatever_its_sample_count() {
    // The Fig. 3 stream's farm task: Neurospora on the direct method,
    // quantum 0.1, a sample every 0.002 — 50 samples a quantum — and a
    // sparser grid for contrast. Rows are inline and the batch sizes its
    // sample vector once from the clock, so a quantum's batch is one
    // allocation, not one per sample.
    let model = Arc::new(neurospora_flat(NeurosporaParams::default()));
    let deps = Arc::new(ModelDeps::compile(&model));
    for period in [0.002, 0.02] {
        let mut task = SimTask::with_engine_deps(
            EngineKind::Ssa,
            Arc::clone(&model),
            Arc::clone(&deps),
            2014,
            3,
            0.8,
            0.1,
            period,
        )
        .unwrap();
        // Warm-up quantum: the engine sizes its reusable buffers.
        drop(task.run_quantum_batch());
        let (mut quanta, mut samples) = (0u64, 0usize);
        let before = allocations();
        while !task.is_done() {
            samples += task.run_quantum_batch().samples.len();
            quanta += 1;
        }
        let allocated = allocations() - before;
        assert!(
            quanta >= 7 && samples as u64 >= 4 * quanta,
            "{quanta} quanta, {samples} samples"
        );
        assert!(
            allocated <= quanta,
            "period {period}: {allocated} allocations over {quanta} quanta / {samples} samples"
        );
    }
}

/// Heap allocations `Alignment` makes per cut emitted, the aligner's
/// construction excluded: `instances` trajectories of 3 observables, in
/// quanta of 5 grid points, each quantum delivered for every instance
/// before the next.
fn alignment_allocations_per_cut(instances: u64) -> f64 {
    const QUANTA: u64 = 40;
    const POINTS: u64 = 5;
    let batches: Vec<SampleBatch> = (0..QUANTA)
        .flat_map(|q| {
            (0..instances).map(move |i| SampleBatch {
                instance: i,
                samples: (q * POINTS..(q + 1) * POINTS)
                    .map(|k| (k as f64 * 0.5, Row::from_slice(&[i, k, 7])))
                    .collect(),
                events: 0,
                finished: q + 1 == QUANTA,
            })
        })
        .collect();
    let mut alignment = Alignment::new(instances, 0.5);
    let (tx, rx) = cwc_repro::fastflow::channel::unbounded();
    let mut out = Outbox::new(&tx);
    let mut cuts = Vec::with_capacity((QUANTA * POINTS) as usize);
    let before = allocations();
    for batch in batches {
        alignment.on_item(batch, &mut out);
        while let Ok(cut) = rx.try_recv() {
            cuts.push(cut);
        }
    }
    let after = allocations();
    assert_eq!(cuts.len() as u64, QUANTA * POINTS, "every cut emitted");
    assert!(cuts.iter().all(|c| c.width() == instances as usize));
    (after - before) as f64 / cuts.len() as f64
}

#[test]
fn alignment_allocates_a_constant_per_cut() {
    // The Fig. 3 stream's 1024 trajectories: one allocation a cut, its
    // row vector, plus the report ring's and the channel's growth.
    let dense = alignment_allocations_per_cut(1024);
    assert!(dense <= 1.05, "{dense} allocations per 1024-instance cut");
    // ... and the cost does not depend on the instance count.
    assert_eq!(dense, alignment_allocations_per_cut(8));
}

/// Heap allocations `WindowGen` makes per cut at slide 1, emitted windows
/// included.
fn window_allocations_per_cut(instances: usize, width: usize) -> f64 {
    const CUTS: usize = 200;
    let cuts: Vec<Cut> = (0..CUTS)
        .map(|k| Cut {
            time: k as f64,
            values: vec![Row::from_slice(&[k as u64; 3]); instances],
        })
        .collect();
    let mut gen = WindowGen::new(width, 1);
    let (tx, rx) = cwc_repro::fastflow::channel::unbounded();
    let mut out = Outbox::new(&tx);
    let mut analysed = 0;
    let before = allocations();
    for cut in cuts {
        gen.on_item(cut, &mut out);
        while let Ok(window) = rx.try_recv() {
            analysed += window.fresh_cuts().len();
        }
    }
    let after = allocations();
    assert_eq!(analysed, CUTS, "every cut handed on");
    (after - before) as f64 / CUTS as f64
}

#[test]
fn window_generation_allocates_a_constant_per_cut() {
    // The paper's Fig. 3 regime: 1024 trajectories through window(10, 1).
    // A generator that clones the window context pays about
    // instances × width allocations per cut here (~10 k).
    let dense = window_allocations_per_cut(1024, 10);
    assert!(dense <= 4.0, "{dense} allocations per 1024-instance cut");
    // ... and the cost depends on neither instances nor width.
    assert_eq!(dense, window_allocations_per_cut(8, 10));
    assert!(window_allocations_per_cut(1024, 40) <= dense);
}

/// Heap allocations of one `analyse_cut` call with all four stat engines
/// on a cut of `instances` trajectories × 3 observables.
fn analyse_cut_allocations(instances: u64) -> u64 {
    let set = StatEngineSet::new(vec![
        StatEngineKind::MeanVariance,
        StatEngineKind::KMeans { k: 2 },
        StatEngineKind::Quantile { p: 0.5 },
        StatEngineKind::Histogram {
            lo: 0.0,
            hi: 2000.0,
            bins: 64,
        },
    ]);
    // Two modes per observable, as on a multi-stable cut.
    let cut = Cut {
        time: 0.0,
        values: (0..instances)
            .map(|i| Row::from_slice(&[i % 7 + (i % 2) * 900, (i * 31) % 101, 5 + i % 3]))
            .collect(),
    };
    let before = allocations();
    let row = set.analyse_cut(&cut);
    let allocated = allocations() - before;
    assert_eq!(row.observables.len(), 3);
    assert!(row.observables.iter().all(|o| o.centroids.len() == 2));
    allocated
}

#[test]
fn stat_engines_allocate_a_constant_per_cut() {
    let narrow = analyse_cut_allocations(64);
    assert_eq!(narrow, analyse_cut_allocations(1024));
    // The row's own vectors (its observables, one centroid vector per
    // observable) and the call's scratch, each allocated once: the
    // observable-major counts, their sorted copy, the radix sort's
    // buffer, k-means' prefix sums and cluster boundaries, and the
    // histogram's bins.
    assert_eq!(narrow, (1 + 3) + 6);
}
