//! Steady-state `step()` is allocation-free (PR 3 acceptance), and on a
//! flat model so is a whole *sampled* quantum of the direct method.
//!
//! A counting global allocator (thread-local counters, so parallel test
//! threads don't interfere) wraps the system allocator; after a warm-up
//! that grows every reusable buffer to its steady-state capacity, a long
//! run of exact-engine steps must perform zero heap allocations — on the
//! flat *and* the compartmentalised Neurospora model, for both the direct
//! and the first-reaction method.
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
//! The same allocator pins the window layer: [`WindowGen`] hands each cut
//! downstream by move, so a cut through it costs a small constant number
//! of allocations whatever the instance count and window width.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cwc_repro::biomodels::{
    neurospora_compartments, neurospora_flat, schlogl, NeurosporaParams, SchloglParams,
};
use cwc_repro::cwcsim::windows::WindowGen;
use cwc_repro::fastflow::node::{Outbox, Stage};
use cwc_repro::gillespie::engine::{EngineKind, EngineStep};
use cwc_repro::gillespie::ssa::{SampleClock, SsaEngine};
use cwc_repro::gillespie::trajectory::Cut;

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
fn first_reaction_step_is_allocation_free_on_compartment_model() {
    let model = Arc::new(neurospora_compartments(NeurosporaParams::default()));
    assert_alloc_free_steps(
        EngineKind::FirstReaction,
        model,
        "neurospora_compartments/first-reaction",
    );
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

#[test]
fn ssa_sampled_quantum_is_allocation_free_on_flat_models() {
    // Dense samples (many per quantum, events between them) through
    // `run_sampled`, the call a farm worker makes per scheduling round:
    // once the first quantum has sized the sample buffer, the engine
    // allocates nothing — no `Vec` per sample, no B-tree node churn as
    // counts cross zero.
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
        let mut engine = SsaEngine::new(model, 7, 0);
        let mut clock = SampleClock::new(0.0, period);
        // (samples seen, sum of their values) — read through a `Cell` so
        // the counts are visible between quanta.
        let seen = Cell::new((0u64, 0u64));
        let sink = |_t: f64, values: &[u64]| {
            let (n, sum) = seen.get();
            seen.set((n + 1, sum.wrapping_add(values.iter().sum::<u64>())));
        };
        let mut t = 0.0;
        for _ in 0..3 {
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
}

/// Heap allocations `WindowGen` makes per cut at slide 1, emitted windows
/// included.
fn window_allocations_per_cut(instances: usize, width: usize) -> f64 {
    const CUTS: usize = 200;
    let cuts: Vec<Cut> = (0..CUTS)
        .map(|k| Cut {
            time: k as f64,
            values: vec![vec![k as u64; 3]; instances],
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
