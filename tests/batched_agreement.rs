//! The batched kind's core contract: every replica of a
//! [`BatchSimTask`] — the farm task of
//! [`EngineKind::Batched`](cwc_repro::EngineKind::Batched) — is
//! **bit-for-bit** the scalar direct-method trajectory of the same
//! instance, whatever the kernel dispatch of its propensity rows.
//!
//! Golden trajectory fingerprints: full sampled runs of `width`-replica
//! tasks on the three flat models of the agreement matrix, hashed
//! bit-for-bit (`f64::to_bits` on every grid time, every observable
//! value). The golden constants were recorded from the *scalar*
//! [`SsaEngine`] driven through an irregular quantum schedule; the tasks
//! step on a different, uneven quantum, so reproducing the constants also
//! pins the quantum contract. A live scalar replay cross-checks the
//! recording method itself.

use proptest::prelude::*;
use std::sync::Arc;

use cwc_repro::biomodels::{schlogl, simple, SchloglParams};
use cwc_repro::cwc::model::Model;
use cwc_repro::cwcsim::task::BatchSimTask;
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::engine::Engine;
use cwc_repro::gillespie::ssa::{SampleClock, SsaEngine};
use cwc_repro::gillespie::KernelDispatch;

mod common;
use common::fnv1a;

// ---------------------------------------------------------------------------
// Golden trajectory fingerprints
// ---------------------------------------------------------------------------

/// The irregular quantum schedule: cycles through uneven fractions of the
/// horizon so quantum boundaries land between, on, and beyond event times.
/// Indexed by quantum count (not events), like a farm task's quanta.
fn schedule(t_end: f64) -> impl Iterator<Item = f64> {
    let quanta = [0.13, 0.29, 0.5, 0.77, 1.0];
    let mut t = 0.0;
    let mut k = 0usize;
    std::iter::from_fn(move || {
        if t >= t_end {
            return None;
        }
        t = (t + quanta[k % quanta.len()] * t_end / 10.0).min(t_end);
        k += 1;
        Some(t)
    })
}

/// Per-replica `(sample_hash, events, final_observables)` of one
/// [`BatchSimTask`] of `width` replicas from instance `first`.
fn batched_fingerprints(
    model: Arc<Model>,
    seed: u64,
    first: u64,
    width: usize,
    t_end: f64,
) -> Vec<(u64, u64, Vec<u64>)> {
    batched_fingerprints_with(model, seed, first, width, t_end, KernelDispatch::Auto)
}

/// Like [`batched_fingerprints`], with an explicit kernel dispatch — the
/// scalar and SIMD row kernels must both reproduce the goldens.
fn batched_fingerprints_with(
    model: Arc<Model>,
    seed: u64,
    first: u64,
    width: usize,
    t_end: f64,
    dispatch: KernelDispatch,
) -> Vec<(u64, u64, Vec<u64>)> {
    let deps = Arc::new(ModelDeps::compile(&model));
    // An uneven quantum, not the recording schedule: 0.37 never divides
    // the horizon, so boundaries fall between events and the last quantum
    // is capped short.
    let quantum = 0.37 * t_end / 10.0;
    let mut task = BatchSimTask::with_engine_deps(
        model,
        deps,
        seed,
        first,
        width,
        t_end,
        quantum,
        t_end / 40.0,
    )
    .unwrap()
    .with_kernel_dispatch(dispatch);
    let mut hashes = vec![0u64; width];
    let mut events = vec![0u64; width];
    while !task.is_done() {
        for (r, batch) in task.run_quantum().into_iter().enumerate() {
            assert_eq!(batch.instance, first + r as u64);
            events[r] += batch.events;
            for (ts, v) in &batch.samples {
                hashes[r] = fnv1a(hashes[r], &ts.to_bits().to_le_bytes());
                for &x in v.iter() {
                    hashes[r] = fnv1a(hashes[r], &x.to_le_bytes());
                }
            }
        }
    }
    (0..width)
        .map(|r| (hashes[r], events[r], task.tasks[r].engine.observe()))
        .collect()
}

/// The scalar reference: instance `first + r` through the identical
/// schedule and clock — the definition the batched kind must reproduce.
fn scalar_fingerprints(
    model: Arc<Model>,
    seed: u64,
    first: u64,
    width: usize,
    t_end: f64,
) -> Vec<(u64, u64, Vec<u64>)> {
    (0..width)
        .map(|r| {
            let mut engine = SsaEngine::new(Arc::clone(&model), seed, first + r as u64);
            let mut clock = SampleClock::new(0.0, t_end / 40.0);
            let mut hash = 0u64;
            let mut events = 0u64;
            for t in schedule(t_end) {
                events += engine.run_sampled(t, &mut clock, |ts, v| {
                    hash = fnv1a(hash, &ts.to_bits().to_le_bytes());
                    for &x in v {
                        hash = fnv1a(hash, &x.to_le_bytes());
                    }
                });
            }
            (hash, events, engine.observe())
        })
        .collect()
}

fn model_by_name(name: &str) -> Arc<Model> {
    match name {
        "decay" => Arc::new(simple::decay(60, 1.0)),
        "dimerisation" => Arc::new(simple::dimerisation(0.01, 0.1, 120)),
        "schlogl" => Arc::new(schlogl(SchloglParams::default())),
        other => panic!("unknown golden model {other}"),
    }
}

/// (model, seed, first_instance, replica, sample_hash, events, final obs).
type GoldenRow = (&'static str, u64, u64, usize, u64, u64, &'static [u64]);

/// Recorded from the scalar `SsaEngine` (the tier's definition) at the
/// PR 6 seed; `golden_rows_match_a_live_scalar_replay` re-derives them on
/// every run so a recording error cannot hide a divergence.
/// The hashes were re-taken when the τ grid's points became `k·τ` instead
/// of running sums of τ: stamped with the old running-sum times, and
/// without the t_end sample those sums lost, the new streams hash to the
/// old constants, so only sample times moved.
const GOLDEN: &[GoldenRow] = &[
    ("decay", 2014, 0, 0, 0x36b3a50a0dae0416, 56, &[4]),
    ("decay", 2014, 0, 1, 0xfbc52805c54c5c16, 58, &[2]),
    ("decay", 2014, 0, 2, 0x41034196e81755c6, 59, &[1]),
    (
        "dimerisation",
        2014,
        5,
        0,
        0xf158f3e8ac1d0088,
        62,
        &[36, 42],
    ),
    (
        "dimerisation",
        2014,
        5,
        1,
        0x0b5b1f10e9cc2710,
        63,
        &[34, 43],
    ),
    (
        "dimerisation",
        2014,
        5,
        2,
        0x961ad97a4fe6ad04,
        59,
        &[30, 45],
    ),
    ("schlogl", 99, 2, 0, 0x7b48fb5cb771772a, 5110, &[84]),
    ("schlogl", 99, 2, 1, 0xa419e11b3787edb4, 26022, &[574]),
    ("schlogl", 99, 2, 2, 0xc61b0f3b12e598f8, 18222, &[618]),
];

const WIDTH: usize = 3;

fn horizon(model: &str) -> f64 {
    match model {
        "schlogl" => 4.0,
        _ => 3.0,
    }
}

#[test]
fn batched_trajectories_match_the_golden_scalar_fingerprints() {
    for batch_start in (0..GOLDEN.len()).step_by(WIDTH) {
        let &(model, seed, first, _, _, _, _) = &GOLDEN[batch_start];
        let got = batched_fingerprints(model_by_name(model), seed, first, WIDTH, horizon(model));
        for (r, (hash, events, obs)) in got.into_iter().enumerate() {
            let &(_, _, _, replica, ghash, gevents, gobs) = &GOLDEN[batch_start + r];
            assert_eq!(replica, r, "golden table ordering");
            assert_eq!(
                (hash, events, obs.as_slice()),
                (ghash, gevents, gobs),
                "{model} seed={seed} replica {r} diverged from the golden scalar trajectory"
            );
        }
    }
}

/// The kernel-dispatch matrix: forcing the scalar reference and
/// requesting SIMD (which resolves to AVX2 where available, scalar
/// elsewhere) on the replicas' rows must both land exactly on the golden
/// fingerprints — the kernel layer may never change a bit of a
/// trajectory. Together with
/// CI's `CWC_FORCE_SCALAR_KERNELS` leg this runs the suite "both ways".
#[test]
fn golden_fingerprints_hold_under_every_kernel_dispatch() {
    for dispatch in [
        KernelDispatch::Scalar,
        KernelDispatch::Simd,
        KernelDispatch::Auto,
    ] {
        for batch_start in (0..GOLDEN.len()).step_by(WIDTH) {
            let &(model, seed, first, _, _, _, _) = &GOLDEN[batch_start];
            let got = batched_fingerprints_with(
                model_by_name(model),
                seed,
                first,
                WIDTH,
                horizon(model),
                dispatch,
            );
            for (r, (hash, events, obs)) in got.into_iter().enumerate() {
                let &(_, _, _, _, ghash, gevents, gobs) = &GOLDEN[batch_start + r];
                assert_eq!(
                    (hash, events, obs.as_slice()),
                    (ghash, gevents, gobs),
                    "{model} replica {r} diverged under dispatch {dispatch}"
                );
            }
        }
    }
}

/// A wide task: every one of 33 replicas must still be the scalar
/// instance's trajectory, whichever kernel set is dispatched.
#[test]
fn wide_batches_match_scalar_instances_under_both_dispatches() {
    let model = model_by_name("schlogl");
    let t_end = 1.0;
    let scalar = scalar_fingerprints(Arc::clone(&model), 7, 2, 33, t_end);
    for dispatch in [KernelDispatch::Scalar, KernelDispatch::Simd] {
        let got = batched_fingerprints_with(Arc::clone(&model), 7, 2, 33, t_end, dispatch);
        assert_eq!(got, scalar, "width-33 batch diverged under {dispatch}");
    }
}

#[test]
fn golden_rows_match_a_live_scalar_replay() {
    for batch_start in (0..GOLDEN.len()).step_by(WIDTH) {
        let &(model, seed, first, _, _, _, _) = &GOLDEN[batch_start];
        let live = scalar_fingerprints(model_by_name(model), seed, first, WIDTH, horizon(model));
        for (r, (hash, events, obs)) in live.into_iter().enumerate() {
            let &(_, _, _, _, ghash, gevents, gobs) = &GOLDEN[batch_start + r];
            assert_eq!(
                (hash, events, obs.as_slice()),
                (ghash, gevents, gobs),
                "{model} seed={seed} replica {r}: golden constant is stale"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Propensity-sum identity (bit-for-bit, including -0.0)
// ---------------------------------------------------------------------------

/// A flat cascade that always exhausts: A decays two ways, B decays too,
/// so for a long enough horizon the terminal state has no enabled
/// reactions and both sides must report `a0 = -0.0` (bitwise).
fn cascade(a0: u64, b0: u64, k1: f64, k2: f64) -> Arc<Model> {
    let mut m = Model::new("cascade");
    let a = m.species("A");
    let b = m.species("B");
    m.rule("sink").consumes("A", 1).rate(k1).build().unwrap();
    m.rule("convert")
        .consumes("A", 1)
        .produces("B", 1)
        .rate(k2)
        .build()
        .unwrap();
    m.rule("drain").consumes("B", 1).rate(0.7).build().unwrap();
    m.initial.add_atoms(a, a0);
    m.initial.add_atoms(b, b0);
    m.observe("A", a);
    m.observe("B", b);
    Arc::new(m)
}

proptest! {
    /// After every quantum of a [`BatchSimTask`], each replica's total
    /// propensity is bitwise the scalar engine's for its instance at the
    /// same time — exhaustion's `-0.0` included.
    #[test]
    fn batched_propensity_sums_equal_scalar_sums_bit_for_bit(
        seed in 0u64..5_000,
        a0 in 0u64..30,
        b0 in 0u64..20,
        k1 in 0.05f64..3.0,
        k2 in 0.0f64..2.0,
        width in 1usize..5,
    ) {
        let model = cascade(a0, b0, k1, k2);
        // Long horizon: most cases reach exhaustion, exercising the -0.0
        // identity and not just the live-propensity path.
        let t_end = 40.0;
        let deps = Arc::new(ModelDeps::compile(&model));
        let mut task = BatchSimTask::with_engine_deps(
            Arc::clone(&model),
            deps,
            seed,
            0,
            width,
            t_end,
            0.37 * t_end / 10.0,
            t_end / 8.0,
        )
        .unwrap();
        let mut scalars: Vec<(SsaEngine, SampleClock)> = (0..width as u64)
            .map(|i| (
                SsaEngine::new(Arc::clone(&model), seed, i),
                SampleClock::new(0.0, t_end / 8.0),
            ))
            .collect();
        while !task.is_done() {
            task.run_quantum();
            for (r, (engine, clock)) in scalars.iter_mut().enumerate() {
                let replica = &task.tasks[r].engine;
                let t = replica.time();
                engine.run_sampled(t, clock, |_, _| {});
                let Engine::Ssa(batched) = replica else {
                    panic!("replica {r} is not the direct method");
                };
                let scalar_a0 = engine.total_propensity();
                let batch_a0 = batched.total_propensity();
                prop_assert!(
                    batch_a0.to_bits() == scalar_a0.to_bits(),
                    "replica {r} a0 diverged at t={t}: batched {batch_a0:?} \
                     ({:#x}) vs scalar {scalar_a0:?} ({:#x})",
                    batch_a0.to_bits(),
                    scalar_a0.to_bits()
                );
            }
        }
        // The terminal comparison must have included genuine exhaustion
        // whenever everything drained: -0.0, not +0.0.
        for (r, task) in task.tasks.iter().enumerate() {
            if let Engine::Ssa(batched) = &task.engine {
                if batched.observe() == [0, 0] {
                    prop_assert!(
                        batched.total_propensity().to_bits() == (-0.0f64).to_bits(),
                        "exhausted replica {r} must report -0.0"
                    );
                }
            }
        }
    }
}
