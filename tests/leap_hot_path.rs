//! Hot-path equivalence suite for the kernel-accelerated leap tier.
//!
//! The adaptive engine keeps criticality flags, the total propensity and
//! the CGP accumulators *incrementally* (epoch-stamped, riding the
//! incidence lists) and routes its full-width folds through the
//! runtime-dispatched kernel layer. None of that is allowed to be
//! observable: this suite pins the incremental engine against its
//! full-recompute replica — same draws, same samples, same final state,
//! bit for bit — across the model zoo and both kernel dispatches, and
//! pins the hybrid and fixed tau-leap engines as dispatch-invariant on
//! the same zoo. CI runs the whole file twice (once with
//! `CWC_FORCE_SCALAR_KERNELS=1`), so the scalar reference path gets the
//! identical coverage on AVX2 hosts too.

use std::sync::Arc;

use proptest::prelude::*;

use cwc_repro::biomodels::{
    conversion_cycle, lotka_volterra, schlogl, LotkaVolterraParams, SchloglParams,
};
use cwc_repro::cwc::model::Model;
use cwc_repro::gillespie::{
    AdaptiveTauEngine, HybridEngine, KernelDispatch, SampleClock, TauLeapEngine,
};

/// Everything observable about one trajectory: the sampled stream (times
/// bit-exact via `to_bits`), the final observables, the clock, and the
/// event counters. Two engines agree iff their `Trace`s are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trace {
    samples: Vec<(u64, Vec<u64>)>,
    finals: Vec<u64>,
    time: u64,
    firings: u64,
    leaps: u64,
    exact_steps: u64,
}

/// Irregular quantum boundaries covering `[0, t_end]` — the slicing the
/// farm's scheduler could impose; nothing in a trace may depend on it.
fn quanta(t_end: f64) -> [f64; 5] {
    [
        0.17 * t_end,
        0.31 * t_end,
        0.55 * t_end,
        0.83 * t_end,
        t_end,
    ]
}

fn trace_adaptive(mut engine: AdaptiveTauEngine, t_end: f64) -> Trace {
    let mut clock = SampleClock::new(0.0, t_end / 16.0);
    let mut samples = Vec::new();
    let mut firings = 0;
    for t in quanta(t_end) {
        firings += engine.run_sampled(t, &mut clock, |ts, v| {
            samples.push((ts.to_bits(), v.to_vec()));
        });
    }
    Trace {
        samples,
        finals: engine.observe(),
        time: engine.time().to_bits(),
        firings,
        leaps: engine.leaps(),
        exact_steps: engine.exact_steps(),
    }
}

fn trace_hybrid(mut engine: HybridEngine, t_end: f64) -> Trace {
    let mut clock = SampleClock::new(0.0, t_end / 16.0);
    let mut samples = Vec::new();
    let mut firings = 0;
    for t in quanta(t_end) {
        firings += engine.run_sampled(t, &mut clock, |ts, v| {
            samples.push((ts.to_bits(), v.to_vec()));
        });
    }
    Trace {
        samples,
        finals: engine.observe(),
        time: engine.time().to_bits(),
        firings,
        leaps: engine.leaps(),
        exact_steps: engine.exact_steps(),
    }
}

fn trace_tau_leap(mut engine: TauLeapEngine, t_end: f64) -> Trace {
    let mut clock = SampleClock::new(0.0, t_end / 16.0);
    let mut samples = Vec::new();
    let mut firings = 0;
    for t in quanta(t_end) {
        firings += engine.run_sampled(t, &mut clock, |ts, v| {
            samples.push((ts.to_bits(), v.to_vec()));
        });
    }
    Trace {
        samples,
        finals: engine.observe(),
        time: engine.time().to_bits(),
        firings,
        leaps: engine.leaps(),
        exact_steps: 0,
    }
}

/// Runs the adaptive engine in all four refresh × dispatch combinations
/// and asserts one shared trace: {incidence cache (the default),
/// full-recompute replica} × {Auto, Scalar}. Under the scalar CI leg Auto
/// resolves to the scalar kernels too — the equality is then trivially
/// between scalar runs, which is exactly the coverage that leg wants.
fn assert_adaptive_replicas_agree(model: &Arc<Model>, seed: u64, instance: u64, t_end: f64) {
    let build = || AdaptiveTauEngine::new(Arc::clone(model), seed, instance).unwrap();
    let reference = trace_adaptive(build().with_epsilon(0.05), t_end);
    assert!(
        reference.firings > 0 || reference.leaps == 0,
        "zoo case fired nothing"
    );
    let variants: [(&str, AdaptiveTauEngine); 3] = [
        (
            "full-recompute/auto",
            build().with_epsilon(0.05).with_full_recompute(),
        ),
        (
            "incidence/scalar",
            build()
                .with_epsilon(0.05)
                .with_kernel_dispatch(KernelDispatch::Scalar),
        ),
        (
            "full-recompute/scalar",
            build()
                .with_epsilon(0.05)
                .with_full_recompute()
                .with_kernel_dispatch(KernelDispatch::Scalar),
        ),
    ];
    for (what, engine) in variants {
        assert_eq!(
            trace_adaptive(engine, t_end),
            reference,
            "adaptive {what} diverged from incidence/auto"
        );
    }
}

fn assert_hybrid_dispatch_invariant(model: &Arc<Model>, seed: u64, instance: u64, t_end: f64) {
    let build = || {
        HybridEngine::new(Arc::clone(model), seed, instance)
            .unwrap()
            .with_epsilon(0.05)
            .with_threshold(8.0)
    };
    let auto = trace_hybrid(build(), t_end);
    let scalar = trace_hybrid(build().with_kernel_dispatch(KernelDispatch::Scalar), t_end);
    assert_eq!(auto, scalar, "hybrid dispatch changed the trajectory");
}

fn assert_tau_leap_dispatch_invariant(
    model: &Arc<Model>,
    seed: u64,
    instance: u64,
    tau: f64,
    t_end: f64,
) {
    let build = || {
        TauLeapEngine::new(Arc::clone(model), seed, instance)
            .unwrap()
            .with_tau(tau)
    };
    let auto = trace_tau_leap(build(), t_end);
    let scalar = trace_tau_leap(build().with_kernel_dispatch(KernelDispatch::Scalar), t_end);
    assert_eq!(auto, scalar, "tau-leap dispatch changed the trajectory");
}

/// The deterministic zoo: the bench models plus conversion-cycle
/// structural extremes (minimal two-species cycle, absorbing-adjacent
/// sparse cycle, the all-critical wide regime, the leaping wide regime).
fn zoo() -> Vec<(&'static str, Arc<Model>, f64)> {
    vec![
        ("schlogl", Arc::new(schlogl(SchloglParams::default())), 1.5),
        (
            "lotka-volterra",
            Arc::new(lotka_volterra(LotkaVolterraParams::default())),
            2.0,
        ),
        ("cycle-2", Arc::new(conversion_cycle(2, 30, 2.0)), 1.0),
        ("cycle-3-sparse", Arc::new(conversion_cycle(3, 3, 1.0)), 1.0),
        (
            "cycle-wide-critical",
            Arc::new(conversion_cycle(48, 240, 1.0)),
            1.0,
        ),
        (
            "cycle-wide-leaping",
            Arc::new(conversion_cycle(40, 8_000, 1.0)),
            0.5,
        ),
    ]
}

#[test]
fn adaptive_replicas_agree_across_the_zoo() {
    for (name, model, t_end) in zoo() {
        for seed in [1, 7] {
            assert_adaptive_replicas_agree(&model, seed, seed ^ 3, t_end);
        }
        eprintln!("zoo ok: {name}");
    }
}

#[test]
fn hybrid_and_tau_leap_are_dispatch_invariant_across_the_zoo() {
    for (_name, model, t_end) in zoo() {
        assert_hybrid_dispatch_invariant(&model, 11, 2, t_end);
        assert_tau_leap_dispatch_invariant(&model, 11, 2, 0.02, t_end);
    }
}

proptest! {
    /// Random conversion-cycle structure: width from degenerate to wide,
    /// population from absorbing-adjacent to leap-regime, random rate and
    /// seeds. The incremental engine must match its full-recompute
    /// replica bit for bit on every one, under both dispatches.
    #[test]
    fn adaptive_replicas_agree_on_random_cycles(
        species in 2usize..24,
        copies_per_species in 0u64..300,
        rate in 0.2f64..3.0,
        seed in 0u64..1_000_000,
        instance in 0u64..64,
    ) {
        let copies = copies_per_species * species as u64;
        let model = Arc::new(conversion_cycle(species, copies, rate));
        assert_adaptive_replicas_agree(&model, seed, instance, 0.4);
    }

    /// The same structural sweep for the hybrid and fixed tau-leap
    /// engines' kernel-routed leap paths.
    #[test]
    fn hybrid_and_tau_leap_dispatch_invariant_on_random_cycles(
        species in 2usize..24,
        copies_per_species in 0u64..300,
        rate in 0.2f64..3.0,
        seed in 0u64..1_000_000,
    ) {
        let copies = copies_per_species * species as u64;
        let model = Arc::new(conversion_cycle(species, copies, rate));
        assert_hybrid_dispatch_invariant(&model, seed, 1, 0.4);
        assert_tau_leap_dispatch_invariant(&model, seed, 1, 0.05, 0.4);
    }
}
