//! Correctness of the incremental propensity engine (PR 3).
//!
//! Two pillars:
//!
//! 1. **Golden trajectories** — fingerprints of full sampled runs recorded
//!    from the *pre-table* engines (the naive full re-enumeration
//!    implementation, seed commit `1b63989`). The rewritten engines must
//!    reproduce every stream bit-for-bit: same sample values at the same
//!    grid times, same event counts, same final state, across irregular
//!    quantum slicings, for the direct method (flat and compartmentalised
//!    models).
//!
//! 2. **Table = recompute** — after an arbitrary prefix of firings
//!    (including structural ones that force rebuilds), the incrementally
//!    maintained reaction table must equal a from-scratch enumeration:
//!    same (site, rule) set, same order, same propensities, same `a0`.

use proptest::prelude::*;
use std::sync::Arc;

use cwc_repro::biomodels::{
    lotka_volterra, neurospora_compartments, schlogl, LotkaVolterraParams, NeurosporaParams,
    SchloglParams,
};
use cwc_repro::cwc::model::Model;
use cwc_repro::gillespie::engine::EngineKind;
use cwc_repro::gillespie::ssa::{SsaEngine, StepOutcome};

mod common;
use common::{fingerprint, GoldenRow};

// ---------------------------------------------------------------------------
// Golden trajectories (recorded from the pre-table engines)
// ---------------------------------------------------------------------------

fn model_by_name(name: &str) -> Arc<Model> {
    match name {
        "schlogl" => Arc::new(schlogl(SchloglParams::default())),
        "lotka-volterra" => Arc::new(lotka_volterra(LotkaVolterraParams::default())),
        "neurospora-compartments" => Arc::new(neurospora_compartments(NeurosporaParams::default())),
        other => panic!("unknown golden model {other}"),
    }
}

fn kind_by_name(name: &str) -> EngineKind {
    match name {
        "ssa" => EngineKind::Ssa,
        other => panic!("unknown golden engine {other}"),
    }
}

fn horizon(model: &str) -> f64 {
    match model {
        "schlogl" => 4.0,
        "lotka-volterra" => 8.0,
        _ => 24.0,
    }
}

/// Recorded by running the pre-PR engines (naive full re-enumeration).
/// The hashes were re-taken when the τ grid's points became `k·τ` instead
/// of running sums of τ: stamped with the old running-sum times, and
/// without the t_end sample those sums lost, the new streams hash to the
/// old constants, so only sample times moved.
const GOLDEN: &[GoldenRow] = &[
    ("schlogl", "ssa", 2014, 3, 0x7bcadf29b8ec9c24, 14346, &[442]),
    ("schlogl", "ssa", 99, 0, 0x4b2297392dbfee26, 20469, &[583]),
    (
        "lotka-volterra",
        "ssa",
        2014,
        3,
        0xb4a42f6e30e0ac8c,
        3179,
        &[217, 220],
    ),
    (
        "lotka-volterra",
        "ssa",
        99,
        0,
        0x3ad8b43fe5536356,
        3018,
        &[134, 121],
    ),
    (
        "neurospora-compartments",
        "ssa",
        2014,
        3,
        0x8705d11b21b88c3a,
        15953,
        &[219, 55, 35],
    ),
    (
        "neurospora-compartments",
        "ssa",
        99,
        0,
        0xe9d2d17e04106cec,
        16046,
        &[174, 30, 57],
    ),
];

#[test]
fn trajectories_are_bit_identical_to_pre_table_engines() {
    for &(model, engine, seed, instance, hash, events, obs) in GOLDEN {
        let (h, e, o) = fingerprint(
            model_by_name(model),
            kind_by_name(engine),
            seed,
            instance,
            horizon(model),
        );
        assert_eq!(
            (h, e, o.as_slice()),
            (hash, events, obs),
            "{model}/{engine} seed={seed} instance={instance} diverged from the pre-table engine"
        );
    }
}

// ---------------------------------------------------------------------------
// One a0 summation per step (satellite: no redundant recomputation)
// ---------------------------------------------------------------------------

#[test]
fn one_a0_sum_per_step() {
    let mut m = Model::new("decay");
    let a = m.species("A");
    m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
    m.initial.add_atoms(a, 5);
    m.observe("A", a);
    let mut engine = SsaEngine::new(Arc::new(m), 3, 0);
    assert_eq!(engine.a0_sums(), 0, "construction must not sum");
    for k in 1..=5u64 {
        assert!(matches!(engine.step(), StepOutcome::Fired { .. }));
        assert_eq!(engine.a0_sums(), k, "exactly one a0 sum per step");
    }
    // The exhausted probe also costs exactly one summation.
    assert_eq!(engine.step(), StepOutcome::Exhausted);
    assert_eq!(engine.a0_sums(), 6);
}

// ---------------------------------------------------------------------------
// Table equals full recompute after arbitrary firing sequences
// ---------------------------------------------------------------------------

/// A model exercising every table-update path: flat mass-action rules,
/// Hill/saturating laws, keep-transport across a membrane (incremental
/// same-site + child + parent updates) and compartment creation /
/// dissolution / destruction (structural rebuilds).
fn zoo_model(a0: u64, b0: u64, cells: u64) -> Arc<Model> {
    let mut m = Model::new("zoo");
    let a = m.species("A");
    let b = m.species("B");
    let c = m.species("C");
    m.rule("convert")
        .consumes("A", 1)
        .produces("B", 1)
        .rate(1.0)
        .build()
        .unwrap();
    m.rule("back")
        .consumes("B", 1)
        .produces("A", 1)
        .rate(0.8)
        .repressed_by("C", 5.0, 2.0)
        .build()
        .unwrap();
    m.rule("in")
        .consumes("A", 1)
        .matches_comp("cell", &[], &[])
        .keeps(0, &[], &[("A", 1)])
        .rate(0.9)
        .build()
        .unwrap();
    m.rule("out")
        .matches_comp("cell", &[], &[("A", 1)])
        .keeps(0, &[], &[])
        .produces("C", 1)
        .rate(0.7)
        .build()
        .unwrap();
    m.rule("digest")
        .at("cell")
        .consumes("A", 1)
        .produces("C", 1)
        .rate(0.5)
        .build()
        .unwrap();
    m.rule("leak")
        .at("cell")
        .consumes("C", 1)
        .rate(0.4)
        .saturating_on("C", 3.0)
        .build()
        .unwrap();
    m.rule("make")
        .consumes("B", 2)
        .creates_comp("cell", &[("B", 1)], &[("A", 1)])
        .rate(0.3)
        .build()
        .unwrap();
    m.rule("burst")
        .matches_comp("cell", &[("B", 1)], &[])
        .dissolves(0)
        .rate(0.2)
        .build()
        .unwrap();
    m.rule("crush")
        .consumes("C", 1)
        .matches_comp("cell", &[], &[])
        .rate(0.1)
        .build()
        .unwrap();
    m.initial.add_atoms(a, a0);
    m.initial.add_atoms(b, b0);
    for _ in 0..cells {
        m.initial
            .add_compartment(cwc_repro::cwc::term::Compartment::new(
                m.alphabet.find_label("cell").unwrap(),
                cwc_repro::cwc::multiset::Multiset::from([(b, 1)]),
                cwc_repro::cwc::term::Term::from_atoms(cwc_repro::cwc::multiset::Multiset::from([
                    (a, 2),
                ])),
            ));
    }
    m.observe("A", a);
    m.observe("C", c);
    Arc::new(m)
}

proptest! {
    #[test]
    fn table_equals_full_recompute_after_any_firing_sequence(
        seed in 0u64..10_000,
        steps in 1usize..80,
        a0 in 0u64..12,
        b0 in 0u64..8,
        cells in 0u64..3,
    ) {
        let model = zoo_model(a0, b0, cells);
        let mut engine = SsaEngine::new(model, seed, 0);
        for k in 0..steps {
            let outcome = engine.step();
            let cached = engine.cached_reactions();
            let fresh = engine.reactions();
            prop_assert!(
                cached == fresh,
                "table diverged from recompute after {} steps (seed {seed}): \
                 cached {cached:?} vs fresh {fresh:?}",
                k + 1
            );
            // a0 must be the identical ordered sum, bit for bit.
            let naive_a0: f64 = fresh.iter().map(|r| r.propensity).sum();
            prop_assert!(
                engine.total_propensity().to_bits() == naive_a0.to_bits(),
                "a0 diverged after {} steps (seed {seed})",
                k + 1
            );
            if outcome == StepOutcome::Exhausted {
                prop_assert!(fresh.is_empty());
                break;
            }
        }
    }
}
