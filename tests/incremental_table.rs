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
use cwc_repro::gillespie::ssa::{SampleClock, SsaEngine, StepOutcome};

// ---------------------------------------------------------------------------
// Golden trajectories (recorded from the pre-table engines)
// ---------------------------------------------------------------------------

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `kind` on `model` in irregular quanta and fingerprints the entire
/// sample stream (times and values bit-for-bit, via `f64::to_bits`).
fn fingerprint(
    model: Arc<Model>,
    kind: EngineKind,
    seed: u64,
    instance: u64,
    t_end: f64,
) -> (u64, u64, Vec<u64>) {
    let mut engine = kind.build(Arc::clone(&model), seed, instance).unwrap();
    let mut clock = SampleClock::new(0.0, t_end / 40.0);
    let mut hash = 0u64;
    let mut events = 0u64;
    let quanta = [0.13, 0.29, 0.5, 0.77, 1.0];
    let mut t = 0.0;
    while t < t_end {
        let q = quanta[(events as usize) % quanta.len()] * t_end / 10.0;
        t = (t + q).min(t_end);
        events += engine.run_sampled(t, &mut clock, |ts, v| {
            hash = fnv1a(hash, &ts.to_bits().to_le_bytes());
            for &x in v {
                hash = fnv1a(hash, &x.to_le_bytes());
            }
        });
    }
    (hash, events, engine.observe())
}

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

/// (model, engine, seed, instance, sample_hash, events, final_observables).
type GoldenRow = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    &'static [u64],
);

/// Recorded by running the pre-PR engines (naive full re-enumeration).
const GOLDEN: &[GoldenRow] = &[
    ("schlogl", "ssa", 2014, 3, 0x551e905b70da0f99, 14346, &[442]),
    ("schlogl", "ssa", 99, 0, 0xdc8d1d0a78b16d03, 20469, &[583]),
    (
        "lotka-volterra",
        "ssa",
        2014,
        3,
        0xe3080f02735bf484,
        3179,
        &[217, 220],
    ),
    (
        "lotka-volterra",
        "ssa",
        99,
        0,
        0x7373f1b4d4443efc,
        3018,
        &[134, 121],
    ),
    (
        "neurospora-compartments",
        "ssa",
        2014,
        3,
        0x43e8047e11c3ab24,
        15953,
        &[219, 55, 35],
    ),
    (
        "neurospora-compartments",
        "ssa",
        99,
        0,
        0x246487f30a8f68d0,
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
