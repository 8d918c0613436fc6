//! Golden trajectory fingerprints for the approximate tier (adaptive
//! tau-leaping and the hybrid engine).
//!
//! Recorded from the pre-kernel-hot-path engines (the full-scan
//! implementation, commit `d87ece0`). The incremental/kernel-routed
//! rewrite must reproduce every stream bit-for-bit: same sample values at
//! the same grid times, same event counts, same final state, across
//! irregular quantum slicings — under both kernel dispatches (CI re-runs
//! this suite with `CWC_FORCE_SCALAR_KERNELS=1`).

use std::sync::Arc;

use cwc_repro::biomodels::simple::birth_death;
use cwc_repro::biomodels::{
    conversion_cycle, lotka_volterra, neurospora_flat, schlogl, LotkaVolterraParams,
    NeurosporaParams, SchloglParams,
};
use cwc_repro::cwc::model::Model;
use cwc_repro::gillespie::engine::EngineKind;

mod common;
use common::{fingerprint, GoldenRow};

/// The approximate-tier golden matrix: small models exercise the
/// full-recompute (legacy) adaptive path, the wide conversion cycles
/// exercise the incremental one — `wide-cycle-lo` (5 copies/species) stays
/// in the pure-critical regime, `wide-cycle-hi` (200 copies/species)
/// leaps. `birth-death` has a zero-order source (`h = 1`, no reactant);
/// `catalytic` carries an enabled rule with no net effect (`A -> A`) in
/// every draw; `neurospora` is the paper's model, whose Hill-repressed
/// transcription reads a species it does not consume.
fn model_by_name(name: &str) -> Arc<Model> {
    match name {
        "neurospora" => Arc::new(neurospora_flat(NeurosporaParams::default())),
        "schlogl" => Arc::new(schlogl(SchloglParams::default())),
        "lotka-volterra" => Arc::new(lotka_volterra(LotkaVolterraParams::default())),
        "wide-cycle-lo" => Arc::new(conversion_cycle(48, 240, 1.0)),
        "wide-cycle-hi" => Arc::new(conversion_cycle(40, 8_000, 1.0)),
        "birth-death" => Arc::new(birth_death(2_000.0, 1.0, 500)),
        "catalytic" => Arc::new(catalytic()),
        other => panic!("unknown golden model {other}"),
    }
}

/// `A ⇌ B` plus the catalytic no-op `A -> A`.
fn catalytic() -> Model {
    let mut m = Model::new("catalytic");
    let a = m.species("A");
    let b = m.species("B");
    m.rule("touch")
        .consumes("A", 1)
        .produces("A", 1)
        .rate(2.0)
        .build()
        .unwrap();
    m.rule("forward")
        .consumes("A", 1)
        .produces("B", 1)
        .rate(1.0)
        .build()
        .unwrap();
    m.rule("back")
        .consumes("B", 1)
        .produces("A", 1)
        .rate(0.5)
        .build()
        .unwrap();
    m.initial.add_atoms(a, 3_000);
    m.initial.add_atoms(b, 20);
    m.observe("A", a);
    m.observe("B", b);
    m
}

fn kind_by_name(name: &str) -> EngineKind {
    match name {
        "adaptive" => EngineKind::AdaptiveTau { epsilon: 0.05 },
        "hybrid" => EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 16.0,
        },
        other => panic!("unknown golden engine {other}"),
    }
}

fn horizon(model: &str) -> f64 {
    match model {
        "schlogl" => 4.0,
        "lotka-volterra" => 8.0,
        "wide-cycle-lo" => 4.0,
        "wide-cycle-hi" => 2.0,
        "birth-death" => 4.0,
        "catalytic" => 3.0,
        "neurospora" => 24.0,
        _ => unreachable!(),
    }
}

/// Recorded by running the pre-hot-path engines (full-scan draws, commit
/// `d87ece0`); regenerate with the ignored `record` test below. The
/// `neurospora` rows came later, once the leaping tier took every kinetic
/// law; the adaptive engine's full-recompute replica reproduces them.
/// The hashes were re-taken when the τ grid's points became `k·τ` instead
/// of running sums of τ: stamped with the old running-sum times, and
/// without the t_end sample those sums lost, the new streams hash to the
/// old constants, so only sample times moved.
const GOLDEN: &[GoldenRow] = &[
    (
        "schlogl",
        "adaptive",
        2014,
        3,
        0x682dd175fed9e57c,
        30236,
        &[552],
    ),
    (
        "schlogl",
        "adaptive",
        99,
        0,
        0x9bdd5de0d49df2e5,
        5527,
        &[101],
    ),
    (
        "schlogl",
        "hybrid",
        2014,
        3,
        0xb021c8def42b7cef,
        9285,
        &[167],
    ),
    (
        "lotka-volterra",
        "adaptive",
        2014,
        3,
        0xe5e3795b4f2dc45e,
        2853,
        &[128, 61],
    ),
    (
        "lotka-volterra",
        "hybrid",
        2014,
        3,
        0xabcb758c03c1de9b,
        2936,
        &[82, 61],
    ),
    (
        "wide-cycle-lo",
        "adaptive",
        2014,
        3,
        0xa5e214dd2103797b,
        1099,
        &[3],
    ),
    (
        "wide-cycle-lo",
        "adaptive",
        99,
        0,
        0x51ea95f60c2db3c8,
        1068,
        &[3],
    ),
    (
        "wide-cycle-lo",
        "hybrid",
        2014,
        3,
        0xaf0bf47d4c34bb29,
        1120,
        &[3],
    ),
    (
        "wide-cycle-hi",
        "adaptive",
        2014,
        3,
        0x6d7b5b3650ddf121,
        18113,
        &[233],
    ),
    (
        "wide-cycle-hi",
        "adaptive",
        99,
        0,
        0x579f53e1328015cd,
        16975,
        &[221],
    ),
    (
        "wide-cycle-hi",
        "hybrid",
        2014,
        3,
        0xb2771620601c0181,
        17325,
        &[228],
    ),
    (
        "birth-death",
        "adaptive",
        2014,
        3,
        0x0a9057e9d889529a,
        11501,
        &[1959],
    ),
    (
        "birth-death",
        "adaptive",
        99,
        0,
        0x5d07c443c0f6e4f0,
        11175,
        &[2005],
    ),
    (
        "birth-death",
        "hybrid",
        2014,
        3,
        0x425a9d753d0090c1,
        14293,
        &[1971],
    ),
    (
        "birth-death",
        "hybrid",
        99,
        0,
        0xfd7514f1e8748748,
        11247,
        &[2045],
    ),
    (
        "catalytic",
        "adaptive",
        2014,
        3,
        0xc5d1fdabb7f37f41,
        13423,
        &[1058, 1962],
    ),
    (
        "catalytic",
        "adaptive",
        99,
        0,
        0xe0d0e49deb3cfdbb,
        15463,
        &[992, 2028],
    ),
    (
        "catalytic",
        "hybrid",
        2014,
        3,
        0x364436547fcf52da,
        13596,
        &[1010, 2010],
    ),
    (
        "catalytic",
        "hybrid",
        99,
        0,
        0x22bd8a0b8a482453,
        12795,
        &[1012, 2008],
    ),
    (
        "neurospora",
        "adaptive",
        2014,
        3,
        0x94012919450191a0,
        14746,
        &[117, 23, 59],
    ),
    (
        "neurospora",
        "adaptive",
        99,
        0,
        0x3e69098bdfaa0f56,
        14881,
        &[47, 22, 109],
    ),
    (
        "neurospora",
        "hybrid",
        2014,
        3,
        0x553fa2184058fc51,
        15025,
        &[129, 16, 61],
    ),
    (
        "neurospora",
        "hybrid",
        99,
        0,
        0x6ce04ed88a44a947,
        17500,
        &[13, 145, 190],
    ),
];

#[test]
fn approximate_tier_trajectories_are_bit_identical_to_full_scan_engines() {
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
            "{model}/{engine} seed={seed} instance={instance} diverged from the full-scan engine"
        );
    }
}

#[test]
#[ignore = "golden recorder: prints rows for the GOLDEN table"]
fn record() {
    for &(model, engine, seed, instance, ..) in GOLDEN {
        let (h, e, o) = fingerprint(
            model_by_name(model),
            kind_by_name(engine),
            seed,
            instance,
            horizon(model),
        );
        println!("(\"{model}\", \"{engine}\", {seed}, {instance}, {h:#018x}, {e}, &{o:?}),");
    }
}

#[test]
fn a_zero_rate_rule_changes_no_trajectory() {
    // A rule with rate 0 never fires, so adding one must leave every kind's
    // trajectory untouched — even a second-order one, whose reactant would
    // otherwise raise the CGP `g_i` of the species it consumes and shrink
    // every leap.
    let with_counts = |mut m: Model| {
        for i in 0..40 {
            let s = m.species(&format!("S{i}"));
            m.observe(&format!("count S{i}"), s);
        }
        Arc::new(m)
    };
    let plain = with_counts(conversion_cycle(40, 8_000, 1.0));
    let mut dead = conversion_cycle(40, 8_000, 1.0);
    dead.rule("never")
        .consumes("S3", 2)
        .produces("S7", 1)
        .rate(0.0)
        .build()
        .unwrap();
    let dead = with_counts(dead);
    let moved: Vec<EngineKind> = [
        EngineKind::Ssa,
        EngineKind::AdaptiveTau { epsilon: 0.05 },
        EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 16.0,
        },
    ]
    .into_iter()
    .filter(|&kind| {
        fingerprint(Arc::clone(&plain), kind, 2014, 3, 2.0)
            != fingerprint(Arc::clone(&dead), kind, 2014, 3, 2.0)
    })
    .collect();
    assert!(moved.is_empty(), "a zero-rate rule moved {moved:?}");
}
