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
use cwc_repro::gillespie::ssa::SampleClock;

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

/// Recorded by running the pre-hot-path engines (full-scan draws, commit
/// `d87ece0`); regenerate with the ignored `record` test below. The
/// `neurospora` rows came later, once the leaping tier took every kinetic
/// law; the adaptive engine's full-recompute replica reproduces them.
const GOLDEN: &[GoldenRow] = &[
    (
        "schlogl",
        "adaptive",
        2014,
        3,
        0xce99db1a0c1520ea,
        30236,
        &[552],
    ),
    (
        "schlogl",
        "adaptive",
        99,
        0,
        0xff10e3cb22ac1430,
        5527,
        &[101],
    ),
    (
        "schlogl",
        "hybrid",
        2014,
        3,
        0xb2ff5b1b26b25f2c,
        9285,
        &[167],
    ),
    (
        "lotka-volterra",
        "adaptive",
        2014,
        3,
        0x0ec4e1af32be57ba,
        2853,
        &[128, 61],
    ),
    (
        "lotka-volterra",
        "hybrid",
        2014,
        3,
        0x19c2509cc28fedd1,
        2936,
        &[82, 61],
    ),
    (
        "wide-cycle-lo",
        "adaptive",
        2014,
        3,
        0x3b4be27e0f2fc600,
        1099,
        &[3],
    ),
    (
        "wide-cycle-lo",
        "adaptive",
        99,
        0,
        0x4aed7c7af4eb3bf3,
        1068,
        &[3],
    ),
    (
        "wide-cycle-lo",
        "hybrid",
        2014,
        3,
        0xb774a5d153b818a6,
        1120,
        &[3],
    ),
    (
        "wide-cycle-hi",
        "adaptive",
        2014,
        3,
        0xf2a337866ec1f14c,
        18113,
        &[233],
    ),
    (
        "wide-cycle-hi",
        "adaptive",
        99,
        0,
        0x0c75de8682a97f78,
        16975,
        &[221],
    ),
    (
        "wide-cycle-hi",
        "hybrid",
        2014,
        3,
        0xf30cc95333e6a341,
        17325,
        &[228],
    ),
    (
        "birth-death",
        "adaptive",
        2014,
        3,
        0x625d2f889a976bf8,
        11501,
        &[1959],
    ),
    (
        "birth-death",
        "adaptive",
        99,
        0,
        0xf761193242342e08,
        11175,
        &[2005],
    ),
    (
        "birth-death",
        "hybrid",
        2014,
        3,
        0xa7a8dec23413940b,
        14293,
        &[1971],
    ),
    (
        "birth-death",
        "hybrid",
        99,
        0,
        0x542bf3cbaac37c34,
        11247,
        &[2045],
    ),
    (
        "catalytic",
        "adaptive",
        2014,
        3,
        0xd7cb96b3c692f881,
        13423,
        &[1058, 1962],
    ),
    (
        "catalytic",
        "adaptive",
        99,
        0,
        0x6fefca131c0ba186,
        15463,
        &[992, 2028],
    ),
    (
        "catalytic",
        "hybrid",
        2014,
        3,
        0x64efc417e3994867,
        13596,
        &[1010, 2010],
    ),
    (
        "catalytic",
        "hybrid",
        99,
        0,
        0x546ccb747c3b75e6,
        12795,
        &[1012, 2008],
    ),
    (
        "neurospora",
        "adaptive",
        2014,
        3,
        0x81756926cba4ae2c,
        14746,
        &[117, 23, 59],
    ),
    (
        "neurospora",
        "adaptive",
        99,
        0,
        0x92b6f7274e252a37,
        14881,
        &[47, 22, 109],
    ),
    (
        "neurospora",
        "hybrid",
        2014,
        3,
        0x10ca89bc7df9c290,
        15025,
        &[129, 16, 61],
    ),
    (
        "neurospora",
        "hybrid",
        99,
        0,
        0x7a7267131b582cdc,
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
