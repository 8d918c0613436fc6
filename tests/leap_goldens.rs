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

use cwc_repro::biomodels::{
    conversion_cycle, lotka_volterra, schlogl, LotkaVolterraParams, SchloglParams,
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
/// leaps.
fn model_by_name(name: &str) -> Arc<Model> {
    match name {
        "schlogl" => Arc::new(schlogl(SchloglParams::default())),
        "lotka-volterra" => Arc::new(lotka_volterra(LotkaVolterraParams::default())),
        "wide-cycle-lo" => Arc::new(conversion_cycle(48, 240, 1.0)),
        "wide-cycle-hi" => Arc::new(conversion_cycle(40, 8_000, 1.0)),
        other => panic!("unknown golden model {other}"),
    }
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
/// `d87ece0`); regenerate with the ignored `record` test below.
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
