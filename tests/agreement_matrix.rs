//! The agreement matrix: every runner reproduces the sequential oracle,
//! `run_sequential`, bit for bit (rows, event count, observable names,
//! `RunSummary`) whatever the model and configuration.
//!
//! Pinned cases are the bundled models under fixed configurations
//! (`common::matrix::pinned`; the named groups there run in the suite
//! tests that name them). Random cases draw a model as model text and a
//! configuration (see `Case::random`). Every case checks the farm and
//! in-process shards against the oracle, and the oracle's rows against
//! the τ grid and the configured stat engines; a subset covering every
//! engine kind also runs `cwc-shard` child processes, and terminates runs
//! at a drawn instant, which must leave a prefix of the full run. Seeds
//! and case count are fixed; a tally checked at the end asserts the
//! coverage of these cases and the named groups together, so nothing is
//! covered by luck. A failing case prints its seed, configuration and
//! model text, and `Case::random(seed)` replays it.

use std::sync::Arc;

use cwc_repro::cwc::model::ObservableSite;
use cwc_repro::cwc::parse_model;
use cwc_repro::cwc::rule::RateLaw;
use cwc_repro::cwcsim::{EngineKind, SimConfig, StatEngineKind};
use cwc_repro::gillespie::KernelDispatch::{Auto, Scalar, Simd};

mod common;
use common::matrix::{check_all, named_groups, pinned, stat_engines, Case, Tally};
use common::{engine_kinds, Mix};

/// Random cases, seeded `0..RANDOM_CASES`.
const RANDOM_CASES: u64 = 64;

/// What the tally must show besides every runner on every engine kind.
const REQUIRED: &str = "law mass-action, law hill-repress, law hill-activate, \
    law saturating, zero-rate rule, catalyst, site everywhere, site top, site label, \
    more than four observables, sample_period > quantum, sample_period < quantum, \
    channel_capacity 1, shards > instances, dispatch auto, dispatch scalar, dispatch simd, \
    terminated before start, compartment model/ssa, compartment model/batched, \
    inert compartments/ssa, inert compartments/batched";

impl Case {
    /// The random case of `seed`: a `random_model_text` model (inert
    /// compartments on the exact kinds only) under a drawn configuration —
    /// Q/τ either way round, window geometry, 1–4 sim and 1–3 stat
    /// workers, channel capacity 1–4, up to instances + 1 shards, a stat
    /// engine subset, the kernel dispatch. Its engine kind is `seed % 4`'s;
    /// in every run of 32 seeds the first four also run child processes
    /// and terminate a run.
    fn random(seed: u64) -> Self {
        let mut r = Mix(seed);
        let engine = match seed % 4 {
            0 => EngineKind::Ssa,
            1 => EngineKind::AdaptiveTau {
                epsilon: r.pick(&[0.02, 0.05, 0.2]),
            },
            2 => EngineKind::Hybrid {
                epsilon: r.pick(&[0.02, 0.05, 0.2]),
                threshold: r.pick(&[1.0, 8.0, 50.0]),
            },
            _ => EngineKind::Batched {
                width: 1 + r.below(5),
            },
        };
        let exact = matches!(engine, EngineKind::Ssa | EngineKind::Batched { .. });
        let inert = exact && r.below(2) == 0;
        let text = random_model_text(&mut r, seed, inert);
        let model = parse_model(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        let instances = 1 + r.below(8) as u64;
        let width = 1 + r.below(6);
        let k = 1 + r.below(3.min(instances as usize));
        let p = r.pick(&[0.1, 0.5, 0.9, 0.999]);
        let (hi, bins) = (r.pick(&[10.0, 50.0]), 1 + r.below(12));
        let mut engines = stat_engines(k, p, hi, bins);
        engines.retain(|_| r.below(2) == 0);
        if engines.is_empty() {
            engines.push(StatEngineKind::MeanVariance);
        }
        let cfg = SimConfig::new(instances, r.pick(&[1.0, 1.5, 2.0]))
            .engine(engine)
            .quantum(r.pick(&[0.2, 0.3, 0.5, 1.0, 2.0]))
            .sample_period(r.pick(&[0.1, 0.25, 0.5, 1.0]))
            .window(width, 1 + r.below(width))
            .sim_workers(1 + r.below(4))
            .stat_workers(1 + r.below(3))
            .channel_capacity(1 + r.below(4))
            .engines(engines)
            .kernel_dispatch(r.pick(&[Auto, Scalar, Simd]))
            .seed(r.next());
        let out_of_process = seed % 32 < 4;
        // Child processes only where there is something to split.
        let shards = match out_of_process {
            true => 2 + r.below(instances as usize),
            false => 1 + r.below(instances as usize + 1),
        };
        Case {
            text,
            model: Arc::new(model),
            cfg,
            shards: vec![shards],
            processes: vec![shards; usize::from(out_of_process)],
            terminate_ms: out_of_process.then(|| r.pick(&[0, 1, 2, 4, 8])),
        }
    }
}

/// A random flat model as model text: up to four species, up to six
/// top-level rules (every kinetic law, catalysts, zero rates), up to
/// seven observables at every site kind and, when `inert`, compartments
/// in the initial term that no rule touches. Rates stay small, so runs
/// stay short.
fn random_model_text(r: &mut Mix, seed: u64, inert: bool) -> String {
    let ns = 1 + r.below(4);
    let species = |r: &mut Mix| format!("S{}", r.below(ns));
    let atoms = |r: &mut Mix| {
        let atoms: Vec<String> = (0..r.below(3)).map(|_| species(r)).collect();
        atoms.join(" ")
    };
    let names: Vec<String> = (0..ns).map(|i| format!("S{i}")).collect();
    let species_line = names.join(" ");
    let mut text = format!("model random {seed}\nspecies {species_line}\nlabels L0 L1\nterm:");
    for name in &names {
        match r.below(13) {
            0 => {}
            n => text += &format!(" {name}*{n}"),
        }
    }
    for _ in 0..if inert { 1 + r.below(2) } else { 0 } {
        let nested = match r.below(2) {
            0 => String::new(),
            _ => format!(" (L{}: {} | {})", r.below(2), atoms(r), atoms(r)),
        };
        let (label, wrap, content) = (r.below(2), atoms(r), atoms(r));
        text += &format!(" (L{label}: {wrap} | {content}{nested})");
    }
    text.push('\n');
    for i in 0..1 + r.below(6) {
        let lhs = atoms(r);
        let mut rhs = atoms(r);
        if lhs.is_empty() && rhs.is_empty() {
            rhs = species(r);
        }
        if r.below(3) == 0 {
            // A catalyst: a reactant that every firing gives back.
            if let Some(c) = lhs.split(' ').next().filter(|c| !c.is_empty()) {
                rhs = format!("{c} {rhs}");
            }
        }
        // Net producers are slow, so no count grows past a few dozen.
        let grows = rhs.split_whitespace().count() > lhs.split_whitespace().count();
        let rate = match grows {
            true => r.pick(&[0.0, 0.05, 0.3]),
            false => r.pick(&[0.0, 0.05, 0.3, 1.0, 2.0]),
        };
        let law = match r.below(4) {
            0 => String::new(),
            1 | 2 => format!(
                " hill-{}({}, {:?}, {:?})",
                ["repress", "activate"][r.below(2)],
                species(r),
                r.pick(&[2.0, 10.0]),
                r.pick(&[1.0, 2.5, 4.0])
            ),
            _ => format!(" saturating({}, {:?})", species(r), r.pick(&[1.0, 10.0])),
        };
        text += &format!("rule r{i} @ {rate:?}{law} : {lhs} => {rhs}\n");
    }
    for i in 0..1 + r.below(7) {
        let site = r.pick(&["", " at top", " in L0", " in L1"]);
        text += &format!("observe o{i} = {}{site}\n", species(r));
    }
    text
}

/// Tags the model features and configuration knobs `case` exercises.
fn tally_features(case: &Case, tally: &mut Tally) {
    let (m, cfg, kind) = (&case.model, &case.cfg, case.cfg.engine.name());
    for rule in &m.rules {
        tally.add(match rule.law {
            RateLaw::MassAction => "law mass-action",
            RateLaw::HillRepression { .. } => "law hill-repress",
            RateLaw::HillActivation { .. } => "law hill-activate",
            RateLaw::Saturating { .. } => "law saturating",
        });
        tally.when(rule.rate == 0.0, "zero-rate rule");
        let gives_back = |(s, _)| rule.rhs.atoms.count(s) > 0;
        tally.when(rule.lhs.atoms.iter().any(gives_back), "catalyst");
    }
    for o in &m.observables {
        tally.add(match o.site {
            ObservableSite::Everywhere => "site everywhere",
            ObservableSite::TopOnly => "site top",
            ObservableSite::AtLabel(_) => "site label",
        });
    }
    let active = (m.rules.iter())
        .any(|r| !r.site.is_top() || !r.lhs.comps.is_empty() || !r.rhs.comps.is_empty());
    let inert = !active && m.initial.total_compartments() > 0;
    tally.when(active, format!("compartment model/{kind}"));
    tally.when(inert, format!("inert compartments/{kind}"));
    tally.when(m.observables.len() > 4, "more than four observables");
    tally.when(cfg.sample_period > cfg.quantum, "sample_period > quantum");
    tally.when(cfg.sample_period < cfg.quantum, "sample_period < quantum");
    tally.when(cfg.channel_capacity == 1, "channel_capacity 1");
    let mut shards = case.shards.iter().chain(&case.processes);
    tally.when(
        shards.any(|&s| s as u64 > cfg.instances),
        "shards > instances",
    );
    tally.add(format!("dispatch {}", cfg.kernel_dispatch));
}

#[test]
fn every_runner_agrees_with_the_sequential_oracle() {
    let random = (0..RANDOM_CASES).map(Case::random);
    let cases: Vec<Case> = pinned().into_iter().chain(random).collect();
    check_all(&cases);
    let mut tally = Tally::default();
    for case in cases.iter().chain(&named_groups()) {
        tally.runners(case);
        tally_features(case, &mut tally);
        tally.when(case.model.name.starts_with("random "), "random model");
    }

    let runners = ["farm", "in-process", "processes", "terminated"];
    let per_kind = runners.map(|r| engine_kinds().map(|k| format!("{r}/{}", k.name())));
    let required = REQUIRED.split(", ").map(String::from);
    let missing: Vec<String> = (required.chain(per_kind.into_iter().flatten()))
        .filter(|tag| !tally.0.contains_key(tag))
        .collect();
    let tally = tally.0;
    assert!(missing.is_empty(), "not covered: {missing:?}\n{tally:?}");
    let random = tally.get("random model").copied().unwrap_or(0);
    assert!(random >= 64, "{random} random models\n{tally:?}");
}
