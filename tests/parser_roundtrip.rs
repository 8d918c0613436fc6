//! The model text format is the one way a model is read, so every model
//! must survive it: rendering a term with `Term::display` re-parses to the
//! same tree, every bundled model and every random valid model reads back
//! from `render_model` field for field (and runs the same rows), and
//! mutated model text never panics the parser.

use std::sync::Arc;

use proptest::prelude::*;

use cwc_repro::biomodels;
use cwc_repro::cwc::model::Model;
use cwc_repro::cwc::multiset::Multiset;
use cwc_repro::cwc::term::{Compartment, Term};
use cwc_repro::cwc::{parse_model, render_model};

mod common;
use common::{random_model, Mix};

/// A small species vocabulary the parser can re-intern deterministically.
const SPECIES: [&str; 4] = ["A", "B", "C", "D"];
const LABELS: [&str; 2] = ["cell", "vesicle"];

#[derive(Debug, Clone)]
enum TermSpec {
    Atoms(Vec<(usize, u64)>),
    Nested(Vec<(usize, u64)>, usize, Box<TermSpec>),
}

fn arb_term_spec() -> impl Strategy<Value = TermSpec> {
    let atoms = proptest::collection::vec((0usize..4, 1u64..5), 0..4);
    atoms
        .clone()
        .prop_map(TermSpec::Atoms)
        .prop_recursive(3, 8, 2, move |inner| {
            (
                proptest::collection::vec((0usize..4, 1u64..5), 0..3),
                0usize..2,
                inner,
            )
                .prop_map(|(a, l, t)| TermSpec::Nested(a, l, Box::new(t)))
        })
}

fn build(spec: &TermSpec, model: &mut cwc_repro::cwc::model::Model) -> Term {
    match spec {
        TermSpec::Atoms(pairs) => {
            let ms: Multiset = pairs
                .iter()
                .map(|&(s, n)| (model.species(SPECIES[s]), n))
                .collect();
            Term::from_atoms(ms)
        }
        TermSpec::Nested(pairs, label, inner) => {
            let mut t = Term::new();
            let ms: Multiset = pairs
                .iter()
                .map(|&(s, n)| (model.species(SPECIES[s]), n))
                .collect();
            t.atoms.add_all(&ms);
            let content = build(inner, model);
            let label = model.label(LABELS[*label]);
            t.add_compartment(Compartment::new(label, Multiset::new(), content));
            t
        }
    }
}

proptest! {
    #[test]
    fn display_then_parse_is_identity_modulo_interning(spec in arb_term_spec()) {
        // Build the term in a model that interns names in a fixed order, so
        // the parsed model assigns identical handles.
        let mut model = cwc_repro::cwc::model::Model::new("p");
        for s in SPECIES {
            model.species(s);
        }
        for l in LABELS {
            model.label(l);
        }
        let term = build(&spec, &mut model);
        let rendered = term.display(&model.alphabet);
        if rendered == "<empty>" {
            return Ok(());
        }
        let mut src = String::from("species A B C D\nterm: ");
        src.push_str(&rendered);
        let parsed = parse_model(&src).expect("rendered term must parse");
        // Labels may intern in a different order; compare structurally via
        // a canonical re-rendering in the parsed model's alphabet.
        let reparsed_render = parsed.initial.display(&parsed.alphabet);
        prop_assert_eq!(reparsed_render, rendered);
        prop_assert_eq!(parsed.initial.total_atoms(), term.total_atoms());
        prop_assert_eq!(parsed.initial.total_compartments(), term.total_compartments());
        prop_assert_eq!(parsed.initial.depth(), term.depth());
    }
}

#[test]
fn documented_example_parses_and_simulates() {
    let src = r"
model doc-example
term: A*50 (cell: M | A*5)
rule grow @ 0.4 : A => A A
rule uptake @ 0.05 : A (cell: M |) => [1: | A]
rule spend @ 1.0 in cell : A =>
observe free = A at top
observe inside = A in cell
";
    let model = parse_model(src).unwrap();
    model.validate().unwrap();
    let cfg = cwc_repro::cwcsim::SimConfig::new(4, 2.0)
        .quantum(0.5)
        .sample_period(0.25)
        .sim_workers(2)
        .seed(1);
    let report = cwc_repro::cwcsim::run_simulation(std::sync::Arc::new(model), &cfg).unwrap();
    assert_eq!(report.rows.len(), 9);
    assert_eq!(report.observable_names, vec!["free", "inside"]);
}

/// Asserts that `back` holds every field of `model`: the name, the species
/// and label names in raw order, the rules (compared by their `Debug`
/// form, which prints every `f64` in shortest round-trip form, so equal
/// text is equal bits), the initial term and the observables.
fn assert_same_model(back: &Model, model: &Model) {
    assert_eq!(back.name, model.name);
    assert_eq!(
        back.alphabet.species_names(),
        model.alphabet.species_names()
    );
    assert_eq!(back.alphabet.label_names(), model.alphabet.label_names());
    assert_eq!(back.rules, model.rules, "{}", model.name);
    assert_eq!(format!("{:?}", back.rules), format!("{:?}", model.rules));
    assert_eq!(back.initial, model.initial, "{}", model.name);
    assert_eq!(back.observables, model.observables, "{}", model.name);
}

fn roundtrip(model: &Model) -> Model {
    model.validate().unwrap();
    let text = render_model(model);
    let back = parse_model(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", model.name));
    assert_same_model(&back, model);
    back
}

#[test]
fn every_bundled_model_reads_back_from_its_rendering() {
    for name in biomodels::model_names() {
        roundtrip(&biomodels::model_by_name(name).unwrap());
    }
    let neuro = biomodels::NeurosporaParams {
        omega: 37.0,
        n: 2.5,
        ..Default::default()
    };
    for model in [
        biomodels::neurospora_flat(neuro),
        biomodels::neurospora_compartments(neuro),
        biomodels::cell_transport(biomodels::CellTransportParams::default()),
        biomodels::conversion_cycle(300, 60_000, 1.0),
        biomodels::birth_death(2.0, 0.1, 5),
    ] {
        roundtrip(&model);
    }
}

#[test]
fn neurospora_parsed_from_its_rendering_runs_the_same_rows() {
    let built = biomodels::neurospora_flat(biomodels::NeurosporaParams::default());
    let parsed = roundtrip(&built);
    let cfg = cwc_repro::cwcsim::SimConfig::new(6, 24.0)
        .quantum(2.0)
        .sample_period(1.0)
        .sim_workers(2)
        .seed(17);
    let a = cwc_repro::cwcsim::run_simulation(Arc::new(built), &cfg).unwrap();
    let b = cwc_repro::cwcsim::run_simulation(Arc::new(parsed), &cfg).unwrap();
    assert!(a.events > 0);
    assert_eq!(a.events, b.events);
    assert_eq!(a.rows, b.rows);
}

proptest! {
    #[test]
    fn random_models_read_back_from_their_rendering(seed in any::<u64>()) {
        roundtrip(&random_model(seed));
    }
}

/// Mutates `text` once: a byte changed, a truncation, a token duplicated
/// or two tokens swapped.
fn mutate(r: &mut Mix, text: &str) -> String {
    const BYTES: &[u8] = b"()[]:|!*@#=,.-+ \n\tAZaz09eE'_";
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let tokens = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .split(' ')
            .map(str::to_owned)
            .collect()
    };
    match r.below(5) {
        0 => {
            let at = r.below(bytes.len());
            bytes[at] = BYTES[r.below(BYTES.len())];
        }
        1 => {
            let at = r.below(bytes.len());
            bytes[at] ^= 1 << r.below(8);
        }
        2 => bytes.truncate(r.below(bytes.len())),
        3 => {
            let mut t = tokens(&bytes);
            let at = r.below(t.len());
            t.insert(at, t[at].clone());
            bytes = t.join(" ").into_bytes();
        }
        _ => {
            let mut t = tokens(&bytes);
            let (a, b) = (r.below(t.len()), r.below(t.len()));
            t.swap(a, b);
            bytes = t.join(" ").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The parser's fuzz target, run as a seeded, bounded, deterministic test:
/// mutated renderings of every bundled model never panic the parser, and
/// whatever parses reaches a fixed point after one render/parse cycle.
#[test]
fn mutated_model_text_never_panics_and_reparses_to_a_fixed_point() {
    let mut r = Mix(0x5eed);
    let (mut cases, mut parsed) = (0, 0);
    for name in biomodels::model_names() {
        let text = render_model(&biomodels::model_by_name(name).unwrap());
        for _ in 0..400 {
            let mut x = text.clone();
            for _ in 0..1 + r.below(3) {
                x = mutate(&mut r, &x);
            }
            cases += 1;
            let Ok(model) = parse_model(&x) else { continue };
            parsed += 1;
            let once = render_model(&model);
            let again = parse_model(&once)
                .unwrap_or_else(|e| panic!("{name}: rendering of a parse fails: {e}\n{once}"));
            assert_eq!(render_model(&again), once, "{name}: mutated input\n{x}");
        }
    }
    // Both outcomes are exercised.
    assert!(
        parsed > cases / 10 && parsed < cases,
        "{parsed} of {cases} parsed"
    );
}
