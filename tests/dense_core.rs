//! The exact tier's two cores agree: on a flat model the dense core (count
//! vector + one propensity row, what `SsaEngine` steps on when every rule
//! is compartment-free and top-level) is bit-for-bit the tree core (term,
//! tree matcher, `ReactionTable`), reached here through the diagnostic
//! constructor `SsaEngine::with_tree_core`.
//!
//! Random flat models cover what the dense core has to replay exactly:
//! all four kinetic laws, zero-rate rules (which own no slot), catalysts
//! with a net-zero delta, reactant multiplicities 2 and 3, inert
//! compartments in the initial term (constant observable offsets, and
//! they must reappear in `term()`), observables on every site kind, and
//! states that absorb. Each pair is driven through an irregular quantum
//! slicing and compared on samples, events, `time`, the bits of
//! `total_propensity()` and `term()`; then once more step by step.
//!
//! CI runs this under both kernel dispatches (the `CWC_FORCE_SCALAR_KERNELS`
//! leg), so the shared row's scalar and AVX2 kernels both face the tree
//! reference.

use proptest::prelude::*;
use std::sync::Arc;

use cwc_repro::cwc::model::{Model, ObservableSite};
use cwc_repro::cwc::multiset::Multiset;
use cwc_repro::cwc::species::Label;
use cwc_repro::cwc::term::{Compartment, Term};
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::ssa::{SampleClock, SsaEngine, StepOutcome};

const SPECIES: u64 = 4;

/// One random rule: `(reactants, products, catalyst, rate pick, law)`
/// with reactants/products as `(species, multiplicity)` lists and the law
/// as `(kind, species, k-ish, n-ish)`.
type RuleSpec = (
    Vec<(u64, u64)>,
    Vec<(u64, u64)>,
    bool,
    u64,
    (u64, u64, f64, f64),
);

fn arb_rule() -> impl Strategy<Value = RuleSpec> {
    (
        proptest::collection::vec((0..SPECIES, 1u64..=3), 0..3),
        proptest::collection::vec((0..SPECIES, 1u64..=2), 0..3),
        any::<bool>(),
        0u64..6,
        (0u64..4, 0..SPECIES, 0.5f64..30.0, 0.5f64..3.0),
    )
}

fn name(s: u64) -> String {
    format!("S{s}")
}

/// Builds the model. Rules of order ≥ 2 never create net molecules, so a
/// population grows at most exponentially and every run stays small.
fn build_model(rules: &[RuleSpec], initial: &[u64], inert: &[u64]) -> Model {
    let mut m = Model::new("random-flat");
    let species: Vec<_> = (0..SPECIES).map(|s| m.species(&name(s))).collect();
    for (i, (reactants, products, catalyst, rate_pick, law)) in rules.iter().enumerate() {
        let order: u64 = reactants.iter().map(|&(_, k)| k).sum();
        let mut b = m.rule(&format!("r{i}"));
        for &(s, k) in reactants {
            b = b.consumes(&name(s), k);
        }
        let mut budget = if order >= 2 { order } else { u64::MAX };
        if *catalyst {
            // The reactants come back: a net-zero delta on each of them.
            for &(s, k) in reactants {
                b = b.produces(&name(s), k);
            }
            budget = 0;
        }
        for &(s, k) in products {
            let k = k.min(budget);
            if k > 0 {
                b = b.produces(&name(s), k);
                budget = budget.saturating_sub(k);
            }
        }
        // One rule in six has rate zero: it must stay out of the row.
        b = b.rate([0.0, 0.3, 1.0, 2.0, 0.05, 1.5][*rate_pick as usize]);
        let (kind, s, k, n) = *law;
        b = match kind {
            1 => b.repressed_by(&name(s), k, n),
            2 => b.activated_by(&name(s), k, n),
            3 => b.saturating_on(&name(s), k),
            _ => b,
        };
        b.build().expect("generated rule is valid");
    }
    for (s, &n) in initial.iter().enumerate() {
        m.initial.add_atoms(species[s], n);
    }
    let cell = m.label("cell");
    if inert.iter().any(|&n| n > 0) {
        let content: Multiset = inert
            .iter()
            .enumerate()
            .map(|(s, &n)| (species[s], n))
            .collect();
        let wrap = Multiset::from([(species[0], 1)]);
        let mut inner = Term::from_atoms(content.clone());
        inner.add_compartment(Compartment::new(
            cell,
            Multiset::new(),
            Term::from_atoms(content),
        ));
        m.initial
            .add_compartment(Compartment::new(cell, wrap, inner));
    }
    for (s, &sp) in species.iter().enumerate() {
        m.observe(&name(s as u64), sp);
    }
    m.observe_at("top0", species[0], ObservableSite::TopOnly);
    m.observe_at("cell1", species[1], ObservableSite::AtLabel(cell));
    m.observe_at("root2", species[2], ObservableSite::AtLabel(Label::TOP));
    m
}

proptest! {
    #[test]
    fn dense_core_equals_tree_core_on_random_flat_models(
        rules in proptest::collection::vec(arb_rule(), 1..8),
        initial in proptest::collection::vec(0u64..25, SPECIES as usize),
        inert in proptest::collection::vec(0u64..4, SPECIES as usize),
        slices in proptest::collection::vec(0.01f64..0.4, 1..7),
        period in 0.02f64..0.3,
        seed in any::<u64>(),
    ) {
        let model = Arc::new(build_model(&rules, &initial, &inert));
        let deps = Arc::new(ModelDeps::compile(&model));
        let mut dense = SsaEngine::with_deps(Arc::clone(&model), Arc::clone(&deps), seed, 5);
        let mut tree = SsaEngine::with_tree_core(Arc::clone(&model), deps, seed, 5);
        prop_assert_eq!(dense.term(), model.initial.clone());
        prop_assert_eq!(dense.cached_reactions(), tree.cached_reactions());
        prop_assert_eq!(dense.reactions(), tree.reactions());

        let (mut dc, mut tc) = (SampleClock::new(0.0, period), SampleClock::new(0.0, period));
        let mut t = 0.0;
        for dt in slices {
            t += dt;
            let (mut ds, mut ts) = (Vec::new(), Vec::new());
            let dense_fired = dense.run_sampled(t, &mut dc, |at, v| ds.push((at, v.to_vec())));
            let tree_fired = tree.run_sampled(t, &mut tc, |at, v| ts.push((at, v.to_vec())));
            prop_assert_eq!(ds, ts);
            prop_assert_eq!(dense_fired, tree_fired);
            prop_assert_eq!(dense.steps(), tree.steps());
            prop_assert_eq!(dense.time(), tree.time());
            prop_assert_eq!(
                dense.total_propensity().to_bits(),
                tree.total_propensity().to_bits()
            );
            prop_assert_eq!(dense.cached_reactions(), tree.cached_reactions());
            prop_assert_eq!(dense.term(), tree.term());
            prop_assert_eq!(dense.observe(), model.eval_observables(&tree.term()));
        }
        // Free-running steps: same rule, site, waiting time — or both
        // absorbed.
        for _ in 0..40 {
            let (d, t) = (dense.step(), tree.step());
            prop_assert_eq!(d, t);
            prop_assert_eq!(
                dense.total_propensity().to_bits(),
                tree.total_propensity().to_bits()
            );
            if d == StepOutcome::Exhausted {
                break;
            }
        }
        prop_assert_eq!(dense.term(), tree.term());
    }
}
