//! Property-based tests (proptest) on the core data structures and
//! invariants: multiset algebra, tree matching vs brute force, rewrite
//! well-formedness, wire codec round-trips, alignment and windowing laws,
//! and the stochastic-engine contracts (adaptive tau-leap non-negativity,
//! slicing invariance of the direct method and the leaping engines).

use proptest::prelude::*;
use std::sync::Arc;

use cwc_repro::biomodels::CellTransportParams;
use cwc_repro::gillespie::engine::EngineKind;
use cwc_repro::gillespie::{AdaptiveTauEngine, SampleClock};

use cwc_repro::cwc::matching::{apply_at, assignments, match_count};
use cwc_repro::cwc::multiset::{binomial, Multiset};
use cwc_repro::cwc::rule::{Pattern, Production, RateLaw, Rule};
use cwc_repro::cwc::species::{Label, Species};
use cwc_repro::cwc::term::{Compartment, Path, Term};
use cwc_repro::cwcsim::task::SampleBatch;
use cwc_repro::distrt::{from_bytes, to_bytes};
use cwc_repro::streamstat::welford::Running;

fn arb_multiset() -> impl Strategy<Value = Multiset> {
    proptest::collection::vec((0u32..6, 0u64..8), 0..6).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(s, n)| (Species::from_raw(s), n))
            .collect()
    })
}

proptest! {
    #[test]
    fn multiset_add_then_remove_is_identity(a in arb_multiset(), b in arb_multiset()) {
        let mut m = a.clone();
        m.add_all(&b);
        prop_assert!(m.contains(&b));
        m.remove_all(&b).unwrap();
        prop_assert_eq!(m, a);
    }

    #[test]
    fn multiset_len_is_additive(a in arb_multiset(), b in arb_multiset()) {
        let mut m = a.clone();
        m.add_all(&b);
        prop_assert_eq!(m.len(), a.len() + b.len());
    }

    #[test]
    fn selection_count_zero_iff_not_contained(a in arb_multiset(), b in arb_multiset()) {
        let count = a.selection_count(&b);
        prop_assert_eq!(count > 0, a.contains(&b));
    }

    #[test]
    fn binomial_pascal_identity(n in 1u64..40, k in 0u64..40) {
        // C(n,k) = C(n-1,k-1) + C(n-1,k)
        let lhs = binomial(n, k);
        let rhs = if k == 0 { 1 } else { binomial(n - 1, k - 1) + binomial(n - 1, k) };
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn flat_match_count_equals_binomial_product(state in arb_multiset(), pat in arb_multiset()) {
        let term = Term::from_atoms(state.clone());
        let pattern = Pattern::atoms(pat.clone());
        let expected: u64 = pat
            .iter()
            .map(|(s, k)| binomial(state.count(s), k))
            .product();
        prop_assert_eq!(match_count(&term, &pattern), expected);
    }

    #[test]
    fn flat_rewrite_preserves_untouched_species(
        state in arb_multiset(),
        lhs in arb_multiset(),
        rhs in arb_multiset(),
    ) {
        let mut term = Term::from_atoms(state.clone());
        let rule = Rule {
            name: "prop".into(),
            site: Label::TOP,
            lhs: Pattern::atoms(lhs.clone()),
            rhs: Production::atoms(rhs.clone()),
            rate: 1.0,
            law: RateLaw::MassAction,
        };
        let applicable = state.contains(&lhs);
        let result = apply_at(&mut term, &rule, &Path::root(), &[]);
        prop_assert_eq!(result.is_ok(), applicable);
        if applicable {
            // Conservation: out = in - lhs + rhs, per species.
            for s in (0..6).map(Species::from_raw) {
                let expected = state.count(s) - lhs.count(s) + rhs.count(s);
                prop_assert_eq!(term.atoms.count(s), expected);
            }
        } else {
            prop_assert_eq!(&term.atoms, &state); // untouched on failure
        }
    }

    #[test]
    fn comp_match_count_equals_assignment_weights(
        cells in proptest::collection::vec((arb_multiset(), arb_multiset()), 0..5),
        wrap_pat in arb_multiset(),
        atom_pat in arb_multiset(),
    ) {
        let mut term = Term::new();
        for (wrap, atoms) in &cells {
            term.add_compartment(Compartment::new(
                Label::from_raw(0),
                wrap.clone(),
                Term::from_atoms(atoms.clone()),
            ));
        }
        let pattern = Pattern {
            atoms: Multiset::new(),
            comps: vec![cwc_repro::cwc::rule::CompPattern {
                label: Label::from_raw(0),
                wrap: wrap_pat.clone(),
                atoms: atom_pat.clone(),
            }],
        };
        // match_count must equal the sum over per-cell selection products —
        // the brute-force definition.
        let brute: u64 = cells
            .iter()
            .map(|(w, a)| w.selection_count(&wrap_pat) * a.selection_count(&atom_pat))
            .sum();
        prop_assert_eq!(match_count(&term, &pattern), brute);
        let total_weight: u64 = assignments(&term, &pattern).iter().map(|(_, w)| *w).sum();
        prop_assert_eq!(total_weight, brute);
    }

    #[test]
    fn wire_roundtrip_arbitrary_batches(
        instance in any::<u64>(),
        events in any::<u64>(),
        finished in any::<bool>(),
        samples in proptest::collection::vec(
            (0.0f64..1e6, proptest::collection::vec(any::<u64>(), 0..5)),
            0..20
        ),
    ) {
        let batch = SampleBatch { instance, samples, events, finished };
        let bytes = to_bytes(&batch);
        let back: SampleBatch = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn wire_never_panics_on_corrupted_input(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<u8>(),
    ) {
        // Arbitrary bytes: decoding must fail gracefully, never panic.
        let _ = from_bytes::<SampleBatch>(&bytes);
        // Corrupt a valid message.
        let valid = to_bytes(&SampleBatch {
            instance: 1,
            samples: vec![(1.0, vec![2, 3])],
            events: 4,
            finished: false,
        });
        bytes = valid;
        if !bytes.is_empty() {
            let idx = flip as usize % bytes.len();
            bytes[idx] ^= 0x5A;
            let _ = from_bytes::<SampleBatch>(&bytes); // no panic
        }
    }

    #[test]
    fn welford_merge_is_associative_enough(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let whole: Running = xs.iter().copied().collect();
        let mut merged: Running = xs[..split].iter().copied().collect();
        let right: Running = xs[split..].iter().copied().collect();
        merged.merge(&right);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((merged.population_variance() - whole.population_variance()).abs() < 1e-6);
    }

    #[test]
    fn ssa_decay_step_count_equals_initial_population(n0 in 1u64..60, seed in any::<u64>()) {
        let model = Arc::new(cwc_repro::biomodels::simple::decay(n0, 1.0));
        let mut e = EngineKind::Ssa.build(model, seed, 0).expect("ssa builds");
        let fired = e.run_until(1e9);
        prop_assert_eq!(fired, n0);
    }

    #[test]
    fn adaptive_tau_trajectories_are_slicing_invariant(
        n0 in 1u64..400,
        birth in 5.0f64..300.0,
        epsilon in 0.01f64..0.2,
        cut in 0.05f64..3.95,
        seed in any::<u64>(),
    ) {
        // The adaptive engine's transition schedule (leaps, critical
        // firings and SSA fallbacks alike) must not move when a quantum
        // boundary lands at an arbitrary point: pending transitions are
        // held, never re-drawn.
        let model = Arc::new(cwc_repro::biomodels::simple::birth_death(birth, 1.0, n0));
        let mut whole = AdaptiveTauEngine::new(Arc::clone(&model), seed, 1)
            .expect("flat model")
            .with_epsilon(epsilon);
        let mut wc = SampleClock::new(0.0, 0.25);
        let mut ws = Vec::new();
        whole.run_sampled(4.0, &mut wc, |t, v| ws.push((t, v.to_vec())));

        let mut sliced = AdaptiveTauEngine::new(model, seed, 1)
            .expect("flat model")
            .with_epsilon(epsilon);
        let mut sc = SampleClock::new(0.0, 0.25);
        let mut ss = Vec::new();
        sliced.run_sampled(cut, &mut sc, |t, v| ss.push((t, v.to_vec())));
        sliced.run_sampled(4.0, &mut sc, |t, v| ss.push((t, v.to_vec())));

        prop_assert_eq!(ws, ss);
        prop_assert_eq!(whole.counts(), sliced.counts());
        prop_assert_eq!(whole.firings(), sliced.firings());
        prop_assert_eq!(whole.leaps(), sliced.leaps());
        prop_assert_eq!(whole.exact_steps(), sliced.exact_steps());
        prop_assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn adaptive_tau_never_produces_negative_species_counts(
        n0 in 0u64..60,
        birth in 0.5f64..50.0,
        death in 0.1f64..10.0,
        epsilon in 0.01f64..0.5,
        seed in any::<u64>(),
    ) {
        // Small populations hammer the critical-reaction partition and
        // the negativity-halving redraw; the committed state must stay a
        // valid species-count vector at every quantum boundary.
        let model = Arc::new(cwc_repro::biomodels::simple::birth_death(birth, death, n0));
        let mut e = AdaptiveTauEngine::new(model, seed, 0)
            .expect("flat model")
            .with_epsilon(epsilon);
        let mut clock = SampleClock::new(0.0, 0.5);
        for k in 1..=8 {
            e.run_sampled(k as f64 * 0.5, &mut clock, |_, values| {
                assert!(values[0] < u64::MAX / 2);
            });
            prop_assert!(
                e.counts().iter().all(|&c| c >= 0),
                "negative state {:?} (epsilon {epsilon})",
                e.counts()
            );
        }
    }

    #[test]
    fn ssa_trajectories_are_slicing_invariant(
        n0 in 1u64..60,
        birth in 1.0f64..40.0,
        nutrient0 in 0u64..200,
        cells0 in 1usize..4,
        mut cuts in proptest::collection::vec(0.0f64..4.0, 1..6),
        seed in any::<u64>(),
    ) {
        // The direct method holds its drawn-but-unfired event across
        // arbitrary quantum boundaries on both cores: a multi-channel flat
        // model (dense core) and a small compartment model (tree core).
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let flat = cwc_repro::biomodels::simple::birth_death(birth, 1.0, n0);
        let comp = cwc_repro::biomodels::cell_transport(CellTransportParams {
            nutrient0,
            cells0,
            ..CellTransportParams::default()
        });
        for model in [flat, comp] {
            let model = Arc::new(model);
            let run = |bounds: &[f64]| {
                let mut e = EngineKind::Ssa
                    .build(Arc::clone(&model), seed, 1)
                    .expect("ssa builds");
                let mut clock = SampleClock::new(0.0, 0.25);
                let mut samples = Vec::new();
                let mut fired = 0;
                for &t in bounds.iter().chain(&[4.0]) {
                    fired += e.run_sampled(t, &mut clock, |t, v| samples.push((t, v.to_vec())));
                }
                (samples, fired, e.events(), e.time(), e.term())
            };
            prop_assert_eq!(run(&[]), run(&cuts));
        }
    }
}
