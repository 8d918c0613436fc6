//! Property-based tests (proptest) on the core data structures and
//! invariants: multiset algebra, tree matching vs brute force, rewrite
//! well-formedness, wire codec round-trips, alignment and windowing laws,
//! the stochastic-engine contracts (adaptive tau-leap non-negativity,
//! slicing invariance of the direct method and the leaping kinds), and the
//! cluster DES's lower bounds and message counts.

use proptest::prelude::*;
use std::sync::Arc;

use cwc_repro::biomodels::CellTransportParams;
use cwc_repro::gillespie::engine::{Engine, EngineKind};
use cwc_repro::gillespie::{AdaptiveTauEngine, Row, SampleClock};

use cwc_repro::cwc::matching::{apply_at, assignments, match_count};
use cwc_repro::cwc::multiset::{binomial, Multiset};
use cwc_repro::cwc::rule::{Pattern, Production, RateLaw, Rule};
use cwc_repro::cwc::species::{Label, Species};
use cwc_repro::cwc::term::{Compartment, Path, Term};
use cwc_repro::cwcsim::task::SampleBatch;
use cwc_repro::cwcsim::{ShardPlan, ShardSpec, SimConfig};
use cwc_repro::distrt::shard::{ShardJob, ToCoordinator, ToShard};
use cwc_repro::distrt::{
    from_bytes, simulate_cluster, to_bytes, ClusterParams, HostProfile, NetworkProfile, Wire,
    WorkerHello, WorkloadTrace,
};
use cwc_repro::gillespie::deps::ModelDeps;
use cwc_repro::gillespie::trajectory::Cut;
use cwc_repro::streamstat::welford::Running;

fn arb_multiset() -> impl Strategy<Value = Multiset> {
    proptest::collection::vec((0u32..6, 0u64..8), 0..6).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(s, n)| (Species::from_raw(s), n))
            .collect()
    })
}

/// Decodes bytes as one message type, discarding the result.
type Decode = fn(&[u8]);

/// `message`'s valid encoding, with the decoder of its type.
fn encoded<T: Wire>(message: &T) -> (Vec<u8>, Decode) {
    (to_bytes(message), |b| drop(from_bytes::<T>(b)))
}

/// Every message that crosses a shard socket, encoded.
fn socket_messages() -> Vec<(Vec<u8>, Decode)> {
    // A job as the coordinator sends it: model text, spec and shipped deps.
    let model = cwc_repro::biomodels::simple::birth_death(5.0, 1.0, 3);
    let job = ShardJob {
        deps: Some(ModelDeps::compile(&model)),
        spec: ShardSpec::from_config(&SimConfig::new(4, 1.0), ShardPlan::new(4, 2).ranges()[1]),
        model,
    };
    // One inline row and one spilled (wider than four values).
    let cut = Cut {
        time: 0.5,
        values: vec![
            Row::from_slice(&[1, 2]),
            Row::from_slice(&[3, 4, 5, 6, 7, 8]),
        ],
    };
    vec![
        encoded(&ToCoordinator::Cut(cut)),
        encoded(&ToCoordinator::End { events: 7 }),
        encoded(&ToCoordinator::Error("model failed".into())),
        encoded(&ToCoordinator::Progress { cuts: 3 }),
        encoded(&ToShard::Job(Box::new(job))),
        encoded(&ToShard::Terminate),
        encoded(&WorkerHello::current(4)),
    ]
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
            (0.0f64..1e6, proptest::collection::vec(any::<u64>(), 0..7)),
            0..20
        ),
    ) {
        // Rows of 0..=6 values: inline rows and spilled ones.
        let samples = samples.iter().map(|(t, v)| (*t, Row::from_slice(v))).collect();
        let batch = SampleBatch { instance, samples, events, finished };
        let bytes = to_bytes(&batch);
        let back: SampleBatch = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn wire_never_panics_on_corrupted_input(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<u8>(),
        at in any::<usize>(),
        keep in any::<usize>(),
    ) {
        // Arbitrary bytes: decoding must fail gracefully, never panic.
        let _ = from_bytes::<SampleBatch>(&bytes);
        // Corrupt a valid message.
        let valid = to_bytes(&SampleBatch {
            instance: 1,
            samples: vec![(1.0, Row::from_slice(&[2, 3]))],
            events: 4,
            finished: false,
        });
        bytes = valid;
        if !bytes.is_empty() {
            let idx = flip as usize % bytes.len();
            bytes[idx] ^= 0x5A;
            let _ = from_bytes::<SampleBatch>(&bytes); // no panic
        }
        // The same for every frame that crosses a socket: one byte
        // flipped, and the message cut short.
        for (valid, decode) in socket_messages() {
            let mut flipped = valid.clone();
            flipped[at % valid.len()] ^= 0x5A;
            decode(&flipped);
            decode(&valid[..keep % valid.len()]);
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
        threshold in 1.0f64..32.0,
    ) {
        // Neither leaping kind's transition schedule may move when a
        // quantum boundary lands at an arbitrary point: adaptive's leaps,
        // critical firings and SSA fallbacks alike, and the hybrid's
        // switch points, which are tied to reaction counts, not horizons.
        // Pending transitions are held, never re-drawn.
        let model = Arc::new(cwc_repro::biomodels::simple::birth_death(birth, 1.0, n0));
        for kind in [
            EngineKind::AdaptiveTau { epsilon },
            EngineKind::Hybrid { epsilon, threshold },
        ] {
            let run = |quanta: &[f64]| {
                let mut engine = kind.build(Arc::clone(&model), seed, 1).expect("flat model");
                let mut clock = SampleClock::new(0.0, 0.25);
                let mut samples = Vec::new();
                for &t in quanta {
                    engine.run_sampled(t, &mut clock, |t, v| samples.push((t, v.to_vec())));
                }
                (engine, samples)
            };
            let (whole, ws) = run(&[4.0]);
            let (sliced, ss) = run(&[cut, 4.0]);
            prop_assert_eq!(ws, ss);
            prop_assert_eq!(whole.events(), sliced.events());
            prop_assert_eq!(whole.time(), sliced.time());
            match (&whole, &sliced) {
                (Engine::AdaptiveTau(w), Engine::AdaptiveTau(s)) => {
                    prop_assert_eq!(w.counts(), s.counts());
                    prop_assert_eq!(w.leaps(), s.leaps());
                    prop_assert_eq!(w.exact_steps(), s.exact_steps());
                }
                (Engine::Ssa(w), Engine::Ssa(s)) => {
                    prop_assert_eq!(w.term(), s.term());
                    prop_assert_eq!(w.leaps(), s.leaps());
                    prop_assert_eq!(w.steps(), s.steps());
                    prop_assert_eq!(w.switches(), s.switches());
                }
                _ => unreachable!("{kind} built an engine of another kind"),
            }
        }
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
            // A negative count that escaped the leap's check would wrap.
            prop_assert!(
                e.counts().iter().all(|&c| c < u64::MAX / 2),
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

    #[test]
    fn cluster_makespans_respect_their_lower_bounds_and_counts(
        (instances, quanta, samples, values, bytes) in
            (1u64..=12, 1usize..=6, 1u64..=40, 1usize..=6, 64.0f64..1e6),
        events in proptest::collection::vec(0u64..5_000, 72),
        hosts in proptest::collection::vec((0usize..4, 1usize..=8), 1..=4),
        (gigabit, stat_engines, pool) in (any::<bool>(), 1usize..=4, 0usize..=8),
    ) {
        // The cluster DES on random small traces and deployments: the
        // makespan is at least every resource's lower bound, and the
        // stream carries one batch per instance and quantum and yields
        // one cut per sample. Monotonicity is not asserted: more
        // bandwidth, less latency or faster cores can lengthen a run
        // (CHANGES.md's FOUND on `simulate_cluster` monotonicity gives a
        // reproducing case).
        let trace = WorkloadTrace {
            events: events
                .chunks(12)
                .take(quanta)
                .map(|row| row[..instances as usize].to_vec())
                .collect(),
            mean_batch_bytes: bytes,
            samples_per_instance: samples,
            instances,
            quanta,
            values_per_sample: values,
        };
        let presets = [
            HostProfile::nehalem32(),
            HostProfile::sandy_bridge16(),
            HostProfile::xeon12(),
            HostProfile::ec2_quad(),
        ];
        let hosts = hosts
            .iter()
            .map(|&(preset, cores)| {
                let host = presets[preset].clone();
                let cores = cores.min(host.cores);
                host.with_cores(cores)
            })
            .collect();
        let network = if gigabit {
            NetworkProfile::gigabit_ethernet()
        } else {
            NetworkProfile::ipoib()
        };
        let params = ClusterParams {
            stat_engines,
            // 0 draws "no shared pool".
            shared_pool: (pool > 0).then_some(pool),
            ..ClusterParams::new(hosts, network)
        };
        let out = simulate_cluster(&trace, &params);

        let capacity: f64 = params.hosts.iter().map(|h| h.cores as f64 * h.core_rate()).sum();
        for bound in [
            out.sim_work_s / capacity,
            out.align_busy_s,
            out.stat_busy_s / stat_engines as f64,
        ] {
            // The relative 1e-12 absorbs the rounding of summed service
            // times.
            prop_assert!(
                out.makespan_s >= bound * (1.0 - 1e-12),
                "makespan {} below a lower bound {bound}: {out:?}",
                out.makespan_s
            );
        }
        prop_assert_eq!(out.messages, instances * quanta as u64);
        prop_assert_eq!(out.cuts, samples);
    }
}
